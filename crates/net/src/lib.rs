//! `reads-net` — the TCP serving plane in front of the sharded inference
//! engine.
//!
//! The paper's deployed node receives hub packets over Ethernet and
//! answers with de-blending verdicts; everywhere else in this repository
//! that ingress is simulated. This crate makes it real: a versioned,
//! length-prefixed, CRC-checked [`wire`] protocol; a readiness-driven
//! [`gateway`] — `--reactors N` event-loop threads ([`reactor`]:
//! epoll/poll wrapper, nonblocking sockets, vectored writes from a
//! reusable buffer pool, no thread-per-connection anywhere) — that
//! assembles packets into chain frames (tracking sequence gaps, reorders
//! and staleness), drives the
//! [`ShardedEngine`](reads_core::engine::ShardedEngine) through its
//! bounded backpressure queues, and streams verdicts to subscribers under
//! an explicit slow-consumer policy; and a [`client`] side with
//! closed/open-loop load generators.
//!
//! The serving plane is chaos-hardened: gateway-side sessions park and
//! resume across TCP cuts ([`gateway`]), the [`resilient`] client
//! reconnects with backoff + jitter and replays unacked frames, and the
//! seeded [`chaos`] proxy injects resets, partial writes, stalls and byte
//! corruption deterministically so all of it stays testable.
//!
//! Above a single gateway sits the federation tier ([`router`] +
//! [`fleet`]): N gateways each owning a rendezvous-hash slice of chain
//! ids, `Route`/`Redirect` wire messages so any member answers "who owns
//! chain c?", a heartbeat supervisor that declares SIGKILL-equivalent
//! deaths, and gossiped session-watermark digests so a dead member's
//! sessions hand off to survivors — with acked-but-unserved verdicts
//! recomputed bit-identically from producer refeed.
//!
//! Everything is `std`-only — no async runtime, no external networking
//! crates — and every transport anomaly feeds
//! [`NetCounters`](reads_core::resilience::NetCounters), the same health
//! machinery the fault-injection plane reports through.

#![warn(missing_docs)]

pub mod assembler;
pub mod chaos;
pub mod client;
pub mod fleet;
pub mod gateway;
pub mod reactor;
pub mod resilient;
pub mod router;
pub mod shutdown;
pub mod wire;

pub use assembler::{FrameAssembler, Offer};
pub use chaos::{ChaosConfig, ChaosHandle, ChaosProxy, ChaosStats};
pub use client::{run_load, was_truncated, GatewayClient, LoadGenConfig, LoadReport};
pub use fleet::{
    FederationReport, FleetConfig, FleetHandle, FleetProducer, FleetSubscriber, GatewayFleet,
};
pub use gateway::{
    GatewayConfig, GatewayHandle, GatewayReport, HubGateway, SlowConsumerPolicy, MAX_REACTORS,
};
pub use reactor::{
    fd_of, is_would_block, retry_intr, BufPool, Interest, Outbound, Poller, PushError, Ready,
    SendQueue, WakeRx, Waker,
};
pub use resilient::{ResilienceConfig, ResilienceStats, ResilientClient};
pub use router::{FleetLink, FleetMember, FleetState, SessionStub};
pub use shutdown::{ctrl_c_requested, install_ctrl_c, request_shutdown};
pub use wire::{
    crc32, encode_hub_data_into, encode_msg, encode_msg_into, FrameDecoder, Msg, Role, VerdictMsg,
    WireError, MAX_PAYLOAD, PROTOCOL_VERSION, WIRE_MAGIC,
};
