//! Gateway clients: a thin blocking connection wrapper plus the
//! closed/open-loop load generators used by the loopback tests and the
//! `netserve_throughput` bench.

use crate::reactor::is_would_block;
use crate::wire::{
    encode_hub_data_into, encode_msg_into, FrameDecoder, Msg, Role, VerdictMsg, WireError,
};
use reads_blm::hubs::{ChainFrame, MultiChainSource};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Whether an I/O error from [`GatewayClient::recv`] was a *mid-message*
/// connection cut (the typed [`WireError::Truncated`] travels as the error
/// source). A clean close — EOF on a message boundary — returns `false`:
/// reconnect logic treats the first as an outage to resume through and the
/// second as an orderly goodbye.
#[must_use]
pub fn was_truncated(e: &std::io::Error) -> bool {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<WireError>())
        .is_some_and(|w| *w == WireError::Truncated)
}

/// A blocking client connection to a [`HubGateway`](crate::HubGateway).
///
/// Connecting immediately sends the role handshake; after that the
/// connection is a plain message pipe — [`GatewayClient::send`] writes one
/// wire frame, [`GatewayClient::recv`] blocks (up to a timeout) for the
/// next message from the gateway.
#[derive(Debug)]
pub struct GatewayClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Outgoing bytes of one send, reused so a send allocates nothing once
    /// it has grown to a tick's burst.
    out: Vec<u8>,
}

impl GatewayClient {
    /// Connects and performs the `Hello` handshake for `role`.
    ///
    /// # Errors
    /// Propagates connect/configure/write failures.
    pub fn connect(addr: impl ToSocketAddrs, role: Role) -> std::io::Result<Self> {
        let mut client = Self::connect_raw(addr)?;
        client.send(&Msg::Hello { role })?;
        Ok(client)
    }

    /// Connects *without* sending any handshake. The resilient client uses
    /// this to open the socket and then speak [`Msg::Resume`] itself.
    ///
    /// # Errors
    /// Propagates connect/configure failures.
    pub fn connect_raw(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
        })
    }

    /// Sends one message.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn send(&mut self, msg: &Msg) -> std::io::Result<()> {
        self.out.clear();
        encode_msg_into(msg, &mut self.out);
        self.stream.write_all(&self.out)
    }

    /// Sends every hub packet of one chain frame (seven `HubData`
    /// messages, exactly what the seven independent hubs would emit —
    /// coalesced into one socket write, as a NIC would burst them).
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn send_frame(&mut self, frame: &ChainFrame) -> std::io::Result<()> {
        self.out.clear();
        for packet in &frame.packets {
            encode_hub_data_into(frame.chain, packet, &mut self.out);
        }
        self.stream.write_all(&self.out)
    }

    /// Receives the next message, waiting at most `timeout`. Returns
    /// `Ok(None)` when the timeout elapses without a complete message.
    /// Malformed frames from the gateway are a hard error here: the server
    /// is ours, so corruption means a real bug.
    ///
    /// # Errors
    /// Propagates socket read failures; decode failures surface as
    /// [`std::io::ErrorKind::InvalidData`]; a closed peer as
    /// [`std::io::ErrorKind::UnexpectedEof`] — with
    /// [`WireError::Truncated`] as the typed error source when the cut
    /// landed mid-message (see [`was_truncated`]).
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Msg>> {
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 8 * 1024];
        loop {
            match self.decoder.next_msg() {
                Ok(Some(msg)) => return Ok(Some(msg)),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF with a partial wire frame buffered is a
                    // mid-message cut — typed so reconnect logic can tell
                    // it from a clean close on a message boundary.
                    return Err(if self.decoder.buffered() > 0 {
                        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, WireError::Truncated)
                    } else {
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "gateway closed the connection",
                        )
                    });
                }
                Ok(n) => self.decoder.push(&chunk[..n]),
                Err(e) if is_would_block(&e) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    /// Binds this session to a registry tenant and waits for the
    /// gateway's [`Msg::TenantInfo`] answer — which names the tenant the
    /// session is *actually* bound to (an unknown tenant is not rebound;
    /// the reply then describes the binding the session kept). Verdicts
    /// arriving while waiting are discarded, so select before subscribing
    /// to a stream you care about.
    ///
    /// # Errors
    /// Propagates [`GatewayClient::recv`] failures; a timeout without an
    /// answer surfaces as [`std::io::ErrorKind::TimedOut`].
    pub fn select_tenant(&mut self, tenant: u32, timeout: Duration) -> std::io::Result<Msg> {
        self.send(&Msg::TenantSelect { tenant })?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no TenantInfo answer",
                ));
            }
            if let Some(info @ Msg::TenantInfo { .. }) = self.recv(deadline - now)? {
                return Ok(info);
            }
        }
    }

    /// Receives messages until a verdict arrives or `timeout` elapses,
    /// discarding acks along the way (subscriber convenience).
    ///
    /// # Errors
    /// Propagates [`GatewayClient::recv`] failures.
    pub fn recv_verdict(&mut self, timeout: Duration) -> std::io::Result<Option<VerdictMsg>> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            match self.recv(deadline - now)? {
                Some(Msg::Verdict(v)) => return Ok(Some(v)),
                Some(_) => {}
                None => return Ok(None),
            }
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Independent hub chains to synthesize.
    pub chains: usize,
    /// 3 ms ticks to send (each tick is one frame per chain).
    pub ticks: usize,
    /// Seed for the synthetic beam-loss source.
    pub seed: u64,
    /// Closed-loop window: maximum unacked frames in flight. `0` means
    /// open-loop (fire-and-forget, no ack pacing).
    pub window: usize,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            chains: 8,
            ticks: 125,
            seed: 3,
            window: 256,
        }
    }
}

/// What the load generator observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Complete chain frames pushed (7 hub packets each).
    pub frames_sent: u64,
    /// Frame acks received back.
    pub acks_received: u64,
    /// Wall-clock duration of the send loop (excludes the final ack
    /// drain).
    pub send_wall: Duration,
}

/// Drives a gateway with synthetic multi-chain traffic over one producer
/// connection. With `window > 0` the loop is **closed**: it never lets
/// more than `window` unacked frames ride, so a slow gateway throttles the
/// generator instead of overflowing it. With `window == 0` it is **open**:
/// frames go out as fast as the socket accepts them.
///
/// # Errors
/// Propagates connect/send failures and malformed gateway replies.
pub fn run_load(addr: impl ToSocketAddrs, cfg: &LoadGenConfig) -> std::io::Result<LoadReport> {
    let mut client = GatewayClient::connect(addr, Role::Producer)?;
    let mut source = MultiChainSource::new(cfg.chains, cfg.seed);
    let mut frames_sent = 0u64;
    let mut acks = 0u64;
    let started = Instant::now();
    for _ in 0..cfg.ticks {
        for frame in source.tick() {
            // Closed loop: at the window, drain acks down to half of it in
            // one burst — ack-per-frame ping-pong would cost a context
            // switch each on a busy host.
            if cfg.window > 0 && frames_sent - acks >= cfg.window as u64 {
                let refill = (cfg.window / 2).max(1) as u64;
                while frames_sent - acks > refill {
                    match client.recv(Duration::from_millis(200))? {
                        Some(Msg::FrameAck { .. }) => acks += 1,
                        Some(_) => {}
                        None => break, // window stuck — keep going, acks may lag
                    }
                }
            }
            client.send_frame(&frame)?;
            frames_sent += 1;
        }
    }
    let send_wall = started.elapsed();
    // Final drain: give stragglers a moment to arrive.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while acks < frames_sent && Instant::now() < drain_deadline {
        match client.recv(Duration::from_millis(50))? {
            Some(Msg::FrameAck { .. }) => acks += 1,
            Some(_) => {}
            None => break,
        }
    }
    Ok(LoadReport {
        frames_sent,
        acks_received: acks,
        send_wall,
    })
}
