//! The TCP hub gateway: a real serving plane in front of the sharded
//! inference engine.
//!
//! Topology (all `std` threads, no async runtime, no thread-per-connection):
//!
//! ```text
//!  producers ──TCP──▶ ┌────────────────┐ ──events──▶ hub thread ──▶ ShardedEngine
//!                     │ reactor threads│               │  ▲              │
//!  subscribers ◀──TCP─│ (epoll/poll)   │ ◀─rings+wake──┘  └──verdicts────┘
//!                     └────────────────┘
//! ```
//!
//! * **Reactor threads** (`--reactors N`, default 1) own every socket,
//!   nonblocking, registered in a [`Poller`] for read/write interest.
//!   Each connection is a small state machine (handshake → streaming →
//!   draining) feeding the panic-free incremental
//!   [`FrameDecoder`]; well-formed messages
//!   flow to the hub thread over a bounded event channel (TCP
//!   backpressure propagates naturally when the hub falls behind).
//! * The **hub thread** owns the [`FrameAssembler`], the
//!   [`ShardedEngine`], and the [`NetCounters`]: completed chain frames
//!   are priced in simulated time with
//!   [`EthernetModel::frame_ingest_time`] (the *same* model the
//!   in-process pipeline uses — no duplicated bandwidth constants),
//!   submitted to the engine, and acked back to the producer that
//!   completed them. It waits at exactly one point: a thread park at the
//!   bottom of a turn (burst of events → engine results → fan-out →
//!   housekeeping) that found nothing to do. Both inputs ring it with
//!   [`Thread::unpark`] — reactors after every event they hand over (and
//!   after closing their sender at shutdown), engine workers once per
//!   batch after its results are in the result channel
//!   ([`ShardedEngine::ring_on_results`]) — and the token is sticky, so
//!   no ring is lost and no timer sits between a frame and its verdict;
//!   the park's timeout only paces idle housekeeping (fleet heartbeat,
//!   session expiry, gossip, externally stored flags).
//! * Verdicts stream back through a bounded per-connection
//!   [`Outbound`] ring drained by the owning reactor with vectored
//!   writes — fan-out is *enqueue + write-interest*, the payload encoded
//!   once and shared as `Arc<[u8]>` across every subscriber (and every
//!   replay ring). A full ring invokes the explicit slow-consumer
//!   policy: [`SlowConsumerPolicy::DropNewest`] sheds the verdict and
//!   counts it; [`SlowConsumerPolicy::Disconnect`] drops the subscriber
//!   (and trips the network health ladder — an operator must notice).
//! * **Graceful shutdown** ([`GatewayHandle::shutdown`], a wire-level
//!   [`Msg::Shutdown`], or an external flag such as ctrl-c) stops
//!   accepts and reads, drains every in-flight event, finishes the
//!   engine, flushes remaining verdicts through the reactors' draining
//!   phase, joins every thread, and returns a [`GatewayReport`] — no
//!   accepted-and-acked frame is ever lost.
//! * **Session resumption**: every `Hello` opens a server-side session
//!   and answers [`Msg::Welcome`] with its id. When a connection dies the
//!   session *parks* for [`GatewayConfig::session_resume_window`]; a
//!   client reconnecting with [`Msg::Resume`] rebinds it, gets verdicts
//!   it never saw replayed from a bounded per-session ring, and replayed
//!   producer frames behind the assembler watermark are re-acked exactly
//!   once per connection — so a resumed stream is idempotent and its
//!   verdicts stay bit-identical to an uninterrupted run.

use crate::assembler::{FrameAssembler, Offer};
use crate::reactor::{
    fd_of, is_would_block, retry_intr, BufPool, Interest, Outbound, Poller, PushError, Ready,
    WakeRx, Waker,
};
use crate::router::{FleetLink, SessionStub};
use crate::wire::{encode_msg, encode_msg_into, FrameDecoder, Msg, Role, VerdictMsg, WireError};
use reads_blm::hubs::HubPacket;
use reads_core::adapt::AdaptObserver;
use reads_core::console::{AdaptConsoleLine, OperatorConsole, TenantConsoleLine};
use reads_core::engine::{FleetReport, FrameResult, ShardedEngine};
use reads_core::resilience::NetCounters;
use reads_core::system::TRIP_THRESHOLD;
use reads_sim::SimDuration;
use reads_soc::eth::EthernetModel;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// What to do when a subscriber's outbound queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowConsumerPolicy {
    /// Drop the verdict for that subscriber and count it.
    DropNewest,
    /// Disconnect the subscriber (trips network health).
    Disconnect,
}

/// Gateway sizing and policy.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Outbound queue depth per connection (verdicts / acks), in
    /// messages.
    pub outbound_queue: usize,
    /// Behaviour on a full subscriber queue.
    pub slow_consumer: SlowConsumerPolicy,
    /// Pending-sequence window per chain in the assembler.
    pub assembly_window: usize,
    /// Whether to ack each accepted frame back to its producer.
    pub ack_frames: bool,
    /// Maximum live sessions (attached + parked). At the cap the oldest
    /// parked session is evicted; when every session is attached, new
    /// connections are rejected and counted.
    pub max_sessions: usize,
    /// How long a disconnected session stays parked and resumable.
    pub session_resume_window: Duration,
    /// Verdicts remembered per subscriber session for replay on resume.
    /// Overflow while parked sheds the oldest verdict and counts it
    /// ([`NetCounters::resume_overflow`]) — the resumed stream then has a
    /// gap the client can see.
    pub resume_buffer: usize,
    /// Reactor (event-loop) threads owning the sockets. Clamped to
    /// `1..=`[`MAX_REACTORS`]; one reactor drives tens of thousands of
    /// idle-ish sessions, more spread the read/write work per core.
    pub reactors: usize,
    /// Simulated-time pricing of hub-frame ingest. **Single source of
    /// truth**: the gateway never re-derives bandwidth or stack-overhead
    /// constants from this model — it calls
    /// [`EthernetModel::frame_ingest_time`] exactly like the in-process
    /// pipeline does.
    pub eth: EthernetModel,
    /// Fleet membership (`None` = standalone gateway, the PR 5 behaviour).
    /// A fleet member redirects hub packets for chains it does not own,
    /// answers [`Msg::Route`] queries, heartbeats into the shared fleet
    /// state, gossips its session digest every
    /// [`FleetLink::gossip_interval`], and adopts sessions orphaned by a
    /// dead peer on `Resume`.
    pub fleet: Option<FleetLink>,
    /// Read-only handle onto an online-adaptation loop running next to
    /// this gateway's engine (`None` = no adaptation). At shutdown the
    /// loop's counters fold into [`NetCounters`] and its state becomes
    /// the console's `adapt` line, so fleet roll-ups see retrains,
    /// promotions and rollbacks without double-counting.
    pub adapt: Option<AdaptObserver>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            outbound_queue: 256,
            slow_consumer: SlowConsumerPolicy::DropNewest,
            assembly_window: 64,
            ack_frames: true,
            max_sessions: 1024,
            session_resume_window: Duration::from_secs(30),
            resume_buffer: 1024,
            reactors: 1,
            eth: EthernetModel::default(),
            fleet: None,
            adapt: None,
        }
    }
}

/// Everything the gateway knows at shutdown.
#[derive(Debug)]
pub struct GatewayReport {
    /// The inference engine's fleet report (per-shard stats + health).
    pub fleet: FleetReport,
    /// Transport counters.
    pub net: NetCounters,
    /// Verdict messages actually queued to subscribers.
    pub verdicts_sent: u64,
    /// Frame acks queued to producers.
    pub acks_sent: u64,
    /// Simulated ingest time of every assembled frame, priced by
    /// [`EthernetModel::frame_ingest_time`].
    pub sim_ingest: SimDuration,
    /// Rendered operator console (latency, trips, shard + network health
    /// lines); empty when no frame produced a verdict.
    pub console: String,
}

/// Upper bound on [`GatewayConfig::reactors`] — beyond this the hub
/// thread, not socket I/O, is the bottleneck.
pub const MAX_REACTORS: usize = 64;

const READ_CHUNK: usize = 64 * 1024;
/// Idle housekeeping period of the hub thread: how long it parks when a
/// turn found neither an event nor a result. Nothing on the frame →
/// verdict path waits for it to expire — reactors and engine workers
/// unpark the hub — it only paces what no doorbell announces: the fleet
/// heartbeat, session expiry, gossip, and externally stored
/// shutdown/kill flags.
const HUB_IDLE: Duration = Duration::from_millis(2);
/// Events handled per hub turn before it looks at engine results again.
const EVENT_BURST: usize = 256;
const EVENT_QUEUE: usize = 64 * 1024;
/// Idle park time in the poller — bounds how late a reactor notices the
/// shutdown/kill flags when nobody wakes it explicitly.
const REACTOR_PARK: Duration = Duration::from_millis(25);
/// Accepts per listener wakeup before yielding to other fds.
const ACCEPT_BURST: usize = 512;
/// Backoff after a non-would-block accept error (EMFILE storm): the
/// listener stays level-triggered readable, so without a pause the
/// reactor would spin at 100% while the fd table is exhausted.
const ACCEPT_ERR_BACKOFF: Duration = Duration::from_millis(5);
/// Bytes read from one connection per wakeup before yielding (fairness —
/// a firehose producer must not starve 50k subscribers on the same
/// reactor).
const READ_FAIR_BUDGET: usize = 4 * READ_CHUNK;
/// How long the draining phase keeps flushing at shutdown before
/// severing what remains (was the writer threads' write timeout).
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Parked-session expiry is a full scan; at storm scale it cannot run
/// on every hub turn.
const EXPIRE_EVERY: Duration = Duration::from_millis(250);

const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

enum Event {
    Attach {
        conn: u64,
        out: Arc<Outbound>,
        reactor: usize,
    },
    Hello {
        conn: u64,
        role: Role,
    },
    Resume {
        conn: u64,
        session_id: u64,
        role: Role,
        acked: Vec<(u32, u32)>,
    },
    Packet {
        conn: u64,
        chain: u32,
        packet: reads_blm::hubs::HubPacket,
    },
    Route {
        conn: u64,
        chain: u32,
    },
    TenantSelect {
        conn: u64,
        tenant: u32,
    },
    DecodeErr {
        conn: u64,
        fatal: bool,
    },
    ShutdownRequested,
    Closed {
        conn: u64,
    },
    /// Several events from one socket read, delivered in one channel
    /// wakeup (never nested).
    Batch(Vec<Event>),
}

/// A reactor's end of the event channel. The hub thread does not block in
/// the channel — it parks — so every hand-over rings it: after a send,
/// and after the sender is dropped at shutdown, so the `Disconnected`
/// that ends the hub's event loop is noticed as promptly as an event.
struct EventTx {
    tx: SyncSender<Event>,
    hub: Thread,
}

impl EventTx {
    /// Queues `ev` (blocking while the queue is full — that is the ingest
    /// backpressure) and wakes the hub. `Err` means the hub is gone.
    fn send(&self, ev: Event) -> Result<(), mpsc::SendError<Event>> {
        self.tx.send(ev)?;
        self.hub.unpark();
        Ok(())
    }

    /// Drops the sender, *then* wakes the hub: it must find the channel
    /// disconnected when it looks.
    fn close(self) {
        drop(self.tx);
        self.hub.unpark();
    }
}

/// Hub-side view of a connection: where its socket lives (which
/// reactor) and how to enqueue bytes to it.
struct ConnState {
    out: Arc<Outbound>,
    reactor: usize,
    role: Role,
    /// Frames re-acked on this connection (replay dedupe: a frame
    /// replayed after a resume is acked at most once more, no matter how
    /// many of its seven hub packets land behind the watermark).
    reacked: HashSet<(u32, u32)>,
}

/// Server-side session: survives its TCP connection so a reconnecting
/// client can resume exactly where it left off.
struct Session {
    role: Role,
    /// Registry tenant this session is bound to. Starts at the default
    /// tenant (`0`), so sessions that never send [`Msg::TenantSelect`]
    /// see the single-model protocol unchanged; survives parking, so a
    /// resumed session keeps its tenant.
    tenant: u32,
    /// Attached connection, `None` while parked.
    conn: Option<u64>,
    /// When the session parked (connection died); governs expiry.
    parked_at: Option<Instant>,
    /// Recent verdicts for replay on resume: `(chain, sequence, bytes)`.
    /// The bytes are the *same* `Arc` the fan-out queued — a verdict
    /// ringed by 50k sessions is one allocation, not 50k.
    replay: VecDeque<(u32, u32, Arc<[u8]>)>,
    /// Highest verdict sequence ringed-or-sent per chain — the watermark
    /// this session gossips to fleet peers (subscribers only).
    delivered_high: HashMap<u32, u32>,
    /// Fan-out floor per chain for sessions adopted from a dead fleet
    /// peer: verdicts at or below the floor were provably delivered by
    /// the previous gateway (the client said so in its `Resume`), so the
    /// post-handoff re-run must not deliver them again. Empty for
    /// home-grown sessions.
    delivered_floor: HashMap<u32, u32>,
}

impl Session {
    fn fresh(role: Role, conn: u64) -> Self {
        Self {
            role,
            tenant: 0,
            conn: Some(conn),
            parked_at: None,
            replay: VecDeque::new(),
            delivered_high: HashMap::new(),
            delivered_floor: HashMap::new(),
        }
    }
}

/// Hub → reactor control messages. Paired with a [`Waker`] nudge so a
/// parked reactor handles them promptly.
enum ReactorCmd {
    /// Take ownership of a freshly accepted socket (cross-reactor
    /// handoff from the accepting reactor).
    Adopt {
        conn: u64,
        stream: TcpStream,
        out: Arc<Outbound>,
    },
    /// Sever one connection now (hub-initiated: slow-consumer
    /// disconnect, zombie steal, session reject, fatal protocol error).
    Close { conn: u64 },
    /// Graceful exit: flush every ring (bounded by [`DRAIN_DEADLINE`]),
    /// then close sockets and return.
    DrainAllThenExit,
    /// SIGKILL-equivalent exit: sever everything unflushed and return.
    SeverAllThenExit,
}

/// The hub-visible half of one reactor: its command inbox, its dirty
/// list (connections owing a flush), and its waker.
struct ReactorShared {
    dirty: Mutex<Vec<u64>>,
    waker: Waker,
}

#[derive(Clone)]
struct ReactorPort {
    cmd_tx: Sender<ReactorCmd>,
    shared: Arc<ReactorShared>,
}

impl ReactorPort {
    /// Tells the reactor that `conn` has newly queued outbound bytes.
    /// Callers gate on [`Outbound::mark_dirty`], so fan-out to 50k
    /// connections wakes each reactor once, not 50k times.
    fn notify_dirty(&self, conn: u64) {
        self.shared.dirty.lock().expect("dirty lock").push(conn);
        self.shared.waker.wake();
    }

    fn send(&self, cmd: ReactorCmd) {
        let _ = self.cmd_tx.send(cmd);
        self.shared.waker.wake();
    }
}

/// Connection registry + verdict fan-out + operational console: everything
/// the hub needs that is *not* the engine, so the shutdown path can keep
/// broadcasting after [`ShardedEngine::finish`] consumed the engine.
struct Switchboard {
    conns: HashMap<u64, ConnState>,
    /// Sessions by id — the unit of resumption.
    sessions: HashMap<u64, Session>,
    /// Attached connection → session id.
    conn_sessions: HashMap<u64, u64>,
    /// Accepted-and-acked frame sequences per chain (bounded), so a
    /// replayed frame behind the assembler watermark can be told apart
    /// from one that was evicted without ever completing.
    accepted: HashMap<u32, BTreeSet<u32>>,
    ports: Vec<ReactorPort>,
    next_session: u64,
    counters: NetCounters,
    console: OperatorConsole,
    observed: u64,
    verdicts_sent: u64,
    acks_sent: u64,
    /// Encode buffer of [`Switchboard::fan_out`], reused across verdicts.
    verdict_buf: Vec<u8>,
}

/// Accepted-frame memory per chain. Large enough that a client replaying
/// a bounded unacked window can always be re-acked; old sequences age out
/// from the bottom.
const ACCEPTED_WINDOW: usize = 4096;
/// Re-ack dedupe entries kept per connection before the set resets.
const REACK_WINDOW: usize = 8192;

impl Switchboard {
    /// Enqueues a small control message (welcome, ack, redirect) to a
    /// connection and nudges its reactor. Best-effort, like the old
    /// bounded-channel `try_send`: a full or dead ring drops the message.
    fn send_small(&mut self, conn: u64, bytes: &[u8]) -> bool {
        let Some(c) = self.conns.get(&conn) else {
            return false;
        };
        if c.out.push_small(bytes).is_err() {
            return false;
        }
        if c.out.mark_dirty() {
            self.ports[c.reactor].notify_dirty(conn);
        }
        true
    }

    /// Severs a connection: marks its ring closed (pushes fail from now
    /// on) and tells the owning reactor to shut the socket down. Used for
    /// fatal protocol violations, peer hangups and slow-consumer
    /// disconnects.
    fn drop_conn(&mut self, conn: u64) {
        if let Some(c) = self.conns.remove(&conn) {
            c.out.mark_closed();
            self.ports[c.reactor].send(ReactorCmd::Close { conn });
        }
    }

    /// Parks the connection's session (resumable until the window
    /// expires), then severs the connection.
    fn park_conn(&mut self, conn: u64) {
        if let Some(sid) = self.conn_sessions.remove(&conn) {
            if let Some(s) = self.sessions.get_mut(&sid) {
                if s.conn == Some(conn) {
                    s.conn = None;
                    s.parked_at = Some(Instant::now());
                }
            }
        }
        self.drop_conn(conn);
    }

    /// Drops parked sessions whose resume window has expired.
    fn expire_sessions(&mut self, window: Duration) {
        self.sessions
            .retain(|_, s| s.parked_at.is_none_or(|t| t.elapsed() <= window));
    }

    /// Makes room for one more session. At the cap the oldest parked
    /// session is evicted; with every session attached there is no room.
    fn make_room(&mut self, max_sessions: usize) -> bool {
        if self.sessions.len() < max_sessions {
            return true;
        }
        let oldest = self
            .sessions
            .iter()
            .filter_map(|(&sid, s)| s.parked_at.map(|t| (t, sid)))
            .min()
            .map(|(_, sid)| sid);
        if let Some(sid) = oldest {
            self.sessions.remove(&sid);
        }
        self.sessions.len() < max_sessions
    }

    /// Opens a fresh session for `conn` and answers `Welcome`. At
    /// capacity the connection is rejected (dropped + counted) — the
    /// client sees EOF before any `Welcome`.
    fn bind_fresh_session(&mut self, conn: u64, role: Role, max_sessions: usize) {
        if !self.conns.contains_key(&conn) {
            return;
        }
        if !self.make_room(max_sessions) {
            self.counters.session_rejects += 1;
            self.drop_conn(conn);
            return;
        }
        self.next_session += 1;
        let sid = self.next_session;
        self.sessions.insert(sid, Session::fresh(role, conn));
        self.conn_sessions.insert(conn, sid);
        self.conns.get_mut(&conn).expect("checked above").role = role;
        let welcome = encode_msg(&Msg::Welcome {
            session_id: sid,
            resumed: false,
        });
        let _ = self.send_small(conn, &welcome);
    }

    /// Handles a `Resume`: rebinds the session when it is known, the role
    /// matches, and the park window has not expired — replaying to a
    /// subscriber every ringed verdict above the client's acked
    /// watermarks. Anything else falls back to a fresh session (counted),
    /// and the client learns from `Welcome { resumed: false }` that its
    /// history is gone.
    fn resume_session(
        &mut self,
        conn: u64,
        sid: u64,
        role: Role,
        acked: &[(u32, u32)],
        cfg: &GatewayConfig,
    ) {
        let resumable = self.sessions.get(&sid).is_some_and(|s| {
            s.role == role
                && s.parked_at
                    .is_none_or(|t| t.elapsed() <= cfg.session_resume_window)
        });
        if !resumable {
            // Fleet handoff: a session this gateway has never parked may
            // be orphaned by a dead peer — the gossip board decides.
            if self.try_import_session(conn, sid, role, acked, cfg) {
                return;
            }
            self.counters.resume_rejects += 1;
            self.bind_fresh_session(conn, role, cfg.max_sessions);
            return;
        }
        // The client may have reconnected before the old socket's death
        // was noticed: steal the session from the zombie connection.
        if let Some(old) = self.sessions.get(&sid).and_then(|s| s.conn) {
            if old != conn {
                self.conn_sessions.remove(&old);
                self.drop_conn(old);
            }
        }
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        c.role = role;
        let session = self.sessions.get_mut(&sid).expect("checked above");
        session.conn = Some(conn);
        session.parked_at = None;
        self.conn_sessions.insert(conn, sid);
        self.counters.resumes += 1;
        let welcome = encode_msg(&Msg::Welcome {
            session_id: sid,
            resumed: true,
        });
        let _ = c.out.push_small(&welcome);
        let mut replayed = 0u64;
        if role == Role::Subscriber {
            let watermark: HashMap<u32, u32> = acked.iter().copied().collect();
            for (_, _, bytes) in session
                .replay
                .iter()
                .filter(|(chain, seq, _)| watermark.get(chain).is_none_or(|&high| *seq > high))
            {
                if c.out.push_shared(Arc::clone(bytes)).is_ok() {
                    replayed += 1;
                }
            }
        }
        if c.out.mark_dirty() {
            self.ports[c.reactor].notify_dirty(conn);
        }
        self.counters.replayed_verdicts += replayed;
        self.verdicts_sent += replayed;
    }

    /// Adopts a session orphaned by a dead fleet peer: the gossip board
    /// claims it, the claimant is dead, nobody alive claims it, and the
    /// roles match. The adopted session starts with an empty replay ring
    /// (the dead gateway's ring died with it); the client's own `Resume`
    /// watermarks become the fan-out floor, so the producer-side re-run
    /// delivers exactly the verdicts the client never saw. Returns `false`
    /// when this is not a handoff (caller falls back to a fresh session).
    fn try_import_session(
        &mut self,
        conn: u64,
        sid: u64,
        role: Role,
        acked: &[(u32, u32)],
        cfg: &GatewayConfig,
    ) -> bool {
        let Some(link) = &cfg.fleet else {
            return false;
        };
        if self.sessions.contains_key(&sid) || !self.conns.contains_key(&conn) {
            return false;
        }
        let claims = link.state.digest_claims(sid);
        // A claim by an *alive* member means the session lives elsewhere:
        // this is a misrouted resume, not a handoff.
        if claims.is_empty() || claims.iter().any(|(gw, _)| link.state.is_alive(*gw)) {
            return false;
        }
        let (dead_gw, stub) = claims.into_iter().next().expect("checked non-empty");
        if stub.role != role || !self.make_room(cfg.max_sessions) {
            return false;
        }
        link.state.retract_claim(dead_gw, sid);
        let mut session = Session::fresh(role, conn);
        session.delivered_high = stub.watermarks.iter().copied().collect();
        session.delivered_floor = acked.iter().copied().collect();
        self.sessions.insert(sid, session);
        self.conn_sessions.insert(conn, sid);
        self.counters.handoffs += 1;
        self.counters.resumes += 1;
        self.conns.get_mut(&conn).expect("checked above").role = role;
        let welcome = encode_msg(&Msg::Welcome {
            session_id: sid,
            resumed: true,
        });
        let _ = self.send_small(conn, &welcome);
        true
    }

    /// This gateway's gossiped session digest: every live session's role
    /// plus (for subscribers) its delivered-verdict watermarks.
    fn session_digest(&self) -> HashMap<u64, SessionStub> {
        self.sessions
            .iter()
            .map(|(&sid, s)| {
                (
                    sid,
                    SessionStub {
                        role: s.role,
                        watermarks: if s.role == Role::Subscriber {
                            s.delivered_high.iter().map(|(&c, &h)| (c, h)).collect()
                        } else {
                            Vec::new()
                        },
                    },
                )
            })
            .collect()
    }

    /// Tenant the connection's session is bound to (default tenant when
    /// the connection has no session yet — pre-handshake producers).
    fn tenant_of(&self, conn: u64) -> u32 {
        self.conn_sessions
            .get(&conn)
            .and_then(|sid| self.sessions.get(sid))
            .map_or(0, |s| s.tenant)
    }

    /// Remembers an accepted-and-acked frame so its replay can be
    /// re-acked.
    fn note_accepted(&mut self, chain: u32, sequence: u32) {
        let set = self.accepted.entry(chain).or_default();
        set.insert(sequence);
        while set.len() > ACCEPTED_WINDOW {
            set.pop_first();
        }
    }

    /// Re-acks a replayed frame that fell behind the assembler watermark
    /// — exactly once per connection, and only when the frame really was
    /// accepted (an evicted-incomplete frame stays unacked: that loss is
    /// visible to the client, as it must be).
    fn maybe_reack(&mut self, conn: u64, chain: u32, sequence: u32, ack_frames: bool) {
        if !ack_frames
            || !self
                .accepted
                .get(&chain)
                .is_some_and(|s| s.contains(&sequence))
        {
            return;
        }
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.reacked.len() > REACK_WINDOW {
            c.reacked.clear();
        }
        if !c.reacked.insert((chain, sequence)) {
            return;
        }
        let ack = encode_msg(&Msg::FrameAck { chain, sequence });
        if self.send_small(conn, &ack) {
            self.acks_sent += 1;
            self.counters.replayed_frames += 1;
        }
    }

    /// Sends every result to every subscriber session under the
    /// slow-consumer policy, rings it for resume replay, and feeds the
    /// console. The verdict is encoded once and the same `Arc<[u8]>` is
    /// queued everywhere — fan-out cost is a ring push + refcount, and
    /// each reactor is woken at most once per burst. A parked session
    /// accumulates verdicts in its ring; when the ring overflows while
    /// parked, the shed verdict is gone for good and counted.
    fn fan_out(&mut self, results: Vec<FrameResult>, policy: SlowConsumerPolicy, ring: usize) {
        for r in results {
            self.console.observe(&r.verdict, &r.timing);
            self.observed += 1;
            self.verdict_buf.clear();
            let msg = Msg::Verdict(VerdictMsg {
                chain: r.chain,
                verdict: r.verdict,
            });
            encode_msg_into(&msg, &mut self.verdict_buf);
            let bytes: Arc<[u8]> = Arc::from(self.verdict_buf.as_slice());
            let mut to_park: Vec<u64> = Vec::new();
            for s in self.sessions.values_mut() {
                if s.role != Role::Subscriber {
                    continue;
                }
                // Tenant isolation: a subscriber receives only the verdict
                // stream of the tenant its session is bound to — shadow
                // candidates never emit, and other tenants' traffic never
                // crosses over.
                if s.tenant != r.tenant {
                    continue;
                }
                // Post-handoff duplicate suppression: the previous gateway
                // already delivered this verdict (the client's `Resume`
                // proved it), so the re-run's copy must not go out again.
                if s.delivered_floor
                    .get(&r.chain)
                    .is_some_and(|&floor| r.sequence <= floor)
                {
                    continue;
                }
                if s.replay.len() >= ring {
                    s.replay.pop_front();
                    if s.conn.is_none() {
                        self.counters.resume_overflow += 1;
                    }
                }
                s.replay
                    .push_back((r.chain, r.sequence, Arc::clone(&bytes)));
                let high = s.delivered_high.entry(r.chain).or_insert(r.sequence);
                *high = (*high).max(r.sequence);
                let Some(id) = s.conn else { continue };
                let Some(c) = self.conns.get(&id) else {
                    continue;
                };
                match c.out.push_shared(Arc::clone(&bytes)) {
                    Ok(()) => {
                        self.verdicts_sent += 1;
                        if c.out.mark_dirty() {
                            self.ports[c.reactor].notify_dirty(id);
                        }
                    }
                    Err(PushError::Full) => match policy {
                        SlowConsumerPolicy::DropNewest => {
                            self.counters.slow_consumer_drops += 1;
                        }
                        SlowConsumerPolicy::Disconnect => {
                            self.counters.slow_consumer_disconnects += 1;
                            to_park.push(id);
                        }
                    },
                    Err(PushError::Closed) => to_park.push(id),
                }
            }
            for id in to_park {
                self.park_conn(id);
            }
        }
    }

    fn publish(&self, shared: &Arc<Mutex<(NetCounters, u64)>>) {
        let mut guard = shared.lock().expect("counters lock");
        guard.0 = self.counters;
        guard.1 = self.conns.len() as u64;
    }
}

/// Constructor namespace for the gateway server.
pub struct HubGateway;

/// A running gateway. Always call [`GatewayHandle::shutdown`] — dropping
/// the handle without it leaks the server threads.
pub struct GatewayHandle {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    hub: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    ports: Vec<ReactorPort>,
    report_rx: Receiver<GatewayReport>,
    shared: Arc<Mutex<(NetCounters, u64)>>,
}

impl HubGateway {
    /// Binds `addr` and starts serving the given engine. The engine's drop
    /// policy governs ingest backpressure (`Block` is lossless;
    /// `DropNewest` sheds and counts).
    ///
    /// # Errors
    /// Propagates socket bind/configure failures.
    ///
    /// # Panics
    /// Panics when `cfg.outbound_queue` is zero.
    pub fn start(
        addr: impl ToSocketAddrs,
        cfg: GatewayConfig,
        engine: ShardedEngine,
    ) -> std::io::Result<GatewayHandle> {
        Self::start_on(TcpListener::bind(addr)?, cfg, engine)
    }

    /// Starts serving on an already-bound listener. The fleet layer binds
    /// every member's listener *first* (so the shared
    /// [`FleetState`](crate::router::FleetState) can carry real addresses
    /// even with OS-assigned ports), then hands each listener here.
    ///
    /// # Errors
    /// Propagates socket configure failures; on non-Unix platforms the
    /// reactor cannot be built and this returns
    /// [`std::io::ErrorKind::Unsupported`].
    ///
    /// # Panics
    /// Panics when `cfg.outbound_queue` is zero.
    pub fn start_on(
        listener: TcpListener,
        cfg: GatewayConfig,
        engine: ShardedEngine,
    ) -> std::io::Result<GatewayHandle> {
        assert!(cfg.outbound_queue > 0, "outbound queue must be positive");
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let n_reactors = cfg.reactors.clamp(1, MAX_REACTORS);
        let flag = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Mutex::new((NetCounters::default(), 0u64)));
        let (event_tx, event_rx) = mpsc::sync_channel::<Event>(EVENT_QUEUE);
        let (report_tx, report_rx) = mpsc::sync_channel::<GatewayReport>(1);
        let pool = BufPool::default();

        // Build every reactor fully (all fallible syscalls) before
        // spawning any thread, so a mid-construction failure leaks
        // nothing.
        let mut ports: Vec<ReactorPort> = Vec::with_capacity(n_reactors);
        let mut inboxes = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            let (waker, wake_rx) = Waker::pair()?;
            let (cmd_tx, cmd_rx) = mpsc::channel();
            ports.push(ReactorPort {
                cmd_tx,
                shared: Arc::new(ReactorShared {
                    dirty: Mutex::new(Vec::new()),
                    waker,
                }),
            });
            inboxes.push((cmd_rx, wake_rx));
        }
        let mut polled = Vec::with_capacity(n_reactors);
        let mut listener_slot = Some(listener);
        for (i, (cmd_rx, wake_rx)) in inboxes.into_iter().enumerate() {
            let mut poller = Poller::new()?;
            poller.register(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
            let listener = if i == 0 {
                let l = listener_slot.take().expect("taken once");
                poller.register(fd_of(&l), TOKEN_LISTENER, Interest::READ)?;
                Some(l)
            } else {
                None
            };
            polled.push((poller, wake_rx, cmd_rx, listener));
        }

        // The hub spawns first: every reactor's event sender carries the
        // hub's thread handle, because a send must ring it.
        let outbound_queue = cfg.outbound_queue;
        let hub = {
            let flag = Arc::clone(&flag);
            let kill = Arc::clone(&kill);
            let shared = Arc::clone(&shared);
            let ports = ports.clone();
            thread::Builder::new()
                .name("reads-net-hub".into())
                .spawn(move || {
                    let report =
                        hub_loop(&cfg, local, engine, &event_rx, &flag, &kill, &shared, ports);
                    let _ = report_tx.send(report);
                })
                .expect("spawn hub")
        };

        let reactors: Vec<JoinHandle<()>> = polled
            .into_iter()
            .enumerate()
            .map(|(idx, (poller, wake_rx, cmd_rx, listener))| {
                let r = Reactor {
                    idx,
                    poller,
                    wake_rx,
                    cmd_rx,
                    event_tx: Some(EventTx {
                        tx: event_tx.clone(),
                        hub: hub.thread().clone(),
                    }),
                    conns: HashMap::new(),
                    listener,
                    next_conn: 0,
                    ports: ports.clone(),
                    shared: Arc::clone(&ports[idx].shared),
                    pool: pool.clone(),
                    outbound_queue,
                    flag: Arc::clone(&flag),
                    kill: Arc::clone(&kill),
                    scratch: vec![0u8; READ_CHUNK].into_boxed_slice(),
                };
                thread::Builder::new()
                    .name(format!("reads-net-io{idx}"))
                    .spawn(move || r.run())
                    .expect("spawn reactor")
            })
            .collect();
        // The hub must see Disconnected once every reactor has observed
        // the shutdown flag and closed its sender, so the constructor's
        // copy dies here.
        drop(event_tx);

        Ok(GatewayHandle {
            addr: local,
            flag,
            kill,
            hub: Some(hub),
            reactors,
            ports,
            report_rx,
            shared,
        })
    }
}

impl GatewayHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag — store `true` (e.g. from a ctrl-c handler) to
    /// begin a graceful drain, then call [`GatewayHandle::shutdown`] to
    /// join and collect the report.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }

    /// Whether a shutdown has been requested (externally or by a wire
    /// [`Msg::Shutdown`]).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Snapshot of the transport counters.
    #[must_use]
    pub fn counters(&self) -> NetCounters {
        self.shared.lock().expect("counters lock").0
    }

    /// Live sessions right now.
    #[must_use]
    pub fn sessions(&self) -> u64 {
        self.shared.lock().expect("counters lock").1
    }

    /// Wakes every thread that may be parked, so a freshly stored flag is
    /// acted on now and not at the end of an idle period.
    fn ring_all(&self) {
        for p in &self.ports {
            p.shared.waker.wake();
        }
        if let Some(h) = &self.hub {
            h.thread().unpark();
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight frames through
    /// the engine, flush remaining verdicts through the reactors'
    /// draining phase, join every thread, and return the final report.
    ///
    /// # Panics
    /// Panics if a gateway thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> GatewayReport {
        self.flag.store(true, Ordering::SeqCst);
        self.ring_all();
        let report = self.report_rx.recv().expect("hub report");
        if let Some(h) = self.hub.take() {
            h.join().expect("hub panicked");
        }
        // The hub's finalize already commanded DrainAllThenExit; joining
        // here guarantees every ring flushed (or timed out) and every
        // socket closed before the report is handed back.
        for r in self.reactors.drain(..) {
            r.join().expect("reactor panicked");
        }
        report
    }

    /// SIGKILL-equivalent death: every socket is severed abruptly (no
    /// drain, no flush, no goodbye), in-flight engine results are
    /// discarded, and clients learn only from the TCP reset — exactly what
    /// a killed process looks like from outside. The fleet supervisor
    /// notices the stopped heartbeat; peers adopt the orphaned sessions
    /// from gossip. The threads themselves are still joined (they are this
    /// process's threads — the kill is wire-visible, not UB) and a report
    /// is returned for accounting, but nothing in it reached any client.
    ///
    /// # Panics
    /// Panics if a gateway thread panicked.
    #[must_use]
    pub fn kill(mut self) -> GatewayReport {
        self.kill.store(true, Ordering::SeqCst);
        self.flag.store(true, Ordering::SeqCst);
        self.ring_all();
        let report = self.report_rx.recv().expect("hub report");
        if let Some(h) = self.hub.take() {
            h.join().expect("hub panicked");
        }
        for r in self.reactors.drain(..) {
            r.join().expect("reactor panicked");
        }
        report
    }
}

/// Transport-level connection phases. `Handshake` ends at the first
/// decoded message (the protocol is permissive: a bare producer may lead
/// with `HubData`); `Draining` exists only during graceful exit, when
/// the ring flushes write-driven and then the socket closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Handshake,
    Streaming,
    Draining,
}

/// Reactor-side connection state: the nonblocking socket, its incremental
/// decoder, and the outbound ring it shares with the hub.
struct ConnIo {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Arc<Outbound>,
    interest: Interest,
    phase: Phase,
}

/// One event-loop thread: owns sockets, the accept path (reactor 0), all
/// reads, all vectored writes. Everything protocol-level lives in the
/// hub; everything byte-level lives here.
struct Reactor {
    idx: usize,
    poller: Poller,
    wake_rx: WakeRx,
    cmd_rx: Receiver<ReactorCmd>,
    /// `Some` until the shutdown flag is observed; closing it is what
    /// lets the hub's event loop see Disconnected and finalize.
    event_tx: Option<EventTx>,
    conns: HashMap<u64, ConnIo>,
    /// Present on reactor 0 only — the accepting reactor.
    listener: Option<TcpListener>,
    next_conn: u64,
    ports: Vec<ReactorPort>,
    shared: Arc<ReactorShared>,
    pool: BufPool,
    outbound_queue: usize,
    flag: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    /// Reusable read buffer — one per reactor, not one stack per
    /// connection.
    scratch: Box<[u8]>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Ready> = Vec::with_capacity(1024);
        loop {
            if self.event_tx.is_some() && self.flag.load(Ordering::SeqCst) {
                self.stop_reading();
            }
            let mut exit_sever: Option<bool> = None;
            while let Ok(cmd) = self.cmd_rx.try_recv() {
                match cmd {
                    ReactorCmd::Adopt { conn, stream, out } => self.install(conn, stream, out),
                    ReactorCmd::Close { conn } => self.remove_conn(conn),
                    ReactorCmd::DrainAllThenExit => exit_sever = Some(false),
                    ReactorCmd::SeverAllThenExit => exit_sever = Some(true),
                }
            }
            if self.kill.load(Ordering::SeqCst) {
                exit_sever = Some(true);
            }
            match exit_sever {
                Some(true) => {
                    self.sever_all();
                    return;
                }
                Some(false) => {
                    self.drain_all();
                    return;
                }
                None => {}
            }
            self.flush_dirty();
            events.clear();
            if self.poller.wait(&mut events, Some(REACTOR_PARK)).is_err() {
                // A broken poller cannot be served around; park so a
                // persistent failure cannot spin a core, then re-check
                // flags.
                thread::sleep(REACTOR_PARK);
                continue;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.wake_rx.drain(),
                    TOKEN_LISTENER => self.accept_burst(),
                    conn => self.conn_event(conn, ev),
                }
            }
        }
    }

    /// Shutdown-flag transition: stop accepting, stop reading, and drop
    /// the event sender so the hub can drain to Disconnected. Writes keep
    /// flowing — the drain command arrives later with the final verdicts.
    fn stop_reading(&mut self) {
        if let Some(tx) = self.event_tx.take() {
            tx.close();
        }
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(fd_of(&l));
        }
        for (&conn, io) in &mut self.conns {
            if io.interest.read {
                io.interest.read = false;
                let _ = self.poller.modify(fd_of(&io.stream), conn, io.interest);
            }
        }
    }

    fn accept_burst(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let accepted = match &self.listener {
                Some(l) => retry_intr(|| l.accept()),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    self.next_conn += 1;
                    let conn = self.next_conn;
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let out = Arc::new(Outbound::new(self.outbound_queue, self.pool.clone()));
                    let owner = (conn as usize - 1) % self.ports.len();
                    // Attach must reach the hub before any packet from
                    // this socket; both orders below guarantee it (the
                    // owner cannot read before it receives Adopt, which
                    // is sent after).
                    let Some(tx) = &self.event_tx else { return };
                    if tx
                        .send(Event::Attach {
                            conn,
                            out: Arc::clone(&out),
                            reactor: owner,
                        })
                        .is_err()
                    {
                        return;
                    }
                    if owner == self.idx {
                        self.install(conn, stream, out);
                    } else {
                        self.ports[owner].send(ReactorCmd::Adopt { conn, stream, out });
                    }
                }
                Err(e) if is_would_block(&e) => return,
                Err(_) => {
                    thread::sleep(ACCEPT_ERR_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Registers a socket this reactor now owns. On registration failure
    /// (fd pressure) the connection is closed and reported so the hub's
    /// registry cannot leak an entry.
    fn install(&mut self, conn: u64, stream: TcpStream, out: Arc<Outbound>) {
        let interest = if self.event_tx.is_some() {
            Interest::READ
        } else {
            Interest::NONE
        };
        if self
            .poller
            .register(fd_of(&stream), conn, interest)
            .is_err()
        {
            out.mark_closed();
            let _ = stream.shutdown(Shutdown::Both);
            self.report_closed_event(conn);
            return;
        }
        self.conns.insert(
            conn,
            ConnIo {
                stream,
                decoder: FrameDecoder::new(),
                out,
                interest,
                phase: Phase::Handshake,
            },
        );
    }

    fn conn_event(&mut self, conn: u64, ev: Ready) {
        if ev.readable && self.event_tx.is_some() {
            self.read_conn(conn);
        }
        if ev.writable {
            self.flush_conn(conn);
        }
        if ev.hangup && self.conns.contains_key(&conn) {
            // ERR/HUP without consumable data: the socket is dead.
            self.peer_gone(conn);
        }
    }

    /// Reads a fairness-bounded burst, decodes it, and ships the decoded
    /// events to the hub in one channel wakeup.
    fn read_conn(&mut self, conn: u64) {
        let Some(io) = self.conns.get_mut(&conn) else {
            return;
        };
        let mut batch: Vec<Event> = Vec::new();
        let mut peer_gone = false;
        let mut fatal = false;
        let mut total = 0usize;
        while total < READ_FAIR_BUDGET {
            match retry_intr(|| io.stream.read(&mut self.scratch)) {
                Ok(0) => {
                    peer_gone = true;
                    break;
                }
                Ok(n) => {
                    total += n;
                    io.decoder.push(&self.scratch[..n]);
                    decode_into(&mut batch, conn, &mut io.decoder, &mut fatal);
                    if fatal {
                        peer_gone = true;
                        break;
                    }
                }
                Err(e) if is_would_block(&e) => break,
                Err(_) => {
                    peer_gone = true;
                    break;
                }
            }
        }
        if io.phase == Phase::Handshake && !batch.is_empty() {
            io.phase = Phase::Streaming;
        }
        if let Some(tx) = &self.event_tx {
            let _ = match batch.len() {
                0 => Ok(()),
                1 => tx.send(batch.pop().expect("len 1")),
                _ => tx.send(Event::Batch(batch)),
            };
        }
        if peer_gone {
            if fatal {
                // The hub learns from DecodeErr{fatal} in the batch and
                // parks the session itself — a Closed event on top would
                // double-count the disconnect.
                self.remove_conn(conn);
            } else {
                self.peer_gone(conn);
            }
        }
    }

    /// Drains a connection's outbound ring; arms or disarms write
    /// interest to match what is left.
    fn flush_conn(&mut self, conn: u64) {
        let Some(io) = self.conns.get_mut(&conn) else {
            return;
        };
        io.out.clear_dirty();
        let want_write = match io.out.flush_into(&mut io.stream) {
            Ok(flushed) => !flushed,
            Err(_) => {
                self.peer_gone(conn);
                return;
            }
        };
        if io.interest.write != want_write {
            io.interest.write = want_write;
            let _ = self.poller.modify(fd_of(&io.stream), conn, io.interest);
        }
    }

    /// Hub-notified flush debts accumulated since the last wakeup.
    fn flush_dirty(&mut self) {
        let dirty: Vec<u64> = {
            let mut d = self.shared.dirty.lock().expect("dirty lock");
            std::mem::take(&mut *d)
        };
        for conn in dirty {
            self.flush_conn(conn);
        }
    }

    /// Peer-initiated death: tell the hub (it parks the session and
    /// counts the disconnect), then tear the socket down.
    fn peer_gone(&mut self, conn: u64) {
        self.report_closed_event(conn);
        self.remove_conn(conn);
    }

    fn report_closed_event(&mut self, conn: u64) {
        if let Some(tx) = &self.event_tx {
            let _ = tx.send(Event::Closed { conn });
        }
    }

    /// Tears a connection down without telling the hub — used when the
    /// hub itself ordered the close, or already knows from a fatal
    /// decode error.
    fn remove_conn(&mut self, conn: u64) {
        if let Some(io) = self.conns.remove(&conn) {
            let _ = self.poller.deregister(fd_of(&io.stream));
            io.out.mark_closed();
            let _ = io.stream.shutdown(Shutdown::Both);
        }
    }

    /// Graceful exit: every connection enters the draining phase — its
    /// ring flushes write-driven, then the socket closes. Bounded by
    /// [`DRAIN_DEADLINE`] so a peer that stopped reading cannot wedge
    /// shutdown (its unflushed ring is severed, exactly like the old
    /// writer threads' write timeout).
    fn drain_all(&mut self) {
        for io in self.conns.values_mut() {
            io.phase = Phase::Draining;
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events: Vec<Ready> = Vec::new();
        while !self.conns.is_empty() && Instant::now() < deadline {
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for conn in ids {
                let done = {
                    let Some(io) = self.conns.get_mut(&conn) else {
                        continue;
                    };
                    // A dead peer (Err) has nothing more to flush.
                    io.out.flush_into(&mut io.stream).unwrap_or(true)
                };
                if done {
                    self.remove_conn(conn);
                }
            }
            if self.conns.is_empty() {
                break;
            }
            events.clear();
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(10)));
        }
        self.sever_all();
    }

    fn sever_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn in ids {
            self.remove_conn(conn);
        }
    }
}

/// Decodes everything buffered, translating wire messages into hub
/// events. Sets `fatal` on an adversarial length field — the one error
/// worth a disconnect: it signals a peer probing the buffer bounds, and
/// resync past it cannot be trusted.
fn decode_into(batch: &mut Vec<Event>, conn: u64, decoder: &mut FrameDecoder, fatal: &mut bool) {
    loop {
        match decoder.next_msg() {
            Ok(Some(msg)) => batch.push(match msg {
                Msg::Hello { role } => Event::Hello { conn, role },
                Msg::HubData { chain, packet } => Event::Packet {
                    conn,
                    chain,
                    packet,
                },
                Msg::Shutdown => Event::ShutdownRequested,
                Msg::Resume {
                    session_id,
                    role,
                    acked,
                } => Event::Resume {
                    conn,
                    session_id,
                    role,
                    acked,
                },
                Msg::Route { chain } => Event::Route { conn, chain },
                Msg::TenantSelect { tenant } => Event::TenantSelect { conn, tenant },
                // Server-to-client kinds arriving at the server are
                // protocol violations, not transport corruption.
                Msg::FrameAck { .. }
                | Msg::Verdict(_)
                | Msg::Welcome { .. }
                | Msg::Redirect { .. }
                | Msg::TenantInfo { .. } => Event::DecodeErr { conn, fatal: false },
            }),
            Ok(None) => return,
            Err(e) => {
                let is_fatal = matches!(e, WireError::Oversized(_));
                batch.push(Event::DecodeErr {
                    conn,
                    fatal: is_fatal,
                });
                if is_fatal {
                    *fatal = true;
                    return;
                }
            }
        }
    }
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn hub_loop(
    cfg: &GatewayConfig,
    local: SocketAddr,
    mut engine: ShardedEngine,
    events: &Receiver<Event>,
    flag: &Arc<AtomicBool>,
    kill: &Arc<AtomicBool>,
    shared: &Arc<Mutex<(NetCounters, u64)>>,
    ports: Vec<ReactorPort>,
) -> GatewayReport {
    let mut board = Switchboard {
        conns: HashMap::new(),
        sessions: HashMap::new(),
        conn_sessions: HashMap::new(),
        accepted: HashMap::new(),
        ports,
        // Fleet members mint session ids in a per-gateway namespace
        // (top bits), so an adopted session can never collide with one
        // minted here.
        next_session: cfg
            .fleet
            .as_ref()
            .map_or(0, |l| (u64::from(l.gateway_id) + 1) << 40),
        counters: NetCounters::default(),
        console: OperatorConsole::new(TRIP_THRESHOLD, 3.0),
        observed: 0,
        verdicts_sent: 0,
        acks_sent: 0,
        verdict_buf: Vec::new(),
    };
    let mut assembler = FrameAssembler::new(cfg.assembly_window);
    let mut sim_ingest = SimDuration::ZERO;

    #[allow(clippy::too_many_arguments)]
    fn handle_event(
        ev: Event,
        cfg: &GatewayConfig,
        local: SocketAddr,
        flag: &AtomicBool,
        board: &mut Switchboard,
        assembler: &mut FrameAssembler,
        engine: &mut ShardedEngine,
        sim_ingest: &mut SimDuration,
    ) {
        match ev {
            Event::Attach { conn, out, reactor } => {
                board.counters.connections += 1;
                board.conns.insert(
                    conn,
                    ConnState {
                        out,
                        reactor,
                        role: Role::Producer,
                        reacked: HashSet::new(),
                    },
                );
            }
            Event::Hello { conn, role } => {
                board.counters.messages += 1;
                board.bind_fresh_session(conn, role, cfg.max_sessions);
            }
            Event::Resume {
                conn,
                session_id,
                role,
                acked,
            } => {
                board.counters.messages += 1;
                board.resume_session(conn, session_id, role, &acked, cfg);
            }
            Event::Route { conn, chain } => {
                board.counters.messages += 1;
                board.counters.redirects += 1;
                let (gateway_id, addr) = match &cfg.fleet {
                    Some(link) => match link.state.owner_of(chain) {
                        Some(owner) => (owner, link.state.addr_of(owner).to_string()),
                        // Whole fleet marked dead (we are evidently not):
                        // answer with ourselves rather than nothing.
                        None => (link.gateway_id, local.to_string()),
                    },
                    None => (0, local.to_string()),
                };
                let redirect = encode_msg(&Msg::Redirect {
                    chain,
                    gateway_id,
                    addr,
                });
                let _ = board.send_small(conn, &redirect);
            }
            Event::Packet {
                conn,
                chain,
                packet,
            } => {
                board.counters.messages += 1;
                // Fleet placement check: a hub packet for a chain owned by
                // a living peer bounces back as a `Redirect` instead of
                // being assembled here — lazy placement discovery, not an
                // error.
                if let Some(link) = &cfg.fleet {
                    if let Some(owner) = link.state.owner_of(chain) {
                        if owner != link.gateway_id {
                            board.counters.redirects += 1;
                            let redirect = encode_msg(&Msg::Redirect {
                                chain,
                                gateway_id: owner,
                                addr: link.state.addr_of(owner).to_string(),
                            });
                            let _ = board.send_small(conn, &redirect);
                            return;
                        }
                    }
                }
                let sequence = packet.sequence;
                match assembler.offer(chain, packet, &mut board.counters) {
                    Offer::Complete(frame) => {
                        // Price the frame's ingest in simulated time with
                        // the canonical Ethernet model — never a local
                        // copy of its constants.
                        let payloads: Vec<usize> =
                            frame.packets.iter().map(HubPacket::encoded_len).collect();
                        *sim_ingest += cfg.eth.frame_ingest_time(&payloads);
                        let sequence = frame.sequence;
                        // Route through the session's tenant; tenant 0
                        // takes the legacy path so a gateway that never
                        // sees a `TenantSelect` behaves bit-identically.
                        let tenant = board.tenant_of(conn);
                        let accepted = if tenant == 0 {
                            engine.submit(frame)
                        } else {
                            engine.submit_for(tenant, frame).unwrap_or(false)
                        };
                        if accepted {
                            board.counters.frames_accepted += 1;
                            if cfg.ack_frames {
                                board.note_accepted(chain, sequence);
                                let ack = encode_msg(&Msg::FrameAck { chain, sequence });
                                if board.send_small(conn, &ack) {
                                    board.acks_sent += 1;
                                }
                            }
                        } else {
                            board.counters.backpressure_drops += 1;
                        }
                    }
                    // A packet behind the watermark is (usually) a frame
                    // replayed after a resume: re-ack it so the client's
                    // replay buffer drains.
                    Offer::Stale => board.maybe_reack(conn, chain, sequence, cfg.ack_frames),
                    Offer::Merged | Offer::Duplicate | Offer::BadHub => {}
                }
            }
            Event::TenantSelect { conn, tenant } => {
                board.counters.messages += 1;
                // Rebind only when the engine actually serves the tenant;
                // an unknown select keeps the current binding and the
                // reply describes what the session is still bound to.
                let bound = if engine.tenant_known(tenant) {
                    board.counters.tenant_selects += 1;
                    if let Some(s) = board
                        .conn_sessions
                        .get(&conn)
                        .copied()
                        .and_then(|sid| board.sessions.get_mut(&sid))
                    {
                        s.tenant = tenant;
                    }
                    tenant
                } else {
                    board.counters.tenant_rejects += 1;
                    board.tenant_of(conn)
                };
                let (live_digest, shadowing) = engine.tenant_info(bound).unwrap_or((0, false));
                let state = match (live_digest, shadowing) {
                    (0, _) => 0,
                    (_, false) => 1,
                    (_, true) => 2,
                };
                let info = encode_msg(&Msg::TenantInfo {
                    tenant: bound,
                    live_digest,
                    state,
                    name: engine.tenant_name(bound).to_string(),
                });
                let _ = board.send_small(conn, &info);
            }
            Event::DecodeErr { conn, fatal } => {
                board.counters.decode_errors += 1;
                if fatal {
                    // The connection cannot be trusted past an adversarial
                    // length field, but its *session* can park: chaos-level
                    // byte corruption hits length fields too, and the
                    // client deserves a resume path.
                    board.park_conn(conn);
                }
            }
            Event::ShutdownRequested => {
                board.counters.messages += 1;
                flag.store(true, Ordering::SeqCst);
            }
            Event::Closed { conn } => {
                // Count the disconnect only while the connection is still
                // registered: one the hub already dropped (slow-consumer
                // disconnect, zombie steal, fatal protocol violation) must
                // not *also* be accounted as a peer-initiated close.
                if board.conns.contains_key(&conn) {
                    board.counters.disconnects += 1;
                    board.park_conn(conn);
                }
            }
            Event::Batch(evs) => {
                for e in evs {
                    handle_event(e, cfg, local, flag, board, assembler, engine, sim_ingest);
                }
            }
        }
    }

    let mut last_gossip = Instant::now();
    let mut last_expiry = Instant::now();
    let mut reactors_woken = false;
    // Engine workers ring this thread once per batch of results.
    engine.ring_on_results(thread::current());
    'turns: loop {
        // SIGKILL-equivalent: stop mid-everything, events still queued.
        if kill.load(Ordering::SeqCst) {
            break;
        }
        if !reactors_woken && flag.load(Ordering::SeqCst) {
            // Externally stored flag (ctrl-c handler, tests) or a wire
            // Shutdown: nudge every reactor so it notices without waiting
            // out its park timeout.
            reactors_woken = true;
            for p in &board.ports {
                p.shared.waker.wake();
            }
        }
        // One turn: a bounded burst of events, then whatever the engine
        // has finished, then housekeeping; the park at the bottom is the
        // only wait.
        let mut busy = false;
        for _ in 0..EVENT_BURST {
            match events.try_recv() {
                Ok(ev) => {
                    busy = true;
                    handle_event(
                        ev,
                        cfg,
                        local,
                        flag,
                        &mut board,
                        &mut assembler,
                        &mut engine,
                        &mut sim_ingest,
                    );
                }
                Err(TryRecvError::Empty) => break,
                // Every reactor has observed the shutdown flag and closed
                // its sender, and the queue is fully drained: finalize.
                Err(TryRecvError::Disconnected) => break 'turns,
            }
        }
        let results = engine.poll_results();
        busy |= !results.is_empty();
        board.fan_out(results, cfg.slow_consumer, cfg.resume_buffer);
        if last_expiry.elapsed() >= EXPIRE_EVERY {
            last_expiry = Instant::now();
            board.expire_sessions(cfg.session_resume_window);
        }
        board.publish(shared);
        if let Some(link) = &cfg.fleet {
            // Liveness is "this loop is turning", not "the process
            // exists" — a wedged hub is as dead as a killed one.
            link.state.beat(link.gateway_id);
            if last_gossip.elapsed() >= link.gossip_interval {
                last_gossip = Instant::now();
                link.state
                    .publish_digest(link.gateway_id, board.session_digest());
            }
        }
        // Park only after a turn that did nothing. The unpark token is
        // sticky: a ring that landed anywhere above makes this return at
        // once, so an event or result can never wait out the period.
        if !busy {
            thread::park_timeout(HUB_IDLE);
        }
    }

    if kill.load(Ordering::SeqCst) {
        // Abrupt death: sever every socket (no drain, no flush — clients
        // see a reset mid-stream), then silently discard whatever the
        // engine still owes. The producer-side acked-frame retention plus
        // the fleet handoff path are what make this survivable.
        for p in &board.ports {
            p.send(ReactorCmd::SeverAllThenExit);
        }
        let (_discarded, fleet) = engine.finish();
        if let Some(obs) = &cfg.adapt {
            let c = obs.counters();
            board.counters.adapt_retrains = c.retrains;
            board.counters.adapt_promoted = c.promoted;
            board.counters.adapt_rolled_back = c.rolled_back;
        }
        board.publish(shared);
        return GatewayReport {
            fleet,
            net: board.counters,
            verdicts_sent: board.verdicts_sent,
            acks_sent: board.acks_sent,
            sim_ingest,
            console: String::new(),
        };
    }

    // Finalize: the engine drains its queues (Block policy loses nothing),
    // remaining verdicts go out, and the reactors enter their draining
    // phase — flush every ring, then close every socket. Placement and
    // tenant names are captured first — `finish` consumes the engine.
    let engine_placement = engine.placement().clone();
    let tenant_names: HashMap<u32, String> = engine_placement
        .keys()
        .map(|t| (*t, engine.tenant_name(*t).to_string()))
        .collect();
    let (remaining, fleet) = engine.finish();
    board.fan_out(remaining, cfg.slow_consumer, cfg.resume_buffer);
    for p in &board.ports {
        p.send(ReactorCmd::DrainAllThenExit);
    }

    if let Some(obs) = &cfg.adapt {
        let c = obs.counters();
        board.counters.adapt_retrains = c.retrains;
        board.counters.adapt_promoted = c.promoted;
        board.counters.adapt_rolled_back = c.rolled_back;
        board.console.observe_adapt(
            cfg.fleet.as_ref().map_or(0, |link| link.gateway_id),
            AdaptConsoleLine {
                counters: c,
                state: obs.state(),
                drift: fleet.drift().status,
            },
        );
    }
    let mut console_render = String::new();
    if board.observed > 0 {
        for s in &fleet.shards {
            board
                .console
                .observe_shard_health(s.shard, s.health, &s.counters, s.processed, s.lost);
            if let Some(m) = s.kernel_mix {
                board.console.observe_kernel_mix(m);
            }
        }
        board.console.observe_net_health(0, &board.counters);
        // Per-tenant serving lines, only when a registry actually serves
        // more than the default tenant — a single-model gateway's console
        // stays byte-identical.
        let multi = fleet
            .shards
            .iter()
            .flat_map(|s| &s.tenants)
            .any(|t| t.tenant != 0);
        if multi {
            for (tenant, shards) in engine_placement.iter() {
                let mut line = TenantConsoleLine {
                    tenant: *tenant,
                    name: tenant_names.get(tenant).cloned().unwrap_or_default(),
                    live_digest: 0,
                    shards: shards
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                    processed: 0,
                    slo_misses: 0,
                    shadow_digest: None,
                    shadow: Default::default(),
                };
                for t in fleet
                    .shards
                    .iter()
                    .flat_map(|s| &s.tenants)
                    .filter(|t| t.tenant == *tenant)
                {
                    line.processed += t.processed;
                    line.slo_misses += t.slo_misses;
                    line.shadow.merge(&t.shadow);
                    if line.live_digest == 0 {
                        line.live_digest = t.live_digest;
                    }
                    if line.shadow_digest.is_none() {
                        line.shadow_digest = t.shadow_digest;
                    }
                }
                board.console.observe_tenant(line);
            }
        }
        console_render = board.console.render();
    }
    board.publish(shared);
    GatewayReport {
        fleet,
        net: board.counters,
        verdicts_sent: board.verdicts_sent,
        acks_sent: board.acks_sent,
        sim_ingest,
        console: console_render,
    }
}
