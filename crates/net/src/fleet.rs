//! Gateway federation: a consistent-hash fleet of [`HubGateway`]s with a
//! supervisor, plus fleet-aware client helpers.
//!
//! [`GatewayFleet::start`] binds every member's listener *first* (so the
//! shared [`FleetState`] carries real addresses even with OS-assigned
//! ports), then starts one [`HubGateway`] per member with a [`FleetLink`]
//! injected — each gateway owns the rendezvous-hash slice of chain ids the
//! shared state assigns it, redirects misrouted hub packets, answers
//! [`Msg::Route`] queries, heartbeats, and
//! gossips its session digest.
//!
//! The **supervisor** is a thread that watches those heartbeats: a counter
//! that stops advancing for `heartbeat_timeout` is a dead gateway —
//! SIGKILL and a wedged hub loop look identical, which is the point. Death
//! marks the member dead in the shared state (bumping the placement
//! epoch, so the dead member's chains rendezvous to their runner-up
//! peers), and records detection latency against any kill the harness
//! logged via [`FleetHandle::kill_gateway`].
//!
//! Recovery is client-driven from there: [`FleetProducer`] re-routes each
//! chain-pinned [`ResilientClient`] to the new owner (refeeding retained
//! acked frames, so the successor's deterministic engine recomputes the
//! dead gateway's unfinished verdicts bit-identically), and
//! [`FleetSubscriber`]'s per-gateway clients fail over to a survivor that
//! imports their session from gossip — per-chain watermarks plus the
//! subscriber's own dedupe make redelivery exactly-once.

use crate::gateway::{GatewayConfig, GatewayHandle, GatewayReport, HubGateway};
use crate::resilient::{ResilienceConfig, ResilienceStats, ResilientClient};
use crate::router::{FleetLink, FleetState};
use crate::wire::{Msg, Role, VerdictMsg};
use reads_blm::hubs::ChainFrame;
use reads_core::console::OperatorConsole;
use reads_core::resilience::NetCounters;
use reads_core::system::TRIP_THRESHOLD;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Fleet sizing and failure-detection policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Member count for [`GatewayFleet::start_local`].
    pub gateways: usize,
    /// Supervisor poll period.
    pub heartbeat_interval: Duration,
    /// A heartbeat counter that does not advance for this long is a dead
    /// gateway. Must comfortably exceed the hub poll period (2 ms) times
    /// the worst event-burst the hub handles between polls.
    pub heartbeat_timeout: Duration,
    /// Session-digest republish period — also the handoff staleness
    /// bound (DESIGN.md §12).
    pub gossip_interval: Duration,
    /// Per-member gateway template ([`GatewayConfig::fleet`] is
    /// overwritten per member). [`GatewayConfig::reactors`] flows through
    /// unchanged: every fleet member runs its own reactor pool, so a
    /// 4-member fleet at `--reactors 2` owns 8 event-loop threads total.
    pub gateway: GatewayConfig,
    /// Chain-id range hint used only for console `chains` labels.
    pub chains_hint: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            gateways: 3,
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(150),
            gossip_interval: Duration::from_millis(25),
            gateway: GatewayConfig::default(),
            chains_hint: 8,
        }
    }
}

/// Everything the fleet knows at shutdown.
#[derive(Debug)]
pub struct FederationReport {
    /// Per-surviving-gateway reports, in member-id order (killed members
    /// reported at kill time and are absent here).
    pub gateways: Vec<(u32, GatewayReport)>,
    /// Member ids killed through [`FleetHandle::kill_gateway`].
    pub killed: Vec<u32>,
    /// Deaths the supervisor detected (heartbeat timeouts).
    pub deaths_detected: u64,
    /// Kill → supervisor-detection latency per logged kill, milliseconds.
    pub detection_ms: Vec<f64>,
    /// Rendered per-gateway console lines
    /// (`gw[i]: chains … | state | sessions | resumes | handoffs | redirects`).
    pub fleet_console: String,
}

/// Kill/detection bookkeeping shared between the harness-facing handle
/// and the supervisor thread.
#[derive(Debug, Default)]
struct DeathClock {
    kill_at: HashMap<u32, Instant>,
    deaths_detected: u64,
    detection_ms: Vec<f64>,
}

/// Handle to a running fleet.
pub struct FleetHandle {
    state: Arc<FleetState>,
    gateways: Vec<Option<GatewayHandle>>,
    killed: Vec<u32>,
    clock: Arc<Mutex<DeathClock>>,
    stop: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
    chains_hint: u32,
}

impl std::fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHandle")
            .field("state", &self.state)
            .field("killed", &self.killed)
            .finish_non_exhaustive()
    }
}

/// Constructor namespace for gateway fleets.
#[derive(Debug)]
pub struct GatewayFleet;

impl GatewayFleet {
    /// Starts a fleet of `cfg.gateways` members on loopback with
    /// OS-assigned ports. `make_engine(i)` builds member `i`'s engine.
    ///
    /// # Errors
    /// Propagates bind/spawn failures.
    pub fn start_local(
        cfg: FleetConfig,
        make_engine: impl FnMut(usize) -> reads_core::engine::ShardedEngine,
    ) -> std::io::Result<FleetHandle> {
        let addrs: Vec<SocketAddr> = vec!["127.0.0.1:0".parse().expect("loopback"); cfg.gateways];
        Self::start(&addrs, cfg, make_engine)
    }

    /// Starts one gateway per address (port 0 = OS-assigned). Listeners
    /// are all bound before any gateway starts so the shared fleet state
    /// carries final addresses from the first heartbeat.
    ///
    /// # Errors
    /// Propagates bind/spawn failures.
    ///
    /// # Panics
    /// Panics on an empty address list.
    pub fn start(
        addrs: &[SocketAddr],
        cfg: FleetConfig,
        mut make_engine: impl FnMut(usize) -> reads_core::engine::ShardedEngine,
    ) -> std::io::Result<FleetHandle> {
        assert!(!addrs.is_empty(), "a fleet needs at least one gateway");
        let listeners: Vec<TcpListener> = addrs
            .iter()
            .map(TcpListener::bind)
            .collect::<std::io::Result<_>>()?;
        let bound: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<_>>()?;
        let state = Arc::new(FleetState::new(&bound));

        let mut gateways = Vec::with_capacity(listeners.len());
        for (i, listener) in listeners.into_iter().enumerate() {
            let mut gw_cfg = cfg.gateway.clone();
            gw_cfg.fleet = Some(FleetLink {
                state: Arc::clone(&state),
                gateway_id: u32::try_from(i).expect("fleet larger than u32"),
                gossip_interval: cfg.gossip_interval,
            });
            gateways.push(Some(HubGateway::start_on(
                listener,
                gw_cfg,
                make_engine(i),
            )?));
        }

        let clock = Arc::new(Mutex::new(DeathClock::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = {
            let state = Arc::clone(&state);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            let interval = cfg.heartbeat_interval;
            let timeout = cfg.heartbeat_timeout;
            thread::Builder::new()
                .name("reads-net-fleet-supervisor".into())
                .spawn(move || supervise(&state, &clock, &stop, interval, timeout))
                .expect("spawn fleet supervisor")
        };

        Ok(FleetHandle {
            state,
            gateways,
            killed: Vec::new(),
            clock,
            stop,
            supervisor: Some(supervisor),
            chains_hint: cfg.chains_hint,
        })
    }
}

/// The supervisor loop: poll heartbeats every `interval`; a member whose
/// counter has not advanced for `timeout` is declared dead.
fn supervise(
    state: &Arc<FleetState>,
    clock: &Arc<Mutex<DeathClock>>,
    stop: &Arc<AtomicBool>,
    interval: Duration,
    timeout: Duration,
) {
    struct Watch {
        last_beat: u64,
        last_advance: Instant,
    }
    let mut watches: Vec<Watch> = state
        .members()
        .iter()
        .map(|m| Watch {
            last_beat: state.heartbeat(m.id),
            last_advance: Instant::now(),
        })
        .collect();
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(interval);
        for m in state.members() {
            if !state.is_alive(m.id) {
                continue;
            }
            let watch = &mut watches[m.id as usize];
            let beat = state.heartbeat(m.id);
            if beat != watch.last_beat {
                watch.last_beat = beat;
                watch.last_advance = Instant::now();
            } else if watch.last_advance.elapsed() >= timeout {
                state.mark_dead(m.id);
                let mut clock = clock.lock().expect("death clock lock");
                clock.deaths_detected += 1;
                if let Some(&killed_at) = clock.kill_at.get(&m.id) {
                    clock
                        .detection_ms
                        .push(killed_at.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
}

impl FleetHandle {
    /// Member listen addresses, in id order (dead members keep their
    /// slot — placement ids never reshuffle).
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.state.members().iter().map(|m| m.addr).collect()
    }

    /// The shared fleet state (placement, liveness, gossip).
    #[must_use]
    pub fn state(&self) -> Arc<FleetState> {
        Arc::clone(&self.state)
    }

    /// Address of `chain`'s current owner, or `None` when the whole
    /// fleet is dead.
    #[must_use]
    pub fn owner_of(&self, chain: u32) -> Option<SocketAddr> {
        self.state.owner_of(chain).map(|id| self.state.addr_of(id))
    }

    /// Transport-counter snapshot of member `id` (zeroes once killed).
    #[must_use]
    pub fn counters(&self, id: u32) -> NetCounters {
        self.gateways
            .get(id as usize)
            .and_then(Option::as_ref)
            .map_or_else(NetCounters::default, GatewayHandle::counters)
    }

    /// Live sessions on member `id` right now (0 once killed).
    #[must_use]
    pub fn sessions(&self, id: u32) -> u64 {
        self.gateways
            .get(id as usize)
            .and_then(Option::as_ref)
            .map_or(0, GatewayHandle::sessions)
    }

    /// SIGKILL-equivalent death of member `id`: sockets severed with no
    /// drain or goodbye, engine results discarded. The kill instant is
    /// logged so the supervisor's eventual heartbeat-timeout verdict
    /// yields a detection-latency sample. The member is *not* marked dead
    /// here — detection is the supervisor's job; until it fires, clients
    /// see refused connects and peers still route to the corpse.
    ///
    /// # Panics
    /// Panics when `id` is out of range or already killed.
    pub fn kill_gateway(&mut self, id: u32) -> GatewayReport {
        let handle = self.gateways[id as usize]
            .take()
            .expect("gateway already killed");
        self.clock
            .lock()
            .expect("death clock lock")
            .kill_at
            .insert(id, Instant::now());
        self.killed.push(id);
        handle.kill()
    }

    /// Stops the supervisor, gracefully shuts down every surviving
    /// gateway, and folds the per-gateway consoles into a fleet report.
    ///
    /// # Panics
    /// Panics if the supervisor or a gateway thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> FederationReport {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(s) = self.supervisor.take() {
            s.join().expect("fleet supervisor panicked");
        }
        let mut console = OperatorConsole::new(TRIP_THRESHOLD, 3.0);
        let mut reports = Vec::new();
        for (i, slot) in self.gateways.iter_mut().enumerate() {
            let Some(handle) = slot.take() else { continue };
            let id = u32::try_from(i).expect("fleet larger than u32");
            let sessions = handle.sessions();
            let report = handle.shutdown();
            console.observe_gateway_health(
                id,
                self.state.chains_label(id, self.chains_hint),
                sessions,
                &report.net,
            );
            reports.push((id, report));
        }
        let clock = self.clock.lock().expect("death clock lock");
        FederationReport {
            gateways: reports,
            killed: self.killed.clone(),
            deaths_detected: clock.deaths_detected,
            detection_ms: clock.detection_ms.clone(),
            fleet_console: console.render_fleet(),
        }
    }
}

/// Inner recv drains per [`FleetSubscriber::poll`] / [`FleetProducer`]
/// ack pump — bounds one call's work per client.
const DRAIN_BURST: usize = 256;

/// A fleet-wide subscriber: one [`ResilientClient`] per gateway (each
/// seeded with the full candidate list, own gateway first, so a death
/// fails over to a survivor that imports the session from gossip), merged
/// behind a `(chain, sequence)` dedupe set — verdicts fan out to every
/// gateway's subscribers *and* failover redelivers, so exactly-once needs
/// the set.
#[derive(Debug)]
pub struct FleetSubscriber {
    clients: Vec<Option<ResilientClient>>,
    seen: HashSet<(u32, u32)>,
    retired: u64,
    duplicates: u64,
}

impl FleetSubscriber {
    /// Connects one subscriber session per gateway address.
    ///
    /// # Errors
    /// Fails when the list is empty or any initial connect fails (the
    /// fleet is expected healthy at subscribe time).
    pub fn connect(addrs: &[SocketAddr], cfg: &ResilienceConfig) -> std::io::Result<Self> {
        if addrs.is_empty() {
            return Err(std::io::Error::other("no gateway addresses"));
        }
        let mut clients = Vec::with_capacity(addrs.len());
        for i in 0..addrs.len() {
            // Rotate so client i dials gateway i first but can cycle to
            // the rest of the fleet when it dies.
            let mut rotated: Vec<SocketAddr> = addrs[i..].to_vec();
            rotated.extend_from_slice(&addrs[..i]);
            let mut cfg = cfg.clone();
            cfg.seed = cfg.seed.wrapping_add(i as u64);
            clients.push(Some(ResilientClient::connect_fleet(
                &rotated,
                Role::Subscriber,
                cfg,
            )?));
        }
        Ok(Self {
            clients,
            seen: HashSet::new(),
            retired: 0,
            duplicates: 0,
        })
    }

    /// Polls every live client once (first recv waits up to `timeout`,
    /// then drains what is already queued) and returns the new —
    /// never-before-seen — verdicts. A client whose reconnect budget is
    /// exhausted is retired; the merged stream continues from the
    /// survivors.
    pub fn poll(&mut self, timeout: Duration) -> Vec<VerdictMsg> {
        let mut fresh = Vec::new();
        for slot in &mut self.clients {
            let Some(client) = slot.as_mut() else {
                continue;
            };
            let mut wait = timeout;
            for _ in 0..DRAIN_BURST {
                match client.recv(wait) {
                    Ok(Some(Msg::Verdict(v))) => {
                        if self.seen.insert((v.chain, v.verdict.sequence)) {
                            fresh.push(v);
                        } else {
                            self.duplicates += 1;
                        }
                        wait = Duration::from_millis(1);
                    }
                    Ok(Some(_)) => wait = Duration::from_millis(1),
                    Ok(None) => break,
                    Err(_) => {
                        *slot = None;
                        self.retired += 1;
                        break;
                    }
                }
            }
        }
        fresh
    }

    /// Clients still running.
    #[must_use]
    pub fn active(&self) -> usize {
        self.clients.iter().flatten().count()
    }

    /// Clients retired after exhausting their reconnect budget.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Distinct `(chain, sequence)` verdicts delivered so far.
    #[must_use]
    pub fn distinct_verdicts(&self) -> usize {
        self.seen.len()
    }

    /// Duplicate verdict copies the dedupe set suppressed (multi-gateway
    /// fan-out after a handoff redelivers; this counts the suppressions —
    /// nonzero after a failover proves redelivery actually happened).
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Merged resilience stats across live clients.
    #[must_use]
    pub fn stats(&self) -> ResilienceStats {
        merge_stats(self.clients.iter().flatten())
    }
}

/// A fleet-wide producer: one chain-pinned [`ResilientClient`] per chain,
/// created lazily on first send. Each client routes itself to the chain's
/// owner (`Route`/`Redirect`), retains acked frames for failover refeed,
/// and insists on resume through the supervisor's detection window.
#[derive(Debug)]
pub struct FleetProducer {
    addrs: Vec<SocketAddr>,
    cfg: ResilienceConfig,
    clients: HashMap<u32, ResilientClient>,
}

impl FleetProducer {
    /// Builds the producer. `cfg` is the per-chain template;
    /// [`ResilienceConfig::route_chain`] is overwritten per chain, and
    /// `acked_retention`/`insist_resume` get failover-safe floors when
    /// left at their standalone defaults.
    #[must_use]
    pub fn new(addrs: &[SocketAddr], cfg: ResilienceConfig) -> Self {
        let mut cfg = cfg;
        if cfg.acked_retention == 0 {
            cfg.acked_retention = 1024;
        }
        if cfg.insist_resume == 0 {
            cfg.insist_resume = 8;
        }
        Self {
            addrs: addrs.to_vec(),
            cfg,
            clients: HashMap::new(),
        }
    }

    /// Sends one frame to its chain's owner, connecting (and routing) the
    /// chain's client on first use.
    ///
    /// # Errors
    /// Propagates connect failures and exhausted reconnect budgets.
    pub fn send_frame(&mut self, frame: &ChainFrame) -> std::io::Result<()> {
        let chain = frame.chain;
        if !self.clients.contains_key(&chain) {
            let mut cfg = self.cfg.clone();
            cfg.route_chain = Some(chain);
            cfg.seed = cfg.seed.wrapping_add(u64::from(chain) << 8);
            let client = ResilientClient::connect_fleet(&self.addrs, Role::Producer, cfg)?;
            self.clients.insert(chain, client);
        }
        self.clients
            .get_mut(&chain)
            .expect("client just inserted")
            .send_frame(frame)
    }

    /// Pumps acks (and any stray messages) on every chain client, pruning
    /// replay buffers. Bounded per client; quiet clients cost `timeout`.
    ///
    /// # Errors
    /// Propagates an exhausted reconnect budget.
    pub fn drain_acks(&mut self, timeout: Duration) -> std::io::Result<()> {
        for client in self.clients.values_mut() {
            let mut wait = timeout;
            for _ in 0..DRAIN_BURST {
                match client.recv(wait)? {
                    Some(_) => wait = Duration::from_millis(1),
                    None => break,
                }
            }
        }
        Ok(())
    }

    /// Frames sent but not yet acked, across every chain.
    #[must_use]
    pub fn unacked_total(&self) -> usize {
        self.clients
            .values()
            .map(ResilientClient::unacked_len)
            .sum()
    }

    /// Merged resilience stats across chain clients.
    #[must_use]
    pub fn stats(&self) -> ResilienceStats {
        merge_stats(self.clients.values())
    }

    /// Per-chain clients created so far.
    #[must_use]
    pub fn chains(&self) -> usize {
        self.clients.len()
    }
}

fn merge_stats<'a>(clients: impl Iterator<Item = &'a ResilientClient>) -> ResilienceStats {
    let mut merged = ResilienceStats::default();
    for c in clients {
        let s = c.stats();
        merged.disconnects += s.disconnects;
        merged.reconnect_attempts += s.reconnect_attempts;
        merged.resumed += s.resumed;
        merged.fresh_sessions += s.fresh_sessions;
        merged.frames_replayed += s.frames_replayed;
        merged.truncated_cuts += s.truncated_cuts;
        merged.outage += s.outage;
        merged.redirects_followed += s.redirects_followed;
        merged.failovers += s.failovers;
    }
    merged
}
