//! One set-up of a workload — firmware, frame pool, serving path — and the
//! reports its serving paths leave behind when they are shut down.

use crate::loadgen::{self, Pace, ReadFirst, Segment};
use crate::process;
use crate::setup::{self, Built, Pool, Tcp};
use crate::spec::{Loop, Spec};
use crate::trace::{ms_since, now_ns, Tracer};
use reads_core::engine::{FleetReport, ShardedEngine};
use reads_core::resilience::NetCounters;
use reads_core::system::EndToEndTiming;
use reads_core::DeblendingSystem;

/// Gateways replaced in one run before the benchmark stops looking: a
/// host that wedges them this often is too busy to measure on, and the run
/// reports what it sees.
const MAX_GATEWAY_RESTARTS: u64 = 3;

/// The serving path of a workload, started and connected.
pub enum Live {
    Tcp(Tcp),
    Engine(ShardedEngine),
    Soc(Box<DeblendingSystem>),
    /// Between a wedged gateway's shutdown and its replacement's start.
    Down,
}

/// Everything one set-up builds.
pub struct Stage {
    pub built: Built,
    pub pool: Pool,
    pub live: Live,
    pub next_seq: u32,
    pub firmware_ms: f64,
    pub pool_ms: f64,
    pub engine_start_ms: f64,
    pub gateway_start_ms: f64,
    /// Reports of the serving paths retired so far.
    pub tally: Tally,
}

/// What the serving paths reported when they were shut down, summed over
/// a gateway and the ones that replaced it after a wedge.
#[derive(Default)]
pub struct Tally {
    pub processed: u64,
    pub batches: u64,
    pub dropped_backpressure: u64,
    pub frames_assembled: u64,
    pub frames_accepted: u64,
    pub decode_errors: u64,
    pub sequence_gaps: u64,
    pub backpressure_drops: u64,
    pub slow_consumer_drops: u64,
    pub verdicts_sent: u64,
    pub acks_sent: u64,
    pub gateway_restarts: u64,
    pub engine_finish_ms: f64,
    pub gateway_shutdown_ms: f64,
}

/// Starts the serving path of `spec`; returns it with the engine's and
/// the gateway's start times in ms.
fn start_live(spec: &Spec, built: &Built, seed: u64) -> (Live, f64, f64) {
    let timed_engine = || {
        let t = now_ns();
        let engine = setup::start_engine(&built.fw, spec.batch);
        (engine, ms_since(t))
    };
    match spec.kind {
        Loop::Scheduled { .. } => {
            let (engine, engine_ms) = timed_engine();
            let t = now_ns();
            let tcp = setup::start_tcp(engine);
            (Live::Tcp(tcp), engine_ms, ms_since(t))
        }
        Loop::Closed { .. } => {
            let (engine, engine_ms) = timed_engine();
            (Live::Engine(engine), engine_ms, 0.0)
        }
        Loop::SocTick => (
            Live::Soc(Box::new(setup::start_soc(&built.fw, seed))),
            0.0,
            0.0,
        ),
    }
}

pub fn set_up(spec: &Spec, seed: u64) -> Stage {
    let t = now_ns();
    let built = setup::build_firmware(spec.model);
    let firmware_ms = ms_since(t);
    let t = now_ns();
    let pool = Pool::build(seed, spec.chains, spec.pool_depth, &built.fw);
    let pool_ms = ms_since(t);
    let (live, engine_start_ms, gateway_start_ms) = start_live(spec, &built, seed);
    Stage {
        built,
        pool,
        live,
        next_seq: 0,
        firmware_ms,
        pool_ms,
        engine_start_ms,
        gateway_start_ms,
        tally: Tally::default(),
    }
}

impl Tally {
    /// Shuts a serving path down and adds its report.
    fn retire(&mut self, live: Live) {
        let fleet = match live {
            Live::Tcp(tcp) => {
                let Tcp {
                    handle,
                    producer,
                    subscriber,
                } = tcp;
                drop(producer);
                drop(subscriber);
                let t = now_ns();
                let report = handle.shutdown();
                self.gateway_shutdown_ms = ms_since(t);
                self.add_net(&report.net);
                self.verdicts_sent += report.verdicts_sent;
                self.acks_sent += report.acks_sent;
                report.fleet
            }
            Live::Engine(engine) => {
                let t = now_ns();
                let (_, fleet) = engine.finish();
                self.engine_finish_ms = ms_since(t);
                fleet
            }
            Live::Soc(_) | Live::Down => return,
        };
        self.add_fleet(&fleet);
    }

    fn add_fleet(&mut self, fleet: &FleetReport) {
        self.processed += fleet.processed();
        self.batches += fleet.shards.iter().map(|s| s.batches).sum::<u64>();
        self.dropped_backpressure += fleet.dropped_backpressure;
    }

    fn add_net(&mut self, net: &NetCounters) {
        self.frames_assembled += net.frames_assembled;
        self.frames_accepted += net.frames_accepted;
        self.decode_errors += net.decode_errors;
        self.sequence_gaps += net.sequence_gaps;
        self.backpressure_drops += net.backpressure_drops;
        self.slow_consumer_drops += net.slow_consumer_drops;
    }

    /// Whether the counters of a run without failures read as they must:
    /// nothing dropped, and every frame sent accepted, processed, acked
    /// and answered. The simulated node keeps no such counters.
    pub fn clean(&self, frames_sent: u64, kind: Loop) -> bool {
        if matches!(kind, Loop::SocTick) {
            return true;
        }
        let over_tcp = kind.scheduled();
        let drops = self.dropped_backpressure
            + self.decode_errors
            + self.sequence_gaps
            + self.backpressure_drops
            + self.slow_consumer_drops;
        let through_gateway = [
            self.frames_assembled,
            self.frames_accepted,
            self.verdicts_sent,
            self.acks_sent,
        ];
        drops == 0
            && self.processed == frames_sent
            && (!over_tcp || through_gateway.iter().all(|&n| n == frames_sent))
    }
}

impl Stage {
    /// Runs `ticks` ticks over TCP. A gateway that wedges is shut down and
    /// replaced, and the schedule starts again at the next tick: the ticks
    /// the wedge delayed keep their latencies, the rest of the run is
    /// measured on a healthy gateway (README.md, "The wedged waker").
    pub fn run_ticks(
        &mut self,
        spec: &Spec,
        period_ns: u64,
        read_first: ReadFirst,
        ticks: usize,
        tracer: &mut Tracer,
    ) -> Segment {
        let mut seg = Segment::new(spec.chains);
        while seg.ops.len() < ticks {
            let Live::Tcp(tcp) = &mut self.live else {
                unreachable!("a scheduled loop runs over TCP");
            };
            let pace = Pace {
                period_ns,
                read_first,
                stop_if_wedged: self.tally.gateway_restarts < MAX_GATEWAY_RESTARTS,
            };
            let part = loadgen::run_scheduled(
                tcp,
                &self.pool,
                pace,
                self.next_seq,
                ticks - seg.ops.len(),
                tracer,
            );
            self.next_seq += part.ops.len() as u32;
            let wedged = part.wedged;
            seg.append(part);
            if wedged {
                eprintln!(
                    "{}: the gateway wedged at tick {}; replacing it",
                    spec.name, self.next_seq
                );
                // The old gateway is gone, and what it freed is back with
                // the kernel, before the new one starts: a restart should
                // not read as memory in `peak_rss_mb`.
                self.tally
                    .retire(std::mem::replace(&mut self.live, Live::Down));
                process::release_free_pages();
                self.live = start_live(spec, &self.built, 0).0;
                self.tally.gateway_restarts += 1;
            }
        }
        seg
    }

    /// Runs `ops` operations of the workload's loop, continuing the
    /// sequence numbers where the previous stretch stopped.
    pub fn run(
        &mut self,
        spec: &Spec,
        ops: usize,
        tracer: &mut Tracer,
    ) -> (Segment, Vec<EndToEndTiming>) {
        let first_seq = self.next_seq;
        match spec.kind {
            Loop::Scheduled { period_us } => {
                let seg = self.run_ticks(spec, period_us * 1_000, ReadFirst::Verdicts, ops, tracer);
                (seg, Vec::new())
            }
            Loop::Closed { in_flight } => {
                let Live::Engine(engine) = &mut self.live else {
                    unreachable!("a closed loop runs in process");
                };
                self.next_seq += ops.div_ceil(spec.chains) as u32;
                let seg =
                    loadgen::run_closed(engine, &self.pool, in_flight, first_seq, ops, tracer);
                (seg, Vec::new())
            }
            Loop::SocTick => {
                let Live::Soc(system) = &mut self.live else {
                    unreachable!("the tick loop runs the simulated node");
                };
                self.next_seq += ops as u32;
                loadgen::run_soc(system, &self.pool, first_seq, ops, tracer)
            }
        }
    }

    pub fn tear_down(self) -> Tally {
        let mut tally = self.tally;
        tally.retire(self.live);
        tally
    }
}
