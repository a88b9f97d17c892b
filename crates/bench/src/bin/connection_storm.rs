//! Connection storm: the reactor gateway under C1M-style session scale.
//!
//! For each level `S` in `STORM_LEVELS` (default `10000,50000`) the bench
//! starts a fresh gateway and opens `S` sessions against it in an
//! open-loop storm, driving every client socket from one
//! [`Poller`] — the same readiness machinery the
//! gateway itself runs on. Measured per level:
//!
//! * **accept latency** — connect + `Hello` → `Welcome`, per session,
//!   reported p50/p99/max under the storm itself (not at quiescence);
//! * **resident bytes per session** — `VmRSS` delta across the storm
//!   divided by `S` (one process hosts gateway *and* clients, so this is
//!   an upper bound on the server-side cost);
//! * **p99 verdict fan-out latency** — producer send instant → verdict
//!   arrival at probe subscribers, while every session is registered in
//!   the fan-out path;
//! * **sustained fps** and **zero acked-frame loss** — every
//!   accepted-and-acked frame's verdict reaches every probe.
//!
//! ## The fd budget, honestly
//!
//! Both socket ends live in this one process, so live connections cost
//! two fds each. The bench raises `RLIMIT_NOFILE` to its hard maximum
//! and computes the **live-socket window** `W` from what it gets. When
//! `S > W` the surplus sessions are *churned*: opened, welcomed, then
//! closed so they **park** server-side (resumable, replay ring,
//! watermark state — the gateway's per-session cost stays real), and the
//! cap is logged loudly rather than silently shrinking the level. On a
//! host with a generous fd limit (any stock CI runner) a 10k level runs
//! fully live with zero churn. Churned sessions use the subscriber role,
//! so during the load phase the fan-out pushes into `S − W` parked
//! replay rings — the C1M memory story — while live storm sessions are
//! producers (present in every session scan, no verdict traffic).
//!
//! Writes `BENCH_connection_storm.json` at the repo root. Knobs:
//! `STORM_LEVELS`, `STORM_TICKS`, `STORM_REACTORS`, `STORM_MAX_KB_PER_CONN`
//! (floor, default 64), `STORM_MAX_P99_MS` (floor, default 10000 — at
//! 50k+ sessions the fan-out legitimately touches every parked replay
//! ring per verdict; CI pins a tighter value for its 10k level).
//!
//! ```sh
//! cargo run --release -p reads-bench --bin connection_storm
//! ```

use reads_bench::{env_or, mlp_bundle, paper_firmware};
use reads_blm::hubs::MultiChainSource;
use reads_core::engine::{EngineConfig, ShardedEngine};
use reads_net::wire::{encode_msg, FrameDecoder, Msg, Role};
use reads_net::{
    fd_of, is_would_block, GatewayClient, GatewayConfig, HubGateway, Interest, Poller, Ready,
    SlowConsumerPolicy,
};
use reads_soc::HpsModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Frames per chain in the load phase (4 chains).
const DEFAULT_TICKS: usize = 250;
const CHAINS: usize = 4;
const PROBES: usize = 2;
/// Fds reserved for the gateway listener, probes, driver, engine files,
/// wakers and pollers — everything that is not a storm socket pair.
const FD_RESERVE: u64 = 512;
/// Sockets opened per bench-loop iteration before yielding to the
/// welcome poller (keeps the listener backlog shallow).
const OPEN_BURST: usize = 128;

/// Raises `RLIMIT_NOFILE` to its hard maximum and returns the resulting
/// soft limit. Declared directly against libc (the same pattern as the
/// gateway's SIGINT wiring) — no crate dependency for two syscalls.
#[cfg(target_os = "linux")]
fn raise_and_get_nofile() -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    // SAFETY: plain syscalls on a stack struct matching the kernel ABI.
    unsafe {
        let mut r = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut r) != 0 {
            return 1024;
        }
        if r.cur < r.max {
            let want = RLimit {
                cur: r.max,
                max: r.max,
            };
            let _ = setrlimit(RLIMIT_NOFILE, &want);
            let _ = getrlimit(RLIMIT_NOFILE, &mut r);
        }
        r.cur
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_and_get_nofile() -> u64 {
    1024
}

/// Resident set size in bytes from `/proc/self/status` (0 when absent).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmRSS:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map_or(0, |kb| kb * 1024)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct StormConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    opened_at: Instant,
    role: Role,
}

/// The trajectory `BENCH_connection_storm.json` holds.
#[derive(Serialize, Deserialize)]
struct Report {
    reactors: usize,
    ticks: usize,
    chains: usize,
    probes: usize,
    nofile_limit: u64,
    live_socket_window: usize,
    floors: Floors,
    levels: Vec<Row>,
}

/// The bounds every level is held to.
#[derive(Serialize, Deserialize)]
struct Floors {
    max_kb_per_conn: f64,
    max_p99_ms: f64,
    acked_loss: usize,
}

#[derive(Serialize, Deserialize)]
struct Row {
    sessions: usize,
    live_peak: usize,
    parked: usize,
    accept_p50_ms: f64,
    accept_p99_ms: f64,
    accept_max_ms: f64,
    storm_wall_ms: f64,
    rss_bytes_per_session: u64,
    frames: usize,
    acked: usize,
    fanout_p50_ms: f64,
    fanout_p99_ms: f64,
    fps: f64,
    acked_loss: usize,
}

/// Opens `s` sessions against `addr` under the live-socket window `w`,
/// returning the still-open producer sockets, accept latencies (ms), and
/// the churned (parked) session count.
#[allow(clippy::too_many_lines)]
fn storm_phase(addr: SocketAddr, s: usize, w: usize) -> (Vec<TcpStream>, Vec<f64>, usize) {
    let to_park = s.saturating_sub(w);
    let hello_sub = encode_msg(&Msg::Hello {
        role: Role::Subscriber,
    });
    let hello_prod = encode_msg(&Msg::Hello {
        role: Role::Producer,
    });
    let mut poller = Poller::new().expect("client poller");
    let mut conns: HashMap<u64, StormConn> = HashMap::new();
    // Welcomed subscriber-role sessions, oldest first — the churn queue.
    let mut parkable: VecDeque<u64> = VecDeque::new();
    let mut latencies: Vec<f64> = Vec::with_capacity(s);
    let mut opened = 0usize;
    let mut parked = 0usize;
    let mut welcomed = 0usize;
    let mut events: Vec<Ready> = Vec::with_capacity(1024);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(600);

    while welcomed < s {
        assert!(
            Instant::now() < deadline,
            "storm stalled: {welcomed}/{s} welcomed, {opened} opened, {parked} parked"
        );
        // Open a burst while the live window has room.
        let mut burst = 0;
        while opened < s && (opened - parked) < w && burst < OPEN_BURST {
            let role = if opened < to_park {
                Role::Subscriber
            } else {
                Role::Producer
            };
            let opened_at = Instant::now();
            let mut stream = TcpStream::connect(addr).expect("storm connect");
            stream.set_nodelay(true).expect("nodelay");
            stream
                .write_all(if role == Role::Subscriber {
                    &hello_sub
                } else {
                    &hello_prod
                })
                .expect("hello");
            stream.set_nonblocking(true).expect("nonblocking");
            opened += 1;
            let token = opened as u64;
            poller
                .register(fd_of(&stream), token, Interest::READ)
                .expect("register storm conn");
            conns.insert(
                token,
                StormConn {
                    stream,
                    decoder: FrameDecoder::new(),
                    opened_at,
                    role,
                },
            );
            burst += 1;
        }
        // Collect welcomes.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("poller wait");
        let mut chunk = [0u8; 4096];
        for ev in &events {
            let Some(c) = conns.get_mut(&ev.token) else {
                continue;
            };
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => panic!("gateway closed a storm connection before Welcome"),
                    Ok(n) => c.decoder.push(&chunk[..n]),
                    Err(ref e) if is_would_block(e) => break,
                    Err(e) => panic!("storm read: {e}"),
                }
            }
            while let Ok(Some(msg)) = c.decoder.next_msg() {
                if let Msg::Welcome { .. } = msg {
                    welcomed += 1;
                    latencies.push(c.opened_at.elapsed().as_secs_f64() * 1e3);
                    if c.role == Role::Subscriber {
                        parkable.push_back(ev.token);
                    }
                }
            }
        }
        // Churn: close welcomed subscriber sockets so their sessions park
        // and the window frees up for the remaining opens.
        while opened < s && (opened - parked) >= w {
            let Some(token) = parkable.pop_front() else {
                break;
            };
            // Dropping the stream closes the fd (the poller forgets it on
            // close) and the gateway parks the session on EOF.
            conns.remove(&token);
            parked += 1;
        }
    }
    let live: Vec<TcpStream> = conns.into_values().map(|c| c.stream).collect();
    (live, latencies, parked)
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn run_level(s: usize, w: usize, ticks: usize, reactors: usize) -> Row {
    let bundle = mlp_bundle();
    let firmware = paper_firmware(&bundle, 50);
    let frames_total = ticks * CHAINS;

    let engine = ShardedEngine::native(
        &EngineConfig::default(),
        &firmware,
        &HpsModel::default(),
        &bundle.standardizer,
    );
    let cfg = GatewayConfig {
        outbound_queue: frames_total + 64,
        slow_consumer: SlowConsumerPolicy::DropNewest,
        max_sessions: s + 64,
        // Parked storm sessions must stay resumable for the whole level.
        session_resume_window: Duration::from_secs(3600),
        resume_buffer: 32,
        reactors,
        ..GatewayConfig::default()
    };
    let handle = HubGateway::start("127.0.0.1:0", cfg, engine).expect("bind storm gateway");
    let addr = handle.local_addr();

    let rss_before = rss_bytes();
    let storm_started = Instant::now();
    let (live, mut latencies, parked) = storm_phase(addr, s, w);
    let storm_wall_ms = storm_started.elapsed().as_secs_f64() * 1e3;
    let rss_after = rss_bytes();
    assert_eq!(latencies.len(), s, "every storm session was welcomed");
    latencies.sort_by(f64::total_cmp);
    let live_peak = live.len();

    // Probes: real subscribers that drain everything, with timing.
    type ProbeLog = Vec<((u32, u32), Instant)>;
    let mut probes: Vec<std::thread::JoinHandle<ProbeLog>> = Vec::new();
    for _ in 0..PROBES {
        let mut probe = GatewayClient::connect(addr, Role::Subscriber).expect("probe connects");
        probes.push(std::thread::spawn(move || {
            let mut got: Vec<((u32, u32), Instant)> = Vec::with_capacity(frames_total);
            while got.len() < frames_total {
                match probe.recv_verdict(Duration::from_secs(30)) {
                    Ok(Some(v)) => got.push(((v.chain, v.verdict.sequence), Instant::now())),
                    Ok(None) | Err(_) => break,
                }
            }
            got
        }));
    }
    std::thread::sleep(Duration::from_millis(50));

    // Load phase: open-loop producer, send instants recorded per frame.
    let mut driver = GatewayClient::connect(addr, Role::Producer).expect("driver connects");
    let mut source = MultiChainSource::new(CHAINS, 17);
    let mut sent_at: BTreeMap<(u32, u32), Instant> = BTreeMap::new();
    let mut acked: BTreeSet<(u32, u32)> = BTreeSet::new();
    let load_started = Instant::now();
    for _ in 0..ticks {
        for cf in source.tick() {
            sent_at.insert((cf.chain, cf.sequence), Instant::now());
            driver.send_frame(&cf).expect("driver send");
        }
        while let Ok(Some(msg)) = driver.recv(Duration::ZERO) {
            if let Msg::FrameAck { chain, sequence } = msg {
                acked.insert((chain, sequence));
            }
        }
    }
    let ack_deadline = Instant::now() + Duration::from_secs(60);
    while acked.len() < frames_total && Instant::now() < ack_deadline {
        match driver.recv(Duration::from_millis(200)) {
            Ok(Some(Msg::FrameAck { chain, sequence })) => {
                acked.insert((chain, sequence));
            }
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }
    let load_wall = load_started.elapsed();

    let probe_results: Vec<Vec<((u32, u32), Instant)>> = probes
        .into_iter()
        .map(|p| p.join().expect("probe"))
        .collect();

    // Zero acked-frame loss: every acked frame's verdict at every probe.
    let mut acked_loss = 0usize;
    let mut fanout_ms: Vec<f64> = Vec::with_capacity(frames_total * PROBES);
    for got in &probe_results {
        let have: BTreeMap<(u32, u32), Instant> = got.iter().copied().collect();
        for key in &acked {
            match have.get(key) {
                Some(arrived) => {
                    let sent = sent_at[key];
                    fanout_ms.push(arrived.duration_since(sent).as_secs_f64() * 1e3);
                }
                None => acked_loss += 1,
            }
        }
    }
    fanout_ms.sort_by(f64::total_cmp);

    let report = handle.shutdown();
    drop(live);
    assert_eq!(
        report.net.frames_accepted as usize,
        report.fleet.processed() as usize,
        "accepted frames and processed verdicts diverge"
    );

    Row {
        sessions: s,
        live_peak,
        parked,
        accept_p50_ms: percentile(&latencies, 0.50),
        accept_p99_ms: percentile(&latencies, 0.99),
        accept_max_ms: latencies.last().copied().unwrap_or(f64::NAN),
        storm_wall_ms,
        rss_bytes_per_session: rss_after.saturating_sub(rss_before) / s as u64,
        frames: frames_total,
        acked: acked.len(),
        fanout_p50_ms: percentile(&fanout_ms, 0.50),
        fanout_p99_ms: percentile(&fanout_ms, 0.99),
        fps: acked.len() as f64 / load_wall.as_secs_f64(),
        acked_loss,
    }
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let levels: Vec<usize> = std::env::var("STORM_LEVELS")
        .unwrap_or_else(|_| "10000,50000".into())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    let ticks = env_or("STORM_TICKS", DEFAULT_TICKS);
    let default_reactors = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let reactors = env_or("STORM_REACTORS", default_reactors);
    let max_kb_per_conn = env_or("STORM_MAX_KB_PER_CONN", 64.0);
    let max_p99_ms = env_or("STORM_MAX_P99_MS", 10_000.0);

    let nofile = raise_and_get_nofile();
    // Two fds per live connection, both ends in this process.
    let window = (nofile.saturating_sub(FD_RESERVE) / 2) as usize;
    println!(
        "connection storm: levels {levels:?}, {ticks} ticks x {CHAINS} chains, \
         {reactors} reactor(s), RLIMIT_NOFILE {nofile} -> live-socket window {window}"
    );
    for &s in &levels {
        if s > window {
            println!(
                "  NOTE: level {s} exceeds the fd budget — holding {window} live sockets \
                 and churning {} sessions into parked (resumable) server-side state",
                s - window
            );
        }
    }

    let rows: Vec<Row> = levels
        .iter()
        .map(|&s| run_level(s, window.min(s), ticks, reactors))
        .collect();

    println!(
        "{:>9} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "sessions",
        "live",
        "parked",
        "acc p50",
        "acc p99",
        "acc max",
        "storm ms",
        "B/conn",
        "frames",
        "fan p99",
        "fps",
        "loss"
    );
    for r in &rows {
        println!(
            "{:>9} {:>9} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.0} {:>9} {:>9} {:>10.2} {:>10.0} {:>8}",
            r.sessions,
            r.live_peak,
            r.parked,
            r.accept_p50_ms,
            r.accept_p99_ms,
            r.accept_max_ms,
            r.storm_wall_ms,
            r.rss_bytes_per_session,
            r.frames,
            r.fanout_p99_ms,
            r.fps,
            r.acked_loss
        );
    }

    for r in &rows {
        assert_eq!(
            r.acked_loss, 0,
            "{} sessions: {} acked frames never reached a probe",
            r.sessions, r.acked_loss
        );
        assert_eq!(
            r.acked, r.frames,
            "{} sessions: every sent frame must be acked",
            r.sessions
        );
        if r.rss_bytes_per_session > 0 {
            assert!(
                (r.rss_bytes_per_session as f64) <= max_kb_per_conn * 1024.0,
                "{} sessions: {} resident bytes/session exceeds the {max_kb_per_conn} KB floor",
                r.sessions,
                r.rss_bytes_per_session
            );
        }
        assert!(
            r.fanout_p99_ms <= max_p99_ms,
            "{} sessions: p99 fan-out {}ms exceeds the {max_p99_ms}ms floor",
            r.sessions,
            r.fanout_p99_ms
        );
    }

    let report = Report {
        reactors,
        ticks,
        chains: CHAINS,
        probes: PROBES,
        nofile_limit: nofile,
        live_socket_window: window,
        floors: Floors {
            max_kb_per_conn,
            max_p99_ms,
            acked_loss: 0,
        },
        levels: rows,
    };
    let path = reads_bench::write_trajectory("BENCH_connection_storm.json", &report);
    println!("storm results written to {}", path.display());
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_trajectory_keeps_its_schema() {
        reads_bench::assert_trajectory_schema::<super::Report>("BENCH_connection_storm.json");
    }
}
