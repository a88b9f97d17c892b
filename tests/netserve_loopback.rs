//! Loopback conformance for the TCP serving plane.
//!
//! A real `HubGateway` binds on 127.0.0.1 and the golden-vector firmware
//! (digest-pinned against `tests/golden/mlp_seed3.json`, exactly like
//! `tests/golden_vectors.rs`) serves frames pushed through real sockets.
//! The verdicts that come back over TCP must be **bit-identical** to
//! running the same firmware in-process — the wire carries f64 bit
//! patterns, so a single flipped mantissa bit anywhere in codec, gateway
//! or engine fails loudly.
//!
//! The shutdown test then proves the gateway's lossless contract: a
//! graceful shutdown under live load may refuse late frames, but every
//! frame that was accepted-and-acked produces a verdict that reaches the
//! subscriber before the socket closes.

use reads::blm::acnet::DeblendVerdict;
use reads::blm::dataset::Standardizer;
use reads::blm::hubs::{assemble_frame, MultiChainSource};
use reads::central::engine::{EngineConfig, ShardedEngine};
use reads::hls4ml::{convert, profile_model, sparsify_firmware, Firmware, HlsConfig};
use reads::net::wire::{Msg, Role};
use reads::net::{GatewayClient, GatewayConfig, HubGateway, SlowConsumerPolicy};
use reads::nn::models;
use reads::soc::HpsModel;
use std::collections::BTreeMap;
use std::time::Duration;

/// Same synthetic calibration regime as `tests/golden_vectors.rs` — the
/// firmware this builds must carry the digest checked in there.
fn synth_frame(len: usize, frame: usize) -> Vec<f64> {
    (0..len)
        .map(|j| {
            let phase = (j as f64).mul_add(0.173, frame as f64 * 1.37);
            2.5 * phase.sin() + 0.25 * ((j % 17) as f64 - 8.0) / 8.0
        })
        .collect()
}

fn build_firmware() -> Firmware {
    let m = models::reads_mlp(3);
    let (input_len, _) = m.input_shape();
    let calib: Vec<Vec<f64>> = (0..6).map(|f| synth_frame(input_len, f + 100)).collect();
    let profile = profile_model(&m, &calib);
    convert(&m, &profile, &HlsConfig::paper_default())
}

/// The pruned serving build: same model and mask as the
/// `mlp_seed3_d35.json` sparse golden fixture (density 0.35, mask seed
/// `seed ^ 0x5EED`), so the gateway serves the planner's CSR kernels.
fn build_sparse_firmware() -> Firmware {
    sparsify_firmware(&build_firmware(), 0.35, 3 ^ 0x5EED)
}

fn pinned_digest_in(file: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden file {file}: {e}"));
    let tail = text
        .split("\"digest\"")
        .nth(1)
        .expect("digest field present");
    let mut quotes = tail.split('"');
    quotes.next(); // text between ':' and the opening quote
    quotes.next().expect("digest value").to_string()
}

fn pinned_digest() -> String {
    pinned_digest_in("mlp_seed3.json")
}

fn standardizer() -> Standardizer {
    Standardizer {
        mean: 112_000.0,
        std: 3_500.0,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn loopback_verdicts_bit_identical_to_in_process() {
    loopback_conformance(build_firmware(), &pinned_digest());
}

/// The sparse serving path: the pruned firmware (pinned against the sparse
/// golden fixture) rides the same gateway, so the planner's CSR kernels are
/// exercised end-to-end through real sockets — and must still be
/// bit-identical to in-process interpretation.
#[test]
fn sparse_loopback_verdicts_bit_identical_to_in_process() {
    loopback_conformance(
        build_sparse_firmware(),
        &pinned_digest_in("mlp_seed3_d35.json"),
    );
}

fn loopback_conformance(fw: Firmware, want_digest: &str) {
    assert_eq!(
        format!("{:016x}", fw.content_digest()),
        want_digest,
        "serving-plane firmware must be the digest-pinned golden build"
    );
    let std = standardizer();
    let chains = 4usize;
    let ticks = 6usize;

    // In-process reference: sequential inference over the same frames.
    let frames = MultiChainSource::new(chains, 3).ticks(ticks);
    let n_in = fw.input_len * fw.input_channels;
    let mut expect: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
    for cf in &frames {
        let readings = assemble_frame(&cf.packets).expect("synthetic frame assembles");
        let (out, _) = fw.infer(&std.apply_frame(&readings[..n_in]));
        // Same output-layout dispatch as the engine's shard worker.
        let verdict = if out.len() == 2 * reads::blm::N_BLM {
            DeblendVerdict::from_interleaved(cf.sequence, &out)
        } else {
            DeblendVerdict::from_split_halves(cf.sequence, &out)
        };
        let mut flat = verdict.mi.clone();
        flat.extend_from_slice(&verdict.rr);
        expect.insert((cf.chain, cf.sequence), flat);
    }

    // The served path: same firmware, through real sockets.
    let engine = ShardedEngine::native(&EngineConfig::default(), &fw, &HpsModel::default(), &std);
    let handle = HubGateway::start("127.0.0.1:0", GatewayConfig::default(), engine)
        .expect("bind loopback gateway");
    let addr = handle.local_addr();

    let mut subscriber =
        GatewayClient::connect(addr, Role::Subscriber).expect("subscriber connects");
    // Let the subscriber's registration reach the hub before verdicts flow.
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(25));

    let mut producer = GatewayClient::connect(addr, Role::Producer).expect("producer connects");
    for cf in &frames {
        producer.send_frame(cf).expect("send frame");
    }

    let total = chains * ticks;
    let mut got: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
    while got.len() < total {
        let v = subscriber
            .recv_verdict(Duration::from_secs(10))
            .expect("subscriber stream healthy")
            .expect("verdict before timeout");
        let mut flat = Vec::with_capacity(v.verdict.mi.len() + v.verdict.rr.len());
        flat.extend_from_slice(&v.verdict.mi);
        flat.extend_from_slice(&v.verdict.rr);
        got.insert((v.chain, v.verdict.sequence), flat);
    }

    // Producer got an ack for every frame.
    let mut acks = 0;
    while let Some(msg) = producer.recv(Duration::from_millis(200)).expect("acks") {
        if matches!(msg, Msg::FrameAck { .. }) {
            acks += 1;
        }
        if acks == total {
            break;
        }
    }
    assert_eq!(acks, total, "every assembled frame is acked");

    drop(producer);
    drop(subscriber);
    let report = handle.shutdown();
    assert_eq!(report.fleet.processed() as usize, total);
    assert_eq!(report.net.frames_assembled as usize, total);
    assert_eq!(report.net.decode_errors, 0);
    assert_eq!(report.net.sequence_gaps, 0);
    assert_eq!(report.net.backpressure_drops, 0);
    assert!(report.sim_ingest.as_millis_f64() > 0.0, "ingest is priced");
    assert!(
        report.console.contains("network"),
        "final console carries the network-health line:\n{}",
        report.console
    );

    // Bit-for-bit: the TCP round trip must not perturb a single mantissa.
    assert_eq!(got.len(), expect.len());
    for (key, want) in &expect {
        let served = got.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
        assert_eq!(
            bits(served),
            bits(want),
            "verdict for chain {} seq {} drifted across the wire",
            key.0,
            key.1
        );
    }
}

#[test]
fn shutdown_under_load_loses_no_acked_frames() {
    let fw = build_firmware();
    let std = standardizer();
    let engine = ShardedEngine::native(&EngineConfig::default(), &fw, &HpsModel::default(), &std);
    let cfg = GatewayConfig {
        outbound_queue: 8192,
        slow_consumer: SlowConsumerPolicy::DropNewest,
        ..GatewayConfig::default()
    };
    let handle = HubGateway::start("127.0.0.1:0", cfg, engine).expect("bind loopback gateway");
    let addr = handle.local_addr();

    let mut subscriber =
        GatewayClient::connect(addr, Role::Subscriber).expect("subscriber connects");
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(25));

    // Producer pushes frames continuously until the socket dies under it,
    // tracking which frames were acked.
    let producer = std::thread::spawn(move || {
        let mut client = GatewayClient::connect(addr, Role::Producer).expect("producer connects");
        let mut source = MultiChainSource::new(4, 11);
        let mut acked: Vec<(u32, u32)> = Vec::new();
        'send: for _ in 0..500 {
            for cf in source.tick() {
                if client.send_frame(&cf).is_err() {
                    break 'send; // gateway is shutting down — expected
                }
            }
            loop {
                match client.recv(Duration::ZERO) {
                    Ok(Some(Msg::FrameAck { chain, sequence })) => acked.push((chain, sequence)),
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => break,
                }
            }
        }
        // Collect straggler acks until the gateway closes the connection.
        loop {
            match client.recv(Duration::from_millis(250)) {
                Ok(Some(Msg::FrameAck { chain, sequence })) => acked.push((chain, sequence)),
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
        acked
    });

    // Let real load build up, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(150));
    let flag = handle.shutdown_flag();
    flag.store(true, std::sync::atomic::Ordering::SeqCst);

    // The subscriber keeps reading until the gateway closes its socket;
    // everything queued at shutdown must still arrive.
    let mut verdicts: Vec<(u32, u32)> = Vec::new();
    while let Ok(Some(v)) = subscriber.recv_verdict(Duration::from_secs(5)) {
        verdicts.push((v.chain, v.verdict.sequence));
    }

    let acked = producer.join().expect("producer thread");
    let report = handle.shutdown();

    assert!(!acked.is_empty(), "load ran long enough to ack frames");
    let have: std::collections::BTreeSet<(u32, u32)> = verdicts.iter().copied().collect();
    for key in &acked {
        assert!(
            have.contains(key),
            "frame {key:?} was accepted-and-acked but its verdict never reached the subscriber \
             ({} acked, {} verdicts, report: {:?})",
            acked.len(),
            verdicts.len(),
            report.net
        );
    }
    // And the engine's own accounting agrees: nothing accepted was lost.
    assert_eq!(
        report.net.frames_accepted,
        report.fleet.processed(),
        "accepted frames and processed verdicts diverge"
    );
    assert_eq!(report.net.slow_consumer_drops, 0, "queue was deep enough");
}

/// Counter audit: a subscriber severed by `SlowConsumerPolicy::Disconnect`
/// is accounted exactly once — as a slow-consumer disconnect — and must
/// not *also* show up in `disconnects`, which counts peer-initiated
/// closes. (Under the old thread-per-connection gateway the dying reader
/// thread reported the hub's own sever back as a clean close, double
/// counting it; the reactor only emits `Closed` for peer-initiated
/// deaths, and the hub ignores `Closed` for connections it already
/// dropped.)
#[test]
fn slow_consumer_disconnect_is_not_double_counted() {
    let fw = build_firmware();
    let std = standardizer();
    let engine = ShardedEngine::native(&EngineConfig::default(), &fw, &HpsModel::default(), &std);
    let cfg = GatewayConfig {
        // One queued verdict of headroom: the ring backs up as soon as
        // the subscriber's socket buffers fill.
        outbound_queue: 1,
        slow_consumer: SlowConsumerPolicy::Disconnect,
        ..GatewayConfig::default()
    };
    let handle = HubGateway::start("127.0.0.1:0", cfg, engine).expect("bind loopback gateway");
    let addr = handle.local_addr();

    // A subscriber that never reads: verdicts pile into its kernel
    // buffers, then into the depth-1 ring, then trip the policy.
    let subscriber = GatewayClient::connect(addr, Role::Subscriber).expect("subscriber connects");
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(25));

    let mut producer = GatewayClient::connect(addr, Role::Producer).expect("producer connects");
    let mut source = MultiChainSource::new(4, 11);
    let mut tripped = false;
    'feed: for _ in 0..4000 {
        for cf in source.tick() {
            producer.send_frame(&cf).expect("send frame");
        }
        // Drain acks so producer-side buffers never interfere.
        while let Ok(Some(_)) = producer.recv(Duration::ZERO) {}
        if handle.counters().slow_consumer_disconnects >= 1 {
            tripped = true;
            break 'feed;
        }
    }
    assert!(tripped, "subscriber never tripped the Disconnect policy");

    // The producer's close *is* a peer-initiated disconnect; wait until
    // the hub has seen it so the comparison below is race-free.
    drop(producer);
    drop(subscriber);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.counters().disconnects < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = handle.shutdown();
    assert_eq!(
        report.net.slow_consumer_disconnects, 1,
        "exactly one policy disconnect"
    );
    assert_eq!(
        report.net.disconnects, 1,
        "only the producer's close counts as a disconnect — the \
         policy-severed subscriber must not be double counted"
    );
}

/// The verdict path has no timer on it: the engine's results ring the hub
/// thread, which used to look at them only when a 2 ms poll expired. One
/// frame at a time on an otherwise idle gateway, so nothing else can wake
/// the hub early and hide a timer — before the doorbell the median here
/// read ≈ 2.5 ms, with it ≈ 0.45 ms. Median only: a busy host may stall
/// individual frames, not most of them.
#[test]
fn verdict_latency_is_not_timer_bound() {
    let fw = build_firmware();
    let std = standardizer();
    let engine = ShardedEngine::native(&EngineConfig::default(), &fw, &HpsModel::default(), &std);
    let handle = HubGateway::start("127.0.0.1:0", GatewayConfig::default(), engine)
        .expect("bind loopback gateway");
    let addr = handle.local_addr();

    let mut subscriber =
        GatewayClient::connect(addr, Role::Subscriber).expect("subscriber connects");
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(25));
    let mut producer = GatewayClient::connect(addr, Role::Producer).expect("producer connects");

    let frames = 50usize;
    let period = Duration::from_millis(5);
    let mut source = MultiChainSource::new(1, 5);
    let mut took: Vec<Duration> = Vec::with_capacity(frames);
    for _ in 0..frames {
        let cf = source.tick().pop().expect("one chain, one frame");
        let sent = std::time::Instant::now();
        producer.send_frame(&cf).expect("send frame");
        let v = subscriber
            .recv_verdict(Duration::from_secs(10))
            .expect("subscriber stream healthy")
            .expect("verdict before timeout");
        took.push(sent.elapsed());
        assert_eq!((v.chain, v.verdict.sequence), (cf.chain, cf.sequence));
        std::thread::sleep(period.saturating_sub(sent.elapsed()));
    }
    took.sort();
    let median = took[frames / 2];

    drop(producer);
    drop(subscriber);
    let report = handle.shutdown();
    assert_eq!(report.fleet.processed() as usize, frames);
    assert!(
        median < Duration::from_micros(1500),
        "median send→verdict {median:?} over {frames} paced frames: something on the verdict \
         path is waiting for a timer (fastest {:?}, slowest {:?})",
        took[0],
        took[frames - 1]
    );
}
