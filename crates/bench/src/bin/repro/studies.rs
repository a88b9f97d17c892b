//! The extension studies beyond the paper's tables and figures.

use reads_bench::{env_or, mlp_bundle, paper_firmware, unet_bundle, REPRO_SEED};
use reads_blm::{build_mlp_dataset, FrameGenerator, Standardizer};
use reads_core::ablations::{overflow_ablation, scenario_robustness, transfer_study};
use reads_core::qat;
use reads_core::resilience::{run_fault_campaign, FaultCampaignConfig};
use reads_core::seu::seu_campaign;
use reads_hls4ml::profile_model;
use reads_nn::{models, Loss, ModelSpec, TrainConfig};
use reads_sim::{P2Quantile, Reservoir, Rng, StreamingStats};
use reads_soc::node::CentralNodeSim;
use reads_soc::HpsModel;

/// Radiation-robustness extension study: single-event upsets in the U-Net
/// IP's weight memory (see `reads_core::seu`).
pub fn seu_study() {
    let bundle = unet_bundle();
    let firmware = paper_firmware(&bundle, 50);
    let eval = bundle.eval_frames(50, 0).inputs;

    println!("SEU campaign: bit flips in the U-Net weight BRAM (134,434 x 16-bit words)");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>12}",
        "upsets", "mean acc", "worst acc", "mean |Δ|", "detected"
    );
    let rows = seu_campaign(
        &firmware,
        &eval,
        &[1, 16, 256, 4_096, 32_768],
        6,
        REPRO_SEED,
    )
    .expect("the U-Net firmware has weight memory");
    for r in &rows {
        println!(
            "{:>8} {:>13.3}% {:>13.3}% {:>14.6} {:>11.0}%",
            r.upsets,
            r.mean_accuracy * 100.0,
            r.worst_accuracy * 100.0,
            r.mean_abs_diff,
            r.detected_fraction * 100.0
        );
    }
    println!(
        "\ninterpretation: single upsets are invisible at the output; damage grows\n\
         with upset count, and the layer overflow counters the deployed system\n\
         already reads provide a free (if partial) corruption detector."
    );
}

/// PTQ vs QAT extension study: how far below 16 bits can the READS MLP go
/// with quantization-aware training where the paper's post-training
/// quantization starts losing accuracy?
pub fn qat_study() {
    let gen = FrameGenerator::with_defaults(REPRO_SEED);
    let frames = gen.batch(0, 500);
    let std = Standardizer::fit(&frames);
    let (train_set, val) = build_mlp_dataset(&frames, &std).split_at(400);
    let config = TrainConfig {
        epochs: 8,
        batch_size: 16,
        loss: Loss::Bce,
        seed: REPRO_SEED,
        grad_clip: Some(5.0),
    };

    println!("PTQ vs QAT (weights-only, layer-based formats), READS MLP, val BCE:");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>18}",
        "width", "float", "PTQ", "QAT", "QAT recovers"
    );
    let rows = qat::qat_study(
        &train_set,
        &val,
        || models::reads_mlp(REPRO_SEED ^ 0xA7),
        &config,
        &[4, 6, 8, 10, 12],
    );
    for r in &rows {
        let gap = r.ptq_loss - r.float_loss;
        let recovered = if gap > 1e-9 {
            (r.ptq_loss - r.qat_loss) / gap * 100.0
        } else {
            0.0
        };
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>12.4} {:>17.0}%",
            r.width, r.float_loss, r.ptq_loss, r.qat_loss, recovered
        );
    }
    println!(
        "\n'QAT recovers' = fraction of the PTQ-induced loss gap closed by training\n\
         through the quantizer (straight-through estimator)."
    );
}

/// Runs the ablation suite of DESIGN.md §6 and prints the tables: overflow
/// mode, transfer mechanism (with the DMA/MM crossover), and scenario
/// robustness of the deployed model.
pub fn ablation_study() {
    let bundle = unet_bundle();
    let calib = bundle.calibration_inputs(50);
    let profile = profile_model(&bundle.model, &calib);
    let eval = bundle.eval_frames(200, 0).inputs;

    println!("=== overflow-mode ablation (layer-based widths) ===");
    println!(
        "{:>6} {:>16} {:>16} {:>14} {:>14}",
        "width", "wrap acc MI", "sat acc MI", "wrap outliers", "sat outliers"
    );
    for width in [10u32, 12, 16] {
        let ab = overflow_ablation(&bundle.model, ModelSpec::UNet, &profile, &eval, width);
        println!(
            "{:>6} {:>15.2}% {:>15.2}% {:>14} {:>14}",
            width,
            ab.wrap.mi * 100.0,
            ab.saturate.mi * 100.0,
            ab.wrap.outliers,
            ab.saturate.outliers
        );
    }

    println!("\n=== transfer mechanism: MM bridge vs DMA round trip ===");
    let (rows, crossover) = transfer_study(&[130, 390, 1_000, 5_000, 20_000, 100_000]);
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "words", "MM µs", "DMA µs", "winner"
    );
    for r in &rows {
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>8}",
            r.words,
            r.mm_us,
            r.dma_us,
            if r.mm_us <= r.dma_us { "MM" } else { "DMA" }
        );
    }
    println!("crossover at ~{crossover} words (the READS frame is 390 words: MM wins)");

    println!("\n=== scenario robustness of the deployed U-Net ===");
    println!(
        "{:<28} {:>18} {:>12}",
        "scenario", "decision accuracy", "trip rate"
    );
    for row in scenario_robustness(&bundle.model, &bundle.standardizer, 300, REPRO_SEED) {
        println!(
            "{:<28} {:>17.1}% {:>11.1}%",
            row.scenario,
            row.decision_accuracy * 100.0,
            row.trip_rate * 100.0
        );
    }
}

/// Robustness extension study: stuck-FSM fault sweep with and without the
/// handshake watchdog (see `reads_core::resilience`).
///
/// For each per-frame stuck-FSM probability, Monte-Carlo replicas of the
/// central node run a fixed frame stream twice: once behind the watchdog's
/// recovery ladder, once bare (the first hang wedges the pipeline and every
/// later frame is lost). The table reports availability, deadline-miss
/// rate and recovery statistics per rate.
pub fn fault_campaign() {
    // The MLP build (the paper's low-latency configuration) keeps the
    // 96k-frame sweep fast; the watchdog logic is identical for the U-Net.
    let bundle = mlp_bundle();
    let firmware = paper_firmware(&bundle, 50);
    let input = bundle.eval_frames(1, 0).inputs.remove(0);
    let hps = HpsModel::default();

    let rates = [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2];
    let frames = 8_000;
    let replicas = 8;

    println!(
        "fault campaign: stuck-FSM hazard sweep, {frames} frames over {replicas} replicas per point"
    );
    println!("(seed {REPRO_SEED}; deterministic — rerun and diff to verify)");
    println!(
        "{:>10} {:>10} {:>13} {:>11} {:>10} {:>12} {:>10} {:>9}",
        "rate/frame",
        "watchdog",
        "availability",
        "miss rate",
        "recovered",
        "unrecovered",
        "mean ms",
        "MTTR ms"
    );
    for &rate in &rates {
        for watchdog in [true, false] {
            let row = run_fault_campaign(
                &firmware,
                &hps,
                &input,
                &FaultCampaignConfig {
                    fault_rate: rate,
                    frames,
                    replicas,
                    seed: REPRO_SEED,
                    watchdog,
                },
            );
            println!(
                "{:>10.0e} {:>10} {:>12.4}% {:>10.4}% {:>10} {:>12} {:>10.4} {:>9.3}",
                row.fault_rate,
                if row.watchdog { "yes" } else { "no" },
                row.availability * 100.0,
                row.deadline_miss_rate * 100.0,
                row.recovered,
                row.unrecovered,
                row.mean_ms,
                row.mttr_ms,
            );
        }
    }
    println!(
        "\ninterpretation: without the watchdog the first hang wedges the replica\n\
         and availability collapses as the hazard rate grows; behind the recovery\n\
         ladder every hang at realistic rates (<=1e-2/frame transients) is\n\
         recovered — availability stays at 100% — at the price of a small,\n\
         bounded deadline-miss rate from the recovery time itself. At a zero\n\
         fault rate both rows are identical to the fault-free pipeline."
    );
}

/// Soak campaign: a long-horizon latency run with bounded-memory streaming
/// statistics (P² quantiles + reservoir histogram) — the tooling for
/// validating the 99.97 %-style tail claims at scales where retaining every
/// sample stops being reasonable. `SOAK_FRAMES` (default 50 000) sets the
/// run length.
pub fn soak_campaign() {
    let frames: usize = env_or("SOAK_FRAMES", 50_000);
    let replicas = 16usize;
    let per_replica = frames / replicas;

    let bundle = mlp_bundle();
    let firmware = paper_firmware(&bundle, 20);
    let input = vec![0.1; 259];

    let t0 = std::time::Instant::now();
    let partials: Vec<(StreamingStats, P2Quantile, P2Quantile, Reservoir)> = (0..replicas)
        .map(|r| {
            let mut node = CentralNodeSim::new(
                firmware.clone(),
                HpsModel::default(),
                REPRO_SEED ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut stats = StreamingStats::new();
            let mut p999 = P2Quantile::new(0.999);
            let mut p9997 = P2Quantile::new(0.9997);
            let mut reservoir = Reservoir::new(2_000);
            let mut rng = Rng::seed_from_u64(r as u64);
            for _ in 0..per_replica {
                let (_, t) = node.run_frame(&input);
                let ms = t.total.as_millis_f64();
                stats.push(ms);
                p999.push(ms);
                p9997.push(ms);
                reservoir.push(ms, &mut rng);
            }
            (stats, p999, p9997, reservoir)
        })
        .collect();

    let mut stats = StreamingStats::new();
    for (s, _, _, _) in &partials {
        stats.merge(s);
    }
    // P² estimators don't merge; report the median of the replica
    // estimates (a standard aggregation for sharded quantile sketches).
    let mut p999s: Vec<f64> = partials.iter().map(|(_, p, _, _)| p.estimate()).collect();
    let mut p9997s: Vec<f64> = partials.iter().map(|(_, _, p, _)| p.estimate()).collect();
    p999s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    p9997s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    println!(
        "soak: {} MLP frames in {:.1} s ({:.0} frames/s of simulation)",
        stats.count(),
        t0.elapsed().as_secs_f64(),
        stats.count() as f64 / t0.elapsed().as_secs_f64()
    );
    println!(
        "  mean {:.3} ms | min {:.3} | max {:.3} | std {:.3}",
        stats.mean(),
        stats.min(),
        stats.max(),
        stats.std_dev()
    );
    println!(
        "  p99.9 ≈ {:.3} ms, p99.97 ≈ {:.3} ms (P², bounded memory)",
        p999s[p999s.len() / 2],
        p9997s[p9997s.len() / 2]
    );
    let retained: usize = partials.iter().map(|(_, _, _, r)| r.samples().len()).sum();
    println!(
        "  reservoir retained {retained} samples of {}",
        stats.count()
    );
}
