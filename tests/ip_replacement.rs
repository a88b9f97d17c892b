//! The Sec. IV-D flexibility claim: "the U-Net IP can be easily replaced by
//! other IP cores as well, leveraging the general purpose interface
//! wrapper". This test swaps an anomaly-detection autoencoder into the same
//! hls4ml flow and SoC template and shows it (a) deploys unchanged, (b)
//! meets the 3 ms budget, and (c) does its job — abort-level beam
//! conditions score far above nominal ones.

use reads::blm::{FrameGenerator, Scenario, Standardizer};
use reads::hls4ml::{convert, profile_model, HlsConfig};
use reads::nn::models::{reads_autoencoder, reconstruction_error};
use reads::nn::train::{train, Dataset, TrainConfig};
use reads::nn::{Adam, Loss};
use reads::soc::hps::HpsModel;
use reads::soc::node::CentralNodeSim;

#[test]
fn autoencoder_ip_drops_into_the_same_template() {
    // Train the AE to reconstruct nominal (mixed-operations) frames.
    let gen = FrameGenerator::with_defaults(61);
    let frames = gen.batch(0, 160);
    let std = Standardizer::fit(&frames);
    let mut data = Dataset::default();
    for f in &frames {
        let x = std.apply_frame(&f.readings);
        data.inputs.push(x.clone());
        data.targets.push(x);
    }
    let mut ae = reads_autoencoder(61);
    let mut opt = Adam::new(0.003);
    let report = train(
        &mut ae,
        &data,
        &TrainConfig {
            epochs: 16,
            batch_size: 16,
            loss: Loss::Mse,
            seed: 2,
            grad_clip: Some(5.0),
        },
        &mut opt,
    );
    assert!(
        report.final_loss() < report.epoch_loss[0],
        "AE must learn to reconstruct"
    );

    // Same hls4ml flow, same interface wrapper, same SoC template.
    let calib: Vec<Vec<f64>> = gen
        .batch(200, 16)
        .iter()
        .map(|f| std.apply_frame(&f.readings))
        .collect();
    let profile = profile_model(&ae, &calib);
    let firmware = convert(&ae, &profile, &HlsConfig::paper_default());
    let mut node = CentralNodeSim::new(firmware.clone(), HpsModel::default(), 3);

    // Deploys and meets the deadline.
    let nominal = std.apply_frame(&gen.frame(300).readings);
    let (recon, timing) = node.run_frame(&nominal);
    assert_eq!(recon.len(), 260);
    assert!(
        timing.total.as_millis_f64() < 3.0,
        "AE IP latency {} must meet the 3 ms budget",
        timing.total
    );

    // The node computes on the lowered engine: its RAM round trip returns
    // the interpreter's outputs bit for bit.
    assert_eq!(recon, firmware.infer(&nominal).0);
    for i in 0..4 {
        let x = std.apply_frame(&gen.frame(500 + i).readings);
        assert_eq!(node.run_frame(&x).0, firmware.infer(&x).0, "frame {i}");
    }

    // Anomaly detection: abort-level frames score far above nominal. The
    // abort scenario draws Poisson event counts, so only frames that truly
    // contain an abort-scale loss (ground-truth MI mass present) count.
    let abort_gen = FrameGenerator::new(62, Scenario::AbortLevel.workload());
    let nominal_scores: Vec<f64> = (0..12)
        .map(|i| reconstruction_error(&ae, &std.apply_frame(&gen.frame(400 + i).readings)))
        .collect();
    let abort_scores: Vec<f64> = (0..24)
        .filter_map(|i| {
            let f = abort_gen.frame(i);
            (f.frac_mi.iter().sum::<f64>() > 10.0)
                .then(|| reconstruction_error(&ae, &std.apply_frame(&f.readings)))
        })
        .collect();
    assert!(abort_scores.len() >= 8, "need enough true abort frames");
    let nominal_max = nominal_scores.iter().fold(0.0f64, |m, &x| m.max(x));
    let abort_min = abort_scores.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    assert!(
        abort_min > 2.0 * nominal_max,
        "abort frames must stand out: min abort {abort_min:.3} vs max nominal {nominal_max:.3}"
    );
}
