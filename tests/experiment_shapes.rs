//! Integration checks that the *shapes* of the paper's headline results
//! hold on the fast tier: who wins, by roughly what factor, and where the
//! crossovers fall. The full-magnitude reproduction runs as the
//! `reads-bench` `repro` subcommands.

use reads::central::campaign::run_latency_campaign;
use reads::central::experiments::{bit_sweep, table2_journey};
use reads::central::trained::{BnBundle, TrainedBundle, TrainingTier};
use reads::hls4ml::{convert, profile_model, HlsConfig};
use reads::nn::ModelSpec;
use reads::soc::hps::HpsModel;

#[test]
fn unet_is_slower_than_mlp_by_the_papers_factor() {
    // Paper: 1.74 ms vs 0.31 ms -> factor ≈ 5.6.
    let mut means = Vec::new();
    for spec in [ModelSpec::Mlp, ModelSpec::UNet] {
        let bundle = TrainedBundle::get_or_train(spec, TrainingTier::Fast, 41);
        let calib = bundle.calibration_inputs(8);
        let profile = profile_model(&bundle.model, &calib);
        let fw = convert(&bundle.model, &profile, &HlsConfig::paper_default());
        let input = vec![0.1; spec.input_len()];
        let c = run_latency_campaign(&fw, &HpsModel::default(), &input, 400, 4, 1);
        means.push(c.mean_ms);
    }
    let factor = means[1] / means[0];
    assert!(
        (4.0..=8.5).contains(&factor),
        "U-Net/MLP latency factor {factor} vs paper ~5.6"
    );
}

#[test]
fn table2_shape_on_fast_tier() {
    // Shape: row 1 accurate but over budget; row 2 collapses; row 3
    // accurate, fits, costs more ALUTs than row 2's format would.
    let std_bundle = TrainedBundle::get_or_train(ModelSpec::UNet, TrainingTier::Fast, 41);
    let bn_bundle = BnBundle::get_or_train(ModelSpec::UNet, TrainingTier::Fast, 41);
    let std_calib = std_bundle.calibration_inputs(16);
    let std_eval = std_bundle.eval_frames(24, 0).inputs;
    let raw_calib = bn_bundle.eval_frames(16, 5_000).inputs;
    let raw_eval = bn_bundle.eval_frames(24, 0).inputs;
    let rows = table2_journey(
        &std_bundle.model,
        &bn_bundle.model,
        ModelSpec::UNet,
        &std_calib,
        &std_eval,
        &raw_calib,
        &raw_eval,
    );
    assert!(
        rows[0].accuracy_mi > 0.9 && !rows[0].fits,
        "row 1: accurate, too big"
    );
    assert!(
        rows[1].accuracy_mi < 0.6 && rows[1].accuracy_rr < 0.6,
        "row 2 must collapse: {} / {}",
        rows[1].accuracy_mi,
        rows[1].accuracy_rr
    );
    assert!(
        rows[2].accuracy_mi > 0.9 && rows[2].fits,
        "row 3: accurate and fits"
    );
    assert!(
        rows[2].alut_pct < 50.0,
        "layer-based stays far below budget"
    );
}

#[test]
fn fig5_shapes_on_fast_tier() {
    let bundle = TrainedBundle::get_or_train(ModelSpec::UNet, TrainingTier::Fast, 41);
    let calib = bundle.calibration_inputs(16);
    let eval = bundle.eval_frames(40, 0).inputs;
    let pts = bit_sweep(
        &bundle.model,
        ModelSpec::UNet,
        &calib,
        &eval,
        &[8, 12, 16],
        &[0],
    );
    // Fig. 5a: monotone error decrease with width.
    assert!(pts[0].mean_abs_diff_mi > pts[1].mean_abs_diff_mi);
    assert!(pts[1].mean_abs_diff_mi > pts[2].mean_abs_diff_mi);
    assert!(pts[0].mean_abs_diff_rr > pts[2].mean_abs_diff_rr);
    // Fig. 5b: outliers collapse by orders of magnitude from 8 to 16 bits.
    assert!(
        pts[2].outliers * 10 <= pts[0].outliers.max(10),
        "outliers {} -> {}",
        pts[0].outliers,
        pts[2].outliers
    );
}

#[test]
fn trained_vs_randomized_dynamic_ranges_differ() {
    // Sec. V: "even for the same ML model architecture, the implementation
    // of trained and untrained models can be very different."
    let bundle = TrainedBundle::get_or_train(ModelSpec::UNet, TrainingTier::Fast, 41);
    let calib = bundle.calibration_inputs(16);
    let trained_profile = profile_model(&bundle.model, &calib);

    let random = reads::nn::models::reads_unet_randomized(41);
    // The randomized pre-test drives the IP with inputs in [0,1] (Sec. IV-D).
    let random_inputs: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            (0..260)
                .map(|j| (((i * 37 + j) % 100) as f64) / 100.0)
                .collect()
        })
        .collect();
    let random_profile = profile_model(&random, &random_inputs);

    let max_of =
        |p: &reads::hls4ml::ModelProfile| p.activation_max.iter().copied().fold(0.0f64, f64::max);
    // All-positive uniform weights make the randomized model's activations
    // blow up combinatorially; the trained model stays moderate. The two
    // regimes demand very different integer-bit budgets.
    assert!(
        max_of(&random_profile) > 10.0 * max_of(&trained_profile),
        "randomized {} vs trained {}",
        max_of(&random_profile),
        max_of(&trained_profile)
    );
}
