//! Experiment runners behind the `repro` subcommands.
//!
//! Each runner regenerates one table/figure, prints it next to the paper's
//! published values, and returns a serializable summary (collected into
//! `target/reads-artifacts/repro_report.json` by `repro all`).

use crate::{
    env_or, header, mlp_bundle, paper_firmware, unet_bn_bundle, unet_bundle, vs_paper, REPRO_SEED,
};
use reads_core::baselines::{
    measure_cpu_batch_ms_per_frame, measure_cpu_latency_ms, model_macs, table1_related_work,
    GpuModel,
};
use reads_core::campaign::{run_latency_campaign, LatencyCampaign};
use reads_core::codesign::codesign;
use reads_core::experiments::{bit_sweep, table2_journey, BitSweepPoint, Table2Row};
use reads_hls4ml::{convert, profile_model, BuildReport, HlsConfig, ARRIA10_10AS066};
use reads_nn::ModelSpec;
use reads_soc::hps::HpsModel;
use serde::Serialize;

/// Number of evaluation frames (paper: 1,000 datasets). Override with the
/// `REPRO_FRAMES` environment variable for quicker passes.
#[must_use]
pub fn eval_frame_count() -> usize {
    env_or("REPRO_FRAMES", 1_000)
}

/// Number of Monte-Carlo frames for the latency campaigns.
#[must_use]
pub fn campaign_frame_count() -> usize {
    env_or("REPRO_CAMPAIGN_FRAMES", 10_000)
}

/// Summary of one Table I row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Work tag.
    pub work: String,
    /// Modeled/measured latency, ms.
    pub latency_ms: f64,
    /// Published latency, ms (0 for our rows, which have no prior print).
    pub published_ms: f64,
}

/// Table I: system latency across designs.
#[must_use]
pub fn run_table1() -> Vec<Table1Row> {
    header("Table I — System Latency Comparison Across Models and Platforms");
    let mut rows = Vec::new();
    println!(
        "{:<10} {:<12} {:>10} {:>6} {:>11} {:>12}",
        "Work", "IP Core", "Params", "Bits", "Latency", "Data Tran."
    );
    for spec in table1_related_work() {
        let ms = spec.modeled_latency_ms();
        println!(
            "{:<10} {:<12} {:>10} {:>6} {:>8.2} ms {:>12}",
            spec.work,
            spec.ip_core,
            if spec.params > 0 {
                spec.params.to_string()
            } else {
                "?".into()
            },
            spec.precision_bits,
            ms,
            format!("{:?}", spec.transfer),
        );
        rows.push(Table1Row {
            work: spec.work.to_string(),
            latency_ms: ms,
            published_ms: spec.published_ms,
        });
    }
    for (bundle, paper_ms) in [(mlp_bundle(), 0.31), (unet_bundle(), 1.74)] {
        let fw = paper_firmware(&bundle, 100);
        let input = vec![0.1; bundle.spec.input_len()];
        let c = run_latency_campaign(&fw, &HpsModel::default(), &input, 2_000, 8, REPRO_SEED);
        println!(
            "{:<10} {:<12} {:>10} {:>6} {:>8.2} ms {:>12}   <- this work, {}",
            "This Work",
            bundle.spec.name(),
            bundle.spec.param_count(),
            16,
            c.mean_ms,
            "MM Bridge",
            vs_paper(c.mean_ms, paper_ms, "ms")
        );
        rows.push(Table1Row {
            work: format!("This Work ({})", bundle.spec.name()),
            latency_ms: c.mean_ms,
            published_ms: paper_ms,
        });
    }
    rows
}

/// One Fig. 3 bar.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Bar {
    /// Platform label.
    pub platform: String,
    /// Model name.
    pub model: String,
    /// Latency, ms (batch 1).
    pub latency_ms: f64,
}

/// Fig. 3: system latency across platforms at batch size 1.
#[must_use]
pub fn run_fig3() -> Vec<Fig3Bar> {
    header("Fig. 3 — System latency across platforms, batch size = 1");
    let gpu = GpuModel::default();
    let mut bars = Vec::new();
    for bundle in [mlp_bundle(), unet_bundle()] {
        let name = bundle.spec.name().to_string();
        let input = vec![0.1; bundle.spec.input_len()];
        let cpu_ms = measure_cpu_latency_ms(&bundle.model, &input, 3, 15);
        let batch: Vec<Vec<f64>> = (0..64).map(|_| input.clone()).collect();
        let cpu_batch_ms = measure_cpu_batch_ms_per_frame(&bundle.model, &batch);
        let macs = model_macs(&bundle.model);
        let io_bytes = (bundle.spec.input_len() + bundle.spec.output_len()) as u64 * 4;
        let gpu_b1 = gpu.per_frame_ms(bundle.model.layers().len(), macs, io_bytes, 1);
        let gpu_b256 = gpu.per_frame_ms(bundle.model.layers().len(), macs, io_bytes, 256);
        let fw = paper_firmware(&bundle, 100);
        let soc = run_latency_campaign(&fw, &HpsModel::default(), &input, 2_000, 8, REPRO_SEED);
        println!("{name}:");
        println!("  CPU (host, measured)        {cpu_ms:>9.3} ms");
        println!("  CPU (batched, per frame)    {cpu_batch_ms:>9.3} ms");
        println!("  GPU model (batch 1)         {gpu_b1:>9.3} ms");
        println!("  GPU model (batch 256/frame) {gpu_b256:>9.3} ms");
        println!("  FPGA SoC (simulated)        {:>9.3} ms", soc.mean_ms);
        for (platform, ms) in [
            ("CPU", cpu_ms),
            ("CPU-batched", cpu_batch_ms),
            ("GPU-batch1", gpu_b1),
            ("GPU-batch256", gpu_b256),
            ("FPGA-SoC", soc.mean_ms),
        ] {
            bars.push(Fig3Bar {
                platform: platform.to_string(),
                model: name.clone(),
                latency_ms: ms,
            });
        }
    }
    bars
}

/// Table II (the optimization journey of Sec. IV-D).
#[must_use]
pub fn run_table2() -> Vec<Table2Row> {
    header("Table II — Effect of Precision Customization on the U-Net Model");
    let std_bundle = unet_bundle();
    let bn_bundle = unet_bn_bundle();
    let n = eval_frame_count();
    let std_calib = std_bundle.calibration_inputs(100);
    let std_eval = std_bundle.eval_frames(n, 0).inputs;
    let raw_calib = bn_bundle.eval_frames(100, 20_000).inputs;
    let raw_eval = bn_bundle.eval_frames(n, 0).inputs;
    let rows = table2_journey(
        &std_bundle.model,
        &bn_bundle.model,
        ModelSpec::UNet,
        &std_calib,
        &std_eval,
        &raw_calib,
        &raw_eval,
    );
    let paper = [(98.8, 99.3, 115.0), (16.7, 36.5, 22.0), (99.1, 99.9, 31.0)];
    println!(
        "{:<46} {:>14} {:>14} {:>16}",
        "Strategy", "Accuracy MI", "Accuracy RR", "Resource ALUTs"
    );
    for (row, (p_mi, p_rr, p_alut)) in rows.iter().zip(paper) {
        println!(
            "{:<46} {:>6.1}% ({p_mi}%) {:>6.1}% ({p_rr}%) {:>7.1}% ({p_alut}%)",
            row.strategy,
            row.accuracy_mi * 100.0,
            row.accuracy_rr * 100.0,
            row.alut_pct,
        );
    }
    rows
}

/// Table III summary plus the throughput claims.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Summary {
    /// The build report.
    pub report: BuildReport,
    /// Mean system latency, ms.
    pub system_latency_ms: f64,
    /// Throughput, fps.
    pub throughput_fps: f64,
    /// Fraction of frames below 1.9 ms.
    pub below_1_9ms: f64,
}

/// Table III: the model summary of the final co-designed build.
#[must_use]
pub fn run_table3() -> Table3Summary {
    header("Table III — Model Summary (final co-designed U-Net build)");
    let bundle = unet_bundle();
    let calib = bundle.calibration_inputs(100);
    let profile = profile_model(&bundle.model, &calib);
    let result = codesign(
        &bundle.model,
        &profile,
        HlsConfig::paper_default(),
        &ARRIA10_10AS066,
        16,
    );
    print!("{}", result.report);
    let input = vec![0.1; 260];
    let c = run_latency_campaign(
        &result.firmware,
        &HpsModel::default(),
        &input,
        campaign_frame_count(),
        16,
        REPRO_SEED,
    );
    println!(
        "  Average System Latency      {}",
        vs_paper(c.mean_ms, 1.74, "ms")
    );
    println!(
        "  FPGA U-Net Latency          {}",
        vs_paper(result.report.fpga_latency_ms(), 1.57, "ms")
    );
    println!(
        "  Max throughput              {}",
        vs_paper(c.throughput_fps(), 575.0, "fps")
    );
    println!(
        "  320 fps / 3 ms deployment   met for {:.3}% of frames",
        c.deadline_met_fraction * 100.0
    );
    Table3Summary {
        report: result.report,
        system_latency_ms: c.mean_ms,
        throughput_fps: c.throughput_fps(),
        below_1_9ms: c.fraction_below(1.9),
    }
}

/// Fig. 5a: accuracy/mean-|Δ| vs total bits.
#[must_use]
pub fn run_fig5a() -> Vec<BitSweepPoint> {
    header("Fig. 5a — Accuracy on MI and RR vs total bits (layer-based)");
    let bundle = unet_bundle();
    let calib = bundle.calibration_inputs(100);
    let n = eval_frame_count();
    let eval = bundle.eval_frames(n, 0).inputs;
    let pts = bit_sweep(
        &bundle.model,
        ModelSpec::UNet,
        &calib,
        &eval,
        &[8, 10, 12, 14, 16, 18, 20],
        &[0],
    );
    println!(
        "{:>5} {:>10} {:>10} {:>12} {:>12}",
        "bits", "acc MI", "acc RR", "mean|Δ| MI", "mean|Δ| RR"
    );
    for p in &pts {
        println!(
            "{:>5} {:>9.2}% {:>9.2}% {:>12.5} {:>12.5}",
            p.width,
            p.accuracy_mi * 100.0,
            p.accuracy_rr * 100.0,
            p.mean_abs_diff_mi,
            p.mean_abs_diff_rr
        );
    }
    let w16 = pts.iter().find(|p| p.width == 16).expect("w=16 in sweep");
    println!(
        "  @16 bits: mean|Δ| MI {} | RR {}",
        vs_paper(w16.mean_abs_diff_mi, 0.025, ""),
        vs_paper(w16.mean_abs_diff_rr, 0.005, "")
    );
    pts
}

/// Fig. 5b: outliers vs total bits, with the +1-integer-bit mitigation.
#[must_use]
pub fn run_fig5b() -> Vec<BitSweepPoint> {
    header("Fig. 5b — Outliers (|Δ| > 0.20) vs total bits; +1 int-bit mitigation");
    let bundle = unet_bundle();
    let calib = bundle.calibration_inputs(100);
    let n = eval_frame_count();
    let eval = bundle.eval_frames(n, 0).inputs;
    let pts = bit_sweep(
        &bundle.model,
        ModelSpec::UNet,
        &calib,
        &eval,
        &[8, 10, 12, 14, 16, 18, 20],
        &[0, 1],
    );
    println!(
        "{:>5} {:>8} {:>16} {:>16} {:>10}",
        "bits", "margin", "outliers", "overflow events", "of outputs"
    );
    for p in &pts {
        println!(
            "{:>5} {:>8} {:>16} {:>16} {:>9.4}%",
            p.width,
            p.int_margin,
            p.outliers,
            p.overflow_events,
            p.outliers as f64 / p.total_outputs as f64 * 100.0
        );
    }
    let base16 = pts
        .iter()
        .find(|p| p.width == 16 && p.int_margin == 0)
        .expect("base point");
    let margin16 = pts
        .iter()
        .find(|p| p.width == 16 && p.int_margin == 1)
        .expect("margin point");
    println!(
        "  @16 bits: +1 integer bit takes outliers {} -> {} (paper: \"half ... mitigated\")",
        base16.outliers, margin16.outliers
    );
    pts
}

/// Fig. 5c summary.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5cSummary {
    /// U-Net campaign.
    pub unet: LatencyCampaign,
    /// MLP campaign.
    pub mlp: LatencyCampaign,
}

/// Fig. 5c: the system latency distribution.
#[must_use]
pub fn run_fig5c() -> Fig5cSummary {
    header("Fig. 5c — Distribution of system latency (Steps 1–8)");
    let frames = campaign_frame_count();
    let mut out = Vec::new();
    for (bundle, paper_mean, paper_min, paper_max) in [
        (unet_bundle(), 1.74, 1.73, 2.27),
        (mlp_bundle(), 0.31, 0.26, 0.91),
    ] {
        let fw = paper_firmware(&bundle, 100);
        let input = vec![0.1; bundle.spec.input_len()];
        let c = run_latency_campaign(&fw, &HpsModel::default(), &input, frames, 16, REPRO_SEED);
        println!("{} over {} frames:", bundle.spec.name(), c.samples_ms.len());
        println!("  mean {}", vs_paper(c.mean_ms, paper_mean, "ms"));
        println!("  min  {}", vs_paper(c.min_ms, paper_min, "ms"));
        println!("  max  {}", vs_paper(c.max_ms, paper_max, "ms"));
        if bundle.spec == ModelSpec::UNet {
            println!(
                "  below 1.9 ms: {:.3}% (paper 99.97%)",
                c.fraction_below(1.9) * 100.0
            );
            let h = c.histogram(1.6, 2.4, 32);
            print!("{}", h.render_ascii(48));
        }
        out.push(c);
    }
    let mlp = out.pop().expect("two campaigns");
    let unet = out.pop().expect("two campaigns");
    Fig5cSummary { unet, mlp }
}

/// Fig. 2's layer annotations: the per-layer `x` assignment of the final
/// build.
#[must_use]
pub fn run_fig2_precisions() -> String {
    header("Fig. 2 — per-layer precision annotations (ac_fixed<16, x>)");
    let bundle = unet_bundle();
    let calib = bundle.calibration_inputs(100);
    let profile = profile_model(&bundle.model, &calib);
    let fw = convert(&bundle.model, &profile, &HlsConfig::paper_default());
    let text = reads_hls4ml::render_precision_table(&fw);
    print!("{text}");
    text
}
