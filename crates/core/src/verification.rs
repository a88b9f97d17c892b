//! The six-stage verification flow (Sec. IV-C).
//!
//! The paper verifies each stage of the build against "the expected Keras
//! outputs", bottom-up: (1) the control IP FSM alone, (2) the
//! hls4ml-generated streaming IP against the float model (on the small MLP
//! first), (3) the FPGA-side subsystem — on-chip RAM + controller + IP —
//! as a round trip, (4) the memory-mapped bridge with a booted OS poking a
//! *simple adder* component, (5) the interrupt path, and (6) everything
//! combined, observed from the user-space application. Each stage below is
//! executable and returns a pass/fail with the observable it checked.

use reads_hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads_nn::Model;
use reads_soc::control::{regs, ControlIp, ControlState};
use reads_soc::hps::HpsModel;
use reads_soc::node::CentralNodeSim;
use reads_soc::ram::DualPortRam;
use serde::Serialize;

/// Result of one verification stage.
#[derive(Debug, Clone, Serialize)]
pub struct StageResult {
    /// Stage number (1–6, paper numbering).
    pub stage: usize,
    /// Stage name.
    pub name: &'static str,
    /// Whether the stage's check held.
    pub passed: bool,
    /// The quantitative observable (max error, mismatch count, …).
    pub observable: f64,
    /// What the observable means.
    pub detail: String,
}

/// Stage 1: exhaustive walk of the control IP handshake FSM.
#[must_use]
pub fn stage1_control_ip() -> StageResult {
    let mut c = ControlIp::new();
    let mut violations = 0u32;

    // Nominal cycle, repeated; plus protocol abuse that must be tolerated.
    for _ in 0..10 {
        if !c.write_reg(regs::TRIGGER, 1) {
            violations += 1;
        }
        if c.state() != ControlState::Running || c.read_reg(regs::BUSY) != 1 {
            violations += 1;
        }
        // Double trigger while running must be ignored.
        if c.write_reg(regs::TRIGGER, 1) {
            violations += 1;
        }
        c.ip_done();
        if !c.irq_asserted() || c.read_reg(regs::DONE) != 1 {
            violations += 1;
        }
        c.write_reg(regs::IRQ_ACK, 1);
        if c.state() != ControlState::Idle || c.irq_asserted() {
            violations += 1;
        }
    }
    // Ack in idle: no-op.
    c.write_reg(regs::IRQ_ACK, 1);
    if c.state() != ControlState::Idle {
        violations += 1;
    }
    StageResult {
        stage: 1,
        name: "control IP FSM",
        passed: violations == 0,
        observable: f64::from(violations),
        detail: format!("{violations} protocol violations over 10 handshake cycles"),
    }
}

/// Stage 2: the hls4ml-generated IP against the float model.
///
/// `tolerance` is the paper's 0.20 closeness criterion; the stage passes
/// when every output of every frame is within it.
#[must_use]
pub fn stage2_ip_vs_float(
    model: &Model,
    firmware: &Firmware,
    frames: &[Vec<f64>],
    tolerance: f64,
) -> StageResult {
    let mut max_err = 0.0f64;
    for x in frames {
        let yf = model.predict(x);
        let (yq, _) = firmware.infer(x);
        for (a, b) in yf.iter().zip(&yq) {
            max_err = max_err.max((a - b).abs());
        }
    }
    StageResult {
        stage: 2,
        name: "hls4ml IP vs float model",
        passed: max_err <= tolerance,
        observable: max_err,
        detail: format!(
            "max |quantized − float| = {max_err:.4} over {} frames (tol {tolerance})",
            frames.len()
        ),
    }
}

/// Stage 3: the FPGA-side subsystem — RAM in, IP, RAM out — must be
/// bit-exact against direct firmware inference. The node computes on the
/// lowered engine, so this is also an interpreter-vs-compiled differential.
#[must_use]
pub fn stage3_fpga_subsystem(firmware: &Firmware, frames: &[Vec<f64>]) -> StageResult {
    let mut node = CentralNodeSim::new(firmware.clone(), HpsModel::default(), 0xF36A);
    let mut mismatches = 0u64;
    for x in frames {
        let (direct, _) = firmware.infer(x);
        let (via_ram, _) = node.run_frame(x);
        mismatches += direct.iter().zip(&via_ram).filter(|(a, b)| a != b).count() as u64;
    }
    StageResult {
        stage: 3,
        name: "FPGA subsystem (RAM + control + IP)",
        passed: mismatches == 0,
        observable: mismatches as f64,
        detail: format!("{mismatches} output words differ from direct inference"),
    }
}

/// Stage 4: the Avalon bridge exercised with the paper's "simple adder"
/// component: the HPS writes operand pairs through the 32-bit port and
/// reads back sums computed on the 16-bit side.
#[must_use]
pub fn stage4_bridge_adder() -> StageResult {
    let mut ram = DualPortRam::new(64);
    let mut failures = 0u32;
    for trial in 0..100u32 {
        let a = (trial.wrapping_mul(2_654_435_761) & 0x7FFF) as u16;
        let b = ((trial.wrapping_mul(40_503) >> 3) & 0x7FFF) as u16;
        // HPS writes the operands packed into one 32-bit word.
        ram.write32(0, (u32::from(b) << 16) | u32::from(a));
        // The FPGA-side adder reads both 16-bit halves and writes the sum.
        let sum = ram.read16(0).wrapping_add(ram.read16(1));
        ram.write16(2, sum);
        // HPS reads the result back through the 32-bit port.
        let read_back = (ram.read32(1) & 0xFFFF) as u16;
        if read_back != a.wrapping_add(b) {
            failures += 1;
        }
    }
    StageResult {
        stage: 4,
        name: "MM bridge with simple adder",
        passed: failures == 0,
        observable: f64::from(failures),
        detail: format!("{failures} of 100 adder round trips failed"),
    }
}

/// Stage 5: the interrupt path — the IRQ line must assert exactly on done
/// and clear exactly on ack.
#[must_use]
pub fn stage5_interrupt() -> StageResult {
    let mut c = ControlIp::new();
    let mut errors = 0u32;
    if c.irq_asserted() {
        errors += 1;
    }
    c.write_reg(regs::TRIGGER, 1);
    if c.irq_asserted() {
        errors += 1; // must not assert while running
    }
    c.ip_done();
    if !c.irq_asserted() {
        errors += 1;
    }
    c.write_reg(regs::IRQ_ACK, 0); // writing 0 must not ack
    if !c.irq_asserted() {
        errors += 1;
    }
    c.write_reg(regs::IRQ_ACK, 1);
    if c.irq_asserted() {
        errors += 1;
    }
    StageResult {
        stage: 5,
        name: "interrupt path",
        passed: errors == 0,
        observable: f64::from(errors),
        detail: format!("{errors} IRQ line errors"),
    }
}

/// Stage 6: the combined system observed from the user-space application:
/// frames through the full Steps 1–8 path must match the float model within
/// the tolerance and meet the 3 ms deadline.
#[must_use]
pub fn stage6_combined(
    model: &Model,
    firmware: &Firmware,
    frames: &[Vec<f64>],
    tolerance: f64,
) -> StageResult {
    let mut node = CentralNodeSim::new(firmware.clone(), HpsModel::default(), 0x6A6A);
    let mut max_err = 0.0f64;
    let mut deadline_misses = 0u64;
    for x in frames {
        let yf = model.predict(x);
        let (yq, t) = node.run_frame(x);
        for (a, b) in yf.iter().zip(&yq) {
            max_err = max_err.max((a - b).abs());
        }
        if t.total.as_millis_f64() > 3.0 {
            deadline_misses += 1;
        }
    }
    let passed = max_err <= tolerance && deadline_misses == 0;
    StageResult {
        stage: 6,
        name: "combined system via user-space app",
        passed,
        observable: max_err,
        detail: format!(
            "max error {max_err:.4}, {deadline_misses} deadline misses over {} frames",
            frames.len()
        ),
    }
}

/// Runs all six stages on a model/firmware pair (stage 2's "start with a
/// small MLP first" discipline is exercised by the callers, which run this
/// flow for both models).
#[must_use]
pub fn run_verification_flow(
    model: &Model,
    firmware: &Firmware,
    frames: &[Vec<f64>],
    tolerance: f64,
) -> Vec<StageResult> {
    vec![
        stage1_control_ip(),
        stage2_ip_vs_float(model, firmware, frames, tolerance),
        stage3_fpga_subsystem(firmware, frames),
        stage4_bridge_adder(),
        stage5_interrupt(),
        stage6_combined(model, firmware, frames, tolerance),
    ]
}

/// Convenience used by tests/examples: builds firmware for a model under
/// the paper config, profiling on the given frames.
#[must_use]
pub fn build_firmware(model: &Model, frames: &[Vec<f64>]) -> Firmware {
    let profile = profile_model(model, frames);
    convert(model, &profile, &HlsConfig::paper_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_nn::models;

    fn mlp_fixture() -> (Model, Firmware, Vec<Vec<f64>>) {
        let m = models::reads_mlp(9);
        let frames: Vec<Vec<f64>> = (0..6)
            .map(|f| {
                (0..259)
                    .map(|j| ((j + f * 13) as f64 * 0.05).sin() * 2.0)
                    .collect()
            })
            .collect();
        let fw = build_firmware(&m, &frames);
        (m, fw, frames)
    }

    #[test]
    fn all_stages_pass_on_the_mlp() {
        let (m, fw, frames) = mlp_fixture();
        let results = run_verification_flow(&m, &fw, &frames, reads_nn::metrics::PAPER_TOLERANCE);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(
                r.passed,
                "stage {} ({}) failed: {}",
                r.stage, r.name, r.detail
            );
        }
    }

    #[test]
    fn stage2_fails_for_garbage_firmware() {
        // Sanity: the check must be able to fail. Quantize with a absurdly
        // coarse uniform format.
        use reads_fixed::QFormat;
        use reads_hls4ml::config::PrecisionStrategy;
        let m = models::reads_mlp(9);
        let frames = vec![vec![1.5; 259]];
        let p = profile_model(&m, &frames);
        let cfg = HlsConfig::with_strategy(PrecisionStrategy::Uniform(QFormat::signed(4, 4)));
        let fw = convert(&m, &p, &cfg);
        let r = stage2_ip_vs_float(&m, &fw, &frames, 0.05);
        assert!(!r.passed, "4-bit firmware must miss a 0.05 tolerance");
    }

    #[test]
    fn stage_results_carry_observables() {
        let r = stage1_control_ip();
        assert!(r.passed);
        assert_eq!(r.observable, 0.0);
        assert!(r.detail.contains("violations"));
    }
}
