//! Replicated control-IP instances behind one HPS↔FPGA bridge.
//!
//! The deployed node of the paper hosts a single U-Net IP; the fabric of
//! the Arria 10 has room for several (Table III: 89 % logic for the
//! largest build, far less for the co-designed one). [`IpArray`] models M
//! replicated control-IP + U-Net instances sharing the one Avalon-MM
//! bridge: frames are dispatched round-robin to the next healthy IP, each
//! IP keeps its own handshake FSM, fault plan and RNG stream, and the
//! batch makespan model serializes bridge I/O while overlapping compute —
//! the architectural reality that bounds multi-IP scaling.
//!
//! The sharded engine in `reads-core::engine` drives one `IpArray` per
//! shard so the simulated-SoC path and the native-Rust fast path share one
//! scheduler abstraction.

use crate::hps::HpsModel;
use crate::node::{CentralNodeSim, FrameHang, FrameTiming};
use reads_hls4ml::Firmware;
use reads_sim::SimDuration;
use serde::Serialize;

/// Seed-mixing constant shared with the campaign replicas.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One batch run over the array.
#[derive(Debug, Clone, Serialize)]
pub struct BatchRun {
    /// Per-frame dequantized outputs, in submission order.
    pub outputs: Vec<Vec<f64>>,
    /// Per-frame timing decompositions.
    pub timings: Vec<FrameTiming>,
    /// IP index each frame ran on.
    pub assigned: Vec<usize>,
    /// Batch completion time under the shared-bridge overlap model.
    pub makespan: SimDuration,
}

/// Batch completion time for frames spread over `m` IPs behind one bridge:
/// every non-compute step (writes, trigger, IRQ delivery, read-back, HPS
/// software) serializes on the bridge/HPS, while IP compute overlaps with
/// other frames' I/O. For `m = 1` this degenerates to the exact sequential
/// sum; for large `m` it converges to the serial I/O bound — the Amdahl
/// fraction a multi-IP fabric cannot escape without a second bridge.
#[must_use]
pub fn batch_makespan(timings: &[FrameTiming], assigned: &[usize], m: usize) -> SimDuration {
    assert_eq!(timings.len(), assigned.len(), "one IP per timing");
    assert!(m > 0, "empty array");
    let mut io_serial = SimDuration::ZERO;
    let mut compute = vec![SimDuration::ZERO; m];
    for (t, &ip) in timings.iter().zip(assigned) {
        io_serial += t.total.saturating_sub(t.compute);
        compute[ip] += t.compute;
    }
    let compute_max = compute.into_iter().max().unwrap_or(SimDuration::ZERO);
    io_serial + compute_max
}

/// M replicated control-IP instances with round-robin dispatch.
#[derive(Debug, Clone)]
pub struct IpArray {
    ips: Vec<CentralNodeSim>,
    next: usize,
    frames_per_ip: Vec<u64>,
    wedged: Vec<bool>,
}

impl IpArray {
    /// Builds `m` IP replicas of the same firmware, each with its own
    /// derived cost-model seed (so replica timing streams are independent
    /// but the whole array is deterministic per seed). The firmware is
    /// lowered once; every replica shares that lowering.
    ///
    /// # Panics
    /// Panics when `m == 0`.
    #[must_use]
    pub fn new(firmware: &Firmware, hps: &HpsModel, m: usize, seed: u64) -> Self {
        assert!(m > 0, "an IP array needs at least one instance");
        let proto = CentralNodeSim::new(firmware.clone(), hps.clone(), seed);
        let ips = (0..m)
            .map(|i| proto.reseeded(seed ^ (i as u64).wrapping_mul(SEED_MIX)))
            .collect();
        Self {
            ips,
            next: 0,
            frames_per_ip: vec![0; m],
            wedged: vec![false; m],
        }
    }

    /// Number of IP instances.
    #[must_use]
    pub fn ip_count(&self) -> usize {
        self.ips.len()
    }

    /// The `i`-th IP.
    #[must_use]
    pub fn ip(&self, i: usize) -> &CentralNodeSim {
        &self.ips[i]
    }

    /// Mutable access to the `i`-th IP (the watchdog's recovery surface).
    pub fn ip_mut(&mut self, i: usize) -> &mut CentralNodeSim {
        &mut self.ips[i]
    }

    /// Installs a fault plan on one IP only — the others keep running
    /// clean, which is exactly the blast-radius property the sharded
    /// engine's per-shard health relies on.
    pub fn set_fault_plan_on(&mut self, i: usize, plan: Option<crate::faults::FaultPlan>) {
        self.ips[i].set_fault_plan(plan);
    }

    /// Frames dispatched to the `i`-th IP so far.
    #[must_use]
    pub fn frames_on(&self, i: usize) -> u64 {
        self.frames_per_ip[i]
    }

    /// Whether the `i`-th IP is marked wedged (out of rotation).
    #[must_use]
    pub fn is_wedged(&self, i: usize) -> bool {
        self.wedged[i]
    }

    /// IPs currently out of rotation.
    #[must_use]
    pub fn wedged_count(&self) -> usize {
        self.wedged.iter().filter(|&&w| w).count()
    }

    /// Takes the `i`-th IP out of the round-robin rotation (an unrecovered
    /// hang: the FSM needs outside intervention).
    pub fn mark_wedged(&mut self, i: usize) {
        self.wedged[i] = true;
    }

    /// Returns a soft-reset IP to rotation (operator action).
    pub fn clear_wedged(&mut self, i: usize) {
        self.wedged[i] = false;
        self.ips[i].soft_reset();
    }

    /// Next healthy IP in round-robin order, advancing the cursor.
    /// `None` when every IP is wedged.
    pub fn dispatch(&mut self) -> Option<usize> {
        let m = self.ips.len();
        for probe in 0..m {
            let i = (self.next + probe) % m;
            if !self.wedged[i] {
                self.next = (i + 1) % m;
                self.frames_per_ip[i] += 1;
                return Some(i);
            }
        }
        None
    }

    /// Runs one frame on the next healthy IP, surfacing hangs with the IP
    /// index so the caller can recover or wedge that instance only.
    ///
    /// # Errors
    /// [`FrameHang`] (paired with the IP it happened on) when the
    /// handshake stops making progress; `Err` with IP `usize::MAX` when
    /// every IP is already wedged.
    pub fn run_frame_checked(
        &mut self,
        standardized: &[f64],
    ) -> Result<(Vec<f64>, FrameTiming, usize), (FrameHang, usize)> {
        let Some(i) = self.dispatch() else {
            return Err((
                FrameHang {
                    kind: crate::node::HangKind::TriggerRefused,
                    stalled_at: SimDuration::ZERO,
                },
                usize::MAX,
            ));
        };
        match self.ips[i].run_frame_checked(standardized) {
            Ok((out, t)) => Ok((out, t, i)),
            Err(h) => Err((h, i)),
        }
    }

    /// Runs a whole batch round-robin across the array (fault-free path).
    /// Outputs are bit-identical to running each frame through
    /// [`Firmware::infer`]; the makespan follows [`batch_makespan`].
    ///
    /// # Panics
    /// Panics if an installed fault plan hangs a frame — fault studies
    /// must drive [`Self::run_frame_checked`] behind a watchdog instead.
    #[must_use]
    pub fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchRun {
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut timings = Vec::with_capacity(inputs.len());
        let mut assigned = Vec::with_capacity(inputs.len());
        for x in inputs {
            let i = self.dispatch().expect("array fully wedged");
            let (out, t) = self.ips[i].run_frame(x);
            outputs.push(out);
            timings.push(t);
            assigned.push(i);
        }
        let makespan = batch_makespan(&timings, &assigned, self.ips.len());
        BatchRun {
            outputs,
            timings,
            assigned,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_hls4ml::{convert, profile_model, HlsConfig};
    use reads_nn::models;

    fn mlp_firmware() -> Firmware {
        let m = models::reads_mlp(3);
        let frames = vec![vec![0.2; 259]];
        let p = profile_model(&m, &frames);
        convert(&m, &p, &HlsConfig::paper_default())
    }

    #[test]
    fn round_robin_balances_frames() {
        let fw = mlp_firmware();
        let mut arr = IpArray::new(&fw, &HpsModel::default(), 4, 9);
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![0.01 * i as f64; 259]).collect();
        let run = arr.run_batch(&inputs);
        assert_eq!(run.outputs.len(), 12);
        for i in 0..4 {
            assert_eq!(arr.frames_on(i), 3, "IP {i} frame share");
        }
        // Dispatch order is strict round robin.
        assert_eq!(run.assigned, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn array_outputs_match_direct_inference() {
        let fw = mlp_firmware();
        let mut arr = IpArray::new(&fw, &HpsModel::default(), 3, 10);
        let inputs: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..259)
                    .map(|j| ((i * 37 + j) as f64 * 0.01).sin())
                    .collect()
            })
            .collect();
        let run = arr.run_batch(&inputs);
        for (x, y) in inputs.iter().zip(&run.outputs) {
            let (direct, _) = fw.infer(x);
            assert_eq!(y, &direct, "replicated IP must stay bit-identical");
        }
    }

    #[test]
    fn single_ip_makespan_is_the_sequential_sum() {
        let fw = mlp_firmware();
        let mut arr = IpArray::new(&fw, &HpsModel::default(), 1, 11);
        let inputs: Vec<Vec<f64>> = (0..5).map(|_| vec![0.1; 259]).collect();
        let run = arr.run_batch(&inputs);
        let sum: u64 = run.timings.iter().map(|t| t.total.as_nanos()).sum();
        assert_eq!(run.makespan.as_nanos(), sum);
    }

    #[test]
    fn more_ips_shrink_makespan_toward_the_io_bound() {
        let fw = mlp_firmware();
        let inputs: Vec<Vec<f64>> = (0..16).map(|_| vec![0.1; 259]).collect();
        let mk = |m: usize| {
            let mut arr = IpArray::new(&fw, &HpsModel::default(), m, 12);
            arr.run_batch(&inputs).makespan
        };
        let m1 = mk(1);
        let m4 = mk(4);
        assert!(m4 < m1, "4 IPs must beat 1: {m4:?} vs {m1:?}");
        // The serial I/O fraction bounds the gain: with compute fully
        // overlapped the makespan never drops below sum(total - compute).
        let mut arr = IpArray::new(&fw, &HpsModel::default(), 16, 12);
        for i in 1..16 {
            assert!(
                std::sync::Arc::ptr_eq(arr.ip(0).compiled(), arr.ip(i).compiled()),
                "replica {i} shares the one lowering"
            );
        }
        let run = arr.run_batch(&inputs);
        let io: u64 = run
            .timings
            .iter()
            .map(|t| t.total.saturating_sub(t.compute).as_nanos())
            .sum();
        assert!(run.makespan.as_nanos() >= io);
    }

    #[test]
    fn wedged_ip_leaves_rotation_and_returns() {
        let fw = mlp_firmware();
        let mut arr = IpArray::new(&fw, &HpsModel::default(), 3, 13);
        arr.mark_wedged(1);
        let inputs: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0; 259]).collect();
        let run = arr.run_batch(&inputs);
        assert!(run.assigned.iter().all(|&i| i != 1), "{:?}", run.assigned);
        assert_eq!(arr.wedged_count(), 1);
        arr.clear_wedged(1);
        let run2 = arr.run_batch(&inputs);
        assert!(run2.assigned.contains(&1));
    }

    #[test]
    fn fault_on_one_ip_spares_the_others() {
        let fw = mlp_firmware();
        let mut arr = IpArray::new(&fw, &HpsModel::default(), 2, 14);
        arr.set_fault_plan_on(0, Some(crate::faults::FaultPlan::stuck_fsm(1.0, 5)));
        let input = vec![0.1; 259];
        // First dispatch lands on IP 0 and hangs.
        let (hang, ip) = arr.run_frame_checked(&input).unwrap_err();
        assert_eq!(ip, 0);
        assert_eq!(hang.kind, crate::node::HangKind::StuckFsm);
        arr.mark_wedged(0);
        // Every further frame still completes on IP 1.
        for _ in 0..4 {
            let (_, _, ip) = arr.run_frame_checked(&input).expect("healthy IP");
            assert_eq!(ip, 1);
        }
        // Fully wedged arrays refuse dispatch.
        arr.mark_wedged(1);
        assert!(arr.run_frame_checked(&input).is_err());
    }
}
