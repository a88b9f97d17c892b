//! The central node: an event-driven, *functional* simulation of Steps 1–8.
//!
//! One frame run moves real data: the standardized readings are quantized
//! and stored into the input RAM through the 32-bit HPS port, the control
//! IP is triggered, the firmware computes (bit-exact fixed point, via
//! `reads-hls4ml`), results land in the output RAM, the completion IRQ
//! fires, and the HPS reads the raw outputs back and dequantizes them. The
//! returned timing is the same decomposition the paper's performance
//! counters measured.

use crate::bridge::AvalonBridge;
use crate::control::{regs, ControlIp, ControlState};
use crate::counters::PerfCounters;
use crate::faults::{FaultInjector, FaultLog, FaultPlan, FrameFaults};
use crate::hps::{HpsFrameCosts, HpsModel};
use crate::ram::DualPortRam;
use crate::signaltap::{SignalId, SignalTap, SignalValue};
use reads_fixed::QFormat;
use reads_hls4ml::latency::estimate_latency;
use reads_hls4ml::Firmware;
use reads_sim::{EventQueue, Rng, SimDuration, SimTime};
use serde::Serialize;

/// Per-frame timing decomposition (Steps 1–8).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FrameTiming {
    /// Step 1: input write through the bridge.
    pub write: SimDuration,
    /// Step 2: trigger + control accesses.
    pub control: SimDuration,
    /// Steps 3–6: IP compute.
    pub compute: SimDuration,
    /// Step 7: interrupt to userspace (plus any preemption stall).
    pub irq: SimDuration,
    /// Step 8: result read-back.
    pub read: SimDuration,
    /// Misc software overhead attributed to the frame.
    pub misc: SimDuration,
    /// Whether the frame hit a scheduler preemption.
    pub preempted: bool,
    /// End-to-end Steps 1–8 latency.
    pub total: SimDuration,
}

/// SignalTap probe handles for the control-path signals of the node
/// (declare once per capture with [`TapProbes::declare`], then pass to
/// [`CentralNodeSim::run_frame_traced`]).
#[derive(Debug, Clone, Copy)]
pub struct TapProbes {
    /// The HPS trigger write.
    pub trigger: SignalId,
    /// Controller busy level.
    pub busy: SignalId,
    /// Controller done level.
    pub done: SignalId,
    /// Interrupt line to the HPS GIC.
    pub irq: SignalId,
    /// Controller FSM state (2-bit bus: 0 idle, 1 running, 2 done-pending).
    pub state: SignalId,
}

impl TapProbes {
    /// Declares the probe set on a capture buffer.
    pub fn declare(tap: &mut SignalTap) -> Self {
        Self {
            trigger: tap.add_bit("hps_trigger"),
            busy: tap.add_bit("ctrl_busy"),
            done: tap.add_bit("ctrl_done"),
            irq: tap.add_bit("irq_line"),
            state: tap.declare("ctrl_state", 2),
        }
    }
}

/// Events of one frame run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    WriteDone,
    Triggered,
    IpDone,
    IrqDelivered,
    ReadDone,
}

/// Where a hung frame stopped making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum HangKind {
    /// The control FSM latched up mid-compute: BUSY stays high, the done
    /// pulse never arrives. Only a soft reset clears it.
    StuckFsm,
    /// The IP finished (DONE reads 1) but the completion IRQ was lost on
    /// the way to userspace. The results are salvageable by polling.
    LostDoneIrq,
    /// A trigger was refused because the controller was not idle —
    /// leftover wedge from an earlier, unrecovered hang.
    TriggerRefused,
}

/// A frame that never completed its handshake. The watchdog in
/// `reads-core::resilience` consumes this to drive the recovery ladder.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FrameHang {
    /// What stopped the handshake.
    pub kind: HangKind,
    /// Frame time at which progress stopped (the watchdog adds its own
    /// timeout on top when accounting wall-clock cost).
    pub stalled_at: SimDuration,
}

/// The simulated central node.
#[derive(Debug, Clone)]
pub struct CentralNodeSim {
    firmware: Firmware,
    hps: HpsModel,
    input_ram: DualPortRam,
    output_ram: DualPortRam,
    control: ControlIp,
    counters: PerfCounters,
    compute_cycles: u64,
    words_per_value_in: usize,
    words_per_value_out: usize,
    output_fmt: QFormat,
    rng: Rng,
    bridge: AvalonBridge,
    injector: Option<FaultInjector>,
}

fn words_per_value(width: u32) -> usize {
    (width as usize).div_ceil(16)
}

fn sign_extend(raw: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((raw << shift) as i64) >> shift
}

impl CentralNodeSim {
    /// Builds a node around a firmware build.
    #[must_use]
    pub fn new(firmware: Firmware, hps: HpsModel, seed: u64) -> Self {
        let n_in = firmware.input_len * firmware.input_channels;
        let n_out = firmware.output_len();
        let in_fmt = firmware.input_quant.format();
        let output_fmt = firmware
            .nodes
            .last()
            .and_then(reads_hls4ml::firmware::FwNode::dense)
            .map_or(in_fmt, |d| d.out_quant.format());
        let wpv_in = words_per_value(in_fmt.width);
        let wpv_out = words_per_value(output_fmt.width);
        let compute_cycles = estimate_latency(&firmware).total_cycles;
        Self {
            input_ram: DualPortRam::new(n_in * wpv_in),
            output_ram: DualPortRam::new(n_out * wpv_out),
            firmware,
            hps,
            control: ControlIp::new(),
            counters: PerfCounters::new(),
            compute_cycles,
            words_per_value_in: wpv_in,
            words_per_value_out: wpv_out,
            output_fmt,
            rng: Rng::seed_from_u64(seed),
            bridge: AvalonBridge::default(),
            injector: None,
        }
    }

    /// Installs (or clears) a fault plan. The injector keeps its own RNG,
    /// so installing a quiet plan — or none — leaves the cost-model stream
    /// and every frame result bit-identical to an unfaulted node.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.injector = plan.map(FaultInjector::new);
    }

    /// Totals of everything the fault plane injected (None without a plan).
    #[must_use]
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.injector.as_ref().map(FaultInjector::log)
    }

    /// The control IP, for watchdog probes.
    #[must_use]
    pub fn control(&self) -> &ControlIp {
        &self.control
    }

    /// The firmware deployed on this node.
    #[must_use]
    pub fn firmware(&self) -> &Firmware {
        &self.firmware
    }

    /// IP compute cycles per frame (from the hls4ml latency model).
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// The performance counters of the last frame.
    #[must_use]
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Runs one frame. Returns the dequantized outputs (exactly what the
    /// HPS reads back) and the timing decomposition.
    ///
    /// # Panics
    /// Panics if the input length mismatches the firmware, or if an
    /// installed fault plan hangs the frame — callers injecting handshake
    /// faults must use [`Self::run_frame_checked`] and a watchdog instead.
    pub fn run_frame(&mut self, standardized: &[f64]) -> (Vec<f64>, FrameTiming) {
        match self.run_frame_inner(standardized, None) {
            Ok(r) => r,
            Err(h) => panic!("frame hung ({:?}) with no watchdog attached", h.kind),
        }
    }

    /// Runs one frame, surfacing handshake hangs as an error instead of
    /// panicking. Without a fault plan this never returns `Err`.
    ///
    /// # Errors
    /// Returns [`FrameHang`] when the trigger/done/IRQ handshake stops
    /// making progress (stuck FSM, lost done IRQ, refused trigger).
    pub fn run_frame_checked(
        &mut self,
        standardized: &[f64],
    ) -> Result<(Vec<f64>, FrameTiming), FrameHang> {
        self.run_frame_inner(standardized, None)
    }

    /// Runs one frame while recording the control-path signals into a
    /// SignalTap capture; `base` offsets the timestamps so consecutive
    /// frames lay out on one timeline (pass the running end-time).
    ///
    /// # Panics
    /// Panics if an installed fault plan hangs the frame (see
    /// [`Self::run_frame`]).
    pub fn run_frame_traced(
        &mut self,
        standardized: &[f64],
        tap: &mut SignalTap,
        probes: TapProbes,
        base: SimTime,
    ) -> (Vec<f64>, FrameTiming) {
        match self.run_frame_inner(standardized, Some((tap, probes, base))) {
            Ok(r) => r,
            Err(h) => panic!("frame hung ({:?}) with no watchdog attached", h.kind),
        }
    }

    fn run_frame_inner(
        &mut self,
        standardized: &[f64],
        mut tap: Option<(&mut SignalTap, TapProbes, SimTime)>,
    ) -> Result<(Vec<f64>, FrameTiming), FrameHang> {
        let n_in = self.firmware.input_len * self.firmware.input_channels;
        let n_out = self.firmware.output_len();
        assert_eq!(standardized.len(), n_in, "frame length");

        let costs: HpsFrameCosts = self.hps.sample_frame(
            n_in * self.words_per_value_in,
            n_out * self.words_per_value_out,
            &mut self.rng,
        );

        // Fault decisions come from the injector's private RNG stream —
        // the cost-model draws above are untouched, so a quiet (or absent)
        // plan reproduces the unfaulted simulation bit for bit.
        let ff = match self.injector.as_mut() {
            Some(inj) => inj.draw_frame(),
            None => FrameFaults::default(),
        };
        let (write_extra, read_extra, storm) = match self.injector.as_mut() {
            Some(inj) if ff.any() => {
                let bp = inj.plan().bridge;
                let we = FaultInjector::retry_cost(&self.bridge, &bp, ff.write_retries, true);
                let re = FaultInjector::retry_cost(&self.bridge, &bp, ff.read_retries, false);
                let st = if ff.storm_preemptions > 0 {
                    inj.storm_cost(&self.hps, ff.storm_preemptions)
                } else {
                    SimDuration::ZERO
                };
                (we, re, st)
            }
            _ => (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO),
        };

        // ---- Functional data path -------------------------------------
        // Step 1: quantize + store the inputs through the HPS port.
        let in_fmt = self.firmware.input_quant.format();
        let mut iq = self.firmware.input_quant.clone();
        let mut in_words: Vec<u16> = Vec::with_capacity(n_in * self.words_per_value_in);
        for &x in standardized {
            let raw = iq.quantize(x).raw() as u64;
            for w in 0..self.words_per_value_in {
                in_words.push(((raw >> (16 * w)) & 0xFFFF) as u16);
            }
        }
        self.input_ram.store_frame(&in_words);
        if ff.input_flips > 0 {
            if let Some(inj) = self.injector.as_mut() {
                let sites = inj.flip_sites(in_words.len(), ff.input_flips);
                self.input_ram.inject_bit_flips(&sites);
            }
        }

        // Steps 3-5: the IP reads the input RAM, computes, writes outputs.
        let (ram_in, _) = self.input_ram.load_frame(in_words.len());
        let dequant: Vec<f64> = ram_in
            .chunks(self.words_per_value_in)
            .map(|chunk| {
                let mut raw = 0u64;
                for (w, &word) in chunk.iter().enumerate() {
                    raw |= u64::from(word) << (16 * w);
                }
                sign_extend(raw, in_fmt.width) as f64 * in_fmt.lsb()
            })
            .collect();
        let (outputs, _stats) = self.firmware.infer(&dequant);
        let mut out_words: Vec<u16> = Vec::with_capacity(n_out * self.words_per_value_out);
        for &y in &outputs {
            let raw = ((y / self.output_fmt.lsb()).round() as i64) as u64;
            for w in 0..self.words_per_value_out {
                out_words.push(((raw >> (16 * w)) & 0xFFFF) as u16);
            }
        }
        self.output_ram.store_frame(&out_words);
        if ff.output_flips > 0 {
            if let Some(inj) = self.injector.as_mut() {
                let sites = inj.flip_sites(out_words.len(), ff.output_flips);
                self.output_ram.inject_bit_flips(&sites);
            }
        }

        // ---- Timed handshake (event-driven) ----------------------------
        let mut q: EventQueue<Ev> = EventQueue::new();
        self.counters.clear();
        self.counters.mark("frame_start", SimTime::ZERO);
        q.schedule_in(costs.write + write_extra, Ev::WriteDone);
        let mut t_end = SimTime::ZERO;
        // Snapshots the controller's HPS-visible signals into the capture.
        let snap = |control: &ControlIp,
                    tap: &mut Option<(&mut SignalTap, TapProbes, SimTime)>,
                    t: SimTime,
                    trigger_level: bool| {
            if let Some((tap, p, base)) = tap {
                let at = *base + t.since(SimTime::ZERO);
                tap.record(p.trigger, at, SignalValue::Bit(trigger_level));
                tap.record(
                    p.busy,
                    at,
                    SignalValue::Bit(control.read_reg(regs::BUSY) == 1),
                );
                tap.record(
                    p.done,
                    at,
                    SignalValue::Bit(control.read_reg(regs::DONE) == 1),
                );
                tap.record(p.irq, at, SignalValue::Bit(control.irq_asserted()));
                let state = match control.state() {
                    ControlState::Idle => 0,
                    ControlState::Running => 1,
                    ControlState::DonePendingAck => 2,
                };
                tap.record(p.state, at, SignalValue::Bus(state));
            }
        };
        snap(&self.control, &mut tap, SimTime::ZERO, false);
        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::WriteDone => {
                    self.counters.mark("write_done", t);
                    q.schedule_in(costs.control, Ev::Triggered);
                }
                Ev::Triggered => {
                    self.counters.mark("triggered", t);
                    let started = self.control.write_reg(regs::TRIGGER, 1);
                    if !started {
                        // Leftover wedge from an unrecovered hang: without a
                        // watchdog this is fatal (see `run_frame`).
                        self.counters.mark("trigger_refused", t);
                        return Err(FrameHang {
                            kind: HangKind::TriggerRefused,
                            stalled_at: t.since(SimTime::ZERO),
                        });
                    }
                    // Spurious trigger bursts arrive while the IP runs; the
                    // FSM ignores and counts them.
                    for _ in 0..ff.spurious_triggers {
                        self.control.write_reg(regs::TRIGGER, 1);
                    }
                    snap(&self.control, &mut tap, t, true);
                    if ff.stuck_fsm {
                        // SEU in the state register: BUSY stays high and the
                        // done pulse never comes. Progress stops here.
                        self.counters.mark("fsm_wedged", t);
                        return Err(FrameHang {
                            kind: HangKind::StuckFsm,
                            stalled_at: t.since(SimTime::ZERO),
                        });
                    }
                    q.schedule_in(SimDuration::from_cycles(self.compute_cycles), Ev::IpDone);
                }
                Ev::IpDone => {
                    self.counters.mark("ip_done", t);
                    self.control.ip_done();
                    snap(&self.control, &mut tap, t, false);
                    if ff.lost_irq {
                        // DONE reads 1 but the interrupt never reaches
                        // userspace; the results sit salvageable in the
                        // output RAM until a watchdog polls.
                        self.counters.mark("irq_lost", t);
                        return Err(FrameHang {
                            kind: HangKind::LostDoneIrq,
                            stalled_at: t.since(SimTime::ZERO),
                        });
                    }
                    q.schedule_in(costs.irq + costs.preemption + storm, Ev::IrqDelivered);
                }
                Ev::IrqDelivered => {
                    self.counters.mark("irq_delivered", t);
                    self.control.write_reg(regs::IRQ_ACK, 1);
                    snap(&self.control, &mut tap, t, false);
                    q.schedule_in(costs.read + costs.misc + read_extra, Ev::ReadDone);
                }
                Ev::ReadDone => {
                    self.counters.mark("read_done", t);
                    t_end = t;
                }
            }
        }
        debug_assert_eq!(self.control.state(), ControlState::Idle);

        // Step 8 (functional): the HPS reads the raw outputs back.
        let result = self.read_outputs();

        let timing = FrameTiming {
            write: costs.write + write_extra,
            control: costs.control,
            compute: SimDuration::from_cycles(self.compute_cycles),
            irq: costs.irq + costs.preemption + storm,
            read: costs.read + read_extra,
            misc: costs.misc,
            preempted: costs.preempted() || storm > SimDuration::ZERO,
            total: t_end.since(SimTime::ZERO),
        };
        Ok((result, timing))
    }

    /// Dequantizes the output RAM contents (the Step 8 functional read).
    fn read_outputs(&self) -> Vec<f64> {
        let n_out = self.firmware.output_len();
        let (ram_out, _) = self.output_ram.load_frame(n_out * self.words_per_value_out);
        ram_out
            .chunks(self.words_per_value_out)
            .map(|chunk| {
                let mut raw = 0u64;
                for (w, &word) in chunk.iter().enumerate() {
                    raw |= u64::from(word) << (16 * w);
                }
                sign_extend(raw, self.output_fmt.width) as f64 * self.output_fmt.lsb()
            })
            .collect()
    }

    // ---- Watchdog recovery surface ------------------------------------
    // The rungs of the recovery ladder in `reads-core::resilience`. Each
    // returns the simulated wall-clock cost of the action so the watchdog
    // can budget against the frame deadline.

    /// Rung 1 probe: after a hang, poll the status registers. If the IP
    /// actually finished (lost-IRQ hang), acknowledge and read the results
    /// back — no recompute needed. Returns `None` when the FSM is wedged.
    pub fn try_salvage(&mut self) -> Option<(Vec<f64>, SimDuration)> {
        // Two status reads (BUSY, DONE) either way.
        let probe = self.bridge.read_time(2);
        if self.control.read_reg(regs::DONE) != 1 {
            return None;
        }
        self.control.write_reg(regs::IRQ_ACK, 1);
        let out = self.read_outputs();
        let n_words = (self.firmware.output_len() * self.words_per_value_out).div_ceil(2);
        let cost = probe + self.bridge.write_time(1) + self.bridge.read_time(n_words);
        Some((out, cost))
    }

    /// Rung 2: re-trigger. Only succeeds if the controller is idle (it is
    /// not after a genuine stuck-FSM hang — the write is counted as
    /// spurious and the rung fails). Returns whether the IP started, plus
    /// the cost of the register write.
    pub fn try_retrigger(&mut self) -> (bool, SimDuration) {
        let started = self.control.write_reg(regs::TRIGGER, 1);
        if started {
            // A bare re-trigger without a fresh input write reuses the
            // frame already in the input RAM; put the FSM back so the next
            // full `run_frame_checked` drives the complete handshake.
            self.control.soft_reset();
        }
        (started, self.bridge.write_time(1))
    }

    /// Rung 3: soft-reset the control IP (clears a stuck FSM). Returns the
    /// cost of the reset register write.
    pub fn soft_reset(&mut self) -> SimDuration {
        self.control.soft_reset();
        self.bridge.write_time(1)
    }

    /// Rung 4: re-scrub the weight memories from the golden copy held in
    /// HPS DDR (repairs SEU-corrupted weights; see `reads-core::seu`).
    /// Returns the cost of streaming every parameter word back through the
    /// bridge.
    pub fn scrub_weights(&mut self, golden: &Firmware) -> SimDuration {
        self.firmware = golden.clone();
        self.compute_cycles = estimate_latency(&self.firmware).total_cycles;
        let words = self.firmware.param_count().div_ceil(2);
        self.bridge.write_time(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_hls4ml::{convert, profile_model, HlsConfig};
    use reads_nn::models;

    fn unet_node(seed: u64) -> CentralNodeSim {
        let m = models::reads_unet(1);
        let inputs = vec![(0..260)
            .map(|j| (j as f64 * 0.1).sin())
            .collect::<Vec<f64>>()];
        let p = profile_model(&m, &inputs);
        let fw = convert(&m, &p, &HlsConfig::paper_default());
        CentralNodeSim::new(fw, HpsModel::default(), seed)
    }

    #[test]
    fn frame_roundtrip_matches_direct_firmware_inference() {
        let mut node = unet_node(1);
        let input: Vec<f64> = (0..260).map(|j| (j as f64 * 0.1).sin()).collect();
        let (direct, _) = node.firmware().infer(&input);
        let (via_ram, _) = node.run_frame(&input);
        assert_eq!(
            direct, via_ram,
            "RAM round trip must be bit-exact against direct inference"
        );
    }

    #[test]
    fn timing_decomposition_sums_to_total() {
        let mut node = unet_node(2);
        let input = vec![0.25; 260];
        let (_, t) = node.run_frame(&input);
        let sum = t.write + t.control + t.compute + t.irq + t.read + t.misc;
        assert_eq!(sum.as_nanos(), t.total.as_nanos());
    }

    #[test]
    fn unet_system_latency_near_paper() {
        // Paper: mean 1.74 ms, range 1.73–2.27 ms. A handful of frames must
        // land in a loose band around that (full campaign in reads-core).
        let mut node = unet_node(3);
        let input = vec![0.1; 260];
        for _ in 0..20 {
            let (_, t) = node.run_frame(&input);
            let ms = t.total.as_millis_f64();
            assert!((1.6..=2.4).contains(&ms), "system latency {ms} ms");
        }
    }

    #[test]
    fn perf_counters_cover_all_steps() {
        let mut node = unet_node(4);
        node.run_frame(&vec![0.0; 260]);
        let c = node.counters();
        for mark in [
            "frame_start",
            "write_done",
            "triggered",
            "ip_done",
            "irq_delivered",
            "read_done",
        ] {
            assert!(c.last(mark).is_some(), "missing {mark}");
        }
        // The compute span equals the firmware estimate exactly.
        let span = c.span("triggered", "ip_done");
        assert_eq!(span.as_cycles_ceil(), node.compute_cycles());
    }

    #[test]
    fn traced_frame_produces_a_consistent_waveform() {
        use crate::signaltap::{SignalTap, SignalValue};
        let mut node = unet_node(6);
        let mut tap = SignalTap::new();
        let probes = TapProbes::declare(&mut tap);
        let input = vec![0.2; 260];
        let mut base = SimTime::ZERO;
        for _ in 0..2 {
            let (out_traced, t) = node.run_frame_traced(&input, &mut tap, probes, base);
            base = base + t.total + SimDuration::from_micros(10);
            // Traced and untraced paths agree functionally.
            let (out_plain, _) = node.run_frame(&input);
            assert_eq!(out_traced, out_plain);
        }
        // The waveform ends with the IRQ deasserted and the FSM idle.
        assert_eq!(
            tap.value_at(probes.irq, base),
            Some(SignalValue::Bit(false))
        );
        assert_eq!(tap.value_at(probes.state, base), Some(SignalValue::Bus(0)));
        // VCD export carries the control signals and both frames' activity.
        let vcd = tap.to_vcd("central_node");
        assert!(vcd.contains("hps_trigger"));
        assert!(vcd.contains("ctrl_state"));
        assert!(tap.transition_count() >= 10, "{}", tap.transition_count());
    }

    #[test]
    fn controller_returns_to_idle_between_frames() {
        let mut node = unet_node(5);
        for _ in 0..3 {
            node.run_frame(&vec![0.0; 260]);
        }
        // A fourth frame still triggers cleanly (no stuck handshake).
        let (_, t) = node.run_frame(&vec![0.5; 260]);
        assert!(t.total > SimDuration::ZERO);
    }

    #[test]
    fn quiet_fault_plan_is_bit_identical() {
        let mut plain = unet_node(11);
        let mut planned = unet_node(11);
        planned.set_fault_plan(Some(crate::faults::FaultPlan::none()));
        let input: Vec<f64> = (0..260).map(|j| (j as f64 * 0.05).cos()).collect();
        for _ in 0..5 {
            let (oa, ta) = plain.run_frame(&input);
            let (ob, tb) = planned.run_frame(&input);
            assert_eq!(oa, ob, "outputs must match bit for bit");
            assert_eq!(ta.total.as_nanos(), tb.total.as_nanos(), "timing too");
        }
        assert_eq!(planned.fault_log().unwrap().total_events(), 0);
    }

    #[test]
    fn stuck_fsm_hangs_until_soft_reset() {
        let mut node = unet_node(12);
        node.set_fault_plan(Some(crate::faults::FaultPlan::stuck_fsm(1.0, 5)));
        let input = vec![0.1; 260];
        let hang = node.run_frame_checked(&input).unwrap_err();
        assert_eq!(hang.kind, HangKind::StuckFsm);
        assert_eq!(
            node.control().state(),
            ControlState::Running,
            "BUSY stuck high"
        );
        // The results are NOT salvageable (the IP never finished) and a
        // bare re-trigger is refused.
        assert!(node.try_salvage().is_none());
        let (started, _) = node.try_retrigger();
        assert!(!started);
        // Soft reset clears the wedge; with the hazard removed the node
        // completes frames again.
        node.soft_reset();
        assert_eq!(node.control().state(), ControlState::Idle);
        node.set_fault_plan(None);
        let (out, _) = node.run_frame(&input);
        assert_eq!(out.len(), node.firmware().output_len());
    }

    #[test]
    fn lost_irq_is_salvageable_without_recompute() {
        let mut node = unet_node(13);
        let input: Vec<f64> = (0..260).map(|j| (j as f64 * 0.1).sin()).collect();
        let (direct, _) = node.firmware().infer(&input);
        node.set_fault_plan(Some(crate::faults::FaultPlan::lost_irq(1.0, 6)));
        let hang = node.run_frame_checked(&input).unwrap_err();
        assert_eq!(hang.kind, HangKind::LostDoneIrq);
        // DONE reads 1: polling recovers the exact results.
        let (salvaged, cost) = node.try_salvage().expect("results ready in output RAM");
        assert_eq!(salvaged, direct, "salvage is bit-exact");
        assert!(cost > SimDuration::ZERO);
        assert_eq!(
            node.control().state(),
            ControlState::Idle,
            "ack clears the FSM"
        );
    }

    #[test]
    fn scrub_restores_golden_weights() {
        let mut node = unet_node(14);
        let golden = node.firmware().clone();
        let cost = node.scrub_weights(&golden);
        assert!(cost > SimDuration::ZERO);
        let input = vec![0.3; 260];
        let (a, _) = golden.infer(&input);
        let (b, _) = node.run_frame(&input);
        assert_eq!(a, b);
    }
}
