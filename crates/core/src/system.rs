//! The deployed system: Ethernet ingress → HPS pre-processing → SoC frame
//! run → ACNET egress (Steps 0–9 of Fig. 2), plus the real-time admission
//! check (320 fps at a 3 ms deadline).

use crate::resilience::Watchdog;
use reads_blm::acnet::DeblendVerdict;
use reads_blm::hubs::{assemble_frame, HubPacket};
use reads_blm::Standardizer;
use reads_hls4ml::Firmware;
use reads_sim::SimDuration;
use reads_soc::eth::EthernetModel;
use reads_soc::faults::{FaultLog, FaultPlan};
use reads_soc::hps::HpsModel;
use reads_soc::node::{CentralNodeSim, FrameTiming};
use serde::Serialize;

/// ACNET trip threshold: total attribution mass below which a frame is
/// considered quiet (no intervention).
pub const TRIP_THRESHOLD: f64 = 5.0;

/// End-to-end timing of one frame including the Ethernet steps.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EndToEndTiming {
    /// Step 0: hub-packet ingress.
    pub ingress: SimDuration,
    /// Steps 1–8 (the paper's measured window).
    pub core: FrameTiming,
    /// Step 9: ACNET egress.
    pub egress: SimDuration,
    /// Total Steps 0–9.
    pub total: SimDuration,
}

/// The full central node.
#[derive(Debug, Clone)]
pub struct DeblendingSystem {
    node: CentralNodeSim,
    standardizer: Standardizer,
    eth: EthernetModel,
    sequence_errors: u64,
    frames_processed: u64,
    degraded_frames: u64,
    held_verdicts: u64,
    last_readings: Option<Vec<f64>>,
    last_verdict: Option<DeblendVerdict>,
}

/// Errors surfaced to the operator console.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SystemError {
    /// Hub packets failed to assemble into a frame.
    BadFrame,
    /// Input length does not match the deployed firmware.
    WrongFrameSize,
    /// The node hung beyond the watchdog's recovery budget and no previous
    /// verdict exists to hold. The frame is lost; the health state latches
    /// [`crate::resilience::HealthState::Tripped`].
    NodeUnrecovered,
}

impl DeblendingSystem {
    /// Deploys a firmware build behind the given standardizer.
    #[must_use]
    pub fn new(firmware: Firmware, standardizer: Standardizer, hps: HpsModel, seed: u64) -> Self {
        Self {
            node: CentralNodeSim::new(firmware, hps, seed),
            standardizer,
            eth: EthernetModel::default(),
            sequence_errors: 0,
            frames_processed: 0,
            degraded_frames: 0,
            held_verdicts: 0,
            last_readings: None,
            last_verdict: None,
        }
    }

    /// The deployed standardizer — the sharded engine reuses it so fleet
    /// and single-node paths see identical inputs.
    #[must_use]
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Frames processed since deployment.
    #[must_use]
    pub fn frames_processed(&self) -> u64 {
        self.frames_processed
    }

    /// Malformed frames rejected.
    #[must_use]
    pub fn sequence_errors(&self) -> u64 {
        self.sequence_errors
    }

    /// Frames processed in degraded mode (missing/corrupt hub packets,
    /// gap-filled with held values).
    #[must_use]
    pub fn degraded_frames(&self) -> u64 {
        self.degraded_frames
    }

    /// Frames answered by re-emitting the previous verdict because the node
    /// hung beyond the recovery budget (hold-last-verdict degradation).
    #[must_use]
    pub fn held_verdicts(&self) -> u64 {
        self.held_verdicts
    }

    /// The most recent verdict emitted, if any.
    #[must_use]
    pub fn last_verdict(&self) -> Option<&DeblendVerdict> {
        self.last_verdict.as_ref()
    }

    /// The node simulator (for counters/firmware access).
    #[must_use]
    pub fn node(&self) -> &CentralNodeSim {
        &self.node
    }

    /// Installs (or clears, with `None`) a fault plan on the underlying
    /// node. The quiet default keeps the system bit-identical to a
    /// fault-free run.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.node.set_fault_plan(plan);
    }

    /// The fault log, if a plan is installed.
    #[must_use]
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.node.fault_log()
    }

    /// Processes one 3 ms tick: 7 hub packets in, verdict out.
    ///
    /// # Errors
    /// [`SystemError::BadFrame`] when the hub packets do not assemble;
    /// [`SystemError::WrongFrameSize`] when the reading count mismatches the
    /// deployed firmware.
    pub fn process_tick(
        &mut self,
        packets: &[HubPacket],
        sequence: u32,
    ) -> Result<(DeblendVerdict, EndToEndTiming), SystemError> {
        let readings = assemble_frame(packets).map_err(|_| {
            self.sequence_errors += 1;
            SystemError::BadFrame
        })?;
        self.process_readings(&readings, packets, sequence)
    }

    /// Degraded-mode tick: hub packets may be missing or corrupt (the 3 ms
    /// deadline does not wait for retransmission). Present hubs supply
    /// their spans; missing spans are gap-filled with the previous frame's
    /// readings (hold-last-value — the standard BLM front-end behaviour),
    /// or the fitted pedestal on the very first frame. Degraded frames are
    /// counted but still produce a verdict on time.
    ///
    /// # Errors
    /// [`SystemError::BadFrame`] only when *no* hub packet is usable and no
    /// previous frame exists.
    pub fn process_tick_degraded(
        &mut self,
        packets: &[HubPacket],
        sequence: u32,
    ) -> Result<(DeblendVerdict, EndToEndTiming), SystemError> {
        use reads_blm::hubs::hub_span;
        // Fast path: complete frame from the expected tick.
        if packets.iter().all(|p| p.sequence == sequence) {
            if let Ok(readings) = assemble_frame(packets) {
                return self.process_readings(&readings, packets, sequence);
            }
        }
        let mut readings = match &self.last_readings {
            Some(prev) => prev.clone(),
            None => vec![self.standardizer.mean; reads_blm::N_BLM],
        };
        let mut usable = 0usize;
        for p in packets {
            let h = usize::from(p.hub);
            if h >= reads_blm::hubs::N_HUBS || p.sequence != sequence {
                continue;
            }
            let (start, end) = hub_span(h);
            if usize::from(p.first_monitor) != start || p.counts.len() != end - start {
                continue;
            }
            for (i, &c) in p.counts.iter().enumerate() {
                readings[start + i] = f64::from(c);
            }
            usable += 1;
        }
        if usable == 0 && self.last_readings.is_none() {
            self.sequence_errors += 1;
            return Err(SystemError::BadFrame);
        }
        self.degraded_frames += 1;
        self.process_readings(&readings, packets, sequence)
    }

    /// Watched tick: like [`Self::process_tick`], but the node handshake
    /// runs behind `watchdog`'s recovery ladder. A hang recovered within
    /// budget still yields the computed verdict (recovery time charged to
    /// the frame); an *unrecovered* hang degrades to hold-last-verdict —
    /// the previous verdict is re-emitted under the current sequence so
    /// ACNET still sees an on-time answer, and the frame is counted in
    /// [`Self::held_verdicts`] and [`Self::degraded_frames`].
    ///
    /// # Errors
    /// [`SystemError::BadFrame`] / [`SystemError::WrongFrameSize`] as for
    /// [`Self::process_tick`]; [`SystemError::NodeUnrecovered`] when the
    /// node hangs beyond budget before any verdict exists to hold.
    pub fn process_tick_watched(
        &mut self,
        packets: &[HubPacket],
        sequence: u32,
        watchdog: &mut Watchdog,
    ) -> Result<(DeblendVerdict, EndToEndTiming), SystemError> {
        let readings = assemble_frame(packets).map_err(|_| {
            self.sequence_errors += 1;
            SystemError::BadFrame
        })?;
        self.process_readings_via(&readings, packets, sequence, Some(watchdog))
    }

    fn process_readings(
        &mut self,
        readings: &[f64],
        packets: &[HubPacket],
        sequence: u32,
    ) -> Result<(DeblendVerdict, EndToEndTiming), SystemError> {
        self.process_readings_via(readings, packets, sequence, None)
    }

    fn process_readings_via(
        &mut self,
        readings: &[f64],
        packets: &[HubPacket],
        sequence: u32,
        watchdog: Option<&mut Watchdog>,
    ) -> Result<(DeblendVerdict, EndToEndTiming), SystemError> {
        let payloads: Vec<usize> = packets.iter().map(HubPacket::encoded_len).collect();
        let ingress = self.eth.frame_ingest_time(&payloads);

        // HPS pre-processing: standardization (Sec. IV-D).
        let n_in = self.node.compiled().input_elems();
        if readings.len() < n_in {
            return Err(SystemError::WrongFrameSize);
        }
        let standardized: Vec<f64> = readings[..n_in]
            .iter()
            .map(|&x| self.standardizer.apply(x))
            .collect();

        let (outputs, core) = match watchdog {
            None => self.node.run_frame(&standardized),
            Some(wd) => {
                let frame = wd.run_frame(&mut self.node, &standardized);
                if frame.hung {
                    self.degraded_frames += 1;
                }
                match frame.outputs {
                    Some(out) => (out, frame.timing),
                    None => {
                        // Unrecovered hang: degrade to hold-last-verdict.
                        // The input readings were good, so keep them for
                        // the degraded-assembly path of later ticks.
                        self.last_readings = Some(readings.to_vec());
                        let Some(prev) = self.last_verdict.clone() else {
                            return Err(SystemError::NodeUnrecovered);
                        };
                        let mut held = prev;
                        held.sequence = sequence;
                        let egress = self.eth.packet_time(held.encode(TRIP_THRESHOLD).len());
                        self.held_verdicts += 1;
                        self.frames_processed += 1;
                        let total = ingress + frame.timing.total + egress;
                        return Ok((
                            held,
                            EndToEndTiming {
                                ingress,
                                core: frame.timing,
                                egress,
                                total,
                            },
                        ));
                    }
                }
            }
        };
        // The U-Net emits 520 interleaved (MI, RR) values; the MLP emits
        // 518 split-halves values over 259 monitors.
        let verdict = if outputs.len() == 2 * reads_blm::N_BLM {
            DeblendVerdict::from_interleaved(sequence, &outputs)
        } else {
            DeblendVerdict::from_split_halves(sequence, &outputs)
        };
        let egress = self.eth.packet_time(verdict.encode(TRIP_THRESHOLD).len());
        self.frames_processed += 1;
        self.last_readings = Some(readings.to_vec());
        self.last_verdict = Some(verdict.clone());
        Ok((
            verdict,
            EndToEndTiming {
                ingress,
                core,
                egress,
                total: ingress + core.total + egress,
            },
        ))
    }

    /// Real-time admission: can this deployment sustain `fps` with every
    /// frame under `deadline`? Checks `frames` simulated ticks.
    #[must_use]
    pub fn admission_check(&mut self, fps: f64, deadline: SimDuration, frames: usize) -> bool {
        let period = SimDuration::from_secs_f64(1.0 / fps);
        let readings: Vec<f64> = vec![112_000.0; reads_blm::N_BLM];
        let packets = reads_blm::hubs::split_frame(&readings, 0);
        for _ in 0..frames {
            match self.process_tick(&packets, 0) {
                Ok((_, t)) => {
                    if t.total > deadline || t.total > period {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trained::{TrainedBundle, TrainingTier};
    use reads_blm::hubs::split_frame;
    use reads_blm::FrameGenerator;
    use reads_hls4ml::{convert, profile_model, HlsConfig};
    use reads_nn::ModelSpec;

    fn unet_system_with_fw() -> (DeblendingSystem, FrameGenerator, Firmware) {
        // Untrained U-Net is fine here: these tests exercise the data path
        // and timing, not accuracy.
        let bundle = TrainedBundle::get_or_train(ModelSpec::Mlp, TrainingTier::Fast, 21);
        let gen = FrameGenerator::with_defaults(bundle.workload_seed);
        let model = reads_nn::models::reads_unet(7);
        let frames = gen.batch(5_000, 4);
        let calib: Vec<Vec<f64>> = frames
            .iter()
            .map(|f| bundle.standardizer.apply_frame(&f.readings))
            .collect();
        let profile = profile_model(&model, &calib);
        let fw = convert(&model, &profile, &HlsConfig::paper_default());
        (
            DeblendingSystem::new(
                fw.clone(),
                bundle.standardizer.clone(),
                Default::default(),
                99,
            ),
            gen,
            fw,
        )
    }

    fn unet_system() -> (DeblendingSystem, FrameGenerator) {
        let (sys, gen, _) = unet_system_with_fw();
        (sys, gen)
    }

    #[test]
    fn tick_produces_verdict_and_timing() {
        let (mut sys, gen) = unet_system();
        let sample = gen.frame(6_000);
        let packets = split_frame(&sample.readings, 42);
        let (verdict, timing) = sys.process_tick(&packets, 42).expect("tick");
        assert_eq!(verdict.mi.len(), 260);
        assert_eq!(verdict.sequence, 42);
        assert!(timing.total > timing.core.total);
        assert!(timing.core.total.as_millis_f64() < 3.0, "deadline");
        assert_eq!(sys.frames_processed(), 1);
    }

    #[test]
    fn bad_frame_rejected_and_counted() {
        let (mut sys, gen) = unet_system();
        let sample = gen.frame(6_001);
        let mut packets = split_frame(&sample.readings, 1);
        packets.pop();
        assert_eq!(
            sys.process_tick(&packets, 1).unwrap_err(),
            SystemError::BadFrame
        );
        assert_eq!(sys.sequence_errors(), 1);
        assert_eq!(sys.frames_processed(), 0);
    }

    #[test]
    fn degraded_mode_survives_a_lost_hub() {
        let (mut sys, gen) = unet_system();
        // Prime with one good frame.
        let f0 = gen.frame(7_000);
        let p0 = split_frame(&f0.readings, 0);
        sys.process_tick(&p0, 0).expect("good frame");

        // Next tick loses hub 3.
        let f1 = gen.frame(7_001);
        let mut p1 = split_frame(&f1.readings, 1);
        p1.remove(3);
        let (verdict, timing) = sys.process_tick_degraded(&p1, 1).expect("degraded frame");
        assert_eq!(verdict.sequence, 1);
        assert!(timing.core.total.as_millis_f64() < 3.0, "deadline held");
        assert_eq!(sys.degraded_frames(), 1);
        assert_eq!(sys.frames_processed(), 2);
        // Strict mode would have rejected the same packets.
        let mut strict = p1.clone();
        strict.rotate_left(1);
        assert!(sys.process_tick(&strict, 1).is_err());
    }

    #[test]
    fn degraded_mode_first_frame_with_nothing_usable_fails() {
        let (mut sys, _) = unet_system();
        assert_eq!(
            sys.process_tick_degraded(&[], 0).unwrap_err(),
            SystemError::BadFrame
        );
        assert_eq!(sys.degraded_frames(), 0);
    }

    #[test]
    fn degraded_mode_ignores_stale_sequence_packets() {
        let (mut sys, gen) = unet_system();
        let f0 = gen.frame(7_100);
        sys.process_tick(&split_frame(&f0.readings, 0), 0)
            .expect("prime");
        // All packets from the wrong tick: gap-fill everything from frame 0.
        let stale = split_frame(&gen.frame(7_101).readings, 99);
        let (verdict, _) = sys.process_tick_degraded(&stale, 1).expect("held frame");
        assert_eq!(verdict.sequence, 1);
        assert_eq!(sys.degraded_frames(), 1);
    }

    #[test]
    fn degraded_mode_first_frame_pedestal_fallback() {
        // Very first frame, one hub lost: the missing span is gap-filled
        // with the fitted pedestal (there is no previous frame to hold),
        // and a verdict still ships on time.
        let (mut sys, gen) = unet_system();
        let f0 = gen.frame(7_200);
        let mut p0 = split_frame(&f0.readings, 0);
        p0.remove(5);
        let (verdict, _) = sys.process_tick_degraded(&p0, 0).expect("pedestal fill");
        assert_eq!(verdict.sequence, 0);
        assert_eq!(sys.degraded_frames(), 1);
        assert_eq!(sys.frames_processed(), 1);
    }

    #[test]
    fn degraded_frames_accounting_across_ticks() {
        let (mut sys, gen) = unet_system();
        for seq in 0..4u32 {
            let f = gen.frame(7_300 + u64::from(seq));
            let mut p = split_frame(&f.readings, seq);
            if seq % 2 == 1 {
                p.remove(2); // every odd tick loses a hub
            }
            sys.process_tick_degraded(&p, seq).expect("tick");
        }
        assert_eq!(sys.degraded_frames(), 2);
        assert_eq!(sys.frames_processed(), 4);
        assert_eq!(sys.sequence_errors(), 0);
    }

    #[test]
    fn watched_tick_is_bit_identical_when_quiet() {
        let (mut plain, gen, fw) = unet_system_with_fw();
        let (mut watched, _, _) = unet_system_with_fw();
        let mut wd = crate::resilience::Watchdog::new(fw, Default::default());
        let sample = gen.frame(8_000);
        let packets = split_frame(&sample.readings, 3);
        let (va, ta) = plain.process_tick(&packets, 3).expect("plain");
        let (vb, tb) = watched
            .process_tick_watched(&packets, 3, &mut wd)
            .expect("watched");
        assert_eq!(va, vb, "watchdog must not perturb a healthy frame");
        assert_eq!(ta.total, tb.total);
        assert_eq!(wd.counters().faults_seen, 0);
        assert_eq!(watched.held_verdicts(), 0);
    }

    #[test]
    fn watched_tick_salvages_lost_irq() {
        let (mut sys, gen, fw) = unet_system_with_fw();
        let mut wd = crate::resilience::Watchdog::new(fw, Default::default());
        sys.set_fault_plan(Some(reads_soc::FaultPlan::lost_irq(1.0, 31)));
        let sample = gen.frame(8_100);
        let packets = split_frame(&sample.readings, 0);
        let (verdict, _) = sys
            .process_tick_watched(&packets, 0, &mut wd)
            .expect("salvaged");
        assert_eq!(verdict.mi.len(), 260);
        assert_eq!(wd.counters().salvages, 1);
        assert_eq!(
            sys.degraded_frames(),
            1,
            "a recovered hang is a degraded frame"
        );
        assert_eq!(sys.held_verdicts(), 0, "salvage yields the real verdict");
    }

    #[test]
    fn watched_tick_holds_last_verdict_on_unrecovered_hang() {
        let (mut sys, gen, fw) = unet_system_with_fw();
        let mut wd = crate::resilience::Watchdog::new(fw, Default::default());
        // Prime one healthy verdict.
        let f0 = gen.frame(8_200);
        let (v0, _) = sys
            .process_tick_watched(&split_frame(&f0.readings, 0), 0, &mut wd)
            .expect("prime");
        // A stuck-FSM probability of 1.0 models a hard fault: every ladder
        // attempt re-hangs, so the watchdog gives up.
        sys.set_fault_plan(Some(reads_soc::FaultPlan::stuck_fsm(1.0, 32)));
        let f1 = gen.frame(8_201);
        let (v1, t1) = sys
            .process_tick_watched(&split_frame(&f1.readings, 1), 1, &mut wd)
            .expect("held verdict");
        assert_eq!(v1.sequence, 1, "held verdict is re-stamped");
        assert_eq!(v1.mi, v0.mi, "payload is the previous verdict's");
        assert_eq!(sys.held_verdicts(), 1);
        assert_eq!(sys.degraded_frames(), 1);
        assert_eq!(wd.counters().unrecovered, 1);
        assert_eq!(wd.health(), crate::resilience::HealthState::Tripped);
        assert!(t1.core.total > SimDuration::ZERO, "wasted time is charged");
    }

    #[test]
    fn watched_tick_without_prior_verdict_errors() {
        let (mut sys, gen, fw) = unet_system_with_fw();
        let mut wd = crate::resilience::Watchdog::new(fw, Default::default());
        sys.set_fault_plan(Some(reads_soc::FaultPlan::stuck_fsm(1.0, 33)));
        let f0 = gen.frame(8_300);
        assert_eq!(
            sys.process_tick_watched(&split_frame(&f0.readings, 0), 0, &mut wd)
                .unwrap_err(),
            SystemError::NodeUnrecovered
        );
        assert_eq!(sys.frames_processed(), 0);
    }

    #[test]
    fn meets_the_320_fps_deployment_requirement() {
        // "The practical deployed system is required to operate at 320 fps,
        // with a 3 ms latency requirement, which has been met" (abstract).
        let (mut sys, _) = unet_system();
        assert!(sys.admission_check(320.0, SimDuration::from_millis(3), 40));
    }
}
