//! Seeded, deterministic set-up: the firmware under test, the per-chain
//! frame pool with its interpreter reference digests, and the serving path
//! of each workload. Nothing here reads a cache from disk, so the first
//! run and the tenth do the same work.

use crate::trace::{ms_since, now_ns};
use reads_blm::acnet::DeblendVerdict;
use reads_blm::hubs::{assemble_frame, split_frame, ChainFrame};
use reads_blm::{FrameGenerator, Standardizer, N_BLM};
use reads_core::engine::{EngineConfig, ShardedEngine};
use reads_core::DeblendingSystem;
use reads_hls4ml::{convert, profile_model, sparsify_firmware, Firmware, HlsConfig};
use reads_net::wire::Role;
use reads_net::{GatewayClient, GatewayConfig, GatewayHandle, HubGateway};
use reads_nn::models;
use reads_soc::HpsModel;
use std::time::Duration;

/// The model is the same for every `--seed`: only the frames vary, so a
/// kernel's cost does not depend on the seed the driver picked.
const CALIBRATION_SEED: u64 = 2024;
const CALIBRATION_FRAMES: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// `models::reads_mlp(3)`, dense.
    MlpDense,
    /// `models::reads_unet(7)`, dense.
    UnetDense,
    /// The same U-Net pruned to a quarter of its weights.
    UnetQ25,
}

/// The fitted pedestal and spread of the raw digitizer counts — the
/// serving plane's fixed standardizer (`tests/netserve_loopback.rs`).
pub fn standardizer() -> Standardizer {
    Standardizer {
        mean: 112_000.0,
        std: 3_500.0,
    }
}

/// Seed of chain `c`'s generator: the `MultiChainSource` derivation.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed ^ (chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub struct Built {
    pub fw: Firmware,
    pub profile_ms: f64,
    pub convert_ms: f64,
    pub sparsify_ms: f64,
}

/// Builds the firmware from seeded initialisers through the hls4ml flow.
pub fn build_firmware(kind: ModelKind) -> Built {
    let model = match kind {
        ModelKind::MlpDense => models::reads_mlp(3),
        ModelKind::UnetDense | ModelKind::UnetQ25 => models::reads_unet(7),
    };
    let (len, channels) = model.input_shape();
    let std = standardizer();
    let gen = FrameGenerator::with_defaults(CALIBRATION_SEED);
    let calibration: Vec<Vec<f64>> = (0..CALIBRATION_FRAMES)
        .map(|i| std.apply_frame(&gen.frame(i).readings[..len * channels]))
        .collect();
    let t = now_ns();
    let profile = profile_model(&model, &calibration);
    let profile_ms = ms_since(t);
    let t = now_ns();
    let dense = convert(&model, &profile, &HlsConfig::paper_default());
    let convert_ms = ms_since(t);
    let t = now_ns();
    let (fw, sparsify_ms) = if kind == ModelKind::UnetQ25 {
        (sparsify_firmware(&dense, 0.25, 7 ^ 0x5EED), ms_since(t))
    } else {
        (dense, 0.0)
    };
    Built {
        fw,
        profile_ms,
        convert_ms,
        sparsify_ms,
    }
}

/// FNV-1a over the bit patterns of a verdict's 520 values.
pub fn verdict_digest(v: &DeblendVerdict) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v.mi.iter().chain(&v.rr) {
        h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Same output-layout dispatch as the engine's shard worker.
pub fn build_verdict(sequence: u32, out: &[f64]) -> DeblendVerdict {
    if out.len() == 2 * N_BLM {
        DeblendVerdict::from_interleaved(sequence, out)
    } else {
        DeblendVerdict::from_split_halves(sequence, out)
    }
}

/// `depth` readings per chain, reused round-robin under fresh sequence
/// numbers, each with the digest of the interpreter's verdict for it.
pub struct Pool {
    pub chains: usize,
    pub depth: usize,
    readings: Vec<Vec<f64>>,
    digests: Vec<u64>,
}

impl Pool {
    pub fn build(seed: u64, chains: usize, depth: usize, fw: &Firmware) -> Self {
        let std = standardizer();
        let n_in = fw.input_len * fw.input_channels;
        let mut readings = Vec::with_capacity(chains * depth);
        let mut digests = Vec::with_capacity(chains * depth);
        for chain in 0..chains {
            let gen = FrameGenerator::with_defaults(chain_seed(seed, chain));
            for slot in 0..depth {
                let raw = gen.frame(slot as u64).readings;
                // The reference sees what the program sees: counts rounded
                // by the hub framing, reassembled.
                let seen = assemble_frame(&split_frame(&raw, 0)).expect("a full frame assembles");
                let (out, _) = fw.infer(&std.apply_frame(&seen[..n_in]));
                digests.push(verdict_digest(&build_verdict(0, &out)));
                readings.push(raw);
            }
        }
        Self {
            chains,
            depth,
            readings,
            digests,
        }
    }

    fn index(&self, chain: usize, sequence: u32) -> usize {
        chain * self.depth + sequence as usize % self.depth
    }

    pub fn readings(&self, chain: usize, sequence: u32) -> &[f64] {
        &self.readings[self.index(chain, sequence)]
    }

    /// The frame chain `chain` sends as number `sequence`.
    pub fn frame(&self, chain: usize, sequence: u32) -> ChainFrame {
        ChainFrame {
            chain: chain as u32,
            sequence,
            packets: split_frame(self.readings(chain, sequence), sequence),
        }
    }

    /// Whether `verdict` is the interpreter's answer to that frame.
    pub fn check(&self, chain: usize, sequence: u32, verdict: &DeblendVerdict) -> bool {
        verdict.sequence == sequence
            && verdict_digest(verdict) == self.digests[self.index(chain, sequence)]
    }
}

pub fn start_engine(fw: &Firmware, batch: usize) -> ShardedEngine {
    let cfg = EngineConfig {
        workers: 1,
        batch,
        ..EngineConfig::default()
    };
    ShardedEngine::native(&cfg, fw, &HpsModel::default(), &standardizer())
}

pub fn start_soc(fw: &Firmware, seed: u64) -> DeblendingSystem {
    DeblendingSystem::new(fw.clone(), standardizer(), HpsModel::default(), seed)
}

/// A loopback gateway with the generator's two connections.
pub struct Tcp {
    pub handle: GatewayHandle,
    pub producer: GatewayClient,
    pub subscriber: GatewayClient,
}

pub fn start_tcp(engine: ShardedEngine) -> Tcp {
    let handle = HubGateway::start("127.0.0.1:0", GatewayConfig::default(), engine)
        .expect("bind a loopback gateway");
    let addr = handle.local_addr();
    let wait_sessions = |n: u64| {
        let give_up = now_ns() + 5_000_000_000;
        while handle.sessions() < n {
            assert!(now_ns() < give_up, "gateway registered no session {n}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // The subscriber must be registered before the first verdict flows.
    let subscriber = GatewayClient::connect(addr, Role::Subscriber).expect("subscriber connects");
    wait_sessions(1);
    let producer = GatewayClient::connect(addr, Role::Producer).expect("producer connects");
    wait_sessions(2);
    Tcp {
        handle,
        producer,
        subscriber,
    }
}
