//! The layer replay of a traced run: the first frames of the workload's
//! own stream pushed through each layer's public functions on one thread,
//! a span around every call. A layer's figure is the median over frames of
//! its self time per frame.

use crate::process::count_allocs;
use crate::setup::{build_verdict, chain_seed, standardizer, Pool};
use crate::stats::median;
use crate::trace::{ms_since, now_ns, SpanId, Tracer};
use reads_blm::hubs::{assemble_frame, split_frame};
use reads_blm::FrameGenerator;
use reads_core::resilience::NetCounters;
use reads_hls4ml::{CompiledFirmware, Firmware};
use reads_net::wire::{encode_msg, FrameDecoder, Msg, VerdictMsg};
use reads_net::{FrameAssembler, Offer};
use std::hint::black_box;

/// Frames the interpreter replays at most: it is the slowest layer by far
/// and its median settles long before the others'.
const INTERP_FRAMES: usize = 100;

/// Lanes of the batch-major kernel path.
const BATCH: usize = 8;

pub struct Replay {
    /// `(metric name, value)`; times in µs unless the name says otherwise.
    pub figures: Vec<(&'static str, f64)>,
    /// Frames whose replayed verdict differed from the pool's reference.
    pub mismatches: usize,
}

/// Replays `frames` frames of the stream `(seed, pool)` describes.
pub fn replay(fw: &Firmware, pool: &Pool, seed: u64, frames: usize, tracer: &mut Tracer) -> Replay {
    let std = standardizer();
    let n_in = fw.input_len * fw.input_channels;
    let gens: Vec<FrameGenerator> = (0..pool.chains)
        .map(|c| FrameGenerator::with_defaults(chain_seed(seed, c)))
        .collect();

    let t = now_ns();
    let compiled = CompiledFirmware::lower(fw);
    let lower_ms = ms_since(t);
    let mut scratch = compiled.scratch();

    let mut assembler = FrameAssembler::new(64);
    let mut counters = NetCounters::default();
    let mut hub_decoder = FrameDecoder::new();
    let mut verdict_decoder = FrameDecoder::new();
    let (mut bytes_per_frame, mut bytes_per_verdict) = (0usize, 0usize);
    let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(frames);
    let mut out = vec![0.0; compiled.output_len()];
    let mut mismatches = 0;

    for i in 0..frames {
        let (chain, seq) = (i % pool.chains, (i / pool.chains) as u32);
        let f = i as u64;
        let root = tracer.begin("replay.frame", SpanId::NONE, f);
        let slot = u64::from(seq) % pool.depth as u64;
        let sample = tracer.leaf("blm.generate", root, f, || gens[chain].frame(slot));
        let packets = tracer.leaf("blm.split", root, f, || split_frame(&sample.readings, seq));
        let msgs: Vec<Msg> = packets
            .into_iter()
            .map(|packet| Msg::HubData {
                chain: chain as u32,
                packet,
            })
            .collect();
        let wire: Vec<Vec<u8>> = tracer.leaf("wire.encode_frame", root, f, || {
            msgs.iter().map(encode_msg).collect()
        });
        bytes_per_frame = wire.iter().map(Vec::len).sum();
        let decoded: Vec<Msg> = tracer.leaf("wire.decode_frame", root, f, || {
            wire.iter()
                .map(|bytes| {
                    hub_decoder.push(bytes);
                    hub_decoder
                        .next_msg()
                        .expect("own encoding decodes")
                        .expect("a whole message was pushed")
                })
                .collect()
        });
        let assembled = tracer.leaf("assembler.offer_frame", root, f, || {
            let mut complete = None;
            for msg in decoded {
                let Msg::HubData { chain, packet } = msg else {
                    panic!("hub data decodes as hub data");
                };
                if let Offer::Complete(cf) = assembler.offer(chain, packet, &mut counters) {
                    complete = Some(cf);
                }
            }
            complete.expect("seven hubs complete a frame")
        });
        let readings = tracer.leaf("blm.assemble", root, f, || {
            assemble_frame(&assembled.packets).expect("a full frame assembles")
        });
        let input = tracer.leaf("standardize.apply", root, f, || {
            std.apply_frame(&readings[..n_in])
        });
        tracer.leaf("kernel.infer_b1", root, f, || {
            out.copy_from_slice(compiled.infer_into(&input, &mut scratch).0);
        });
        let verdict = tracer.leaf("acnet.verdict_build", root, f, || build_verdict(seq, &out));
        let msg = Msg::Verdict(VerdictMsg {
            chain: chain as u32,
            verdict,
        });
        let bytes = tracer.leaf("wire.encode_verdict", root, f, || encode_msg(&msg));
        bytes_per_verdict = bytes.len();
        let back = tracer.leaf("wire.decode_verdict", root, f, || {
            verdict_decoder.push(&bytes);
            verdict_decoder
                .next_msg()
                .expect("own encoding decodes")
                .expect("a whole message was pushed")
        });
        let Msg::Verdict(v) = back else {
            panic!("a verdict decodes as a verdict");
        };
        if !pool.check(chain, seq, &v.verdict) {
            mismatches += 1;
        }
        inputs.push(input);
        tracer.end(root);
    }

    // The interpreter and the batch kernel run back to back, as they do in
    // the set-up, the tick loop and the shard worker.
    for (i, input) in inputs.iter().take(INTERP_FRAMES).enumerate() {
        tracer.leaf("interp.infer", SpanId::NONE, i as u64, || {
            black_box(fw.infer(input));
        });
    }
    let mut batch_out = vec![0.0; BATCH * compiled.output_len()];
    for (g, group) in inputs.chunks_exact(BATCH).enumerate() {
        let refs: Vec<&[f64]> = group.iter().map(Vec::as_slice).collect();
        tracer.leaf("kernel.infer_b8", SpanId::NONE, g as u64, || {
            black_box(compiled.infer_batch_into(&refs, &mut scratch, &mut batch_out));
        });
    }
    let allocs = count_allocs(|| {
        for input in &inputs {
            black_box(compiled.infer_into(input, &mut scratch));
        }
    });

    let us = |name: &str| {
        let per_frame = tracer.self_us_per_frame(name);
        assert!(!per_frame.is_empty(), "no span named {name}");
        median(&per_frame)
    };
    let mix = compiled.kernel_mix();
    let figures = vec![
        ("blm.generate_us", us("blm.generate")),
        ("blm.split_us", us("blm.split")),
        ("blm.assemble_us", us("blm.assemble")),
        ("standardize.apply_us", us("standardize.apply")),
        ("acnet.verdict_build_us", us("acnet.verdict_build")),
        ("wire.encode_frame_us", us("wire.encode_frame")),
        ("wire.decode_frame_us", us("wire.decode_frame")),
        ("wire.encode_verdict_us", us("wire.encode_verdict")),
        ("wire.decode_verdict_us", us("wire.decode_verdict")),
        ("wire.bytes_per_frame", bytes_per_frame as f64),
        ("wire.bytes_per_verdict", bytes_per_verdict as f64),
        ("assembler.offer_frame_us", us("assembler.offer_frame")),
        ("kernel.infer_b1_us", us("kernel.infer_b1")),
        (
            "kernel.infer_b8_us_per_frame",
            us("kernel.infer_b8") / BATCH as f64,
        ),
        ("kernel.lower_ms", lower_ms),
        ("kernel.macs_per_frame", compiled.total_macs() as f64),
        (
            "kernel.dense_layers",
            f64::from(mix.dense + mix.mono + mix.wide),
        ),
        ("kernel.sparse_layers", f64::from(mix.sparse)),
        ("kernel.fused_layers", f64::from(mix.fused)),
        ("kernel.allocs_per_frame", allocs as f64 / frames as f64),
        ("interp.infer_us", us("interp.infer")),
    ];
    Replay {
        figures,
        mismatches,
    }
}
