//! Single-thread inference hot-path benchmark: interpreter vs the lowered
//! kernel-specialised engine.
//!
//! Sweeps {U-Net, MLP} × {interpreter, compiled} × batch sizes × weight
//! densities over deterministic synthetic frames. **Every row runs the
//! identical frame set** (in groups of `batch`), so rows are directly
//! comparable — per-frame cost varies ~40% across the synthetic frames,
//! and benchmarking different subsets per batch size is how the old
//! harness manufactured a phantom batch=8 regression. Timing takes the
//! **minimum over full passes** of the set, which is robust against the
//! scheduling noise of shared hosts (any slowdown in a pass is external
//! to the measured code; the fastest pass is the honest cost).
//!
//! Density rows prune the firmware with `sparsify_firmware` and measure
//! **both** engines on the pruned firmware — the same function on both
//! sides. That is the paper's comparison: the interpreter schedules every
//! zero-weight MAC, the planner's CSR kernels never schedule them, and
//! the outputs stay bit-identical (asserted before timing). Each engine
//! runs its steady-state path (`Firmware::infer_reusing` with a reused
//! `InterpState`; `CompiledFirmware::infer_batch_into` with a reused
//! `Scratch` and output buffer — the batch-major 8-lane path). Reports
//! frames/sec, ns/frame, and heap allocations/frame counted by a global
//! counting allocator, then writes `BENCH_inference_hotpath.json` at the
//! repo root — the tracked benchmark trajectory.
//!
//! Asserts:
//! * the compiled hot path allocates nothing per frame, at every batch
//!   size and density;
//! * batch monotonicity at every density — compiled batch=8 throughput is
//!   at least 0.9× of batch=1 on the same frames (batch-major lanes must
//!   amortise weight loads, never regress);
//! * density monotonicity at batch 1 — compiled U-Net ns/frame at every
//!   density below 1 is at most 1.1× the dense figure (pruning never
//!   slows the one-frame-per-tick path);
//! * the headline U-Net speedup (best same-firmware ratio across the
//!   density sweep) is at least `MIN_SPEEDUP` (default 3; CI kernel-matrix
//!   floor is 6);
//! * best compiled MLP throughput across the sweep is at least
//!   `MIN_MLP_FPS` frames/s when that env var is set.
//!
//! A second sweep measures the **sparse-vs-dense crossover** the default
//! `PlanConfig::density_threshold` is set from: at each of
//! [`CROSSOVER`]'s densities it lowers the same pruned firmware with
//! `ForceDense` and with `ForceSparse` and times both at batch 1 and 8. It
//! asserts nothing; its rows land in the JSON's `crossover` list.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin inference_hotpath
//! ```

use reads_hls4ml::{
    convert, profile_model, sparsify_firmware, CompiledFirmware, Firmware, HlsConfig, PlanConfig,
    SparsityPolicy,
};
use reads_nn::models;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation while delegating to the system allocator —
/// benchmark-only instrumentation for the allocations/frame column.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SEED: u64 = 2024;
/// Frames in the shared working set: divisible by every swept batch size.
const SET: usize = 32;
/// Weight densities swept: dense, and pruned profiles down to the 90%
/// sparsity regime the hls4ml literature targets.
const DENSITIES: [f64; 4] = [1.0, 0.5, 0.25, 0.10];
/// Densities of the forced dense-vs-sparse crossover sweep.
const CROSSOVER: [f64; 4] = [0.5, 0.35, 0.25, 0.10];

fn synth_frame(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            (t * 12.57).sin() * 1.5 + (t * 40.0).cos() * 0.4 + next() * 2.0 - 1.0
        })
        .collect()
}

fn build(model: &reads_nn::Model, seed: u64) -> Firmware {
    let (len, ch) = model.input_shape();
    let frames: Vec<Vec<f64>> = (0..3).map(|i| synth_frame(len * ch, seed + i)).collect();
    let profile = profile_model(model, &frames);
    convert(model, &profile, &HlsConfig::paper_default())
}

struct Cell {
    model: &'static str,
    engine: &'static str,
    density: f64,
    batch: usize,
    frames: u64,
    ns_per_frame: f64,
    fps: f64,
    allocs_per_frame: f64,
}

/// Runs full passes of the shared frame set through `step` until ~0.5 s
/// has elapsed (min 4 passes), returning (frames, ns/frame of the
/// *fastest* pass, allocs/frame over all passes).
fn measure(n_frames: usize, mut step: impl FnMut()) -> (u64, f64, f64) {
    // Warm-up: one pass so lazy buffers (and the page cache) settle.
    step();
    let alloc_start = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut frames = 0u64;
    let mut reps = 0u32;
    let mut best = f64::INFINITY;
    while reps < 4 || t0.elapsed().as_secs_f64() < 0.5 {
        let tp = Instant::now();
        step();
        best = best.min(tp.elapsed().as_secs_f64());
        frames += n_frames as u64;
        reps += 1;
        if frames > 2_000_000 {
            break;
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - alloc_start;
    (
        frames,
        best * 1e9 / n_frames as f64,
        allocs as f64 / frames as f64,
    )
}

fn sweep_model(name: &'static str, fw: &Firmware, batches: &[usize], rows: &mut Vec<Cell>) {
    let n_in = fw.input_len * fw.input_channels;
    let inputs: Vec<Vec<f64>> = (0..SET)
        .map(|i| synth_frame(n_in, SEED + i as u64))
        .collect();
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();

    for &density in &DENSITIES {
        let pruned;
        let dfw = if density < 1.0 {
            pruned = sparsify_firmware(fw, density, SEED ^ density.to_bits());
            &pruned
        } else {
            fw
        };
        let compiled = CompiledFirmware::lower(dfw);
        // Sanity: the engines agree on the bench frames before we time.
        let (want, want_stats) = dfw.infer(&inputs[0]);
        let (got, got_stats) = compiled.infer(&inputs[0]);
        assert_eq!(want, got, "{name} d={density}: engines diverge");
        assert_eq!(want_stats, got_stats, "{name} d={density}: stats diverge");

        // Interpreter baseline on the *same pruned firmware*: it schedules
        // every zero-weight MAC, so this is the honest same-function
        // comparison. Its per-frame path is batch-independent; one row.
        let mut state = dfw.interp_state();
        let (frames, ns, allocs) = measure(SET, || {
            for x in &inputs {
                let (y, stats) = dfw.infer_reusing(x, &mut state);
                std::hint::black_box((y, stats));
            }
        });
        rows.push(Cell {
            model: name,
            engine: "interpreter",
            density,
            batch: 1,
            frames,
            ns_per_frame: ns,
            fps: 1e9 / ns,
            allocs_per_frame: allocs,
        });

        let ol = compiled.output_len();
        for &batch in batches {
            let mut scratch = compiled.scratch();
            let mut out = vec![0.0; batch * ol];
            let (frames, ns, allocs) = measure(SET, || {
                for group in refs.chunks_exact(batch) {
                    let stats = compiled.infer_batch_into(group, &mut scratch, &mut out);
                    std::hint::black_box(stats);
                    std::hint::black_box(&out);
                }
            });
            rows.push(Cell {
                model: name,
                engine: "compiled",
                density,
                batch,
                frames,
                ns_per_frame: ns,
                fps: 1e9 / ns,
                allocs_per_frame: allocs,
            });
        }
    }
}

/// One crossover cell: the same pruned firmware under a forced dense and
/// a forced sparse plan, at one batch size.
struct Crossover {
    model: &'static str,
    density: f64,
    batch: usize,
    dense_ns: f64,
    sparse_ns: f64,
}

fn crossover_model(name: &'static str, fw: &Firmware, rows: &mut Vec<Crossover>) {
    let n_in = fw.input_len * fw.input_channels;
    let inputs: Vec<Vec<f64>> = (0..SET)
        .map(|i| synth_frame(n_in, SEED + i as u64))
        .collect();
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    for &density in &CROSSOVER {
        let pruned = sparsify_firmware(fw, density, SEED ^ density.to_bits());
        let ns = |sparsity: SparsityPolicy, batch: usize| {
            let cfg = PlanConfig {
                sparsity,
                ..PlanConfig::default()
            };
            let compiled = CompiledFirmware::lower_with(&pruned, &cfg);
            let mut scratch = compiled.scratch();
            let mut out = vec![0.0; batch * compiled.output_len()];
            measure(SET, || {
                for group in refs.chunks_exact(batch) {
                    let stats = compiled.infer_batch_into(group, &mut scratch, &mut out);
                    std::hint::black_box(stats);
                    std::hint::black_box(&out);
                }
            })
            .1
        };
        for batch in [1usize, 8] {
            rows.push(Crossover {
                model: name,
                density,
                batch,
                dense_ns: ns(SparsityPolicy::ForceDense, batch),
                sparse_ns: ns(SparsityPolicy::ForceSparse, batch),
            });
        }
    }
}

/// Best (lowest) ns/frame for one model × engine at one density.
fn best_ns(rows: &[Cell], model: &str, engine: &str, density: f64) -> f64 {
    rows.iter()
        .filter(|c| c.model == model && c.engine == engine && c.density == density)
        .map(|c| c.ns_per_frame)
        .fold(f64::INFINITY, f64::min)
}

fn fps_at(rows: &[Cell], model: &str, engine: &str, density: f64, batch: usize) -> f64 {
    rows.iter()
        .find(|c| {
            c.model == model && c.engine == engine && c.density == density && c.batch == batch
        })
        .map_or(0.0, |c| c.fps)
}

/// Headline speedup for one model: the best same-firmware interpreter ÷
/// compiled ratio across the density sweep. Dense-only speedup is the
/// `density == 1.0` entry.
fn speedup_at(rows: &[Cell], model: &str, density: f64) -> f64 {
    best_ns(rows, model, "interpreter", density) / best_ns(rows, model, "compiled", density)
}

fn main() {
    let min_speedup: f64 = std::env::var("MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let min_mlp_fps: f64 = std::env::var("MIN_MLP_FPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let batches = [1usize, 8, 32];

    let unet = build(&models::reads_unet(SEED), SEED);
    let mlp = build(&models::reads_mlp(SEED), SEED + 1);

    println!(
        "inference hot path: interpreter vs kernel-specialised engine (single thread, seed {SEED})"
    );
    println!(
        "{:>6} {:>12} {:>8} {:>6} {:>8} {:>12} {:>12} {:>13}",
        "model", "engine", "density", "batch", "frames", "ns/frame", "frames/s", "allocs/frame"
    );

    let mut rows = Vec::new();
    sweep_model("unet", &unet, &batches, &mut rows);
    sweep_model("mlp", &mlp, &batches, &mut rows);
    let mut crossover = Vec::new();
    crossover_model("unet", &unet, &mut crossover);
    crossover_model("mlp", &mlp, &mut crossover);

    for c in &rows {
        println!(
            "{:>6} {:>12} {:>8.2} {:>6} {:>8} {:>12.0} {:>12.0} {:>13.2}",
            c.model,
            c.engine,
            c.density,
            c.batch,
            c.frames,
            c.ns_per_frame,
            c.fps,
            c.allocs_per_frame
        );
    }

    println!(
        "\nsparse-vs-dense crossover (default threshold {}):",
        PlanConfig::default().density_threshold
    );
    println!(
        "{:>6} {:>8} {:>6} {:>14} {:>14} {:>13}",
        "model", "density", "batch", "dense ns/fr", "sparse ns/fr", "sparse/dense"
    );
    for c in &crossover {
        println!(
            "{:>6} {:>8.2} {:>6} {:>14.0} {:>14.0} {:>13.2}",
            c.model,
            c.density,
            c.batch,
            c.dense_ns,
            c.sparse_ns,
            c.sparse_ns / c.dense_ns
        );
    }

    let unet_speedup = DENSITIES
        .iter()
        .map(|&d| speedup_at(&rows, "unet", d))
        .fold(0.0, f64::max);
    let mlp_speedup = DENSITIES
        .iter()
        .map(|&d| speedup_at(&rows, "mlp", d))
        .fold(0.0, f64::max);
    let unet_dense_speedup = speedup_at(&rows, "unet", 1.0);
    let mlp_dense_speedup = speedup_at(&rows, "mlp", 1.0);
    let mlp_best_fps = DENSITIES
        .iter()
        .map(|&d| 1e9 / best_ns(&rows, "mlp", "compiled", d))
        .fold(0.0, f64::max);
    println!(
        "\nU-Net speedup: {unet_speedup:.2}x sparse-aware best, {unet_dense_speedup:.2}x dense \
         (floor {min_speedup:.1}x)"
    );
    println!("MLP   speedup: {mlp_speedup:.2}x sparse-aware best, {mlp_dense_speedup:.2}x dense");
    println!("MLP   best compiled rate: {mlp_best_fps:.0} frames/s (floor {min_mlp_fps:.0})");

    for c in rows.iter().filter(|c| c.engine == "compiled") {
        assert!(
            c.allocs_per_frame == 0.0,
            "{} d={} batch {}: compiled hot path allocated {:.2}/frame",
            c.model,
            c.density,
            c.batch,
            c.allocs_per_frame
        );
    }
    // Batch monotonicity: on identical frames, the batch-major path must
    // amortise weight loads — batch=8 may not lose more than measurement
    // noise against batch=1, at any density.
    for model in ["unet", "mlp"] {
        for &density in &DENSITIES {
            let b1 = fps_at(&rows, model, "compiled", density, 1);
            let b8 = fps_at(&rows, model, "compiled", density, 8);
            assert!(
                b8 >= 0.9 * b1,
                "{model} d={density}: batch=8 throughput {b8:.0} fps regressed below 0.9x of \
                 batch=1 {b1:.0} fps"
            );
        }
    }
    // Density monotonicity at batch 1, the deployment point: pruning may
    // never make the real-time path slower than the dense firmware.
    let b1_ns = |density: f64| 1e9 / fps_at(&rows, "unet", "compiled", density, 1);
    let dense_b1 = b1_ns(1.0);
    for &density in DENSITIES.iter().filter(|&&d| d < 1.0) {
        let ns = b1_ns(density);
        assert!(
            ns <= 1.1 * dense_b1,
            "unet d={density}: batch=1 {ns:.0} ns/frame above 1.1x the dense batch=1 \
             {dense_b1:.0} ns/frame"
        );
    }
    assert!(
        unet_speedup >= min_speedup,
        "U-Net compiled speedup {unet_speedup:.2}x below the {min_speedup:.1}x floor"
    );
    assert!(
        mlp_best_fps >= min_mlp_fps,
        "MLP compiled rate {mlp_best_fps:.0} fps below the {min_mlp_fps:.0} floor"
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|c| {
            format!(
                "{{\"model\":\"{}\",\"engine\":\"{}\",\"density\":{},\"batch\":{},\
                 \"frames\":{},\"ns_per_frame\":{:.1},\"fps\":{:.1},\"allocs_per_frame\":{:.3}}}",
                c.model,
                c.engine,
                c.density,
                c.batch,
                c.frames,
                c.ns_per_frame,
                c.fps,
                c.allocs_per_frame
            )
        })
        .collect();
    let crossover_rows: Vec<String> = crossover
        .iter()
        .map(|c| {
            format!(
                "{{\"model\":\"{}\",\"density\":{},\"batch\":{},\"dense_ns_per_frame\":{:.1},\
                 \"sparse_ns_per_frame\":{:.1}}}",
                c.model, c.density, c.batch, c.dense_ns, c.sparse_ns
            )
        })
        .collect();
    let json = format!(
        "{{\"seed\":{SEED},\"min_speedup\":{min_speedup},\"unet_speedup\":{unet_speedup:.3},\
         \"unet_dense_speedup\":{unet_dense_speedup:.3},\"mlp_speedup\":{mlp_speedup:.3},\
         \"mlp_dense_speedup\":{mlp_dense_speedup:.3},\"mlp_best_fps\":{mlp_best_fps:.1},\
         \"density_threshold\":{},\"rows\":[{}],\"crossover\":[{}]}}\n",
        PlanConfig::default().density_threshold,
        json_rows.join(","),
        crossover_rows.join(",")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_inference_hotpath.json");
    let mut f = std::fs::File::create(&path).expect("write benchmark json");
    f.write_all(json.as_bytes()).expect("write benchmark json");
    println!("trajectory written to {}", path.display());
}
