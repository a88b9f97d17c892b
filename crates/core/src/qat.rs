//! Quantization-aware training (QAT).
//!
//! The paper uses *post-training* quantization (PTQ) with layer-based
//! formats; the hls4ml ecosystem's alternative is training against the
//! quantized weights (QKeras-style). This extension implements weights-QAT
//! with the straight-through estimator: every batch runs its forward and
//! backward pass on a weight-quantized copy of the model, and the resulting
//! gradients update the float master weights. At widths where PTQ starts to
//! collapse (≤ 8 bits), QAT recovers much of the loss — quantified by
//! [`ptq_vs_qat`] and `repro qat_study`.

use rayon::prelude::*;
use reads_fixed::{Fx, Overflow, QFormat, Rounding};
use reads_nn::layer::Layer;
use reads_nn::train::{batch_gradients, evaluate, Dataset, TrainConfig, TrainReport};
use reads_nn::{Model, Optimizer};
use reads_sim::Rng;
use serde::Serialize;

/// Quantizes every dense-like layer's weights and biases in place to a
/// layer-based `ac_fixed<width, x>` derived from each layer's own maxima
/// (saturating, truncating — conversion-time semantics).
pub fn quantize_weights_inplace(model: &mut Model, width: u32) {
    for layer in model.layers_mut() {
        if let Layer::Dense(p) | Layer::PointwiseDense(p) | Layer::Conv1d { p, .. } = layer {
            let max_abs =
                p.w.max_abs()
                    .max(p.b.iter().fold(0.0f64, |m, &b| m.max(b.abs())));
            let int_bits =
                QFormat::required_int_bits_signed(max_abs).clamp(-(width as i32) + 2, width as i32);
            let fmt = QFormat::signed(width, int_bits);
            let q = |v: f64| {
                Fx::from_f64(v, fmt, Rounding::Truncate, Overflow::Saturate)
                    .0
                    .to_f64()
            };
            for w in p.w.as_mut_slice() {
                *w = q(*w);
            }
            for b in &mut p.b {
                *b = q(*b);
            }
        }
    }
}

/// Trains with weights-QAT: gradients are computed through the quantized
/// weights (straight-through estimator) and applied to the float master.
///
/// # Panics
/// Panics on an empty dataset or zero batch size.
pub fn train_qat(
    model: &mut Model,
    data: &Dataset,
    config: &TrainConfig,
    width: u32,
    optimizer: &mut dyn Optimizer,
) -> TrainReport {
    assert!(!data.is_empty() && config.batch_size > 0);
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut epoch_loss = Vec::with_capacity(config.epochs);

    for _ in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let inputs: Vec<Vec<f64>> = chunk.iter().map(|&i| data.inputs[i].clone()).collect();
            let targets: Vec<Vec<f64>> = chunk.iter().map(|&i| data.targets[i].clone()).collect();
            // STE forward/backward on the quantized shadow.
            let mut shadow = model.clone();
            quantize_weights_inplace(&mut shadow, width);
            let (mut grads, loss) = batch_gradients(&shadow, &inputs, &targets, config.loss);
            if let Some(clip) = config.grad_clip {
                let norm = grads.l2_norm();
                if norm > clip {
                    grads.scale(clip / norm);
                }
            }
            optimizer.step(model, &grads);
            loss_sum += loss;
            batches += 1;
        }
        epoch_loss.push(loss_sum / batches as f64);
    }
    TrainReport { epoch_loss }
}

/// Result of the PTQ-vs-QAT study at one width.
#[derive(Debug, Clone, Serialize)]
pub struct QatComparison {
    /// Weight width.
    pub width: u32,
    /// Validation loss of the float model (lower bound).
    pub float_loss: f64,
    /// Validation loss after post-training weight quantization.
    pub ptq_loss: f64,
    /// Validation loss of the QAT-trained model, quantized.
    pub qat_loss: f64,
}

/// Trains one float model and one QAT model on the same data and compares
/// their quantized validation losses at `width`.
#[must_use]
pub fn ptq_vs_qat(
    data: &Dataset,
    validation: &Dataset,
    build: impl Fn() -> Model,
    config: &TrainConfig,
    width: u32,
) -> QatComparison {
    use reads_nn::Adam;

    // Float baseline.
    let mut float_model = build();
    let mut opt = Adam::new(0.002);
    let _ = reads_nn::train::train(&mut float_model, data, config, &mut opt);
    let float_loss = evaluate(&float_model, validation, config.loss);

    // PTQ: quantize the float model's weights.
    let mut ptq_model = float_model.clone();
    quantize_weights_inplace(&mut ptq_model, width);
    let ptq_loss = evaluate(&ptq_model, validation, config.loss);

    // QAT: same initialization, trained through the quantizer.
    let mut qat_model = build();
    let mut opt = Adam::new(0.002);
    let _ = train_qat(&mut qat_model, data, config, width, &mut opt);
    quantize_weights_inplace(&mut qat_model, width);
    let qat_loss = evaluate(&qat_model, validation, config.loss);

    QatComparison {
        width,
        float_loss,
        ptq_loss,
        qat_loss,
    }
}

/// Convenience: the study across several widths (rayon-parallel).
#[must_use]
pub fn qat_study(
    data: &Dataset,
    validation: &Dataset,
    build: impl Fn() -> Model + Sync,
    config: &TrainConfig,
    widths: &[u32],
) -> Vec<QatComparison> {
    widths
        .par_iter()
        .map(|&w| ptq_vs_qat(data, validation, &build, config, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_blm::{build_mlp_dataset, FrameGenerator, Standardizer};
    use reads_nn::{models, Loss};

    fn small_data() -> (Dataset, Dataset) {
        let gen = FrameGenerator::with_defaults(81);
        let frames = gen.batch(0, 120);
        let std = Standardizer::fit(&frames);
        let d = build_mlp_dataset(&frames, &std);
        d.split_at(96)
    }

    #[test]
    fn quantize_weights_puts_them_on_grid() {
        let mut m = models::reads_mlp(81);
        quantize_weights_inplace(&mut m, 8);
        for layer in m.layers() {
            if let Layer::Dense(p) = layer {
                let max = p.w.max_abs();
                let int_bits = QFormat::required_int_bits_signed(max);
                let fmt = QFormat::signed(8, int_bits.clamp(-6, 8));
                for &w in p.w.as_slice() {
                    let q = (w / fmt.lsb()).round();
                    assert!((w / fmt.lsb() - q).abs() < 1e-6, "off grid: {w}");
                }
            }
        }
    }

    #[test]
    fn qat_beats_ptq_at_low_width() {
        let (train_set, val) = small_data();
        let config = TrainConfig {
            epochs: 5,
            batch_size: 16,
            loss: Loss::Bce,
            seed: 82,
            grad_clip: Some(5.0),
        };
        let cmp = ptq_vs_qat(&train_set, &val, || models::reads_mlp(83), &config, 6);
        assert!(
            cmp.qat_loss < cmp.ptq_loss,
            "QAT {} must beat PTQ {} at 6 bits",
            cmp.qat_loss,
            cmp.ptq_loss
        );
        assert!(cmp.float_loss <= cmp.qat_loss + 0.05, "float is the floor");
    }

    #[test]
    fn ptq_matches_float_at_high_width() {
        let (train_set, val) = small_data();
        let config = TrainConfig {
            epochs: 3,
            batch_size: 16,
            loss: Loss::Bce,
            seed: 84,
            grad_clip: Some(5.0),
        };
        let cmp = ptq_vs_qat(&train_set, &val, || models::reads_mlp(85), &config, 16);
        assert!(
            (cmp.ptq_loss - cmp.float_loss).abs() < 0.01,
            "16-bit PTQ ~ float: {} vs {}",
            cmp.ptq_loss,
            cmp.float_loss
        );
    }
}
