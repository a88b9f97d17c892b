//! `reads-tensor` — the numeric kernels under the READS models.
//!
//! The beam-loss de-blending models are one-dimensional: a frame is 260 BLM
//! readings, and every layer transforms a 1-D feature map (length ×
//! channels). This crate provides exactly the kernels those models need — no
//! general N-D tensor machinery:
//!
//! * [`FeatureMap`] — a `(len, channels)` 1-D feature map (position-major).
//! * [`Mat`] — a dense row-major matrix for dense-layer weights.
//! * [`ops`] — GEMV, same-padded `conv1d`, `maxpool1d` (with argmax for
//!   backprop), nearest-neighbour `upsample1d`, channel `concat`.
//! * [`activ`] — ReLU / Sigmoid / identity and derivatives, plus the
//!   piecewise-linear sigmoid lookup table hls4ml synthesizes in firmware.
//!
//! Everything is `f64`. The paper's float reference is Keras `float32`; using
//! `f64` here only makes the "float reference" *more* exact, and the
//! quantization error of the 16-bit firmware dwarfs the difference (LSB of
//! `ac_fixed<16,7>` is 2⁻⁹ ≈ 2·10⁻³ vs. ~10⁻⁷ for f32).

#![warn(missing_docs)]

pub mod activ;
pub mod fm;
pub mod mat;
pub mod ops;

pub use activ::Activation;
pub use fm::FeatureMap;
pub use mat::Mat;
