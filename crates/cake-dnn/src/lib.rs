//! CNN forward-pass substrate on CAKE GEMM.
//!
//! The paper motivates CAKE with deep-learning inference: "most
//! computations in the forward pass of a convolutional neural network
//! consist of one matrix multiplication per convolutional layer between
//! the inputs to and the weights of a layer". This crate builds that
//! workload properly:
//!
//! * [`tensor`] — a minimal `C x H x W` feature-map tensor over the
//!   workspace's matrix type.
//! * [`im2col`] — the lowering (with stride and padding) that turns a
//!   convolution into the `(out_ch) x (in_ch*kh*kw) x (oh*ow)` GEMM the
//!   paper's analysis applies to. [`im2col::LoweredConv`] is the patch
//!   matrix as a B operand the executor packs straight from the feature
//!   map, so no layer builds it; `im2col` materializes it, and a
//!   direct-convolution reference verifies both.
//! * [`layers`] — `Conv2d`, `Linear`, `ReLU`, `MaxPool2d`,
//!   `GlobalAvgPool`, all running their GEMMs through one shared
//!   [`cake_core::api::CakeGemm`] context (the drop-in-library usage the
//!   paper describes).
//! * [`network`] — a `Sequential` container with per-layer FLOP and
//!   timing accounting, which folds each ReLU into the write-out of the
//!   layer before it ([`Layer::forward_relu`]).
//! * [`quant`] — int8-quantized `Conv2d`/`Linear` variants (per-channel
//!   weight scales, per-tensor activation zero-point, i32 accumulate, f32
//!   requantize) running on the narrow-dtype kernel tier through the same
//!   shared workspace pools.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod im2col;
pub mod layers;
pub mod network;
pub mod quant;
pub mod tensor;

pub use layers::{Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2d, ReLU};
pub use network::Sequential;
pub use quant::{QuantConv2d, QuantLinear};
pub use tensor::Tensor;
