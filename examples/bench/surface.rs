//! Every library item the benchmark uses, and nothing else from the library.
//!
//! The other modules of the benchmark import the CAKE crates only through
//! this file, so an API change knows from this list which entry points the
//! benchmark depends on and must keep or migrate.

// Matrices and seeded inputs.
pub use cake_matrix::compare::gemm_tolerance;
pub use cake_matrix::init::random;
pub use cake_matrix::{Element, Layout, Matrix};

// GEMM engine: the reusable context, its per-call stats, the worker pool.
pub use cake_core::api::{CakeConfig, CakeGemm};
pub use cake_core::pool::ThreadPool;
pub use cake_core::ExecStats;

// Packing layer and the dispatched microkernel tile it packs for.
pub use cake_kernels::best_kernel;
pub use cake_kernels::pack::{pack_a, pack_b, packed_a_size, packed_b_size};
pub use cake_kernels::select::KernelSelect;

// CNN layers.
pub use cake_dnn::im2col::{direct_conv, im2col, ConvGeom};
pub use cake_dnn::quant::quantize_activations;
pub use cake_dnn::{
    Conv2d, GlobalAvgPool, Linear, MaxPool2d, QuantConv2d, QuantLinear, ReLU, Sequential, Tensor,
};

// The GOTO baseline the paper compares against.
pub use cake_goto::api::{goto_gemm, GotoConfig};

/// A reusable CAKE context with `p` workers and otherwise default settings.
pub fn cake(p: usize) -> CakeGemm {
    CakeGemm::new(CakeConfig::with_threads(p))
}
