//! # CAKE — Matrix Multiplication Using Constant-Bandwidth Blocks
//!
//! Facade crate for the reproduction of Kung, Natesh & Sabot,
//! *"CAKE: Matrix Multiplication Using Constant-Bandwidth Blocks"* (SC '21).
//!
//! The workspace is organized bottom-up:
//!
//! * [`matrix`] — dense matrix substrate (storage, views, partitioning).
//! * [`kernels`] — register-blocked SIMD microkernels.
//! * [`core`] — the paper's contribution: CB-block shaping, the K-first
//!   snake schedule, the analytical resource model, and the threaded
//!   drop-in GEMM context ([`core::api::CakeGemm`]).
//! * [`goto`] — the GOTO-algorithm baseline the paper compares against.
//! * [`sim`] — the discrete-event architecture simulator used to reproduce
//!   the paper's multi-core evaluation figures.
//! * [`dnn`] — the paper's motivating workload: CNN forward passes as one
//!   CAKE GEMM per layer (im2col convolution, linear layers).
//!
//! ## Quickstart
//!
//! ```
//! use cake::prelude::*;
//!
//! let m = 64;
//! let k = 48;
//! let n = 80;
//! let a = cake::matrix::init::random::<f32>(m, k, 1);
//! let b = cake::matrix::init::random::<f32>(k, n, 2);
//! let mut c = Matrix::<f32>::zeros(m, n);
//!
//! // Drop-in GEMM: C += A * B using constant-bandwidth blocks.
//! CakeGemm::new(CakeConfig::default()).gemm(&a, &b, &mut c);
//!
//! let mut reference = Matrix::<f32>::zeros(m, n);
//! cake::goto::naive::naive_gemm(&a, &b, &mut reference);
//! assert!(cake::matrix::approx_eq(&c, &reference, 1e-3));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub use cake_core as core;
pub use cake_dnn as dnn;
pub use cake_goto as goto;
pub use cake_kernels as kernels;
pub use cake_matrix as matrix;
pub use cake_sim as sim;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use cake_core::api::{CakeConfig, CakeGemm};
    pub use cake_core::model::CakeModel;
    pub use cake_core::shape::CbBlockShape;
    pub use cake_goto::api::{goto_gemm, GotoConfig};
    pub use cake_matrix::{approx_eq, Layout, Matrix};
    pub use cake_sim::config::CpuConfig;
}
