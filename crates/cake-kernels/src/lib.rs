//! Tile-level GEMM microkernels for the CAKE reproduction.
//!
//! The paper implements CAKE on top of the BLIS kernel library: a single
//! register-blocked *microkernel* multiplies an `mr x kc` packed sliver of
//! `A` by a `kc x nr` packed sliver of `B`, accumulating into an `mr x nr`
//! tile of `C` held in SIMD registers (paper Figure 5e / 6e). Everything
//! above the microkernel — blocking, scheduling, packing order — is what
//! distinguishes CAKE from GOTO; the kernel itself is shared.
//!
//! This crate provides:
//!
//! * [`ukernel`] — the kernel contract ([`Ukr`]) and portable
//!   auto-vectorizing implementations for several `mr x nr` shapes.
//! * [`avx2`] — hand-written AVX2+FMA kernels (f32 `6x16`, f64 `4x8`,
//!   the classic Haswell register blocking) selected at runtime.
//! * [`avx512`] — hand-written AVX-512 kernels (f32 `14x32`, f64 `8x16`,
//!   VNNI int8 `16x16`, bf16 `14x32`) blocked for the 32-register zmm file.
//! * `amx` — the AMX int8 `32x32` tile kernel (`tdpbssd` through `asm!`),
//!   the top dispatch tier, on x86_64 Linux outside Miri.
//! * [`pack`] — packing of operand panels into the packed layout each
//!   kernel declares ([`pack::PackLayout`]: BLIS k-major slivers, or AMX
//!   tiles), with zero-padding of edge slivers.
//! * [`quant`] — the int8 activation quantizer's range and quantize loops,
//!   built once portable and once for AVX-512 and chosen at run time.
//! * [`edge`] — safe execution of partial tiles: written directly by the
//!   AVX-512 f32 kernel's partial-tile instances, through a scratch
//!   buffer for every other kernel.
//! * [`select`] — runtime kernel dispatch per element type: a tier ladder
//!   (amx → avx512 → avx2 → portable) with a `CAKE_KERNEL` env override
//!   that caps the tier for A/B experiments.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod edge;
pub mod pack;
pub mod quant;
pub mod select;
pub mod ukernel;

#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod amx;
#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

pub use select::{
    available_tiers, best_kernel, best_kernel_for_depth, portable_kernel, tier_kernel, KernelTier,
};
pub use pack::{LayoutKind, PackLayout};
pub use ukernel::Ukr;
