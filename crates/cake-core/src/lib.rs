//! CAKE — constant-bandwidth-block matrix multiplication (SC '21).
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`shape`] — analytical CB-block shaping and sizing (Section 3): given
//!   `p` cores, cache sizes, and a DRAM-bandwidth factor `alpha`, derive the
//!   `p*mc x kc x alpha*p*mc` block that keeps external bandwidth constant.
//! * [`model`] — the closed-form resource model (Equations 1–6): local
//!   memory footprint, minimum external bandwidth, and internal bandwidth
//!   for both the abstract machine and the CPU instantiation.
//! * [`schedule`] — the one block schedule, [`schedule::Schedule`]: the
//!   K-first snake of Section 2.2 / Algorithm 2 (or any loop order, for
//!   ablations), optionally cut into MOMMS-style outer K/N tiles. The
//!   executor, the simulator, the verifiers and the audit all build it
//!   through [`schedule::Schedule::k_first`].
//! * [`traffic`] — the one DRAM traffic walk, [`traffic::walk`]: exact
//!   element counts for any block order, per block and in total, with B
//!   served by the paper's adjacency rule or by a replay of the executor's
//!   panel ring.
//! * [`pool`] — a persistent worker pool with static core-to-strip
//!   assignment (CAKE pins one `A` region per core) and optional
//!   core-affinity pinning.
//! * [`sync`] — the cache-padded sense-reversing [`sync::SpinBarrier`]
//!   (spin → yield → park, mode-selected per [`sync::BarrierMode`]) that
//!   replaces the kernel futex barrier on the executor's hot path.
//! * [`topology`] — host-core detection and effective-`p` clamping, so the
//!   requested `p` shapes blocks while the spawned worker count never
//!   exceeds what the host can actually run.
//! * [`executor`] — the multithreaded, software-pipelined CB-block GEMM
//!   engine (double-buffered B panels, balanced M-strip partitioning, one
//!   rotation barrier per block).
//! * [`panel`] — the deterministic LRU B-panel ring state machine, public
//!   so verifiers can replay exactly what the executor runs.
//! * [`workspace`] — reusable packed-operand buffers so repeated GEMMs are
//!   allocation-free after warmup.
//! * [`operand`] — the A operand: a matrix the executor packs strip by
//!   strip on every call, or a [`operand::PackedA`] packed once (a DNN
//!   layer's weights) and read in place.
//! * [`api`] — the drop-in GEMM context [`api::CakeGemm`]: a
//!   [`api::CakeConfig`] in, the kernel, CB block and thread count chosen
//!   for each call. It runs every GEMM through the one executor entry,
//!   [`executor::execute_with_stats_in`].
//! * [`tune`] — `alpha` selection from available DRAM bandwidth (Section 3.2).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
mod counters;
pub mod executor;
pub mod model;
pub mod operand;
pub mod panel;
pub mod pool;
pub mod schedule;
pub mod shared;
pub mod shape;
pub mod sync;
pub mod topology;
pub mod traffic;
pub mod tune;
pub mod workspace;

pub use api::{CakeConfig, CakeGemm};
pub use executor::ExecStats;
pub use model::CakeModel;
pub use operand::{AsOperandA, OperandA, PackedA};
pub use panel::{ring_depth, PanelAction, PanelCache};
pub use schedule::{BlockCoord, BlockGrid, Dim, Schedule};
pub use shape::CbBlockShape;
pub use sync::{BarrierMode, SpinBarrier};
pub use tune::{AlphaSource, TuneDecision};
pub use workspace::GemmWorkspace;
