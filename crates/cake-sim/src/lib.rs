//! Architecture simulator for CB-block schedules (paper Section 6.2).
//!
//! The paper validated CAKE with a packet-based SystemC simulator modeling
//! "timings between external memory, local memory, and cores under various
//! system characteristics". This crate is that simulator's Rust
//! counterpart, and the substrate for reproducing the paper's evaluation
//! figures on hardware we do not have (the sandbox has a single core; the
//! paper used a 10-core Intel i9-10900K, a 16-core AMD Ryzen 9 5950X, and
//! a 4-core ARM Cortex-A53):
//!
//! * [`config`] — per-CPU system characteristics (Table 2) including
//!   measured-shape internal-bandwidth curves (pmbw, Figures 10c/11c/12c).
//! * [`cache`] — a variable-object-size LRU cache and an inclusive
//!   L1/L2/LLC hierarchy with per-level hit and DRAM-traffic counters.
//! * [`trace`] — tile-granular memory access traces for the CAKE and GOTO
//!   schedules, fed through the cache hierarchy (Figure 7).
//! * [`event`] — the discrete-event core: a min-heap of
//!   `(tick, seq, component)` wake-ups, per-component clock dividers,
//!   FIFO/fuzzed same-tick tie-break, and the bounded event trace.
//! * [`machine`] — the simulated hardware: shared DRAM channel and LLC
//!   port, per-stream pack units / compute units / rotation barrier,
//!   multi-stream (shared-LLC contention) execution.
//! * [`engine`] — schedule lowering plus the event-machine front end,
//!   producing throughput, DRAM bandwidth, and stall breakdowns
//!   (Figures 9–12), with fuzzed-ordering race checks. It is the crate's
//!   only timing engine.
//! * [`report`] — result records shared by the bench harness.
//! * [`search`] — the exhaustive design-space search CAKE's closed-form
//!   shaping replaces, used to validate the "no design search" claim.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod event;
pub mod machine;
pub mod report;
pub mod search;
pub mod trace;

pub use config::CpuConfig;
pub use engine::{
    check_ordering_invariance, simulate_cake, simulate_goto, simulate_shared_llc, Algo,
    SimOptions, SimParams,
};
pub use event::TieBreak;
pub use report::SimReport;
