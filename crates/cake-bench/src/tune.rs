//! On-host autotune refinement: the micro-bench stage of the tuning loop.
//!
//! `cake_core::tune` generates the deterministic candidate grid and
//! `cake_sim::search::autotune` ranks it on a host-shaped simulator
//! config; this module closes the loop by re-measuring the simulator's
//! top-K candidates (plus the closed-form default) with short real GEMM
//! runs and recording the measured winner in the persistent
//! [`TuneTable`]. The default always competes in the measured round, so
//! the recorded winner is **never slower than the closed form on this
//! host** — a cache hit through `CakeConfig::autotuned_for` can only
//! help.

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::shape::CbBlockShape;
use cake_core::tune::{TuneTable, TunedEntry};
use cake_kernels::select::KernelSelect;
use cake_kernels::KernelTier;
use cake_matrix::Matrix;
use cake_sim::config::CpuConfig;
use cake_sim::search::{autotune as sim_autotune, ScoredCandidate};

/// One measured tuning candidate.
#[derive(Debug, Clone)]
pub struct MeasuredCandidate {
    /// Kernel tier the run dispatched through.
    pub tier: KernelTier,
    /// The block shape measured.
    pub shape: CbBlockShape,
    /// Simulator GFLOP/s that promoted it into the top-K (0 for the
    /// closed-form default, which enters unconditionally).
    pub sim_gflops: f64,
    /// Measured on-host GFLOP/s (best of the timed reps).
    pub gflops: f64,
    /// Whether this row *is* the closed-form default shape.
    pub is_default: bool,
}

/// Everything one [`autotune_shape`] run learned.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winner, ready for [`TuneTable::insert`].
    pub entry: TunedEntry,
    /// The closed-form default's measured GFLOP/s (the baseline the
    /// winner must beat or match).
    pub default_gflops: f64,
    /// The default's resolved shape.
    pub default_shape: CbBlockShape,
    /// Every measured candidate, best first (default included).
    pub candidates: Vec<MeasuredCandidate>,
    /// Simulator evaluations spent ranking the full candidate grid.
    pub sim_evaluations: usize,
}

impl TuneOutcome {
    /// Winner's measured speedup over the closed-form default (>= 1.0 by
    /// construction).
    pub fn speedup(&self) -> f64 {
        self.entry.gflops / self.default_gflops.max(1e-12)
    }
}

/// Knobs for one tuning run; `Default` suits CI smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Simulator leaders to re-measure on the host.
    pub top_k: usize,
    /// Timed repetitions per measured candidate (after one warmup).
    pub reps: usize,
    /// Per-core L2 budget fed to candidate generation and the host sim
    /// config.
    pub l2_bytes: usize,
    /// Shared-LLC budget (the `--llc-mib` knob).
    pub llc_bytes: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        let d = CakeConfig::default();
        Self {
            top_k: 4,
            reps: 3,
            l2_bytes: d.l2_bytes,
            llc_bytes: d.llc_bytes,
        }
    }
}

/// Run the full tuning loop for one `(m, k, n, dtype, p)` point:
/// sim-rank the candidate grid on [`CpuConfig::detected_host`], micro-bench
/// the top-K the host can actually dispatch, and return the measured
/// winner (the closed-form default when nothing beats it).
pub fn autotune_shape<T: KernelSelect>(
    m: usize,
    k: usize,
    n: usize,
    p: usize,
    opts: TuneOptions,
) -> TuneOutcome {
    assert!(m > 0 && k > 0 && n > 0 && p > 0, "degenerate tune point");
    let host = CpuConfig::detected_host(opts.l2_bytes, opts.llc_bytes);
    let scored = sim_autotune(&host, m, k, n, T::NAME, p, T::BYTES);
    let sim_evaluations = scored.len();

    // The closed-form baseline this host would use without a cache entry.
    let base_cfg = CakeConfig {
        l2_bytes: opts.l2_bytes,
        ..CakeConfig::tuned_for(p, opts.llc_bytes)
    };
    let default_ukr = base_cfg.selected_kernel::<T>(k);
    let default_shape = base_cfg.explain_shape_for::<T>(m, k, n).shape;
    let default_tier = tier_of(default_ukr.name());

    // Candidates this host can dispatch at this dtype, skipping any that
    // resolve to the default shape (it is measured anyway).
    let dispatchable: Vec<&ScoredCandidate> = scored
        .iter()
        .filter(|s| cake_kernels::tier_kernel::<T>(s.cand.tier).is_some())
        .filter(|s| !(s.cand.shape == default_shape && s.cand.tier == default_tier))
        .collect();
    // The measured round hedges the simulator's model error: half the
    // leaders are the sim's top picks, the rest the largest-footprint
    // candidates — the event model under-credits LLC-resident reuse, so
    // big blocks that pack each operand close to once routinely measure
    // faster than their sim rank suggests. Deterministic either way.
    let sim_half = opts.top_k.div_ceil(2).min(dispatchable.len());
    let mut leaders: Vec<&ScoredCandidate> = dispatchable[..sim_half].to_vec();
    let mut by_footprint: Vec<&ScoredCandidate> = dispatchable[sim_half..].to_vec();
    by_footprint.sort_by(|x, y| {
        let vol = |s: &ScoredCandidate| s.cand.shape.mc * s.cand.shape.kc * s.cand.shape.nc;
        vol(y).cmp(&vol(x)).then(x.cand.tier.cmp(&y.cand.tier))
    });
    leaders.extend(by_footprint.into_iter().take(opts.top_k - sim_half));

    let a = gen_operand::<T>(m, k, 1);
    let b = gen_operand::<T>(k, n, 2);
    let reps = opts.reps.max(1);

    let default_gflops = measure::<T>(&base_cfg, &a, &b, reps);
    let mut candidates = vec![MeasuredCandidate {
        tier: default_tier,
        shape: default_shape,
        sim_gflops: 0.0,
        gflops: default_gflops,
        is_default: true,
    }];
    for s in leaders {
        let cfg = CakeConfig {
            fixed_shape: Some(s.cand.shape),
            kernel_tier: Some(s.cand.tier),
            ..base_cfg.clone()
        };
        candidates.push(MeasuredCandidate {
            tier: s.cand.tier,
            shape: cfg.explain_shape_for::<T>(m, k, n).shape,
            sim_gflops: s.gflops,
            gflops: measure::<T>(&cfg, &a, &b, reps),
            is_default: false,
        });
    }
    candidates.sort_by(|x, y| y.gflops.total_cmp(&x.gflops));

    // Honest fallback: the winner is the default unless a candidate
    // measured strictly faster, so `tuned >= default` holds by
    // construction.
    let winner = candidates
        .iter()
        .find(|c| c.gflops > default_gflops)
        .cloned()
        .unwrap_or_else(|| candidates.iter().find(|c| c.is_default).cloned().expect("default measured"));
    let entry = TunedEntry {
        m,
        k,
        n,
        dtype: T::NAME.to_string(),
        p,
        mc: winner.shape.mc,
        kc: winner.shape.kc,
        nc: winner.shape.nc,
        tier: winner.tier.name().to_string(),
        gflops: winner.gflops,
    };
    TuneOutcome {
        entry,
        default_gflops,
        default_shape,
        candidates,
        sim_evaluations,
    }
}

/// [`autotune_shape`], then record the winner in `table`.
pub fn autotune_into_table<T: KernelSelect>(
    table: &mut TuneTable,
    m: usize,
    k: usize,
    n: usize,
    p: usize,
    opts: TuneOptions,
) -> TuneOutcome {
    let outcome = autotune_shape::<T>(m, k, n, p, opts);
    table.insert(outcome.entry.clone());
    outcome
}

/// Kernel tier from a registered kernel name (`"avx2_f32_6x16"` ->
/// `Avx2`); names always lead with the tier.
pub fn tier_of(kernel_name: &str) -> KernelTier {
    kernel_name
        .split('_')
        .next()
        .and_then(KernelTier::parse)
        .unwrap_or(KernelTier::Portable)
}

/// Deterministic operand for dtype `T`; values are irrelevant to timing,
/// so every dtype takes the standard uniform fill.
fn gen_operand<T: KernelSelect>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    cake_matrix::init::random::<T>(rows, cols, seed)
}

/// Best-of-`reps` GFLOP/s of `C += A * B` through `cfg` (one warmup call
/// sizes the pool and workspace first).
fn measure<T: KernelSelect>(
    cfg: &CakeConfig,
    a: &Matrix<T>,
    b: &Matrix<T>,
    reps: usize,
) -> f64 {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let ctx = CakeGemm::new(cfg.clone());
    let mut c = Matrix::<T::Acc>::zeros(m, n);
    ctx.gemm(a, b, &mut c); // warmup
    let best = crate::best_of(reps, || ctx.gemm(a, b, &mut c));
    2.0 * (m as f64) * (k as f64) * (n as f64) / best.max(1e-12) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_never_loses_to_default() {
        let opts = TuneOptions {
            top_k: 2,
            reps: 1,
            ..TuneOptions::default()
        };
        let out = autotune_shape::<f32>(96, 96, 96, 1, opts);
        assert!(out.entry.gflops >= out.default_gflops, "winner regressed");
        assert!(out.speedup() >= 1.0);
        assert_eq!(out.entry.dtype, "f32");
        assert!(out.sim_evaluations > 0);
        // The default always competed.
        assert!(out.candidates.iter().any(|c| c.is_default));
        // Winner is recorded with a dispatchable tier.
        assert!(cake_kernels::tier_kernel::<f32>(tier_of(&format!(
            "{}_x",
            out.entry.tier
        )))
        .is_some());
    }

    #[test]
    fn table_records_the_winner() {
        let mut table = TuneTable::default();
        let opts = TuneOptions {
            top_k: 1,
            reps: 1,
            ..TuneOptions::default()
        };
        let out = autotune_into_table::<i8>(&mut table, 64, 64, 64, 1, opts);
        let hit = table.lookup(64, 64, 64, "int8", 1).expect("recorded");
        assert_eq!(*hit, out.entry);
    }

    #[test]
    fn tier_of_parses_registered_names() {
        assert_eq!(tier_of("portable_f32_8x8"), KernelTier::Portable);
        assert_eq!(tier_of("avx2_bf16_4x8"), KernelTier::Avx2);
        assert_eq!(tier_of("avx512_vnni_i8_16x16"), KernelTier::Avx512);
        assert_eq!(tier_of("mystery"), KernelTier::Portable);
    }
}
