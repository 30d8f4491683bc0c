//! Tuned-vs-default differential check: the autotuner's candidate shapes
//! must never change the answer.
//!
//! The tuning loop (`cake_core::tune::candidate_points` ranked by the
//! simulator, refined by micro-benches) only ever swaps the **block
//! shape and kernel tier** a GEMM runs under — the arithmetic must be
//! unaffected. This pillar fuzzes exactly that claim: for seeded random
//! problems at every dtype it runs the executor under the closed-form
//! default shape (`CakeConfig::tuned_for` + `explain_shape_for`) and
//! under a deterministic sample of the tuner's candidate shapes (each
//! through its candidate's kernel tier when the host has one), then
//! compares every output against the naive reference *and* against the
//! default-shape run. Integer accumulation (int8) is held to 0 ULP;
//! float dtypes to the same K-scaled ULP bounds the differential fuzzer
//! uses. A divergence means a candidate shape exercised an executor
//! edge (clamping, partial tiles, outer-level spills) incorrectly —
//! precisely the class of bug an autotuner would otherwise ship at
//! whatever shape happened to win.

use cake_core::api::CakeConfig;
use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::tune::candidate_points;
use cake_core::workspace::GemmWorkspace;
use cake_goto::naive::naive_gemm_views_acc;
use cake_kernels::select::KernelSelect;
use cake_kernels::{best_kernel, tier_kernel};
use cake_matrix::{init, Bf16, Matrix};
use proptest::test_runner::TestRng;

use crate::fuzz::{compare, Mismatch, UlpElement};

/// Candidate shapes exercised per (case, dtype): a deterministic strided
/// sample of the full grid, so the check stays fast while still covering
/// the extremes the sort order puts first and last.
const SHAPES_PER_DTYPE: usize = 5;

/// Statistics from a clean tuned-vs-default run.
#[derive(Debug, Default)]
pub struct TunedReport {
    /// Seeded problem cases checked (each runs all four dtypes).
    pub cases: u32,
    /// Executor runs under tuner candidate shapes (across all dtypes).
    pub tuned_runs: u32,
    /// Candidate runs that dispatched a non-default kernel tier.
    pub tier_pinned_runs: u32,
    /// Worst accepted ULP distance observed.
    pub max_ulps_seen: u64,
}

impl TunedReport {
    /// Human-readable summary for the CLI.
    pub fn summary_lines(&self) -> Vec<String> {
        vec![
            format!(
                "{} cases x 4 dtypes, {} tuned-shape runs ({} tier-pinned), zero divergences",
                self.cases, self.tuned_runs, self.tier_pinned_runs
            ),
            format!(
                "every tuned shape matched the default shape and the naive reference \
                 (int8 at 0 ULP; worst accepted float error {} ULP)",
                self.max_ulps_seen
            ),
        ]
    }
}

fn check_dtype<T>(
    m: usize,
    k: usize,
    n: usize,
    p: usize,
    data_seed: u64,
    report: &mut TunedReport,
) -> Result<(), String>
where
    T: TunedOperand,
    T::Acc: UlpElement,
{
    let a = T::gen(m, k, data_seed);
    let b = T::gen(k, n, data_seed ^ 0xb);
    let (av, bv) = (a.view(), b.view());
    // Integer accumulation (int8 -> i32) admits no rounding: 0 ULP.
    let exact = T::NAME == "int8";

    let mut c_ref = Matrix::<T::Acc>::zeros(m, n);
    naive_gemm_views_acc(&av, &bv, &mut c_ref.view_mut());

    let cfg = CakeConfig::tuned_for(p, CakeConfig::default().llc_bytes);
    let default_shape = cfg.explain_shape_for::<T>(m, k, n).shape;
    let default_ukr = cfg.selected_kernel::<T>(k);
    let pool = ThreadPool::new(p);
    let mut ws = GemmWorkspace::new();

    let mut c_default = Matrix::<T::Acc>::zeros(m, n);
    let mut c_view = c_default.view_mut();
    execute_with_stats_in(&av, &bv, &mut c_view, &default_shape, &default_ukr, &pool, &mut ws);
    if let Some(mm) = compare("default", &c_default, &c_ref, k, exact, &mut report.max_ulps_seen) {
        return Err(render(T::NAME, m, k, n, p, &default_shape, &mm, "naive reference"));
    }

    // Deterministic strided sample over the candidate grid.
    let cands = candidate_points(T::NAME, p, m, k, n, cfg.l2_bytes, cfg.llc_bytes, T::BYTES);
    let stride = (cands.len() / SHAPES_PER_DTYPE).max(1);
    for cand in cands.iter().step_by(stride) {
        let (ukr, pinned) = match tier_kernel::<T>(cand.tier) {
            Some(u) => (u, true),
            None => (best_kernel::<T>(), false),
        };
        let shape = CbBlockShape::fixed(p, cand.shape.mc, cand.shape.kc, cand.shape.nc);
        let mut c_tuned = Matrix::<T::Acc>::zeros(m, n);
        execute_with_stats_in(&av, &bv, &mut c_tuned.view_mut(), &shape, &ukr, &pool, &mut ws);
        report.tuned_runs += 1;
        report.tier_pinned_runs += u32::from(pinned);
        if let Some(mm) = compare("tuned", &c_tuned, &c_ref, k, exact, &mut report.max_ulps_seen) {
            return Err(render(T::NAME, m, k, n, p, &shape, &mm, "naive reference"));
        }
        // Differential against the default-shape run: same bound — both
        // outputs round independently, so their ULP distance is covered
        // by the same K-scaled budget each holds against the reference.
        if let Some(mm) =
            compare("tuned", &c_tuned, &c_default, k, exact, &mut report.max_ulps_seen)
        {
            return Err(render(T::NAME, m, k, n, p, &shape, &mm, "default-shape run"));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)] // one flat failure-report formatter
fn render(
    dtype: &str,
    m: usize,
    k: usize,
    n: usize,
    p: usize,
    shape: &CbBlockShape,
    mm: &Mismatch,
    oracle: &str,
) -> String {
    format!(
        "tuned-shape check: {dtype} {m}x{k}x{n} p={p} under {shape} diverged from the \
         {oracle} at C[{}][{}]: got {:e}, want {:e} ({} ULP)",
        mm.row, mm.col, mm.got, mm.want, mm.ulps
    )
}

/// Per-dtype operand generation: uniform reals for the float dtypes,
/// full-range bytes for int8 (the generic `init::random::<i8>` collapses
/// to zero, which would make the exact comparison vacuous).
trait TunedOperand: KernelSelect {
    fn gen(rows: usize, cols: usize, seed: u64) -> Matrix<Self>;
}

impl TunedOperand for f32 {
    fn gen(rows: usize, cols: usize, seed: u64) -> Matrix<Self> {
        init::random(rows, cols, seed)
    }
}

impl TunedOperand for f64 {
    fn gen(rows: usize, cols: usize, seed: u64) -> Matrix<Self> {
        init::random(rows, cols, seed)
    }
}

impl TunedOperand for i8 {
    fn gen(rows: usize, cols: usize, seed: u64) -> Matrix<Self> {
        init::random_i8(rows, cols, seed)
    }
}

impl TunedOperand for Bf16 {
    fn gen(rows: usize, cols: usize, seed: u64) -> Matrix<Self> {
        init::random(rows, cols, seed)
    }
}

fn gen_dim(rng: &mut TestRng) -> usize {
    match rng.next_u64() % 8 {
        0 => 1,
        1 => 2,
        _ => 3 + (rng.next_u64() % 45) as usize,
    }
}

/// Run the tuned-vs-default pillar: `cases` seeded problems, each checked
/// at all four dtypes against a sample of the tuner's candidate grid.
pub fn run(cases: u32, seed: u64) -> Result<TunedReport, String> {
    let mut rng = TestRng::for_test_with_seed("cake_verify::tuned", seed);
    let mut report = TunedReport {
        cases,
        ..TunedReport::default()
    };
    for _ in 0..cases {
        let (m, k, n) = (gen_dim(&mut rng), gen_dim(&mut rng), gen_dim(&mut rng));
        let p = 1 + (rng.next_u64() % 2) as usize;
        let data_seed = rng.next_u64() | 1;
        check_dtype::<f32>(m, k, n, p, data_seed, &mut report)?;
        check_dtype::<f64>(m, k, n, p, data_seed, &mut report)?;
        check_dtype::<i8>(m, k, n, p, data_seed, &mut report)?;
        check_dtype::<Bf16>(m, k, n, p, data_seed, &mut report)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_tuned_run_is_clean() {
        let rep = run(6, 3).expect("tuned shapes must match the default");
        assert_eq!(rep.cases, 6);
        assert!(rep.tuned_runs > 0, "no candidate shapes were exercised");
        assert!(!rep.summary_lines().is_empty());
    }

    #[test]
    fn dims_cover_degenerate_and_general() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::tuned", 0);
        let dims: Vec<usize> = (0..64).map(|_| gen_dim(&mut rng)).collect();
        assert!(dims.contains(&1));
        assert!(dims.iter().any(|&d| d > 8));
    }
}
