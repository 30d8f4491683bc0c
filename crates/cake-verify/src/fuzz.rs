//! Differential GEMM fuzzer: CAKE vs GOTO vs the naive reference.
//!
//! Each seeded case draws a problem (`M/K/N` with degenerate 0/1 extents
//! over-represented), a CB-block/GOTO geometry, a thread count, operand
//! presentation (A transposed, B a strided sub-view, C row- or
//! column-major), an element type (f32/f64), and a data class (uniform
//! reals, or small integers that every correct GEMM must reproduce *bit
//! exactly*). The three engines run on identical inputs and are compared
//! per element with a ULP bound scaled by `K`, falling back to the
//! workspace's relative `gemm_tolerance` bound only where cancellation
//! makes ULP distance meaningless.
//!
//! On top of the three engines, every case also sweeps the CAKE executor
//! over **all kernel tiers available on the host**
//! (`cake_kernels::available_tiers()`: portable always, AVX2, AVX-512 and
//! AMX when detected), holding the inputs and block geometry fixed. Each
//! tier's output is held to the same ULP/exact bounds against the naive
//! reference, so the vectorized tiers are cross-checked against each
//! other on every generated case — a divergence reports the concrete
//! microkernel name (e.g. `avx512_f32_14x32`) as the engine.
//!
//! Most cases draw small blocks (`mc` 2–12, `nc` 4–20), below the wide
//! kernels' register tiles, so they run the partial-tile paths. A quarter
//! draw a **full-tile geometry** instead: `mc` a whole multiple of a
//! registered kernel's `mr` and at least 32 rows, `nc` a multiple of 32,
//! and `M`, `N` of at least 32, so every registered tile (up to AMX's
//! 32x32) runs whole; int8 ones also run `kc` past the AMX layout's
//! 64-deep k-step, with K beyond one block. The report counts, per
//! kernel, the cases that ran one of its full tiles.
//!
//! On failure the case is **shrunk**: dimensions halved/decremented,
//! threads dropped to 1, view and layout flags cleared — greedily, while
//! the mismatch persists — so the report carries a minimal reproducer
//! plus the seed (`CAKE_TEST_SEED`) that regenerates it.

use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::workspace::GemmWorkspace;
use cake_goto::api::{goto_gemm_views, GotoConfig};
use cake_goto::naive::naive_gemm_views_acc;
use cake_kernels::select::{KernelSelect, REGISTERED_SHAPES};
use cake_kernels::{available_tiers, best_kernel, portable_kernel, tier_kernel};
use cake_matrix::{init, Bf16, Element, Layout, Matrix};
use proptest::test_runner::TestRng;

/// Elements with a meaningful ULP metric (ordered-integer bit distance).
pub trait UlpElement: Element {
    /// Units-in-the-last-place between `a` and `b` in this type's own
    /// precision; 0 iff bit-equal (or both zeros), `u64::MAX` when either
    /// is non-finite and they differ.
    fn ulp_distance(a: Self, b: Self) -> u64;
}

impl UlpElement for f32 {
    fn ulp_distance(a: Self, b: Self) -> u64 {
        if a == b {
            return 0;
        }
        if !a.is_finite() || !b.is_finite() {
            return u64::MAX;
        }
        // Map the IEEE bit pattern to a monotonically ordered integer.
        let ord = |x: f32| -> i32 {
            let bits = x.to_bits() as i32;
            if bits < 0 {
                i32::MIN - bits
            } else {
                bits
            }
        };
        u64::from(ord(a).abs_diff(ord(b)))
    }
}

impl UlpElement for f64 {
    fn ulp_distance(a: Self, b: Self) -> u64 {
        if a == b {
            return 0;
        }
        if !a.is_finite() || !b.is_finite() {
            return u64::MAX;
        }
        let ord = |x: f64| -> i64 {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ord(a).abs_diff(ord(b))
    }
}

impl UlpElement for i32 {
    /// Integers are their own ordered representation: the "ULP" distance is
    /// the plain absolute difference, and the int8 tier is held to 0.
    fn ulp_distance(a: Self, b: Self) -> u64 {
        (a as i64).abs_diff(b as i64)
    }
}

/// Element type of a fuzz case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scalar {
    /// Single precision.
    F32,
    /// Double precision.
    F64,
    /// int8 operands, i32 accumulation — compared bit-exactly.
    Int8,
    /// bf16 operands, f32 accumulation — K-scaled f32 ULP bounds.
    Bf16,
}

/// How a fuzz case generates operands of one element type, and whether the
/// dtype's accumulation is exact (integer) regardless of the data class.
trait FuzzOperand: Element + Sized {
    /// Integer accumulate: every comparison is at 0 ULP even for
    /// "real-valued" data classes.
    const EXACT: bool = false;
    fn gen(rows: usize, cols: usize, seed: u64, int_data: bool) -> Matrix<Self>;
}

impl FuzzOperand for f32 {
    fn gen(rows: usize, cols: usize, seed: u64, int_data: bool) -> Matrix<Self> {
        if int_data {
            init::random_ints(rows, cols, seed)
        } else {
            init::random(rows, cols, seed)
        }
    }
}

impl FuzzOperand for f64 {
    fn gen(rows: usize, cols: usize, seed: u64, int_data: bool) -> Matrix<Self> {
        if int_data {
            init::random_ints(rows, cols, seed)
        } else {
            init::random(rows, cols, seed)
        }
    }
}

impl FuzzOperand for i8 {
    const EXACT: bool = true;
    /// Always full-range (`init::random::<i8>` collapses to zero): the
    /// int8 tier must be exact on the whole operand domain, including the
    /// `-128` extremes the VNNI bias trick has to compensate for.
    fn gen(rows: usize, cols: usize, seed: u64, _int_data: bool) -> Matrix<Self> {
        init::random_i8(rows, cols, seed)
    }
}

impl FuzzOperand for Bf16 {
    /// Both classes produce exactly-representable bf16 values (rounding
    /// happens at generation, before the engines see the data), so the
    /// naive oracle and the kernels consume identical operands.
    fn gen(rows: usize, cols: usize, seed: u64, int_data: bool) -> Matrix<Self> {
        if int_data {
            init::random_ints(rows, cols, seed)
        } else {
            init::random(rows, cols, seed)
        }
    }
}

/// One generated differential-test case; `Debug` output is the reproducer.
#[derive(Clone, Debug)]
pub struct GemmCase {
    /// Problem extents (0 and 1 included).
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Worker threads for the CAKE executor and GOTO.
    pub p: usize,
    /// CB block: per-core A rows.
    pub mc: usize,
    /// CB block: reduction depth.
    pub kc: usize,
    /// CB block: panel width.
    pub nc: usize,
    /// Present A as the transpose of a `k x m` stored matrix.
    pub a_transposed: bool,
    /// Present B as a strided sub-view of a larger parent.
    pub b_strided: bool,
    /// Column-major output storage.
    pub c_colmajor: bool,
    /// Use the portable microkernel instead of the ISA-best one.
    pub portable: bool,
    /// Small-integer entries: results must match the reference exactly.
    pub int_data: bool,
    /// Element type.
    pub scalar: Scalar,
    /// Seed for the operand data streams.
    pub data_seed: u64,
}

/// First diverging element found for a case.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Which engine diverged from the naive reference.
    pub engine: &'static str,
    /// Output row of the diverging element.
    pub row: usize,
    /// Output column of the diverging element.
    pub col: usize,
    /// The engine's value (as f64).
    pub got: f64,
    /// The reference value (as f64).
    pub want: f64,
    /// ULP distance between them (in the case's own precision).
    pub ulps: u64,
}

/// Fuzzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Number of cases to generate and check.
    pub cases: u32,
    /// Stream seed; perturbs every case (0 = the historical default
    /// stream). [`crate::verify_all`] defaults this to `CAKE_TEST_SEED`.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            cases: 256,
            seed: proptest::test_runner::env_seed(),
        }
    }
}

/// Statistics from a clean fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases checked.
    pub cases: u32,
    /// Cases with at least one 0/1 extent.
    pub degenerate: u32,
    /// f64 cases.
    pub f64_cases: u32,
    /// int8 cases (always compared at 0 ULP in i32).
    pub int8_cases: u32,
    /// bf16 cases (K-scaled f32 ULP bounds against the f64-accum oracle).
    pub bf16_cases: u32,
    /// Exact-comparison cases (integer data or integer accumulate).
    pub int_cases: u32,
    /// Worst accepted ULP distance observed across all comparisons.
    pub max_ulps_seen: u64,
    /// Per kernel of the host's tier sweep, the cases that ran at least
    /// one of its full register tiles, in first-seen order.
    pub full_tiles: Vec<(&'static str, u32)>,
}

impl FuzzReport {
    /// Human-readable summary for the CLI.
    pub fn summary_lines(&self) -> Vec<String> {
        let full: Vec<String> = self
            .full_tiles
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        vec![
            format!(
                "{} cases, zero mismatches ({} degenerate-extent, {} f64, {} int8, {} bf16, {} exact)",
                self.cases, self.degenerate, self.f64_cases, self.int8_cases, self.bf16_cases,
                self.int_cases
            ),
            format!("worst accepted error: {} ULP", self.max_ulps_seen),
            format!("cases running full register tiles, per kernel: {}", full.join(", ")),
        ]
    }

    fn count_full_tiles(&mut self, kernel: &'static str) {
        match self.full_tiles.iter_mut().find(|(k, _)| *k == kernel) {
            Some((_, n)) => *n += 1,
            None => self.full_tiles.push((kernel, 1)),
        }
    }
}

/// A mismatch, shrunk to a minimal reproducer.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Seed that regenerates the failing stream.
    pub seed: u64,
    /// Index of the failing case within the stream.
    pub case_index: u32,
    /// The case as originally generated.
    pub original: GemmCase,
    /// The greedily shrunk case that still fails.
    pub minimal: GemmCase,
    /// The divergence observed on the minimal case.
    pub mismatch: Mismatch,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "differential fuzzer: {} diverged from the naive reference at \
             C[{}][{}]: got {:e}, want {:e} ({} ULP)",
            self.mismatch.engine,
            self.mismatch.row,
            self.mismatch.col,
            self.mismatch.got,
            self.mismatch.want,
            self.mismatch.ulps
        )?;
        writeln!(f, "minimal reproducer: {:?}", self.minimal)?;
        writeln!(f, "original case     : {:?}", self.original)?;
        write!(
            f,
            "reproduce with CAKE_TEST_SEED={} (case {} of the stream)",
            self.seed, self.case_index
        )
    }
}

fn gen_dim(rng: &mut TestRng) -> usize {
    // Degenerate extents are the historical bug nests; over-represent them.
    match rng.next_u64() % 16 {
        0 | 1 => 0,
        2 | 3 => 1,
        4 => 2,
        _ => 2 + (rng.next_u64() % 32) as usize,
    }
}

fn gen_case(rng: &mut TestRng) -> GemmCase {
    let mut case = GemmCase {
        m: gen_dim(rng),
        k: gen_dim(rng),
        n: gen_dim(rng),
        p: 1 + (rng.next_u64() % 3) as usize,
        mc: 2 + (rng.next_u64() % 11) as usize,
        kc: 2 + (rng.next_u64() % 11) as usize,
        nc: 4 + (rng.next_u64() % 17) as usize,
        a_transposed: rng.next_u64() & 1 == 1,
        b_strided: rng.next_u64() & 1 == 1,
        c_colmajor: rng.next_u64() & 1 == 1,
        portable: rng.next_u64() & 1 == 1,
        int_data: rng.next_u64().is_multiple_of(4),
        scalar: match rng.next_u64() % 4 {
            0 => Scalar::F32,
            1 => Scalar::F64,
            2 => Scalar::Int8,
            _ => Scalar::Bf16,
        },
        data_seed: rng.next_u64() | 1,
    };
    if rng.next_u64().is_multiple_of(4) {
        full_tile_geometry(rng, &mut case);
    }
    case
}

/// The register-tile rows of every registered kernel of `scalar`'s dtype,
/// on any host.
fn registered_mrs(scalar: Scalar) -> Vec<usize> {
    let token = match scalar {
        Scalar::F32 => "_f32_",
        Scalar::F64 => "_f64_",
        Scalar::Int8 => "_i8_",
        Scalar::Bf16 => "_bf16_",
    };
    REGISTERED_SHAPES
        .iter()
        .filter(|(name, _, _)| name.contains(token))
        .map(|&(_, mr, _)| mr)
        .collect()
}

/// Redraw `case`'s extents and block so every registered kernel of its
/// dtype runs whole register tiles: `mc` a multiple of one registered
/// kernel's `mr` and at least 32 rows, `nc` a multiple of 32, `M` and `N`
/// at least 32 (the largest registered tile is 32x32), and K beyond one
/// block. int8 blocks run deeper than the AMX layout's 64-deep k-step.
/// The kernel is drawn from the registry, not the host, so a seed draws
/// the same cases on every host.
fn full_tile_geometry(rng: &mut TestRng, case: &mut GemmCase) {
    let mrs = registered_mrs(case.scalar);
    let mr = mrs[(rng.next_u64() % mrs.len() as u64) as usize];
    case.mc = mr * (32usize.div_ceil(mr) + (rng.next_u64() % 2) as usize);
    case.nc = 32 * (1 + (rng.next_u64() % 3) as usize);
    case.m = 32 + (rng.next_u64() % 64) as usize;
    case.n = 32 + (rng.next_u64() % 96) as usize;
    case.kc = if case.scalar == Scalar::Int8 {
        65 + (rng.next_u64() % 64) as usize
    } else {
        2 + (rng.next_u64() % 11) as usize
    };
    case.k = case.kc + 1 + (rng.next_u64() % case.kc as u64) as usize;
}

/// Whether `case`'s block runs at least one whole `mr x nr` register tile:
/// a block's rows split into `mr`-row tiles with only the last partial,
/// and its columns into `nr`-column slivers the same way.
fn runs_full_tile(case: &GemmCase, mr: usize, nr: usize) -> bool {
    case.k > 0 && (case.p * case.mc).min(case.m) >= mr && case.nc.min(case.n) >= nr
}

/// The kernels of the host's tier sweep whose full tile `case` runs.
fn full_tile_kernels(case: &GemmCase) -> Vec<&'static str> {
    fn of<T: KernelSelect>(case: &GemmCase) -> Vec<&'static str> {
        available_tiers()
            .into_iter()
            .filter_map(tier_kernel::<T>)
            .filter(|ukr| runs_full_tile(case, ukr.mr(), ukr.nr()))
            .map(|ukr| ukr.name())
            .collect()
    }
    match case.scalar {
        Scalar::F32 => of::<f32>(case),
        Scalar::F64 => of::<f64>(case),
        Scalar::Int8 => of::<i8>(case),
        Scalar::Bf16 => of::<Bf16>(case),
    }
}


/// Per-element acceptance: exact for integer data; otherwise a ULP bound
/// scaled by the reduction depth, with a relative-error fallback (the
/// workspace-wide `gemm_tolerance`) for catastrophic cancellation, where
/// a tiny absolute error spans astronomically many ULPs.
pub(crate) fn acceptable<T: UlpElement>(got: T, want: T, k: usize, int_data: bool) -> (bool, u64) {
    let ulps = T::ulp_distance(got, want);
    if int_data {
        return (ulps == 0, ulps);
    }
    if ulps <= 16 * (k as u64).max(1) {
        return (true, ulps);
    }
    let (x, y) = (got.to_f64(), want.to_f64());
    if !x.is_finite() || !y.is_finite() {
        return (false, ulps);
    }
    let tol = cake_matrix::compare::gemm_tolerance::<T>(k).to_f64();
    let denom = x.abs().max(y.abs()).max(1.0);
    ((x - y).abs() <= tol * denom, ulps)
}

pub(crate) fn compare<T: UlpElement>(
    engine: &'static str,
    got: &Matrix<T>,
    want: &Matrix<T>,
    k: usize,
    int_data: bool,
    max_ulps: &mut u64,
) -> Option<Mismatch> {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            let (ok, ulps) = acceptable(got.get(i, j), want.get(i, j), k, int_data);
            if !ok {
                return Some(Mismatch {
                    engine,
                    row: i,
                    col: j,
                    got: got.get(i, j).to_f64(),
                    want: want.get(i, j).to_f64(),
                    ulps,
                });
            }
            *max_ulps = (*max_ulps).max(ulps);
        }
    }
    None
}

fn check_typed<T>(case: &GemmCase, max_ulps: &mut u64) -> Option<Mismatch>
where
    T: FuzzOperand + KernelSelect,
    T::Acc: UlpElement,
{
    let (m, k, n) = (case.m, case.k, case.n);
    // Integer accumulation (int8 -> i32) is exact by construction, so those
    // dtypes are held to 0 ULP on every data class, not just `int_data`.
    let exact = case.int_data || T::EXACT;

    // A: either stored dense (m x k) or stored transposed and viewed.
    let a_store = if case.a_transposed {
        T::gen(k, m, case.data_seed, case.int_data)
    } else {
        T::gen(m, k, case.data_seed, case.int_data)
    };
    let av = if case.a_transposed {
        a_store.view().t()
    } else {
        a_store.view()
    };

    // B: dense, or a strided window of a larger parent.
    let b_store = if case.b_strided {
        T::gen(k + 3, n + 5, case.data_seed ^ 0xb, case.int_data)
    } else {
        T::gen(k, n, case.data_seed ^ 0xb, case.int_data)
    };
    let bv = if case.b_strided {
        b_store.view().sub(2, 4, k, n)
    } else {
        b_store.view()
    };

    // Ground truth from the same views, into the accumulator type.
    let mut c_ref = Matrix::<T::Acc>::zeros(m, n);
    naive_gemm_views_acc(&av, &bv, &mut c_ref.view_mut());

    let layout = if case.c_colmajor {
        Layout::ColMajor
    } else {
        Layout::RowMajor
    };
    let ukr = if case.portable {
        portable_kernel::<T>()
    } else {
        best_kernel::<T>()
    };

    // CAKE: the real pipelined executor with the case's explicit CB shape.
    let shape = CbBlockShape::fixed(case.p, case.mc, case.kc, case.nc);
    let pool = ThreadPool::new(case.p);
    let mut ws = GemmWorkspace::new();
    let mut c_cake = Matrix::<T::Acc>::zeros_with_layout(m, n, layout);
    execute_with_stats_in(&av, &bv, &mut c_cake.view_mut(), &shape, &ukr, &pool, &mut ws);
    let c_cake = c_cake.to_layout(Layout::RowMajor);
    if let Some(mm) = compare("CAKE", &c_cake, &c_ref, k, exact, max_ulps) {
        return Some(mm);
    }

    // GOTO (loops5): same views, its own blocking derivation.
    let mut goto_cfg = GotoConfig::with_threads(case.p);
    goto_cfg.force_portable_kernel = case.portable;
    let mut c_goto = Matrix::<T::Acc>::zeros_with_layout(m, n, layout);
    goto_gemm_views(&av, &bv, &mut c_goto.view_mut(), &goto_cfg);
    let c_goto = c_goto.to_layout(Layout::RowMajor);
    if let Some(mm) = compare("GOTO", &c_goto, &c_ref, k, exact, max_ulps) {
        return Some(mm);
    }

    // Kernel-tier sweep: the same case through the CAKE executor once per
    // tier the host supports, each held to the same bounds against the
    // reference. This bit-cross-checks AVX-512 vs AVX2 vs portable on
    // every generated geometry (the exact cases compare at 0 ULP, so any
    // tier whose edge handling drops or double-counts an element is
    // caught exactly). Single-threaded: the p-dimension is already
    // exercised by the main CAKE run above. A tier can be available for
    // the base ladder yet have no kernel for a narrow dtype (e.g. AVX-512
    // without VNNI): those tiers are skipped, not failed.
    for tier in available_tiers() {
        let Some(tukr) = tier_kernel::<T>(tier) else {
            continue;
        };
        let pool = ThreadPool::new(1);
        let mut c_tier = Matrix::<T::Acc>::zeros_with_layout(m, n, layout);
        execute_with_stats_in(&av, &bv, &mut c_tier.view_mut(), &shape, &tukr, &pool, &mut ws);
        let c_tier = c_tier.to_layout(Layout::RowMajor);
        if let Some(mm) = compare(tukr.name(), &c_tier, &c_ref, k, exact, max_ulps) {
            return Some(mm);
        }
    }
    None
}

/// Run one case through all three engines; `Some` on divergence.
pub fn check_case(case: &GemmCase) -> Option<Mismatch> {
    let mut max_ulps = 0u64;
    check_case_tracking(case, &mut max_ulps)
}

fn check_case_tracking(case: &GemmCase, max_ulps: &mut u64) -> Option<Mismatch> {
    match case.scalar {
        Scalar::F32 => check_typed::<f32>(case, max_ulps),
        Scalar::F64 => check_typed::<f64>(case, max_ulps),
        Scalar::Int8 => check_typed::<i8>(case, max_ulps),
        Scalar::Bf16 => check_typed::<Bf16>(case, max_ulps),
    }
}

type DimGet = fn(&GemmCase) -> usize;
type DimSet = fn(&mut GemmCase, usize);

fn shrink_candidates(c: &GemmCase) -> Vec<GemmCase> {
    let mut out = Vec::new();
    let dims: [(DimGet, DimSet); 6] = [
        (|c| c.m, |c, v| c.m = v),
        (|c| c.k, |c, v| c.k = v),
        (|c| c.n, |c, v| c.n = v),
        (|c| c.mc, |c, v| c.mc = v.max(1)),
        (|c| c.kc, |c, v| c.kc = v.max(1)),
        (|c| c.nc, |c, v| c.nc = v.max(1)),
    ];
    for (get, set) in dims {
        let v = get(c);
        if v > 0 {
            for smaller in [v / 2, v - 1] {
                if smaller < v {
                    let mut cand = c.clone();
                    set(&mut cand, smaller);
                    out.push(cand);
                }
            }
        }
    }
    if c.p > 1 {
        let mut cand = c.clone();
        cand.p = 1;
        out.push(cand);
    }
    for flag in 0..4 {
        let mut cand = c.clone();
        let on = match flag {
            0 => std::mem::replace(&mut cand.a_transposed, false),
            1 => std::mem::replace(&mut cand.b_strided, false),
            2 => std::mem::replace(&mut cand.c_colmajor, false),
            _ => std::mem::replace(&mut cand.portable, false),
        };
        if on {
            out.push(cand);
        }
    }
    out
}

/// Greedily shrink a failing case while it keeps failing (bounded re-runs).
pub fn shrink(case: &GemmCase) -> GemmCase {
    let mut cur = case.clone();
    let mut budget = 200usize;
    'outer: loop {
        for cand in shrink_candidates(&cur) {
            if budget == 0 {
                return cur;
            }
            budget -= 1;
            if check_case(&cand).is_some() {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
    }
}

/// Run the differential fuzzer: `cfg.cases` seeded cases across all three
/// engines. On divergence, returns the shrunk reproducer.
pub fn run(cfg: &FuzzConfig) -> Result<FuzzReport, Box<FuzzFailure>> {
    let mut rng = TestRng::for_test_with_seed("cake_verify::fuzz", cfg.seed);
    let mut report = FuzzReport {
        cases: cfg.cases,
        ..FuzzReport::default()
    };
    for idx in 0..cfg.cases {
        let case = gen_case(&mut rng);
        if case.m.min(case.k).min(case.n) <= 1 {
            report.degenerate += 1;
        }
        match case.scalar {
            Scalar::F64 => report.f64_cases += 1,
            Scalar::Int8 => report.int8_cases += 1,
            Scalar::Bf16 => report.bf16_cases += 1,
            Scalar::F32 => {}
        }
        if case.int_data || case.scalar == Scalar::Int8 {
            report.int_cases += 1;
        }
        for kernel in full_tile_kernels(&case) {
            report.count_full_tiles(kernel);
        }
        if check_case_tracking(&case, &mut report.max_ulps_seen).is_some() {
            let minimal = shrink(&case);
            let mismatch = check_case(&minimal)
                .expect("shrunk case must still fail (shrink re-checks every step)");
            return Err(Box::new(FuzzFailure {
                seed: cfg.seed,
                case_index: idx,
                original: case,
                minimal,
                mismatch,
            }));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(f32::ulp_distance(1.0, 1.0), 0);
        assert_eq!(f32::ulp_distance(0.0, -0.0), 0);
        assert_eq!(f32::ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        // Across zero: -min_denormal to +min_denormal is 2 ULP.
        assert_eq!(f32::ulp_distance(f32::from_bits(1), -f32::from_bits(1)), 2);
        assert_eq!(f32::ulp_distance(f32::NAN, 1.0), u64::MAX);
        assert_eq!(f64::ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
    }

    #[test]
    fn exact_integer_cases_require_zero_ulps() {
        let (ok, ulps) = acceptable(6.0f32, 6.0f32, 10, true);
        assert!(ok && ulps == 0);
        let one_off = f32::from_bits(6.0f32.to_bits() + 1);
        let (ok, _) = acceptable(one_off, 6.0f32, 10, true);
        assert!(!ok, "integer data admits no rounding at all");
    }

    #[test]
    fn real_cases_accept_k_scaled_ulps_but_not_gross_error() {
        let want = 1.0f32;
        let near = f32::from_bits(want.to_bits() + 8);
        assert!(acceptable(near, want, 4, false).0);
        assert!(!acceptable(1.5f32, want, 4, false).0);
    }

    #[test]
    fn generated_stream_is_deterministic_per_seed() {
        let mut r1 = TestRng::for_test_with_seed("cake_verify::fuzz", 5);
        let mut r2 = TestRng::for_test_with_seed("cake_verify::fuzz", 5);
        for _ in 0..10 {
            let (a, b) = (gen_case(&mut r1), gen_case(&mut r2));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn short_fuzz_run_is_clean() {
        let rep = run(&FuzzConfig { cases: 32, seed: 0 }).expect("no mismatches");
        assert_eq!(rep.cases, 32);
        assert!(
            !rep.full_tiles.is_empty(),
            "no case ran a full register tile"
        );
    }

    #[test]
    fn full_tile_draws_hold_whole_tiles_and_deep_int8_blocks() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::fuzz", 3);
        let mut full = 0;
        for _ in 0..512 {
            let c = gen_case(&mut rng);
            // The small-block draw never reaches nc = 32.
            if c.nc < 32 {
                continue;
            }
            full += 1;
            let whole = registered_mrs(c.scalar)
                .into_iter()
                .any(|mr| c.mc.is_multiple_of(mr));
            assert!(whole && c.mc >= 32 && c.nc.is_multiple_of(32), "{c:?}");
            assert!(c.m >= 32 && c.n >= 32 && c.k > c.kc, "{c:?}");
            assert!(c.scalar != Scalar::Int8 || c.kc > 64, "{c:?}");
        }
        assert!(
            (64..=192).contains(&full),
            "{full} of 512 cases drew full tiles"
        );
    }

    #[test]
    fn every_host_kernel_runs_full_tiles_within_256_cases() {
        // `cakectl verify` runs 256 cases: whatever the seed, each kernel
        // of the host's tier sweep must run a whole register tile against
        // the naive reference.
        let mut kernels: Vec<&'static str> = Vec::new();
        for tier in available_tiers() {
            kernels.extend(tier_kernel::<f32>(tier).map(|u| u.name()));
            kernels.extend(tier_kernel::<f64>(tier).map(|u| u.name()));
            kernels.extend(tier_kernel::<i8>(tier).map(|u| u.name()));
            kernels.extend(tier_kernel::<Bf16>(tier).map(|u| u.name()));
        }
        for seed in [0, 7, proptest::test_runner::env_seed()] {
            let mut rng = TestRng::for_test_with_seed("cake_verify::fuzz", seed);
            let ran: Vec<&'static str> = (0..256)
                .flat_map(|_| full_tile_kernels(&gen_case(&mut rng)))
                .collect();
            for kernel in &kernels {
                assert!(
                    ran.contains(kernel),
                    "seed {seed}: no full {kernel} tile in 256 cases"
                );
            }
        }
    }

    #[test]
    fn int8_cases_are_exact_across_all_tiers() {
        // Full-range int8 data, every available tier, awkward geometries:
        // the i32 accumulate admits no rounding, so any divergence is a
        // real kernel bug (saturation, bias slip, edge off-by-one).
        for (i, (m, k, n)) in [(17, 23, 19), (1, 64, 1), (33, 4, 48), (16, 16, 16)]
            .into_iter()
            .enumerate()
        {
            let case = GemmCase {
                m,
                k,
                n,
                p: 1 + i % 2,
                mc: 8,
                kc: 8,
                nc: 16,
                a_transposed: i % 2 == 1,
                b_strided: i % 3 == 1,
                c_colmajor: i % 4 == 1,
                portable: false,
                int_data: false,
                scalar: Scalar::Int8,
                data_seed: 0x51 + i as u64,
            };
            assert!(check_case(&case).is_none(), "int8 case {case:?} diverged");
        }
    }

    #[test]
    fn bf16_cases_hold_k_scaled_bounds_across_all_tiers() {
        for (i, (m, k, n)) in [(17, 23, 19), (1, 128, 1), (30, 9, 40)].into_iter().enumerate() {
            let case = GemmCase {
                m,
                k,
                n,
                p: 1 + i % 2,
                mc: 8,
                kc: 8,
                nc: 16,
                a_transposed: i % 2 == 0,
                b_strided: i % 2 == 1,
                c_colmajor: false,
                portable: false,
                int_data: false,
                scalar: Scalar::Bf16,
                data_seed: 0x61 + i as u64,
            };
            assert!(check_case(&case).is_none(), "bf16 case {case:?} diverged");
        }
    }

    #[test]
    fn stream_covers_all_four_scalars() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::fuzz", 0);
        let (mut f32s, mut f64s, mut i8s, mut bf16s) = (0, 0, 0, 0);
        for _ in 0..256 {
            match gen_case(&mut rng).scalar {
                Scalar::F32 => f32s += 1,
                Scalar::F64 => f64s += 1,
                Scalar::Int8 => i8s += 1,
                Scalar::Bf16 => bf16s += 1,
            }
        }
        assert!(
            f32s > 0 && f64s > 0 && i8s > 0 && bf16s > 0,
            "stream must cover every dtype: {f32s}/{f64s}/{i8s}/{bf16s}"
        );
    }

    #[test]
    fn i32_ulp_distance_is_absolute_difference() {
        assert_eq!(i32::ulp_distance(5, 5), 0);
        assert_eq!(i32::ulp_distance(5, 6), 1);
        assert_eq!(i32::ulp_distance(i32::MIN, i32::MAX), u32::MAX as u64);
    }

    #[test]
    fn degenerate_extents_are_covered() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::fuzz", 0);
        let mut any_zero = false;
        let mut any_one = false;
        for _ in 0..256 {
            let c = gen_case(&mut rng);
            any_zero |= c.m == 0 || c.k == 0 || c.n == 0;
            any_one |= c.m == 1 || c.k == 1 || c.n == 1;
        }
        assert!(any_zero && any_one, "stream must include 0 and 1 extents");
    }

    #[test]
    fn shrinker_minimizes_a_synthetic_failure() {
        // Failure predicate stand-in: `check_case` is only consulted via
        // the real engines, so instead shrink a case that "fails" because
        // of a property the candidates preserve — here we just verify the
        // candidate generator proposes strictly simpler cases.
        let case = GemmCase {
            m: 8,
            k: 8,
            n: 8,
            p: 2,
            mc: 4,
            kc: 4,
            nc: 8,
            a_transposed: true,
            b_strided: true,
            c_colmajor: true,
            portable: true,
            int_data: false,
            scalar: Scalar::F32,
            data_seed: 1,
        };
        for cand in shrink_candidates(&case) {
            let simpler = cand.m < case.m
                || cand.k < case.k
                || cand.n < case.n
                || cand.mc < case.mc
                || cand.kc < case.kc
                || cand.nc < case.nc
                || cand.p < case.p
                || (!cand.a_transposed && case.a_transposed)
                || (!cand.b_strided && case.b_strided)
                || (!cand.c_colmajor && case.c_colmajor)
                || (!cand.portable && case.portable);
            assert!(simpler, "candidate {cand:?} is not simpler than {case:?}");
        }
    }
}
