//! Pre-packed A against row-major A: packing the weights once must not
//! change a single bit.
//!
//! A [`PackedA`] holds A packed one `kc`-deep k-block at a time, and the
//! executor reads each worker's strip of each block in place instead of
//! packing it. This pillar fuzzes that claim: seeded random problems —
//! `M` not a multiple of the kernel's `mr`, `K` over one to four k-blocks
//! with a partial last block, random `N`, `p` = 1, 2 and 3 — run at every
//! dtype on every kernel tier the host has (AMX tiles included), once
//! from the row-major A and once from the same A pre-packed, on the same
//! block shape. C must agree bit for bit, and so must every non-timing
//! [`ExecStats`] field but `workspace_bytes` (a pre-packed A needs no
//! workspace strips): the block, skip and barrier counts and the
//! element-traffic counters. A pre-packed call must record no pack-A
//! time, and its workspace holds no A strips.
//!
//! The same claim for B: an int8 convolution whose input is stored as
//! 4-channel groups reads its B in place ([`GroupedInput`]). Seeded conv
//! cases — `C_out` mostly off the AMX kernel's 32 rows, output widths
//! that do and do not tile into whole slivers, `p` = 1, 2 and 3 — run the
//! weights in [`KOrder::Groups`] order once against the input lowered in
//! that order ([`LoweredConv`]) and, where the layout exists, once read
//! in place. C must agree bit for bit with each other and with the naive
//! product, the counters must agree, and the in-place call must record no
//! pack-B time when its kernel reads B tiles.

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::{execute_with_stats_in, ExecStats};
use cake_dnn::im2col::{ConvGeom, GroupedInput, KOrder, LoweredConv};
use cake_dnn::quant::{quantize_activation_groups, quantize_activations};
use cake_dnn::Tensor;
use cake_core::operand::PackedA;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::workspace::GemmWorkspace;
use cake_kernels::select::KernelSelect;
use cake_kernels::{available_tiers, tier_kernel, Ukr};
use cake_matrix::{Bf16, Element, Matrix};
use proptest::test_runner::TestRng;

use crate::RandomOperand;

/// Statistics from a clean run.
#[derive(Debug, Default)]
pub struct PrepackedReport {
    /// Seeded problem cases checked (each at all four dtypes).
    pub cases: u32,
    /// Row-major / pre-packed pairs compared.
    pub pairs: u32,
    /// Distinct kernels the pairs ran on.
    pub kernels: Vec<&'static str>,
    /// Convolution cases checked, and how many of them read B in place.
    pub convs: (u32, u32),
}

impl PrepackedReport {
    /// Human-readable summary for the CLI.
    pub fn summary_lines(&self) -> Vec<String> {
        vec![
            format!(
                "{} cases x 4 dtypes, {} row-major / pre-packed pairs on {} kernels ({})",
                self.cases,
                self.pairs,
                self.kernels.len(),
                self.kernels.join(", ")
            ),
            "C bit-identical and every non-timing counter equal; the pre-packed side \
             recorded no pack-A time and reserved no A strips"
                .to_string(),
            format!(
                "{} int8 conv cases, {} with B read in place: C bit-identical to the group-order \
                 lowering and to the naive product, counters equal, no pack-B time in place",
                self.convs.0, self.convs.1
            ),
        ]
    }
}

/// `s` with every timing field and `workspace_bytes` zeroed: what a
/// pre-packed A must reproduce exactly.
fn counters(s: &ExecStats) -> ExecStats {
    ExecStats {
        pack_ns: 0,
        pack_a_ns: 0,
        pack_b_ns: 0,
        pack_ns_max: 0,
        compute_ns: 0,
        compute_ns_max: 0,
        compute_ns_min: 0,
        barrier_wait_ns: 0,
        barrier_wait_ns_max: 0,
        workspace_bytes: 0,
        ..*s
    }
}

/// One problem of the stream.
#[derive(Debug, Clone, Copy)]
struct Case {
    m: usize,
    k: usize,
    n: usize,
    kc: usize,
    /// `mc` in units of the kernel's `mr` (1..=3).
    mc_tiles: usize,
    nc: usize,
    p: usize,
    seed: u64,
}

fn gen_case(rng: &mut TestRng) -> Case {
    let below = |rng: &mut TestRng, n: u64| (rng.next_u64() % n) as usize;
    let kc = 4 + below(rng, 77);
    let kblocks = 1 + below(rng, 4);
    Case {
        m: 1 + below(rng, 90),
        // One to four k-blocks, the last one partial unless the draw
        // lands on kc itself.
        k: (kblocks - 1) * kc + 1 + below(rng, kc as u64),
        n: 1 + below(rng, 70),
        kc,
        mc_tiles: 1 + below(rng, 3),
        nc: 1 + below(rng, 64),
        p: 1 + below(rng, 3),
        seed: rng.next_u64() | 1,
    }
}

/// The bits of every element of C, in order.
fn bits<A: Element>(c: &Matrix<A>) -> Vec<u64> {
    c.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Run one GEMM twice on a fresh workspace (the second call warm) and
/// return C and the warm call's stats.
fn run_twice<T: KernelSelect>(
    a: &impl cake_core::operand::AsOperandA<T>,
    b: &Matrix<T>,
    shape: &CbBlockShape,
    ukr: &Ukr<T>,
    pool: &ThreadPool,
) -> (Matrix<T::Acc>, ExecStats) {
    let mut ws = GemmWorkspace::new();
    let (m, n) = (a.as_operand_a().dims().0, b.cols());
    let mut c = Matrix::<T::Acc>::zeros(m, n);
    execute_with_stats_in(a, b, &mut c.view_mut(), shape, ukr, pool, &mut ws);
    let mut c = Matrix::<T::Acc>::zeros(m, n);
    let stats = execute_with_stats_in(a, b, &mut c.view_mut(), shape, ukr, pool, &mut ws);
    (c, stats)
}

fn check_dtype<T: RandomOperand>(
    case: &Case,
    pools: &[ThreadPool],
    report: &mut PrepackedReport,
) -> Result<(), String> {
    let a = T::gen(case.m, case.k, case.seed);
    let b = T::gen(case.k, case.n, case.seed ^ 0xb);
    let pool = &pools[case.p - 1];
    for ukr in available_tiers().into_iter().filter_map(tier_kernel::<T>) {
        let shape = CbBlockShape::fixed(case.p, case.mc_tiles * ukr.mr(), case.kc, case.nc);
        let packed = PackedA::new(&a.view(), ukr, case.kc);
        let (c_rows, s_rows) = run_twice(&a, &b, &shape, &ukr, pool);
        let (c_packed, s_packed) = run_twice(&packed, &b, &shape, &ukr, pool);
        let at = || format!("{} {case:?} under {shape} on {}", T::NAME, ukr.name());
        if bits(&c_rows) != bits(&c_packed) {
            return Err(format!("pre-packed A: C differs from the row-major run: {}", at()));
        }
        if counters(&s_rows) != counters(&s_packed) {
            return Err(format!(
                "pre-packed A: counters differ from the row-major run: {}\n  row-major {:?}\n  pre-packed {:?}",
                at(),
                counters(&s_rows),
                counters(&s_packed)
            ));
        }
        if s_packed.pack_a_ns != 0 {
            return Err(format!("pre-packed A recorded {} ns of pack-A time: {}", s_packed.pack_a_ns, at()));
        }
        if s_packed.workspace_bytes >= s_rows.workspace_bytes {
            return Err(format!("pre-packed A: the workspace reserved A strips: {}", at()));
        }
        report.pairs += 1;
        if !report.kernels.contains(&ukr.name()) {
            report.kernels.push(ukr.name());
        }
    }
    Ok(())
}

/// One convolution of the stream: a `cin x h x w` input, `cout` kernels
/// of `k x k` at "same" padding, `p` workers.
#[derive(Debug, Clone, Copy)]
struct ConvCase {
    cin: usize,
    cout: usize,
    h: usize,
    w: usize,
    k: usize,
    p: usize,
    seed: u64,
}

fn gen_conv(rng: &mut TestRng) -> ConvCase {
    let pick = |rng: &mut TestRng, from: &[usize]| from[(rng.next_u64() % from.len() as u64) as usize];
    ConvCase {
        cin: pick(rng, &[4, 8, 16, 32, 64]),
        cout: 1 + (rng.next_u64() % 70) as usize,
        h: 1 + (rng.next_u64() % 12) as usize,
        w: pick(rng, &[8, 12, 16, 20, 32, 48]),
        k: pick(rng, &[1, 3, 3, 5]),
        p: 1 + (rng.next_u64() % 3) as usize,
        seed: rng.next_u64() | 1,
    }
}

/// One convolution case: the group-order weights against the input
/// lowered in that order, against the naive product, and, where the
/// output tiles into whole slivers, against the input read in place.
/// Returns whether B was read in place.
fn check_conv(case: &ConvCase) -> Result<bool, String> {
    let ConvCase { cin, cout, h, w, k, p, seed } = *case;
    let geom = ConvGeom::same(k);
    let (oh, ow) = geom.out_dims(h, w);
    let x = Tensor::from_matrix(cake_matrix::init::random::<f32>(cin, h * w, seed), h, w);
    let weights = cake_matrix::init::random_i8(cout, cin * k * k, seed ^ 0x77);
    let grouped = KOrder::Groups.reorder(&weights, cin, &geom);
    let ctx = CakeGemm::new(CakeConfig::with_threads(p));
    let packed = ctx.prepack(&grouped);
    let at = || format!("{case:?} on {}", packed.kernel().name());

    let (xq, aq) = quantize_activations(x.as_matrix());
    let zp = aq.zero_point as i8;
    let xq = Tensor::from_matrix(xq, h, w);
    let lowered = LoweredConv::new(&xq, &geom, zp).with_order(KOrder::Groups);
    let mut c_lowered = Matrix::<i32>::zeros(cout, oh * ow);
    let s_lowered = ctx.gemm_with_stats(&packed, &lowered, &mut c_lowered);

    let want = Matrix::from_fn(cout, oh * ow, |o, j| {
        let (oy, ox) = (j / ow, j % ow);
        let mut acc = 0i32;
        for c in 0..cin {
            for dy in 0..k {
                for dx in 0..k {
                    let (iy, ix) = ((oy + dy).wrapping_sub(geom.pad), (ox + dx).wrapping_sub(geom.pad));
                    let v = if iy < h && ix < w { xq.get(c, iy, ix) } else { zp };
                    acc += i32::from(weights.get(o, (c * k + dy) * k + dx)) * i32::from(v);
                }
            }
        }
        acc
    });
    if c_lowered.as_slice() != want.as_slice() {
        return Err(format!("group-order lowering differs from the naive product: {}", at()));
    }

    let tiles = ow % 16 == 0 && (oh * ow) % 32 == 0;
    let Some(layout) = GroupedInput::new(cin, (h, w), &geom) else {
        return if tiles { Err(format!("an output that tiles has no in-place layout: {}", at())) } else { Ok(false) };
    };
    if !tiles {
        return Err(format!("an output that does not tile has an in-place layout: {}", at()));
    }
    let (xg, aq_g) = quantize_activation_groups(&x, geom.pad, layout.rows());
    if (aq_g.scale.to_bits(), aq_g.zero_point) != (aq.scale.to_bits(), aq.zero_point) {
        return Err(format!("the group quantizer maps the input differently: {}", at()));
    }
    let b = layout.patches(&xg).ok_or_else(|| format!("the quantized input does not fill its layout: {}", at()))?;
    let mut c_tiled = Matrix::<i32>::zeros(cout, oh * ow);
    let s_tiled = ctx.gemm_with_stats(&packed, &b, &mut c_tiled);
    if c_tiled.as_slice() != c_lowered.as_slice() {
        return Err(format!("B read in place: C differs from the lowered run: {}", at()));
    }
    // The lowered call ran first, on a fresh workspace.
    let counters = |s: &ExecStats| ExecStats { allocations: 0, ..counters(s) };
    if counters(&s_tiled) != counters(&s_lowered) {
        return Err(format!(
            "B read in place: counters differ from the lowered run: {}\n  lowered {:?}\n  in place {:?}",
            at(),
            counters(&s_lowered),
            counters(&s_tiled)
        ));
    }
    if packed.kernel().reads_b_tiles() && s_tiled.pack_b_ns != 0 {
        return Err(format!("B read in place recorded {} ns of pack-B time: {}", s_tiled.pack_b_ns, at()));
    }
    Ok(true)
}

/// Run the pillar: `cases` seeded problems, each at all four dtypes on
/// every kernel tier the host has, then `cases` convolutions with B
/// lowered and read in place.
pub fn run(cases: u32, seed: u64) -> Result<PrepackedReport, String> {
    let mut rng = TestRng::for_test_with_seed("cake_verify::prepacked", seed);
    let pools: Vec<ThreadPool> = (1..=3).map(ThreadPool::new).collect();
    let mut report = PrepackedReport { cases, ..PrepackedReport::default() };
    for _ in 0..cases {
        let case = gen_case(&mut rng);
        check_dtype::<f32>(&case, &pools, &mut report)?;
        check_dtype::<f64>(&case, &pools, &mut report)?;
        check_dtype::<i8>(&case, &pools, &mut report)?;
        check_dtype::<Bf16>(&case, &pools, &mut report)?;
    }
    for _ in 0..cases {
        let in_place = check_conv(&gen_conv(&mut rng))?;
        report.convs.0 += 1;
        report.convs.1 += u32::from(in_place);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_prepacked_run_is_clean() {
        let rep = run(12, 5).expect("a pre-packed A must match the row-major run");
        assert_eq!(rep.cases, 12);
        assert!(rep.pairs >= 12 * 4, "every dtype runs on at least one tier");
        assert!(!rep.summary_lines().is_empty());
    }

    #[test]
    fn cases_span_one_to_four_k_blocks_with_partial_tails() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::prepacked", 0);
        let cases: Vec<Case> = (0..200).map(|_| gen_case(&mut rng)).collect();
        for blocks in 1..=4 {
            assert!(cases.iter().any(|c| c.k.div_ceil(c.kc) == blocks), "{blocks} k-blocks");
        }
        assert!(cases.iter().all(|c| c.k.div_ceil(c.kc) <= 4));
        assert!(cases.iter().any(|c| c.k.div_ceil(c.kc) > 1 && c.k % c.kc != 0), "a partial last block");
        assert!(cases.iter().any(|c| c.m % 14 != 0 && c.m % 16 != 0), "M off the sliver height");
        for p in 1..=3 {
            assert!(cases.iter().any(|c| c.p == p), "p = {p}");
        }
    }

    #[test]
    fn conv_cases_tile_and_do_not_at_every_p_with_c_out_off_32() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::prepacked", 1);
        let cases: Vec<ConvCase> = (0..200).map(|_| gen_conv(&mut rng)).collect();
        let tiles = |c: &ConvCase| c.w.is_multiple_of(16) && (c.h * c.w).is_multiple_of(32);
        assert!(cases.iter().any(tiles) && !cases.iter().all(tiles));
        assert!(cases.iter().any(|c| tiles(c) && c.cout % 32 != 0), "C_out off 32 in place");
        for p in 1..=3 {
            assert!(cases.iter().any(|c| c.p == p && tiles(c)), "p = {p}");
        }
    }

    #[test]
    fn conv_cases_read_in_place_where_they_tile() {
        let mut rng = TestRng::for_test_with_seed("cake_verify::prepacked", 2);
        let mut in_place = 0;
        for _ in 0..24 {
            in_place += u32::from(check_conv(&gen_conv(&mut rng)).expect("in place equals lowered"));
        }
        assert!(in_place > 0, "some case reads B in place");
    }
}
