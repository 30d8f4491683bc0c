//! The bounds checker's interval model vs the real packing routines.
//!
//! The symbolic sites in `cake_audit::bounds` claim that the packing loops
//! touch exactly the element range `[0, need)` of their destination. This
//! test pins that claim to the actual code with a sentinel-fill instrument:
//! fill an oversized destination with NaN, run the real `pack_a`/`pack_b`,
//! and require that *every* index below the model's `need` was written
//! (zero padding included) and *no* index at or above it was — on random
//! draws of the extents up to the production tile widths (`mr <= 16`,
//! `nr <= 32`, several 16-row k-blocks; the AMX tile layout's 16-row
//! multiples and 64-deep padded steps) and of the source layout, via the
//! in-tree proptest shim. If a pack loop ever drifts from the model (an
//! off-by-one tail, a sliver stride change, a store past the last packed
//! column), the agreement breaks here even though the symbolic proof still
//! "passes" on the stale model.

use std::collections::BTreeMap;

use cake_audit::bounds::sites;
use cake_audit::interval::Expr;
use cake_kernels::pack::{
    low_lanes, pack_a, pack_b, packed_a_size, packed_b_size, LaneCopy, LaneRows, PackLayout, RowPlace, B_KROWS,
    LANES, TILE_K,
};
use cake_matrix::{init, Layout, Matrix, MatrixView};
use proptest::prelude::*;

/// Slack elements appended past the model's `cap` so an overrun lands on a
/// still-sentinel index instead of out-of-bounds UB.
const PAD: usize = 64;

fn site_exprs(name: &str) -> (Expr, Expr) {
    let site = sites()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("site {name} missing"));
    (site.need, site.cap)
}

fn eval(e: &Expr, env: &[(&'static str, i128)]) -> usize {
    let env: BTreeMap<&'static str, i128> = env.iter().copied().collect();
    usize::try_from(e.eval(&env)).expect("model offsets are non-negative")
}

/// Fill `len + PAD` with NaN, run `fill`, and check the touched prefix is
/// exactly `[0, need)`.
fn check_touched(need: usize, len: usize, fill: impl FnOnce(&mut [f32])) {
    assert!(need <= len, "model must bound its own capacity");
    let mut dst = vec![f32::NAN; len + PAD];
    fill(&mut dst[..len]);
    for (i, x) in dst.iter().enumerate() {
        if i < need {
            assert!(!x.is_nan(), "index {i} < need {need} left unwritten");
        } else {
            assert!(x.is_nan(), "index {i} >= need {need} was written");
        }
    }
}

/// Run `f` on `m` seen through source layout `layout`: 0 row-major, 1
/// column-major, 2 a sub-view of a wider row-major matrix (row stride past
/// the width, as the executor hands over blocks).
fn with_layout(m: &Matrix<f32>, layout: usize, f: impl FnOnce(&MatrixView<'_, f32>)) {
    let (rows, cols) = (m.rows(), m.cols());
    match layout {
        0 => f(&m.view()),
        1 => f(&m.to_layout(Layout::ColMajor).view()),
        _ => {
            let wide = Matrix::from_fn(rows + 2, cols + 5, |i, j| {
                if (1..=rows).contains(&i) && (3..cols + 3).contains(&j) {
                    m.get(i - 1, j - 3)
                } else {
                    1.0
                }
            });
            f(&wide.view().sub(1, 3, rows, cols));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `pack_a` touches exactly `[0, need)` of its destination, where
    /// `need` is the `pack_a_sliver_tail` site's model expression.
    #[test]
    fn pack_a_matches_interval_model(
        ml in 1usize..40,
        kl in 1usize..64,
        mr in 1usize..=16,
        layout in 0usize..3,
        seed in 0u64..1024,
    ) {
        let (need_e, cap_e) = site_exprs("pack_a_sliver_tail");
        let env = [("ml", ml as i128), ("mr", mr as i128), ("kl", kl as i128)];
        let need = eval(&need_e, &env);
        let cap = eval(&cap_e, &env);
        prop_assert_eq!(cap, packed_a_size(ml, kl, mr), "model cap vs real sizing");
        let a = init::random::<f32>(ml, kl, seed);
        check_touched(need, cap, |dst| with_layout(&a, layout, |v| pack_a(v, dst, mr)));
    }

    /// `pack_b` touches exactly `[0, need)` of its destination, where
    /// `need` is the `pack_b_sliver_tail` site's model expression.
    #[test]
    fn pack_b_matches_interval_model(
        nl in 1usize..80,
        kl in 1usize..64,
        nr in 1usize..=32,
        layout in 0usize..3,
        seed in 0u64..1024,
    ) {
        let (need_e, cap_e) = site_exprs("pack_b_sliver_tail");
        let env = [("nl", nl as i128), ("nr", nr as i128), ("kl", kl as i128)];
        let need = eval(&need_e, &env);
        let cap = eval(&cap_e, &env);
        prop_assert_eq!(cap, packed_b_size(kl, nl, nr), "model cap vs real sizing");
        let b = init::random::<f32>(kl, nl, seed);
        check_touched(need, cap, |dst| with_layout(&b, layout, |v| pack_b(v, dst, nr)));
    }

    /// The tile layout's A pack touches exactly `[0, need)`, where `need`
    /// is the `pack_a_tile_rows` site's model over `q` 64-deep k-steps —
    /// K padding and edge rows included.
    #[test]
    fn tile_pack_a_matches_interval_model(
        ml in 1usize..70,
        kl in 1usize..200,
        mr in prop::sample::select(vec![16usize, 32, 48]),
        layout in 0usize..3,
        seed in 0u64..1024,
    ) {
        let (need_e, cap_e) = site_exprs("pack_a_tile_rows");
        let tiles = PackLayout::tiles(mr, 32);
        let env = [("ml", ml as i128), ("mr", mr as i128), ("q", kl.div_ceil(64) as i128)];
        let need = eval(&need_e, &env);
        let cap = eval(&cap_e, &env);
        prop_assert_eq!(cap, tiles.a_size(ml, kl), "model cap vs real sizing");
        let a = init::random::<f32>(ml, kl, seed);
        check_touched(need, cap, |dst| with_layout(&a, layout, |v| tiles.pack_a(v, dst)));
    }

    /// The tile layout's B pack touches exactly `[0, need)`, where `need`
    /// is the `pack_b_tile_sliver` site's model.
    #[test]
    fn tile_pack_b_matches_interval_model(
        nl in 1usize..80,
        kl in 1usize..200,
        nr in prop::sample::select(vec![16usize, 32]),
        layout in 0usize..3,
        seed in 0u64..1024,
    ) {
        let (need_e, cap_e) = site_exprs("pack_b_tile_sliver");
        let tiles = PackLayout::tiles(32, nr);
        let env = [("nl", nl as i128), ("nr", nr as i128), ("q", kl.div_ceil(64) as i128)];
        let need = eval(&need_e, &env);
        let cap = eval(&cap_e, &env);
        prop_assert_eq!(cap, tiles.b_size(kl, nl), "model cap vs real sizing");
        let b = init::random::<f32>(kl, nl, seed);
        check_touched(need, cap, |dst| with_layout(&b, layout, |v| tiles.pack_b(v, dst)));
    }
}

/// The lane copies: the portable one, and the vector one where the host
/// has it.
fn lane_copies() -> Vec<LaneCopy> {
    let mut copies = vec![LaneCopy::PORTABLE];
    if LaneCopy::detect() != LaneCopy::PORTABLE {
        copies.push(LaneCopy::detect());
    }
    copies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `LaneRows::in_bounds(off)`, which admits a block to the masked
    /// loads, holds exactly when every set lane of every row lies inside
    /// the source: when the lowest element any lane reads, `lo`, is not
    /// negative and the `lane_copy_load` site's `need` (one past the
    /// highest, `lo + d + 1`) is within it. The rows' reach is worked out
    /// when they are set, so this pins the one comparison per write to
    /// every lane the writers load. The copies then load exactly the
    /// model's lanes.
    #[test]
    fn lane_copy_load_matches_interval_model(
        n in 1usize..=TILE_K,
        off in 0usize..160,
        len in 1usize..200,
        live in 0usize..=LANES,
        seed in 0u64..1 << 30,
    ) {
        let (need_e, cap_e) = site_exprs("lane_copy_load");
        let mut state = seed | 1;
        let mut draw = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        // Each row reads one run of lanes, from a lowest element anywhere
        // from 60 before the offset to past the source (a row's `at` may
        // point before the slice), or no lane at all.
        let rows: Vec<(usize, u64)> = (0..n)
            .map(|_| {
                let first = draw(LANES);
                let last = first + draw(LANES - first);
                let at = (draw(len + 80) as isize - 60 - first as isize) as usize;
                let mask = if draw(8) == 0 { 0 } else { low_lanes(last + 1) & !low_lanes(first) };
                (at, mask)
            })
            .collect();
        let lanes = |&(at, mask): &(usize, u64)| (0..LANES).filter(move |l| mask >> l & 1 == 1).map(move |l| off as i128 + at as isize as i128 + l as i128);
        let (lo, hi) = rows.iter().flat_map(lanes).fold((i128::MAX, i128::MIN), |(lo, hi), e| (lo.min(e), hi.max(e)));
        let admitted = lo > hi || (lo >= 0 && {
            let env = [("lo", lo), ("d", hi - lo), ("len", len as i128)];
            eval(&need_e, &env) <= eval(&cap_e, &env)
        });
        let src: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let mut block = LaneRows::new(&src, -1.0);
        block.set_rows(live, rows.iter().copied());
        prop_assert_eq!(block.in_bounds(off), admitted, "off {} len {} rows {:?}", off, len, rows);
        if admitted {
            let place = RowPlace { width: LANES, stride: LANES, piece: LANES, piece_stride: 0 };
            for copy in lane_copies() {
                let mut out = vec![f32::NAN; n * LANES];
                copy.write_k_major(&block, off, &mut out, place);
                for (i, &(at, mask)) in rows.iter().enumerate() {
                    for l in 0..LANES {
                        let want = if mask >> l & 1 == 1 {
                            (off as isize + at as isize + l as isize) as f32
                        } else if l < live {
                            -1.0
                        } else {
                            0.0
                        };
                        prop_assert_eq!(out[i * LANES + l].to_bits(), want.to_bits(), "{:?} row {} lane {}", copy, i, l);
                    }
                }
            }
        }
    }

    /// `LaneCopy::write_k_major` writes exactly the elements the
    /// `lane_copy_store` site models, `p*ps + i*st + o`, and none past its
    /// `cap` (`RowPlace::end`), whose value it must fit in.
    #[test]
    fn lane_copy_store_matches_interval_model(
        width in 1usize..=LANES,
        piece in 1usize..=LANES,
        n in 1usize..=TILE_K,
        gap in 0usize..3,
        pgap in 0usize..5,
        seed in 0u64..1024,
    ) {
        let (e, pp) = (piece.min(width), width.div_ceil(piece));
        // Rows and pieces apart by at least their extent, so no element is
        // written twice.
        let st = e + gap;
        let ps = (n - 1) * st + e + pgap;
        let (_, cap_e) = site_exprs("lane_copy_store");
        let env = [("pp", pp as i128), ("ps", ps as i128), ("n", n as i128), ("st", st as i128), ("e", e as i128)];
        let cap = eval(&cap_e, &env);
        let src = init::random::<f32>(1, TILE_K * LANES, seed);
        let rows = LaneRows::dense(src.as_slice(), LANES, n);
        let mut touched = vec![false; cap];
        for p in 0..pp {
            for i in 0..n {
                for o in 0..piece.min(width - p * piece) {
                    touched[p * ps + i * st + o] = true;
                }
            }
        }
        for copy in lane_copies() {
            let place = RowPlace { width, stride: st, piece, piece_stride: ps };
            let mut dst = vec![f32::NAN; cap + PAD];
            copy.write_k_major(&rows, 0, &mut dst[..cap], place);
            for (idx, x) in dst.iter().enumerate() {
                let written = !x.is_nan();
                prop_assert_eq!(written, idx < cap && touched[idx], "{:?} index {} of cap {}", copy, idx, cap);
            }
        }
    }

    /// `LaneCopy::write_tiles` writes, in each 16-column tile of each of a
    /// lane group's slivers, exactly the tile rows the `pack_b_tile_rows`
    /// site models from the block's first k-row on, `64 * groups` elements
    /// ending at its `need` (which `lane_tile_store`'s 64-element stores
    /// fill), with zeros in the rows past the block's, and nothing else,
    /// past the slivers included.
    #[test]
    fn lane_tile_store_matches_interval_model(
        nr in prop::sample::select(vec![16usize, 32]),
        count in 1usize..=4,
        q in 1usize..4,
        step in 0usize..12,
        whole in any::<bool>(),
        rows in 0usize..=TILE_K,
        seed in 0u64..1024,
    ) {
        let (w, count, kp) = (nr / 16, count.min(LANES / nr), q * TILE_K);
        // A whole k-step, or one 16-row block of one.
        let (kb, depth) = if whole { (step % q * TILE_K, TILE_K) } else { (step % (kp / B_KROWS) * B_KROWS, B_KROWS) };
        let rows = rows.min(depth);
        let (st, g0, groups) = (kb / TILE_K, kb % TILE_K / 4, depth / 4);
        let (need_e, _) = site_exprs("pack_b_tile_rows");
        let (store_e, store_cap_e) = site_exprs("lane_tile_store");
        let per_store = [("g", groups as i128 - 1), ("G", groups as i128)];
        prop_assert_eq!(eval(&store_e, &per_store), eval(&store_cap_e, &per_store), "the last store fills the tile rows");
        let src = init::random_i8(1, TILE_K * LANES, seed);
        let block = LaneRows::dense(src.as_slice(), count * nr, rows);
        let sliver_len = nr * kp;
        // Element `idx` of the slivers: the column tile and tile row whose
        // modelled range holds it.
        let mut model = vec![None; count * sliver_len];
        for p in 0..count {
            for j in 0..w {
                let env = [
                    ("p", p as i128), ("st", st as i128), ("j", j as i128), ("g0", g0 as i128),
                    ("G", groups as i128), ("w", w as i128), ("q", q as i128), ("c", count as i128),
                ];
                let end = eval(&need_e, &env);
                for (o, m) in model[end - groups * 64..end].iter_mut().enumerate() {
                    *m = Some((p * nr + j * 16 + o % 64 / 4, o / 64 * 4 + o % 4));
                }
            }
        }
        for copy in lane_copies() {
            let mut slivers = vec![i8::MIN; count * sliver_len + 64];
            copy.write_tiles(&block, 0, &mut slivers[..count * sliver_len], (nr, sliver_len), (kb, depth));
            for (idx, &x) in slivers.iter().enumerate() {
                match model.get(idx).copied().flatten() {
                    None => prop_assert_eq!(x, i8::MIN, "{:?} index {} written", copy, idx),
                    Some((lane, r)) => {
                        let want = if r < rows { src.as_slice()[r * count * nr + lane] } else { 0 };
                        prop_assert_eq!(x, want, "{:?} index {}", copy, idx);
                    }
                }
            }
        }
    }
}

/// The instrument itself has teeth: an off-by-one `need` in either
/// direction must fail the sentinel check.
#[test]
fn sentinel_instrument_detects_model_drift() {
    let (need_e, _) = site_exprs("pack_a_sliver_tail");
    let env = [("ml", 5i128), ("mr", 4i128), ("kl", 3i128)];
    let need = eval(&need_e, &env);
    let len = packed_a_size(5, 3, 4);
    let run = |claimed: usize| {
        std::panic::catch_unwind(|| {
            let a = init::random::<f32>(5, 3, 7);
            check_touched(claimed, len, |dst| pack_a(&a.view(), dst, 4));
        })
    };
    assert!(run(need).is_ok(), "true need must agree");
    assert!(run(need - 1).is_err(), "understated need must be caught");
    assert!(run(need + 1).is_err(), "overstated need must be caught");
}
