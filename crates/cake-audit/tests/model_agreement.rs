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

    /// `LaneRows::in_bounds`, which admits a block to the masked loads,
    /// holds exactly when the `lane_copy_load` site's `need` (one past the
    /// last element a row's set lanes read) is within the source, and the
    /// lanes the copies load are the model's `src[lo + (l - first)]`.
    #[test]
    fn lane_copy_load_matches_interval_model(
        lo in 0usize..140,
        d in 0usize..LANES,
        first in 0usize..LANES,
        len in 1usize..140,
        live in 0usize..=LANES,
    ) {
        let first = first.min(LANES - 1 - d);
        let (need_e, cap_e) = site_exprs("lane_copy_load");
        let env = [("lo", lo as i128), ("d", d as i128), ("len", len as i128)];
        let (need, cap) = (eval(&need_e, &env), eval(&cap_e, &env));
        let src: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let mut rows = LaneRows::dense(&src, LANES, 1);
        rows.at[0] = lo.wrapping_sub(first);
        rows.mask[0] = low_lanes(first + d + 1) & !low_lanes(first);
        (rows.live, rows.pad) = (live, -1.0);
        prop_assert_eq!(rows.in_bounds(LANES), need <= cap, "lo {} d {} len {}", lo, d, len);
        if need <= cap {
            let place = RowPlace { width: LANES, stride: LANES, piece: LANES, piece_stride: 0 };
            for copy in lane_copies() {
                let mut out = vec![f32::NAN; LANES];
                copy.write_k_major(&rows, &mut out, place);
                for (l, &x) in out.iter().enumerate() {
                    let want = if (first..=first + d).contains(&l) {
                        (lo + l - first) as f32
                    } else if l < live {
                        -1.0
                    } else {
                        0.0
                    };
                    prop_assert_eq!(x.to_bits(), want.to_bits(), "{:?} lane {}", copy, l);
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
        n in 1usize..=B_KROWS,
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
        let src = init::random::<f32>(1, B_KROWS * LANES, seed);
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
            copy.write_k_major(&rows, &mut dst[..cap], place);
            for (idx, x) in dst.iter().enumerate() {
                let written = !x.is_nan();
                prop_assert_eq!(written, idx < cap && touched[idx], "{:?} index {} of cap {}", copy, idx, cap);
            }
        }
    }

    /// `LaneCopy::write_tiles` writes, in each 16-column tile of a sliver,
    /// exactly the 256 elements from the block's first tile row that the
    /// `lane_tile_store` and `pack_b_tile_rows` sites model, zeros in the
    /// rows past the block's, and nothing else.
    #[test]
    fn lane_tile_store_matches_interval_model(
        nr in prop::sample::select(vec![16usize, 32]),
        q in 1usize..4,
        kb in 0usize..12,
        rows in 0usize..=B_KROWS,
        seed in 0u64..1024,
    ) {
        let (kp, kb) = (q * TILE_K, kb % (q * TILE_K / B_KROWS) * B_KROWS);
        let (need_e, _) = site_exprs("lane_tile_store");
        let span = eval(&need_e, &[("g", 3)]);
        let src = init::random_i8(1, B_KROWS * LANES, seed);
        let block = LaneRows::dense(src.as_slice(), nr, rows);
        let rows_at = kb / TILE_K * nr * TILE_K + kb % TILE_K / 4 * TILE_K;
        for copy in lane_copies() {
            let mut sliv = vec![i8::MIN; nr * kp + 64];
            copy.write_tiles(&block, nr, &mut sliv[..nr * kp], nr * kp, kb);
            for (idx, &x) in sliv.iter().enumerate() {
                let tile = (0..nr / 16).find(|ct| (rows_at + ct * 1024..rows_at + ct * 1024 + span).contains(&idx));
                match tile {
                    None => prop_assert_eq!(x, i8::MIN, "{:?} index {} written", copy, idx),
                    Some(ct) => {
                        let o = idx - rows_at - ct * 1024;
                        let (r, c) = (o / 64 * 4 + o % 4, ct * 16 + o % 64 / 4);
                        let want = if r < rows { src.as_slice()[r * nr + c] } else { 0 };
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
