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
use cake_kernels::pack::{pack_a, pack_b, packed_a_size, packed_b_size, PackLayout};
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
