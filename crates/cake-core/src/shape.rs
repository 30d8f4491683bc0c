//! Constant-bandwidth block shaping and sizing (paper Section 3 and 4.2/4.3).
//!
//! On the CPU instantiation (Section 4.2, Figure 6) a CB block is
//!
//! ```text
//!   (p * mc)  x  kc  x  (alpha * p * mc)
//!      M-dim     K-dim        N-dim
//! ```
//!
//! with `mc = kc` (square per-core A sub-matrix in L2, exactly as GOTO) and
//! `alpha >= 1` chosen from available DRAM bandwidth. Each of the `p` cores
//! owns one `mc x kc` A sub-matrix; the `kc x alpha*p*mc` B panel is
//! broadcast from the LLC; the `p*mc x alpha*p*mc` partial-C panel is
//! accumulated in the LLC and only written to DRAM when its K-reduction
//! completes.
//!
//! Sizing follows the LRU rule of Section 4.3: the three surfaces must fit
//! the LLC with headroom for the *next* block's inputs,
//! `C + 2(A + B) <= S`.
//!
//! A shape may additionally carry an *outer* (LLC-level) tiling — the
//! MOMMS observation that constant-bandwidth blocking applies at every
//! cache level: the K/N block grid is cut into outer tiles of
//! `ko_blocks x no_blocks` L2-level blocks and the schedule finishes one
//! outer tile before moving to the next. `0` in either extent disables the
//! outer level, which degenerates to the one-level K-first snake exactly.

/// Shape of one constant-bandwidth block on a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbBlockShape {
    /// Cores cooperating on a block.
    pub p: usize,
    /// Per-core square A sub-matrix side (`mc == kc`), in elements.
    pub mc: usize,
    /// Reduction-dimension depth of the block (equals `mc` by construction).
    pub kc: usize,
    /// N-dimension width of the block, `alpha * p * mc` rounded to the
    /// kernel's `nr`.
    pub nc: usize,
    /// Numerator of the bandwidth factor: `nc ~= alpha * p * mc`.
    pub alpha_x1000: u32,
    /// Outer (LLC-level) tile depth along K, in L2-level blocks; 0
    /// disables the outer level (one-level schedule).
    pub ko_blocks: usize,
    /// Outer (LLC-level) tile width along N, in L2-level blocks; 0
    /// disables the outer level (one-level schedule).
    pub no_blocks: usize,
}

impl CbBlockShape {
    /// Derive a CB block shape analytically from machine resources.
    ///
    /// * `p` — number of cores to use.
    /// * `alpha` — aspect factor (>= 1); pick via [`crate::tune`] when DRAM
    ///   bandwidth is scarce, 1.0 otherwise.
    /// * `l2_bytes` — per-core private cache size (holds one `mc x kc` A
    ///   sub-matrix, using at most half the cache per Section 4.3's
    ///   double-buffering headroom).
    /// * `llc_bytes` — shared last-level cache size (holds B, partial C).
    /// * `elem_bytes` — element size.
    /// * `mr`, `nr` — microkernel register-tile shape; `mc` is rounded down
    ///   to a multiple of `mr` and `nc` to a multiple of `nr`.
    ///
    /// # Panics
    /// Panics if `p == 0`, `alpha < 1.0`, or the caches are too small to
    /// hold even a single `mr x nr` tile system.
    pub fn derive(
        p: usize,
        alpha: f64,
        l2_bytes: usize,
        llc_bytes: usize,
        elem_bytes: usize,
        mr: usize,
        nr: usize,
    ) -> Self {
        assert!(p > 0, "need at least one core");
        assert!(alpha >= 1.0, "alpha must be >= 1 (got {alpha})");
        assert!(elem_bytes > 0 && mr > 0 && nr > 0);

        let (mc_llc, mc_l2) = Self::mc_bounds(p, alpha, l2_bytes, llc_bytes, elem_bytes);

        let mut mc = mc_llc.min(mc_l2);
        // Round down to the kernel row tile; floor at mr so degenerate
        // caches still yield a runnable (if cache-oblivious) shape.
        mc = (mc / mr) * mr;
        if mc == 0 {
            mc = mr;
        }

        let kc = mc;
        let nc_raw = (alpha * p as f64 * mc as f64).round() as usize;
        let mut nc = (nc_raw / nr) * nr;
        if nc == 0 {
            nc = nr;
        }

        Self {
            p,
            mc,
            kc,
            nc,
            alpha_x1000: (alpha * 1000.0).round() as u32,
            ko_blocks: 0,
            no_blocks: 0,
        }
    }

    /// The two raw `mc` upper bounds behind [`derive`](Self::derive), in
    /// elements before kernel-tile rounding: `(mc_llc, mc_l2)`.
    ///
    /// * `mc_llc` — the Section 4.3 LRU rule `C + 2(A + B) <= S_llc` with
    ///   `A = p*mc^2`, `B = alpha*p*mc^2`, `C = alpha*p^2*mc^2`, i.e.
    ///   `mc^2 * (alpha*p^2 + 2*p*(1 + alpha)) <= S_llc`.
    /// * `mc_l2` — the per-core constraint: the square `mc x kc` A
    ///   sub-matrix lives in L2 with factor-2 headroom so the next block's
    ///   sub-matrix streams in without evicting live lines (the same LRU
    ///   argument one level down).
    ///
    /// Whichever bound is smaller is the binding constraint — surfaced by
    /// `cakectl gemm --explain` so shaping regressions are diagnosable.
    pub fn mc_bounds(
        p: usize,
        alpha: f64,
        l2_bytes: usize,
        llc_bytes: usize,
        elem_bytes: usize,
    ) -> (usize, usize) {
        assert!(p > 0, "need at least one core");
        assert!(alpha >= 1.0, "alpha must be >= 1 (got {alpha})");
        assert!(elem_bytes > 0);
        let s_llc = llc_bytes / elem_bytes; // LLC capacity in elements
        let s_l2 = l2_bytes / elem_bytes; // L2 capacity in elements
        let pf = p as f64;
        let denom_llc = alpha * pf * pf + 2.0 * pf * (1.0 + alpha);
        let mc_llc = (s_llc as f64 / denom_llc).sqrt().floor() as usize;
        let mc_l2 = ((s_l2 / 2) as f64).sqrt().floor() as usize;
        (mc_llc, mc_l2)
    }

    /// A fixed shape (used by tests and the simulator to decouple shape
    /// choice from cache parameters).
    pub fn fixed(p: usize, mc: usize, kc: usize, nc: usize) -> Self {
        assert!(p > 0 && mc > 0 && kc > 0 && nc > 0);
        let alpha = nc as f64 / (p * mc) as f64;
        Self {
            p,
            mc,
            kc,
            nc,
            alpha_x1000: (alpha.max(0.001) * 1000.0).round() as u32,
            ko_blocks: 0,
            no_blocks: 0,
        }
    }

    /// The same shape with an outer (LLC-level) K/N tiling of
    /// `ko_blocks x no_blocks` L2-level blocks per tile. `0` in either
    /// extent disables the outer level.
    pub fn with_outer_tiles(mut self, ko_blocks: usize, no_blocks: usize) -> Self {
        self.ko_blocks = ko_blocks;
        self.no_blocks = no_blocks;
        self
    }

    /// This shape clamped to an `m x k x n` problem, so small matrices
    /// still spread across all `p` workers: strip height at most
    /// `ceil(m / p)` (rounded up to `mr` so edge strips stay
    /// kernel-friendly) and balanced so the final M-block is not ragged;
    /// `kc` and `nc` at most the problem's K and N (`nc` rounded to `nr`).
    /// The strip height is always a multiple of `mr`: a fixed shape's
    /// `mc` is first cut to whole `mr`-row slivers (at least one), so a
    /// pre-packed A's strips start on its slivers under any shape.
    /// Outer tile extents pass through: they count blocks, and the
    /// schedule clamps them itself.
    pub fn clamp_to_problem(self, m: usize, k: usize, n: usize, mr: usize, nr: usize) -> Self {
        let p = self.p;
        let strip = m.div_ceil(p).div_ceil(mr).max(1) * mr;
        let mc = Self::balance_mc(m, p, (self.mc / mr * mr).min(strip).max(mr), mr);
        let kc = self.kc.min(k.max(1));
        let nc = self.nc.min(n.div_ceil(nr).max(1) * nr).max(nr);
        Self::fixed(p, mc, kc, nc).with_outer_tiles(self.ko_blocks, self.no_blocks)
    }

    /// Whether this shape requests the two-level (outer K/N tiled)
    /// schedule.
    #[inline]
    pub fn has_outer_level(&self) -> bool {
        self.ko_blocks > 0 || self.no_blocks > 0
    }

    /// The aspect factor `alpha = nc / (p * mc)` (approximate after
    /// rounding to kernel tiles).
    pub fn alpha(&self) -> f64 {
        f64::from(self.alpha_x1000) / 1000.0
    }

    /// M-extent of the CB block (`p * mc`).
    #[inline]
    pub fn m_block(&self) -> usize {
        self.p * self.mc
    }

    /// K-extent of the CB block (`kc`).
    #[inline]
    pub fn k_block(&self) -> usize {
        self.kc
    }

    /// N-extent of the CB block (`nc ~= alpha * p * mc`).
    #[inline]
    pub fn n_block(&self) -> usize {
        self.nc
    }

    /// Elements of the A surface (`p*mc x kc`).
    pub fn a_surface(&self) -> usize {
        self.m_block() * self.kc
    }

    /// Elements of the B surface (`kc x nc`).
    pub fn b_surface(&self) -> usize {
        self.kc * self.nc
    }

    /// Elements of the C surface (`p*mc x nc`).
    pub fn c_surface(&self) -> usize {
        self.m_block() * self.nc
    }

    /// Total local-memory footprint of one block in elements
    /// (paper Eq. 5 instantiated with this shape).
    pub fn local_footprint(&self) -> usize {
        self.a_surface() + self.b_surface() + self.c_surface()
    }

    /// Verify the Section 4.3 LRU inequality against an LLC of
    /// `llc_bytes`.
    pub fn fits_llc_lru(&self, llc_bytes: usize, elem_bytes: usize) -> bool {
        let s = llc_bytes / elem_bytes;
        self.c_surface() + 2 * (self.a_surface() + self.b_surface()) <= s
    }

    /// MAC operations performed by one full CB block.
    pub fn block_macs(&self) -> usize {
        self.m_block() * self.kc * self.nc
    }

    /// Balance a candidate per-core strip height `mc0` against a problem's
    /// M extent: keep the same number of M-blocks but shrink `mc` so the
    /// final block is (nearly) full instead of ragged — a ragged block
    /// leaves cores idle for its whole duration.
    ///
    /// Returns `mc0` unchanged when one block already covers M.
    pub fn balance_mc(m: usize, p: usize, mc0: usize, mr: usize) -> usize {
        assert!(p > 0 && mc0 > 0 && mr > 0);
        if m == 0 {
            return mc0.max(mr);
        }
        let bm0 = p * mc0;
        let mb = m.div_ceil(bm0).max(1);
        // Smallest strip covering M with the same block count, rounded up
        // to the kernel row tile.
        let mc = m.div_ceil(p * mb).div_ceil(mr) * mr;
        mc.clamp(mr, mc0.max(mr))
    }
}

impl std::fmt::Display for CbBlockShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CB[{}x{}x{} | p={} mc={} alpha={:.2}]",
            self.m_block(),
            self.k_block(),
            self.n_block(),
            self.p,
            self.mc,
            self.alpha()
        )?;
        if self.has_outer_level() {
            write!(f, "+outer[{}x{}]", self.ko_blocks.max(1), self.no_blocks.max(1))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: usize = 1024;
    const MIB: usize = 1024 * 1024;

    fn intel_like(p: usize, alpha: f64) -> CbBlockShape {
        // i9-10900K: 256 KiB L2, 20 MiB L3, f32, 6x16 kernel.
        CbBlockShape::derive(p, alpha, 256 * KIB, 20 * MIB, 4, 6, 16)
    }

    #[test]
    fn derived_shape_satisfies_lru_rule() {
        for p in 1..=10 {
            for &alpha in &[1.0, 1.5, 2.0, 4.0] {
                let s = intel_like(p, alpha);
                assert!(
                    s.fits_llc_lru(20 * MIB, 4),
                    "p={p} alpha={alpha} shape={s} does not fit LLC"
                );
                assert!(s.mc.is_multiple_of(6), "mc must be a multiple of mr");
                assert!(s.nc.is_multiple_of(16), "nc must be a multiple of nr");
            }
        }
    }

    #[test]
    fn paper_example_shape_matches() {
        // Paper Section 4.4: Intel i9-10900K, p = 10, alpha = 1 gives
        // mc = kc = 192 with B+C filling the L3. Our LRU-constrained
        // derivation is slightly more conservative but must be in the same
        // regime (within a factor ~2) and respect all constraints.
        let s = intel_like(10, 1.0);
        assert!(
            (96..=240).contains(&s.mc),
            "expected mc near the paper's 192-element regime, got {}",
            s.mc
        );
        assert_eq!(s.mc, s.kc);
        assert_eq!(s.m_block(), 10 * s.mc);
    }

    #[test]
    fn c_surface_dominates_llc_as_in_paper() {
        // Paper: with p=10, alpha=1, the C surface takes ~91% and B ~9% of
        // the LLC-resident working set (excluding the per-core A panels).
        let s = intel_like(10, 1.0);
        let c = s.c_surface() as f64;
        let b = s.b_surface() as f64;
        let frac = c / (c + b);
        assert!((0.85..=0.95).contains(&frac), "C fraction = {frac:.3}");
    }

    #[test]
    fn mc_shrinks_with_more_cores_when_llc_bound() {
        // Local memory demand grows ~p^2, so for a fixed LLC mc must shrink
        // once the LLC (not the per-core L2) is the binding constraint. Use
        // an oversized L2 so the LLC term is always the limiter.
        let big_l2 = 64 * MIB;
        let m1 = CbBlockShape::derive(1, 1.0, big_l2, 20 * MIB, 4, 6, 16).mc;
        let m10 = CbBlockShape::derive(10, 1.0, big_l2, 20 * MIB, 4, 6, 16).mc;
        assert!(m10 < m1, "mc should shrink with p: {m1} -> {m10}");
        // On the real i9 config the L2 constraint binds for both, so mc is
        // flat — also worth pinning down.
        assert_eq!(intel_like(1, 1.0).mc, intel_like(10, 1.0).mc);
    }

    #[test]
    fn alpha_widens_n_dimension() {
        let s1 = intel_like(4, 1.0);
        let s2 = intel_like(4, 2.0);
        // nc scales ~alpha (modulo the mc shrink from the LLC constraint).
        assert!(s2.nc as f64 / s2.mc as f64 > s1.nc as f64 / s1.mc as f64);
    }

    #[test]
    fn fixed_block_reports_alpha() {
        let s = CbBlockShape::fixed(4, 96, 96, 768);
        assert!((s.alpha() - 2.0).abs() < 0.01);
        assert_eq!(s.m_block(), 384);
        assert_eq!(s.block_macs(), 384 * 96 * 768);
    }

    #[test]
    fn tiny_cache_still_yields_runnable_shape() {
        let s = CbBlockShape::derive(2, 1.0, 64, 256, 4, 6, 16);
        assert!(s.mc >= 6);
        assert!(s.nc >= 16);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_below_one_rejected() {
        let _ = intel_like(2, 0.5);
    }

    #[test]
    #[should_panic(expected = "core")]
    fn zero_cores_rejected() {
        let _ = CbBlockShape::derive(0, 1.0, KIB, MIB, 4, 6, 16);
    }

    #[test]
    fn mc_bounds_back_the_derived_shape() {
        let (mc_llc, mc_l2) = CbBlockShape::mc_bounds(10, 1.0, 256 * KIB, 20 * MIB, 4);
        let s = intel_like(10, 1.0);
        assert_eq!(s.mc, (mc_llc.min(mc_l2) / 6) * 6, "derive = min bound rounded to mr");
        // The LRU bound shrinks as p grows; the per-core L2 bound does not.
        let (llc1, l21) = CbBlockShape::mc_bounds(1, 1.0, 256 * KIB, 20 * MIB, 4);
        assert!(mc_llc < llc1);
        assert_eq!(mc_l2, l21);
    }

    #[test]
    fn outer_tiles_builder_round_trips() {
        let s = CbBlockShape::fixed(2, 8, 8, 16);
        assert!(!s.has_outer_level());
        let t = s.with_outer_tiles(2, 3);
        assert!(t.has_outer_level());
        assert_eq!((t.ko_blocks, t.no_blocks), (2, 3));
        // Surfaces and MACs are properties of the L2-level block — the
        // outer tiling only reorders the schedule.
        assert_eq!(t.a_surface(), s.a_surface());
        assert_eq!(t.block_macs(), s.block_macs());
        assert_eq!(format!("{t}"), format!("{s}+outer[2x3]"));
    }

    #[test]
    fn surfaces_match_formulas() {
        let s = CbBlockShape::fixed(3, 10, 10, 60);
        // A = p*mc*kc, B = kc*nc, C = p*mc*nc.
        assert_eq!(s.a_surface(), 3 * 10 * 10);
        assert_eq!(s.b_surface(), 10 * 60);
        assert_eq!(s.c_surface(), 30 * 60);
        assert_eq!(s.local_footprint(), 300 + 600 + 1800);
    }
}
