//! `alpha` selection from available DRAM bandwidth (paper Section 3.2).
//!
//! The external-bandwidth factor is `R = BW_available / BW_unit`, where
//! `BW_unit` is the bandwidth that one "side" of the CB block demands at
//! `alpha -> infinity` (the irreducible A-surface stream). Section 3.2 shows
//! the minimum-bandwidth constraint `BW_ext >= BW_min` is satisfied exactly
//! when `alpha >= 1 / (R - 1)`; `alpha = 1` suffices whenever `R >= 2`.

use crate::model::alpha_min_for_bw_factor;
use crate::shape::CbBlockShape;
use crate::sync::BarrierMode;

/// Upper bound on auto-selected `alpha`: beyond this the partial-C panel
/// dwarfs any realistic LLC and compute time per block grows without
/// benefit.
pub const ALPHA_CAP: f64 = 16.0;

/// Irreducible per-block external bandwidth unit in GB/s: the A-surface
/// stream rate `macs_per_cycle / mc * elem_bytes * freq_ghz` (the paper's
/// `k` tiles/cycle converted to CPU units).
pub fn bw_unit_gbs(mc: usize, macs_per_cycle: f64, elem_bytes: usize, freq_ghz: f64) -> f64 {
    assert!(mc > 0);
    macs_per_cycle / mc as f64 * elem_bytes as f64 * freq_ghz
}

/// Select the smallest `alpha >= 1` whose CB block fits the available DRAM
/// bandwidth, clamped to [`ALPHA_CAP`].
///
/// Returns `ALPHA_CAP` when the bandwidth is at or below the irreducible
/// unit (`R <= 1`): the block is made as IO-light as allowed and the
/// computation will necessarily be bandwidth-bound.
pub fn select_alpha(
    dram_bw_gbs: f64,
    mc: usize,
    macs_per_cycle: f64,
    elem_bytes: usize,
    freq_ghz: f64,
) -> f64 {
    assert!(dram_bw_gbs > 0.0, "DRAM bandwidth must be positive");
    let unit = bw_unit_gbs(mc, macs_per_cycle, elem_bytes, freq_ghz);
    let r = dram_bw_gbs / unit;
    if r <= 1.0 + 1e-9 {
        return ALPHA_CAP;
    }
    alpha_min_for_bw_factor(r).min(ALPHA_CAP)
}

/// Convenience: required DRAM bandwidth (GB/s) of a shape under a given
/// kernel rate — used to sanity-check a selected `alpha`.
pub fn required_bw_gbs(
    shape: &CbBlockShape,
    macs_per_cycle: f64,
    elem_bytes: usize,
    freq_ghz: f64,
) -> f64 {
    let alpha = shape.alpha();
    (alpha + 1.0) / alpha * bw_unit_gbs(shape.mc, macs_per_cycle, elem_bytes, freq_ghz)
}

/// Largest `alpha` whose CB block still satisfies the Section 4.3 LRU rule
/// for an LLC of `llc_elems` elements with `mc` fixed (the L2-bound
/// regime): solves `alpha*p^2*mc^2 + 2*(p*mc^2 + alpha*p*mc^2) <= S`.
///
/// Used as the default when no DRAM-bandwidth hint is available: widening
/// the block can only *reduce* external bandwidth demand (Eq. 2), and the
/// spare LLC capacity is otherwise idle. Clamped to `[1, ALPHA_CAP]`.
pub fn alpha_fill_llc(p: usize, mc: usize, llc_elems: usize) -> f64 {
    assert!(p > 0 && mc > 0);
    let s = llc_elems as f64;
    let (pf, mcf) = (p as f64, (mc * mc) as f64);
    let denom = pf * pf * mcf + 2.0 * pf * mcf; // alpha-proportional terms
    let fixed = 2.0 * pf * mcf; // the A surface's double-buffer share
    if denom <= 0.0 {
        return 1.0;
    }
    ((s - fixed) / denom).clamp(1.0, ALPHA_CAP)
}

/// Where the shaping's `alpha` came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlphaSource {
    /// `CakeConfig::alpha` was set explicitly by the caller.
    Explicit,
    /// Derived from the DRAM-bandwidth hint via [`select_alpha`]
    /// (Section 3.2: `alpha >= 1 / (R - 1)`).
    BandwidthModel,
    /// No hint: widened to fill the spare LLC via [`alpha_fill_llc`]
    /// (a wider block only lowers the Eq. 2 bandwidth demand).
    LlcFill,
}

impl AlphaSource {
    /// One-line rationale for `--explain` output.
    pub fn describe(self) -> &'static str {
        match self {
            AlphaSource::Explicit => "explicit config",
            AlphaSource::BandwidthModel => {
                "Section 3.2 bandwidth model (alpha >= 1/(R-1))"
            }
            AlphaSource::LlcFill => {
                "LLC fill (no DRAM bandwidth hint; spare LLC only lowers Eq. 2 demand)"
            }
        }
    }
}

/// The full record of one shaping decision — every input the closed form
/// consulted and every intermediate bound, so a regression in shaping is
/// diagnosable from `cakectl gemm --explain` without a debugger.
///
/// Produced by `CakeConfig::explain_shape_for`; its [`shape`](Self::shape) is
/// the block a [`crate::api::CakeGemm`] call runs.
#[derive(Debug, Clone)]
pub struct TuneDecision {
    /// The p the caller asked for — drives the block geometry and the
    /// analytic model.
    pub requested_p: usize,
    /// Workers that will actually be spawned
    /// ([`crate::topology::effective_p`]).
    pub effective_p: usize,
    /// Cores available to this process when the decision was made.
    pub host_cores: usize,
    /// Rotation-barrier strategy [`BarrierMode::auto`] will select for the
    /// effective worker count on this host.
    pub barrier_mode: BarrierMode,
    /// The chosen aspect factor.
    pub alpha: f64,
    /// Why that `alpha`.
    pub alpha_source: AlphaSource,
    /// Raw `mc` upper bound from the per-core L2 (elements, before
    /// kernel-tile rounding).
    pub mc_l2: usize,
    /// Raw `mc` upper bound from the Section 4.3 LLC LRU rule.
    pub mc_llc: usize,
    /// The cache-derived shape before any problem clamping.
    pub analytic: CbBlockShape,
    /// The final shape after clamping to the problem extents.
    pub shape: CbBlockShape,
    /// Whether the final shape satisfies `C + 2(A + B) <= S` for the
    /// configured LLC.
    pub lru_ok: bool,
    /// Name of the microkernel whose `(mr, nr)` the block geometry was
    /// derived from (e.g. `"avx512_f32_14x32"`; empty when the caller
    /// passed raw tile dims rather than a selected kernel).
    pub kernel: &'static str,
    /// Depth step of that kernel's packed layout
    /// ([`PackLayout::k_step`](cake_kernels::PackLayout::k_step)): a `kc`
    /// short of K is a whole number of steps, so only the last k-block
    /// pads. 1 for k-major layouts and for raw tile dims.
    pub k_step: usize,
}

impl TuneDecision {
    /// Multi-line human-readable explanation (the `--explain` body).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let clamp = if self.effective_p < self.requested_p {
            " (clamped: oversubscribing burns timeslices at every barrier)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "p: requested {} on {} host core(s) -> effective {}{}",
            self.requested_p, self.host_cores, self.effective_p, clamp
        );
        let why_mode = match self.barrier_mode {
            BarrierMode::Spin => "every worker has a core; spin observes the release in ~ns",
            BarrierMode::Park => "workers exceed cores; park instead of spin-thrashing",
        };
        let _ = writeln!(out, "barrier: {} ({})", self.barrier_mode, why_mode);
        if !self.kernel.is_empty() {
            let step = if self.k_step > 1 {
                format!("; kc in whole {}-deep k-steps", self.k_step)
            } else {
                String::new()
            };
            let _ = writeln!(out, "kernel: {} (tile dims drive mc/nc rounding{step})", self.kernel);
        }
        let _ = writeln!(
            out,
            "alpha: {:.2} via {}",
            self.alpha,
            self.alpha_source.describe()
        );
        let binding = if self.mc_llc <= self.mc_l2 {
            "LLC-LRU binds"
        } else {
            "L2 binds"
        };
        let _ = writeln!(
            out,
            "mc bounds: L2 <= {} elems, LLC-LRU <= {} elems -> {} -> analytic mc = {}",
            self.mc_l2, self.mc_llc, binding, self.analytic.mc
        );
        if self.shape != self.analytic {
            let _ = writeln!(
                out,
                "problem clamp: {} -> {}",
                self.analytic, self.shape
            );
        }
        let _ = writeln!(
            out,
            "shape: {} mc={} kc={} nc={}; LRU fit C+2(A+B) <= S: {}",
            self.shape,
            self.shape.mc,
            self.shape.kc,
            self.shape.nc,
            if self.lru_ok { "ok" } else { "EXCEEDED" }
        );
        out
    }
}

impl std::fmt::Display for TuneDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MC: usize = 96;
    const RATE: f64 = 96.0; // idealized 6x16 kernel
    const F32: usize = 4;
    const GHZ: f64 = 3.7;

    #[test]
    fn ample_bandwidth_gives_alpha_one() {
        let unit = bw_unit_gbs(MC, RATE, F32, GHZ);
        let alpha = select_alpha(10.0 * unit, MC, RATE, F32, GHZ);
        assert_eq!(alpha, 1.0);
    }

    #[test]
    fn threshold_at_r_equals_two() {
        let unit = bw_unit_gbs(MC, RATE, F32, GHZ);
        // R = 2 exactly: alpha = 1/(2-1) = 1.
        assert!((select_alpha(2.0 * unit, MC, RATE, F32, GHZ) - 1.0).abs() < 1e-9);
        // R = 1.5: alpha = 2.
        assert!((select_alpha(1.5 * unit, MC, RATE, F32, GHZ) - 2.0).abs() < 1e-9);
        // R = 1.1: alpha = 10.
        assert!((select_alpha(1.1 * unit, MC, RATE, F32, GHZ) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn starved_bandwidth_hits_cap() {
        let unit = bw_unit_gbs(MC, RATE, F32, GHZ);
        assert_eq!(select_alpha(0.5 * unit, MC, RATE, F32, GHZ), ALPHA_CAP);
        assert_eq!(select_alpha(1.0 * unit, MC, RATE, F32, GHZ), ALPHA_CAP);
        // Just above the cap threshold R = 1 + 1/16.
        let r_cap = 1.0 + 1.0 / ALPHA_CAP;
        let alpha = select_alpha(r_cap * unit * 0.999, MC, RATE, F32, GHZ);
        assert_eq!(alpha, ALPHA_CAP);
    }

    #[test]
    fn selected_alpha_meets_requirement() {
        let unit = bw_unit_gbs(MC, RATE, F32, GHZ);
        for r in [1.2, 1.5, 2.0, 3.0, 8.0] {
            let avail = r * unit;
            let alpha = select_alpha(avail, MC, RATE, F32, GHZ);
            let shape = crate::shape::CbBlockShape::fixed(
                4,
                MC,
                MC,
                ((alpha * (4 * MC) as f64).round() as usize).max(1),
            );
            let need = required_bw_gbs(&shape, RATE, F32, GHZ);
            assert!(
                need <= avail * 1.02,
                "r={r}: required {need:.2} > available {avail:.2} (alpha={alpha})"
            );
        }
    }

    #[test]
    fn unit_scales_inversely_with_mc() {
        let u1 = bw_unit_gbs(96, RATE, F32, GHZ);
        let u2 = bw_unit_gbs(192, RATE, F32, GHZ);
        assert!((u1 / u2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_fill_uses_spare_llc() {
        // Big LLC, one core: alpha should hit the cap.
        assert_eq!(alpha_fill_llc(1, 96, 4 * 1024 * 1024), ALPHA_CAP);
        // Tight LLC: clamped to 1.
        assert_eq!(alpha_fill_llc(8, 96, 100), 1.0);
        // Mid-range: the filled block must satisfy the LRU rule.
        let p = 4;
        let mc = 96;
        let s = 2_000_000;
        let alpha = alpha_fill_llc(p, mc, s);
        let shape = crate::shape::CbBlockShape::fixed(
            p, mc, mc, ((alpha * (p * mc) as f64) as usize).max(1));
        assert!(shape.c_surface() + 2 * (shape.a_surface() + shape.b_surface()) <= s + p * mc * mc,
            "filled shape barely exceeds budget: alpha={alpha}");
        assert!(alpha > 1.0 && alpha < ALPHA_CAP);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = select_alpha(0.0, MC, RATE, F32, GHZ);
    }

    #[test]
    fn tune_decision_render_mentions_every_input() {
        let d = TuneDecision {
            requested_p: 8,
            effective_p: 1,
            host_cores: 1,
            barrier_mode: BarrierMode::Spin,
            alpha: 1.0,
            alpha_source: AlphaSource::LlcFill,
            mc_l2: 181,
            mc_llc: 97,
            analytic: crate::shape::CbBlockShape::fixed(8, 96, 96, 768),
            shape: crate::shape::CbBlockShape::fixed(8, 12, 12, 96),
            lru_ok: true,
            kernel: "amx_i8_32x32",
            k_step: 64,
        };
        let r = d.render();
        for needle in [
            "requested 8",
            "effective 1",
            "clamped",
            "spin",
            "kernel: amx_i8_32x32",
            "kc in whole 64-deep k-steps",
            "LLC fill",
            "LLC-LRU <= 97",
            "problem clamp",
            "LRU fit",
        ] {
            assert!(r.contains(needle), "render missing {needle:?}:\n{r}");
        }
        assert!(d.to_string().contains("alpha: 1.00"));
        // Unclamped decision drops the clamp notes.
        let d2 = TuneDecision {
            effective_p: 8,
            host_cores: 8,
            shape: d.analytic,
            barrier_mode: BarrierMode::Park,
            alpha_source: AlphaSource::Explicit,
            ..d
        };
        let r2 = d2.render();
        assert!(!r2.contains("clamped"));
        assert!(!r2.contains("problem clamp"));
        assert!(r2.contains("park"));
        assert!(r2.contains("explicit config"));
        // A k-major kernel has no k-step note.
        let d3 = TuneDecision {
            kernel: "avx512_f32_14x32",
            k_step: 1,
            ..d2
        };
        assert!(!d3.render().contains("k-steps"));
    }
}
