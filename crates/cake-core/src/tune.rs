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

/// Where the tuner's `alpha` came from.
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
    /// `CakeConfig::fixed_shape` carried a shape from the autotune cache
    /// ([`TuneTable`]); the analytic derivation was bypassed.
    Autotuned,
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
            AlphaSource::Autotuned => {
                "autotune cache (shape measured faster than the closed form on this host)"
            }
        }
    }
}

/// The full record of one shape-tuning decision — every input the tuner
/// consulted and every intermediate bound, so a regression in shaping is
/// diagnosable from `cakectl gemm --explain` without a debugger.
///
/// Produced by `CakeConfig::explain_shape`; `resolve_shape` is the same
/// computation keeping only [`shape`](Self::shape).
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
            let _ = writeln!(out, "kernel: {} (tile dims drive mc/nc rounding)", self.kernel);
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

/// How well the pipelined executor hid packing IO under compute, from a
/// call's measured [`ExecStats`](crate::executor::ExecStats) phase timings.
///
/// Returns the fraction of pack time that overlaps compute under the
/// constant-bandwidth assumption that both phases stream at their measured
/// rates: `1.0` when packing fits entirely under compute
/// (`pack_ns <= compute_ns`, the regime the CB block shape is chosen for),
/// degrading toward `compute/pack` when the call is pack-bound. An idle
/// call (both zero) reports `1.0` — nothing needed hiding.
pub fn overlap_efficiency(pack_ns: u64, compute_ns: u64) -> f64 {
    if pack_ns == 0 {
        return 1.0;
    }
    if pack_ns <= compute_ns {
        1.0
    } else {
        compute_ns as f64 / pack_ns as f64
    }
}

// ---------------------------------------------------------------------------
// Autotune candidate generation and the persistent shape×dtype table.
//
// The closed form above picks one shape per (cache geometry, kernel tile);
// the autotuner instead *enumerates* a deterministic candidate set per
// kernel tier, has cake-sim score it on a host-shaped CpuConfig, optionally
// refines the leaders with on-host micro-bench runs (cake-bench), and
// persists winners keyed by (m, k, n, dtype, p) so later runs pay a single
// cold table load. Everything here is cold-path: tuning happens before the
// first GEMM, never inside one.
// ---------------------------------------------------------------------------

/// One autotune candidate: a CB block shape plus the kernel tier whose
/// register tile `(mr, nr)` the shape is aligned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneCandidate {
    /// Kernel tier the shape targets.
    pub tier: cake_kernels::KernelTier,
    /// Register-tile rows of that tier's primary kernel for the dtype.
    pub mr: usize,
    /// Register-tile cols of that tier's primary kernel for the dtype.
    pub nr: usize,
    /// The candidate block shape (one-level; `mc % mr == 0`,
    /// `nc % nr == 0`, LRU-feasible for the given LLC).
    pub shape: CbBlockShape,
}

/// Deterministic candidate `(mc, kc, nc)` grid for one kernel tile
/// `(mr, nr)`: `mc` sweeps kernel-aligned fractions/multiples of the
/// closed-form `mc`, `kc` sweeps `{mc, 2mc, 4mc, 256, 512}` (the closed
/// form pins `kc = mc`; a deeper `kc` amortizes packing and C-update
/// overhead per block at the cost of a fatter A panel), and `nc` sweeps
/// `alpha in {1, 2, 4}` widths plus the LLC-fill width. Every returned
/// shape is clamped to the problem extents, satisfies the Section 4.3 LRU
/// rule for `llc_bytes`, and has `mc % mr == 0`, `nc % nr == 0`. Sorted
/// and deduplicated, capped at [`CANDIDATE_CAP`] — a pure function of its
/// arguments, so tuning is reproducible.
#[allow(clippy::too_many_arguments)]
pub fn candidate_shapes(
    p: usize,
    mr: usize,
    nr: usize,
    l2_bytes: usize,
    llc_bytes: usize,
    elem_bytes: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<CbBlockShape> {
    assert!(p > 0 && mr > 0 && nr > 0, "p, mr, nr must be positive");
    assert!(m > 0 && k > 0 && n > 0, "problem extents must be positive");
    let base = CbBlockShape::derive(p, 1.0, l2_bytes, llc_bytes, elem_bytes, mr, nr);
    let mc0 = base.mc;
    // Keep every worker busy on small M, as the api-layer clamp does.
    let strip = m.div_ceil(p).div_ceil(mr).max(1) * mr;
    let mut mcs: Vec<usize> = [mr, mc0 / 2, mc0, mc0 * 3 / 2, mc0 * 2]
        .iter()
        .map(|&c| {
            let c = (c / mr).max(1) * mr;
            CbBlockShape::balance_mc(m, p, c.min(strip).max(mr), mr)
        })
        .collect();
    mcs.sort_unstable();
    mcs.dedup();

    let n_cap = n.div_ceil(nr).max(1) * nr;
    let llc_elems = llc_bytes / elem_bytes.max(1);
    let mut out: Vec<CbBlockShape> = Vec::new();
    for &mc in &mcs {
        for kc_raw in [mc, 2 * mc, 4 * mc, 256, 512] {
            let kc = kc_raw.min(k.max(1)).max(1);
            // alpha sweeps plus the LLC-fill width for this (mc, kc).
            let fill = alpha_fill_llc(p, mc, llc_elems);
            let mut ncs = [
                p * mc,
                2 * p * mc,
                4 * p * mc,
                ((fill * (p * mc) as f64) as usize).max(nr),
            ];
            ncs.sort_unstable();
            for nc_raw in ncs {
                let nc = nc_raw.div_ceil(nr).max(1) * nr;
                let nc = nc.min(n_cap).max(nr);
                let shape = CbBlockShape::fixed(p, mc, kc, nc);
                if shape.fits_llc_lru(llc_bytes, elem_bytes) {
                    out.push(shape);
                }
            }
        }
    }
    // The closed-form (LLC-fill) default always competes, so the tuned
    // winner can never be worse than the analytic choice in-simulator.
    let alpha = alpha_fill_llc(p, mc0.max(1), llc_elems);
    let analytic = CbBlockShape::derive(p, alpha, l2_bytes, llc_bytes, elem_bytes, mr, nr);
    let clamped = analytic.clamp_to_problem(m, k, n, mr, nr);
    if clamped.fits_llc_lru(llc_bytes, elem_bytes) {
        out.push(clamped);
    }
    out.sort_unstable_by_key(|s| (s.mc, s.kc, s.nc));
    out.dedup();
    out.truncate(CANDIDATE_CAP);
    out
}

/// Upper bound on candidates per kernel tier, keeping a full tune run
/// (candidates × simulator) in the tens-of-milliseconds range.
pub const CANDIDATE_CAP: usize = 64;

/// [`candidate_shapes`] across every registered kernel tier for `dtype`
/// (`"f32"`/`"f64"`/`"int8"`/`"bf16"`), tile dims from
/// [`cake_kernels::registered_tile`]. Tiers the *host* cannot run are still
/// generated — the simulator can score them and the micro-bench refiner
/// filters by actual dispatchability.
#[allow(clippy::too_many_arguments)] // mirrors candidate_shapes' problem+host signature
pub fn candidate_points(
    dtype: &str,
    p: usize,
    m: usize,
    k: usize,
    n: usize,
    l2_bytes: usize,
    llc_bytes: usize,
    elem_bytes: usize,
) -> Vec<TuneCandidate> {
    let mut out = Vec::new();
    for tier in cake_kernels::KernelTier::ALL {
        let Some((mr, nr)) = cake_kernels::registered_tile(tier, dtype) else {
            continue;
        };
        for shape in candidate_shapes(p, mr, nr, l2_bytes, llc_bytes, elem_bytes, m, k, n) {
            out.push(TuneCandidate { tier, mr, nr, shape });
        }
    }
    out
}

/// One persisted autotune winner: the key `(m, k, n, dtype, p)` plus the
/// winning `(mc, kc, nc, tier)` and the throughput that won it.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedEntry {
    /// Problem rows.
    pub m: usize,
    /// Problem depth.
    pub k: usize,
    /// Problem cols.
    pub n: usize,
    /// Element dtype name (`"f32"`/`"f64"`/`"int8"`/`"bf16"`).
    pub dtype: String,
    /// Worker count the shape was tuned for.
    pub p: usize,
    /// Winning per-core block rows.
    pub mc: usize,
    /// Winning block depth.
    pub kc: usize,
    /// Winning block cols.
    pub nc: usize,
    /// Winning kernel tier name ([`cake_kernels::KernelTier::name`]).
    pub tier: String,
    /// Measured (or simulated, when micro-bench was skipped) GFLOP/s.
    pub gflops: f64,
}

impl TunedEntry {
    /// The entry's block shape.
    pub fn shape(&self) -> CbBlockShape {
        CbBlockShape::fixed(self.p.max(1), self.mc, self.kc, self.nc)
    }
}

/// The shape×dtype-keyed autotune table, persisted as flat JSON at
/// [`TuneTable::default_path`] so one process's tuning pays off in the
/// next. Format (hand-rolled; the workspace carries no serde):
///
/// ```json
/// {
///   "version": 1,
///   "entries": [
///     {"m": 256, "k": 256, "n": 256, "dtype": "f32", "p": 1,
///      "mc": 96, "kc": 256, "nc": 512, "tier": "avx2", "gflops": 42.5}
///   ]
/// }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneTable {
    /// All persisted winners, one per unique `(m, k, n, dtype, p)`.
    pub entries: Vec<TunedEntry>,
}

/// On-disk format version of [`TuneTable`]; bump on layout change (old
/// files then parse to `None` and re-tune instead of mis-resolving).
pub const TUNE_TABLE_VERSION: usize = 1;

impl TuneTable {
    /// The winner for `(m, k, n, dtype, p)`, if one was recorded.
    pub fn lookup(&self, m: usize, k: usize, n: usize, dtype: &str, p: usize) -> Option<&TunedEntry> {
        self.entries
            .iter()
            .find(|e| e.m == m && e.k == k && e.n == n && e.p == p && e.dtype == dtype)
    }

    /// Insert `entry`, replacing any prior winner for the same key.
    pub fn insert(&mut self, entry: TunedEntry) {
        if let Some(e) = self.entries.iter_mut().find(|e| {
            e.m == entry.m && e.k == entry.k && e.n == entry.n && e.p == entry.p && e.dtype == entry.dtype
        }) {
            *e = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// Cache file location: `$CAKE_TUNE_CACHE` when set, else
    /// `target/cake-tune.json` under the current directory.
    pub fn default_path() -> std::path::PathBuf {
        match std::env::var_os("CAKE_TUNE_CACHE") {
            Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
            _ => std::path::PathBuf::from("target/cake-tune.json"),
        }
    }

    /// Load from `path`; `None` when the file is missing, unreadable, or
    /// from a different format version (callers fall back to the closed
    /// form — a stale cache can never break a GEMM).
    pub fn load(path: &std::path::Path) -> Option<TuneTable> {
        // audit: cold one file read per process, before any GEMM runs
        Self::from_json(&std::fs::read_to_string(path).ok()?)
    }

    /// [`load`](Self::load) from [`default_path`](Self::default_path).
    pub fn load_default() -> Option<TuneTable> {
        Self::load(&Self::default_path())
    }

    /// Persist to `path`, creating parent directories as needed.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Render the documented flat-JSON format.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{{\n  \"version\": {TUNE_TABLE_VERSION},\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"dtype\": \"{}\", \"p\": {}, \
                 \"mc\": {}, \"kc\": {}, \"nc\": {}, \"tier\": \"{}\", \"gflops\": {:.3}}}{sep}",
                e.m, e.k, e.n, e.dtype, e.p, e.mc, e.kc, e.nc, e.tier, e.gflops
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse the [`to_json`](Self::to_json) format. Tolerant scanner over
    /// flat objects; `None` on any malformed field or version mismatch.
    pub fn from_json(text: &str) -> Option<TuneTable> {
        if json_usize(text, "version")? != TUNE_TABLE_VERSION {
            return None;
        }
        let mut rest = &text[text.find("\"entries\"")?..];
        rest = &rest[rest.find('[')? + 1..];
        let mut entries = Vec::new();
        while let Some(ob) = rest.find('{') {
            let cb = ob + rest[ob..].find('}')?;
            let obj = &rest[ob + 1..cb];
            entries.push(TunedEntry {
                m: json_usize(obj, "m")?,
                k: json_usize(obj, "k")?,
                n: json_usize(obj, "n")?,
                dtype: json_str(obj, "dtype")?,
                p: json_usize(obj, "p")?,
                mc: json_usize(obj, "mc")?,
                kc: json_usize(obj, "kc")?,
                nc: json_usize(obj, "nc")?,
                tier: json_str(obj, "tier")?,
                gflops: json_f64(obj, "gflops")?,
            });
            rest = &rest[cb + 1..];
        }
        Some(TuneTable { entries })
    }
}

fn json_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find([',', '}', ']', '\n'])
        .unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_usize(obj: &str, key: &str) -> Option<usize> {
    json_field(obj, key)?.parse().ok()
}

fn json_f64(obj: &str, key: &str) -> Option<f64> {
    json_field(obj, key)?.parse().ok()
}

fn json_str(obj: &str, key: &str) -> Option<String> {
    let v = json_field(obj, key)?;
    Some(v.strip_prefix('"')?.strip_suffix('"')?.to_string())
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
            kernel: "avx512_f32_14x32",
        };
        let r = d.render();
        for needle in [
            "requested 8",
            "effective 1",
            "clamped",
            "spin",
            "kernel: avx512_f32_14x32",
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
    }

    #[test]
    fn overlap_efficiency_regimes() {
        assert_eq!(overlap_efficiency(0, 0), 1.0); // idle call
        assert_eq!(overlap_efficiency(0, 100), 1.0); // all packs skipped
        assert_eq!(overlap_efficiency(50, 100), 1.0); // fully hidden
        assert_eq!(overlap_efficiency(100, 100), 1.0); // boundary
        assert!((overlap_efficiency(200, 100) - 0.5).abs() < 1e-12); // pack-bound
        assert_eq!(overlap_efficiency(100, 0), 0.0); // nothing to hide under
    }
}

#[cfg(test)]
mod autotune_tests {
    use super::*;
    use proptest::prelude::*;

    const L2: usize = 256 * 1024;
    const LLC: usize = 16 * 1024 * 1024;

    #[test]
    fn candidates_explore_beyond_the_closed_form() {
        let cands = candidate_shapes(2, 6, 16, L2, LLC, 4, 512, 512, 512);
        assert!(cands.len() >= 8, "grid too small: {}", cands.len());
        assert!(cands.len() <= CANDIDATE_CAP);
        // The kc != mc lever the closed form never pulls must be present.
        assert!(cands.iter().any(|s| s.kc > s.mc), "no deep-kc candidates");
        // Sorted and deduplicated.
        let mut sorted = cands.clone();
        sorted.sort_unstable_by_key(|s| (s.mc, s.kc, s.nc));
        sorted.dedup();
        assert_eq!(cands, sorted);
    }

    #[test]
    fn candidate_points_cover_all_tiers() {
        for dtype in ["f32", "f64", "int8", "bf16"] {
            let pts = candidate_points(dtype, 1, 256, 256, 256, L2, LLC, 4);
            for tier in cake_kernels::KernelTier::ALL {
                assert!(
                    pts.iter().any(|c| c.tier == tier),
                    "{dtype}: no candidates for {}",
                    tier.name()
                );
            }
        }
        assert!(candidate_points("f16", 1, 64, 64, 64, L2, LLC, 4).is_empty());
    }

    #[test]
    fn tune_table_json_round_trips() {
        let mut t = TuneTable::default();
        t.insert(TunedEntry {
            m: 256, k: 256, n: 256, dtype: "f32".into(), p: 1,
            mc: 96, kc: 256, nc: 512, tier: "avx2".into(), gflops: 42.5,
        });
        t.insert(TunedEntry {
            m: 384, k: 256, n: 512, dtype: "int8".into(), p: 4,
            mc: 48, kc: 96, nc: 768, tier: "portable".into(), gflops: 7.125,
        });
        let back = TuneTable::from_json(&t.to_json()).expect("round trip");
        assert_eq!(back, t);
        // Replacement by key, lookup hit and miss.
        let mut t2 = back.clone();
        t2.insert(TunedEntry { gflops: 50.0, ..t.entries[0].clone() });
        assert_eq!(t2.entries.len(), 2);
        assert_eq!(t2.lookup(256, 256, 256, "f32", 1).unwrap().gflops, 50.0);
        assert!(t2.lookup(256, 256, 256, "f64", 1).is_none());
        assert!(t2.lookup(256, 256, 257, "f32", 1).is_none());
        // Empty table round-trips too.
        assert_eq!(TuneTable::from_json(&TuneTable::default().to_json()).unwrap(), TuneTable::default());
    }

    #[test]
    fn tune_table_rejects_garbage_and_wrong_version() {
        assert!(TuneTable::from_json("").is_none());
        assert!(TuneTable::from_json("not json at all").is_none());
        assert!(TuneTable::from_json("{\"version\": 99, \"entries\": []}").is_none());
        // A truncated entry object fails cleanly rather than panicking.
        assert!(TuneTable::from_json("{\"version\": 1, \"entries\": [{\"m\": 4").is_none());
    }

    #[test]
    fn tune_table_save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("cake-tune-test");
        let path = dir.join("cake-tune.json");
        let mut t = TuneTable::default();
        t.insert(TunedEntry {
            m: 64, k: 64, n: 64, dtype: "bf16".into(), p: 2,
            mc: 8, kc: 64, nc: 64, tier: "avx512".into(), gflops: 1.0,
        });
        t.save(&path).expect("save");
        assert_eq!(TuneTable::load(&path).expect("load"), t);
        assert!(TuneTable::load(&dir.join("missing.json")).is_none());
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// ISSUE satellite: every autotuned candidate satisfies the LRU
        /// rule and kernel-tile divisibility for its tier, and the
        /// generator is deterministic.
        #[test]
        fn candidates_are_feasible_aligned_and_deterministic(
            p in 1usize..5,
            mkn in 0usize..4,
            dt in 0usize..4,
        ) {
            let (m, k, n) = [(64, 64, 64), (256, 128, 512), (512, 512, 512), (96, 1024, 96)][mkn];
            let dtype = ["f32", "f64", "int8", "bf16"][dt];
            let elem = [4usize, 8, 1, 2][dt];
            let pts = candidate_points(dtype, p, m, k, n, L2, LLC, elem);
            prop_assert!(!pts.is_empty());
            for c in &pts {
                prop_assert_eq!(c.shape.p, p);
                prop_assert!(c.shape.fits_llc_lru(LLC, elem),
                    "{} violates LRU: {}", c.tier.name(), c.shape);
                prop_assert_eq!(c.shape.mc % c.mr, 0, "mc {} not {}-aligned", c.shape.mc, c.mr);
                prop_assert_eq!(c.shape.nc % c.nr, 0, "nc {} not {}-aligned", c.shape.nc, c.nr);
                prop_assert!(c.shape.kc >= 1 && c.shape.kc <= k);
            }
            let again = candidate_points(dtype, p, m, k, n, L2, LLC, elem);
            prop_assert_eq!(pts, again, "candidate generation must be deterministic");
        }
    }
}
