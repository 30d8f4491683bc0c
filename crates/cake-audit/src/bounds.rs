//! Symbolic bounds checker for every raw-pointer offset site in the GEMM
//! data path.
//!
//! Each [`Site`] models one pointer-arithmetic site as an inequality
//! `need <= cap`: `need` is one past the highest element offset the loop
//! nest can touch, `cap` the length of the buffer it indexes. Sites over
//! block-local extents (`ml`, `kl`, `nl`, a worker's tile count, …) are
//! closed over the *whole tuning space* by corner substitution: the
//! constrained variable is replaced by its declared upper bound, justified
//! by a sampled monotonicity check of `need` in that variable. The
//! substituted inequality is then discharged symbolically — structural
//! polynomial equality or a non-negative-coefficient dominance certificate
//! (see [`crate::interval`]) — so the proof covers **all** parameter values,
//! not just sampled ones. Sites whose domain is finite by construction
//! (kernel tile shapes) are discharged by exhaustive enumeration instead.
//!
//! Every proof, however obtained, is additionally re-validated by
//! exhaustive small-extent enumeration, and the constraint lattice the
//! corner substitutions rely on (`split_range` balance, `worker_rows`
//! coverage, sliver-offset formulas, workspace sizing) is checked as a set
//! of [`lemmas`] *against the real functions*, not a re-implementation.

use std::collections::BTreeMap;

use cake_core::executor::worker_rows;
use cake_core::schedule::{worker_grid, BlockGrid, Schedule};
use cake_core::workspace::worker_tile_bound;
use cake_kernels::pack::{
    a_sliver_offset, b_sliver_offset, packed_a_size, packed_b_size, split_range, PackLayout,
};

use crate::interval::{
    c, div_ceil_i, dominates, sampled_nondecreasing, symbolically_equal, v, Expr, Iv,
};

/// How a site's inequality was discharged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `need` and `cap` normalize to the identical polynomial.
    Equality,
    /// `cap - need` has a non-negativity certificate.
    Dominance,
    /// Finite declared domain enumerated in full.
    Exhaustive,
}

impl Method {
    /// Stable lowercase name for the report.
    pub fn name(self) -> &'static str {
        match self {
            Method::Equality => "equality",
            Method::Dominance => "dominance",
            Method::Exhaustive => "exhaustive",
        }
    }
}

/// Predicate over a variable assignment, used to carve a site's domain.
pub type DomainConstraint = fn(&BTreeMap<&'static str, i128>) -> bool;

/// One raw-pointer offset site: `need <= cap` over a constrained domain.
pub struct Site {
    /// Stable identifier used in the report and tests.
    pub name: &'static str,
    /// Where the pointer arithmetic lives.
    pub place: &'static str,
    /// One past the highest element offset touched.
    pub need: Expr,
    /// Element length of the buffer being indexed.
    pub cap: Expr,
    /// Per-variable inclusive ranges for exhaustive validation (and, for
    /// `Method::Exhaustive` sites, the full declared domain).
    pub ranges: Vec<(&'static str, i128, i128)>,
    /// Domain filter tying constrained variables to their bounds.
    pub constraint: Option<DomainConstraint>,
    /// Corner substitutions `var := upper bound` applied to `need` before
    /// the symbolic proof; each is justified by sampled monotonicity.
    pub corner_subst: Vec<(&'static str, Expr)>,
    /// `true` when the ranges enumerate the site's entire domain (so an
    /// exhaustive pass alone is a complete proof).
    pub finite_domain: bool,
}

/// Proof outcome for one site.
#[derive(Clone, Debug)]
pub struct SiteProof {
    /// Site identifier.
    pub name: &'static str,
    /// Source location description.
    pub place: &'static str,
    /// Discharge method, or `None` if the inequality was refuted.
    pub method: Option<Method>,
    /// Counterexample assignment when refuted.
    pub witness: Option<String>,
    /// Assignments enumerated during validation.
    pub checked: usize,
    /// Interval of `need` over the declared ranges.
    pub need_range: (i128, i128),
    /// Interval of `cap` over the declared ranges.
    pub cap_range: (i128, i128),
}

/// Full bounds-checker result.
#[derive(Debug, Default)]
pub struct BoundsReport {
    /// One proof per site.
    pub proofs: Vec<SiteProof>,
    /// Names of the code-linked lemmas that held.
    pub lemmas: Vec<String>,
    /// Lemma failures (empty on a healthy tree).
    pub lemma_failures: Vec<String>,
}

impl BoundsReport {
    /// `true` when every site is proven and every lemma held.
    pub fn ok(&self) -> bool {
        self.lemma_failures.is_empty() && self.proofs.iter().all(|p| p.method.is_some())
    }

    /// Machine-readable JSON proof report.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"sites\": [\n");
        for (i, p) in self.proofs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"place\": \"{}\", \"method\": {}, \
                 \"checked\": {}, \"need\": [{}, {}], \"cap\": [{}, {}]{}}}{}\n",
                p.name,
                p.place,
                match p.method {
                    Some(m) => format!("\"{}\"", m.name()),
                    None => "null".to_string(),
                },
                p.checked,
                p.need_range.0,
                p.need_range.1,
                p.cap_range.0,
                p.cap_range.1,
                match &p.witness {
                    Some(w) => format!(", \"witness\": \"{w}\""),
                    None => String::new(),
                },
                if i + 1 < self.proofs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"lemmas\": [");
        for (i, l) in self.lemmas.iter().enumerate() {
            s.push_str(&format!("\"{l}\"{}", if i + 1 < self.lemmas.len() { ", " } else { "" }));
        }
        s.push_str(&format!("],\n  \"ok\": {}\n}}\n", self.ok()));
        s
    }
}

fn prod_env(
    ranges: &[(&'static str, i128, i128)],
    mut f: impl FnMut(&BTreeMap<&'static str, i128>),
) {
    let mut env: BTreeMap<&'static str, i128> = ranges.iter().map(|&(n, lo, _)| (n, lo)).collect();
    loop {
        f(&env);
        // Odometer increment over the range list.
        let mut i = 0;
        loop {
            if i == ranges.len() {
                return;
            }
            let (name, lo, hi) = ranges[i];
            let cur = env[&name];
            if cur < hi {
                env.insert(name, cur + 1);
                break;
            }
            env.insert(name, lo);
            i += 1;
        }
    }
}

/// Prove one site. Symbolic discharge first (after corner substitution),
/// exhaustive enumeration as both fallback and cross-validation.
pub fn prove_site(site: &Site) -> SiteProof {
    // Corner substitution: replace each constrained variable in `need` by
    // its upper bound. Sound only if `need` is non-decreasing in that
    // variable, which the sampler validates (refutation => no substitution,
    // the symbolic proof is skipped and exhaustion decides).
    let mut need_c = site.need.clone();
    let mut subst_ok = true;
    for (var, ub) in &site.corner_subst {
        if !sampled_nondecreasing(&site.need, var, &site.ranges, 400, 0x5eed_0001) {
            subst_ok = false;
            break;
        }
        need_c = need_c.subst(var, ub);
    }

    let mut method = None;
    if subst_ok {
        if symbolically_equal(&site.cap, &need_c) {
            method = Some(Method::Equality);
        } else if dominates(&site.cap, &need_c) {
            method = Some(Method::Dominance);
        }
    }

    // Exhaustive validation over the declared ranges (also the fallback
    // proof for finite domains, and the refuter for mutant sites).
    let mut checked = 0usize;
    let mut witness: Option<String> = None;
    prod_env(&site.ranges, |env| {
        if witness.is_some() {
            return;
        }
        if let Some(cst) = site.constraint {
            if !cst(env) {
                return;
            }
        }
        checked += 1;
        let need = site.need.eval(env);
        let cap = site.cap.eval(env);
        if need > cap {
            witness = Some(format!("{env:?} => need {need} > cap {cap}"));
        }
    });

    if witness.is_some() {
        method = None; // a concrete counterexample beats any certificate
    } else if method.is_none() && site.finite_domain {
        method = Some(Method::Exhaustive);
    }

    // Interval ranges of need/cap over the raw (unconstrained) boxes, for
    // the report. Conservative: the true reachable set is a subset.
    let iv_env: BTreeMap<&'static str, Iv> =
        site.ranges.iter().map(|&(n, lo, hi)| (n, Iv::new(lo, hi))).collect();
    let niv = site.need.eval_iv(&iv_env);
    let civ = site.cap.eval_iv(&iv_env);

    SiteProof {
        name: site.name,
        place: site.place,
        method,
        witness,
        checked,
        need_range: (niv.lo, niv.hi),
        cap_range: (civ.lo, civ.hi),
    }
}

/// Sliver-tail `need` for a packed panel: highest offset + 1 written by the
/// last sliver, `(ceil(l/r)-1)*r*kl + (kl-1)*r + (r-1) + 1`.
fn packed_tail(l: &'static str, r: &'static str, kl: &'static str) -> Expr {
    v(l)
        .ceil_div(v(r))
        .minus(c(1))
        .times(v(r))
        .times(v(kl))
        .plus(v(kl).minus(c(1)).times(v(r)))
        .plus(v(r).minus(c(1)))
        .plus(c(1))
}

/// `packed_a_size`/`packed_b_size` as an expression: `ceil(l/r)*r*kc`.
fn packed_size(l: Expr, r: &'static str, kc: Expr) -> Expr {
    l.ceil_div(v(r)).times(v(r)).times(kc)
}

/// The executor's per-worker tile bound under the 2D grid:
/// `worker_tile_bound(T, p) = min(T, ceil(T/p) + p - 1)` with
/// `T = ceil(p*mc / mr)` (cake-core/src/workspace.rs). The runtime's
/// `.max(1)` clamp is vacuous on this domain: `p, mc, mr >= 1` forces
/// `T >= 1`, so both `min` arguments are already `>= 1`.
fn exec_tile_bound() -> Expr {
    let tiles = v("p").times(v("mc")).ceil_div(v("mr"));
    tiles.clone().min_e(tiles.ceil_div(v("p")).plus(v("p")).minus(c(1)))
}

/// The executor workspace A stride:
/// `packed_a_size(worker_tile_bound(T, p)*mr, kc, mr)`
/// (cake-core/src/workspace.rs `prepare`).
fn exec_pa_stride() -> Expr {
    packed_size(exec_tile_bound().times(v("mr")), "mr", v("kc"))
}

/// The goto (loops5) effective blockings: `kc_eff = min(kc, k)`,
/// `nc_eff = min(nc, ceil(n/nr)*nr)`, `mc_eff = min(mc, ceil(m/mr)*mr)`.
fn goto_eff(cv: &'static str, rv: &'static str, dimv: &'static str) -> Expr {
    v(cv).min_e(v(dimv).ceil_div(v(rv)).times(v(rv)))
}

/// The site inventory: every raw-pointer offset site in the pack /
/// microkernel / executor / goto data path.
pub fn sites() -> Vec<Site> {
    let small = |n| (n, 1, 3);
    vec![
        // ---- standalone packing (cake-kernels/src/pack.rs) ----
        Site {
            name: "pack_a_sliver_tail",
            place: "cake-kernels/src/pack.rs: pack_a writes dst[s*mr*kl + col*mr + row]",
            need: packed_tail("ml", "mr", "kl"),
            cap: packed_size(v("ml"), "mr", v("kl")),
            ranges: vec![("ml", 1, 7), ("mr", 1, 4), ("kl", 1, 4)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "pack_b_sliver_tail",
            place: "cake-kernels/src/pack.rs: pack_b writes dst[t*nr*kl + row*nr + col]",
            need: packed_tail("nl", "nr", "kl"),
            cap: packed_size(v("nl"), "nr", v("kl")),
            ranges: vec![("nl", 1, 7), ("nr", 1, 4), ("kl", 1, 4)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "pack_b_krow_block",
            place: "cake-kernels/src/pack.rs pack_b_full_slivers and cake-dnn/src/im2col.rs \
                    LoweredConv::pack_slivers: a block of kn <= kl - kb k-rows of sliver \
                    t < ceil(nl/nr), dst[t*nr*kl + kb*nr .. t*nr*kl + (kb+kn)*nr]",
            need: v("nl")
                .ceil_div(v("nr"))
                .minus(c(1))
                .times(v("nr"))
                .times(v("kl"))
                .plus(v("kb").plus(v("kn")).times(v("nr"))),
            cap: packed_size(v("nl"), "nr", v("kl")),
            ranges: vec![("nl", 1, 7), ("nr", 1, 4), ("kl", 1, 5), ("kb", 0, 4), ("kn", 1, 5)],
            constraint: Some(|e| e["kb"] + e["kn"] <= e["kl"]),
            corner_subst: vec![("kn", v("kl").minus(v("kb")))],
            finite_domain: false,
        },
        // ---- tile-layout packing (cake-kernels/src/pack.rs, im2col.rs) ----
        // The tile layout pads K to kp = 64q. An A sliver holds q k-steps
        // of mr rows x 64; the innermost write is row i < mr of step
        // st < q of sliver s < ceil(ml/mr), 64 elements.
        Site {
            name: "pack_a_tile_rows",
            place: "cake-kernels/src/pack.rs: pack_a_tiles carves dst[s*mr*kp ..][..mr*kp] and \
                    writes row i of step st at st*mr*64 + i*64, 64 elements, kp = 64q",
            need: v("ml")
                .ceil_div(v("mr"))
                .minus(c(1))
                .times(v("mr"))
                .times(c(64).times(v("q")))
                .plus(v("q").minus(c(1)).times(v("mr")).times(c(64)))
                .plus(v("mr").minus(c(1)).times(c(64)))
                .plus(c(64)),
            cap: packed_size(v("ml"), "mr", c(64).times(v("q"))),
            ranges: vec![("ml", 1, 7), ("mr", 1, 4), ("q", 1, 3)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        // B slivers are nr*kp apart: pack_b_tiles and LoweredConv carve
        // sliver t < ceil(nl/nr) as dst[t*nr*kp .. (t+1)*nr*kp].
        Site {
            name: "pack_b_tile_sliver",
            place: "cake-kernels/src/pack.rs pack_b_tiles and cake-dnn/src/im2col.rs \
                    LoweredConv::pack_slivers: sliver t < ceil(nl/nr) at dst[t*nr*kp..(t+1)*nr*kp]",
            need: v("nl")
                .ceil_div(v("nr"))
                .minus(c(1))
                .times(v("nr"))
                .times(c(64).times(v("q")))
                .plus(v("nr").times(c(64).times(v("q")))),
            cap: packed_size(v("nl"), "nr", c(64).times(v("q"))),
            ranges: vec![("nl", 1, 7), ("nr", 1, 4), ("q", 1, 3)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        // put_b_tile_rows writes the 4 tile rows (256 elements) holding
        // sliver rows kb..kb+16 of column tile ct < w, nr = 16w, at
        // (kb/64)*nr*64 + (kb%64/4)*64 + ct*1024 inside one nr*kp sliver:
        // step st = kb/64 < q, block g = kb%64/16 < 4.
        Site {
            name: "pack_b_tile_rows",
            place: "cake-kernels/src/pack.rs: put_b_tile_rows sliv[st*nr*64 + g*256 + ct*1024..][..256], \
                    nr = 16w, st < q, g < 4, ct < w, sliver nr*64q",
            need: v("st")
                .times(c(16).times(v("w")))
                .times(c(64))
                .plus(v("g").times(c(256)))
                .plus(v("ct").times(c(1024)))
                .plus(c(256)),
            cap: c(16).times(v("w")).times(c(64)).times(v("q")),
            ranges: vec![("st", 0, 3), ("q", 1, 4), ("g", 0, 3), ("ct", 0, 2), ("w", 1, 3)],
            constraint: Some(|e| e["st"] < e["q"] && e["ct"] < e["w"]),
            corner_subst: vec![("st", v("q").minus(c(1))), ("g", c(3)), ("ct", v("w").minus(c(1)))],
            finite_domain: false,
        },
        // ---- pipelined executor (cake-core/src/executor.rs) ----
        // Sliver offsets and panel sizes use the kernel layout's padded
        // depth: kl and kc below stand for layout.k_padded(kl) and
        // layout.k_padded(kc), and k_padded is nondecreasing (lemma
        // sliver_offsets_linear), so kl <= kc carries over.
        Site {
            name: "exec_pb_sliver_write",
            place: "cake-core/src/executor.rs: pack_b_coop pb_base.add(layout.b_offset(start, kl)), \
                    len (end-start)*nr*kl for a share start..end <= ceil(nl/nr)",
            need: v("nl").ceil_div(v("nr")).times(v("nr")).times(v("kl")),
            cap: packed_size(v("nc"), "nr", v("kc")),
            ranges: vec![("nl", 1, 4), ("nc", 1, 4), ("kl", 1, 3), ("kc", 1, 3), small("nr")],
            constraint: Some(|e| e["nl"] <= e["nc"] && e["kl"] <= e["kc"]),
            corner_subst: vec![("nl", v("nc")), ("kl", v("kc"))],
            finite_domain: false,
        },
        Site {
            name: "exec_pb_sliver_read",
            place: "cake-core/src/executor.rs: compute pb_base.add(layout.b_offset(t, kl)) kernel reads",
            need: v("nl").ceil_div(v("nr")).times(v("nr")).times(v("kl")),
            cap: packed_size(v("nc"), "nr", v("kc")),
            ranges: vec![("nl", 1, 4), ("nc", 1, 4), ("kl", 1, 3), ("kc", 1, 3), small("nr")],
            constraint: Some(|e| e["nl"] <= e["nc"] && e["kl"] <= e["kc"]),
            corner_subst: vec![("nl", v("nc")), ("kl", v("kc"))],
            finite_domain: false,
        },
        Site {
            name: "exec_pa_strip",
            place: "cake-core/src/executor.rs: packed_a.base_ptr().add(wid*pa_stride), len pa_stride",
            need: v("wid").plus(c(1)).times(v("s")),
            cap: v("p").times(v("s")),
            ranges: vec![("wid", 0, 3), ("p", 1, 4), ("s", 1, 5)],
            constraint: Some(|e| e["wid"] < e["p"]),
            corner_subst: vec![("wid", v("p").minus(c(1)))],
            finite_domain: false,
        },
        Site {
            name: "exec_pa_pack",
            place: "cake-core/src/executor.rs: pack_a_own fills a worker strip of pa_stride",
            need: v("tiles").times(v("mr")).times(v("kl")),
            cap: exec_pa_stride(),
            ranges: vec![("tiles", 0, 9), small("mr"), small("mc"), small("kc"), ("kl", 1, 3), small("p")],
            constraint: Some(|e| {
                let t = div_ceil_i(e["p"] * e["mc"], e["mr"]);
                let bound = t.min(div_ceil_i(t, e["p"]) + e["p"] - 1);
                e["tiles"] <= bound && e["kl"] <= e["kc"]
            }),
            corner_subst: vec![("tiles", exec_tile_bound()), ("kl", v("kc"))],
            finite_domain: false,
        },
        Site {
            name: "exec_pa_read",
            place: "cake-core/src/executor.rs: compute pa_ptr.add(layout.a_offset(s, kl)) kernel reads",
            need: v("tiles").times(v("mr")).times(v("kl")),
            cap: exec_pa_stride(),
            ranges: vec![("tiles", 0, 9), small("mr"), small("mc"), small("kc"), ("kl", 1, 3), small("p")],
            constraint: Some(|e| {
                let t = div_ceil_i(e["p"] * e["mc"], e["mr"]);
                let bound = t.min(div_ceil_i(t, e["p"]) + e["p"] - 1);
                e["tiles"] <= bound && e["kl"] <= e["kc"]
            }),
            corner_subst: vec![("tiles", exec_tile_bound()), ("kl", v("kc"))],
            finite_domain: false,
        },
        Site {
            name: "exec_c_tile",
            place: "cake-core/src/executor.rs: out.get().add(row*rsc + col*csc) tile accumulate",
            need: v("rm")
                .minus(c(1))
                .times(v("rsc"))
                .plus(v("cn").minus(c(1)).times(v("csc")))
                .plus(c(1)),
            cap: v("m")
                .minus(c(1))
                .times(v("rsc"))
                .plus(v("n").minus(c(1)).times(v("csc")))
                .plus(c(1)),
            ranges: vec![("rm", 1, 4), ("cn", 1, 4), ("m", 1, 4), ("n", 1, 4), small("rsc"), small("csc")],
            constraint: Some(|e| e["rm"] <= e["m"] && e["cn"] <= e["n"]),
            corner_subst: vec![("rm", v("m")), ("cn", v("n"))],
            finite_domain: false,
        },
        // ---- microkernels (cake-kernels/src/{ukernel,edge}.rs) ----
        Site {
            name: "ukr_a_sliver_read",
            place: "cake-kernels/src/ukernel.rs: generic_ukr a.add(kk*mr + i)",
            need: v("kc").minus(c(1)).times(v("mr")).plus(v("mr").minus(c(1))).plus(c(1)),
            cap: v("kc").times(v("mr")),
            ranges: vec![("kc", 1, 6), ("mr", 1, 6)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "ukr_b_sliver_read",
            place: "cake-kernels/src/ukernel.rs: generic_ukr b.add(kk*nr + j)",
            need: v("kc").minus(c(1)).times(v("nr")).plus(v("nr").minus(c(1))).plus(c(1)),
            cap: v("kc").times(v("nr")),
            ranges: vec![("kc", 1, 6), ("nr", 1, 6)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "edge_scratch_tile",
            place: "cake-kernels/src/edge.rs: run_tile tile = scratch[..mr*nr], tile[i*nr + j], scratch len MAX_TILE",
            need: v("mr").times(v("nr")),
            cap: c(cake_kernels::edge::MAX_TILE as i128),
            // The entire declared kernel-shape domain: every selectable
            // kernel fits in mr <= 32, nr <= 32, where the AMX int8 32x32
            // tile saturates MAX_TILE exactly. Lemma L6 ties this box to
            // the real REGISTERED_SHAPES.
            ranges: vec![("mr", 1, 32), ("nr", 1, 32)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: true,
        },
        // ---- AVX-512 microkernels (cake-kernels/src/avx512.rs) ----
        // The tile shapes are compile-time constants (f32: 14x32,
        // f64: 8x16), so `need` closes over kc alone and the inequalities
        // discharge by structural equality: the innermost read is
        // a[(kc-1)*MR + (MR-1)] and b[(kc-1)*NR + (NR-1)], one past which
        // is exactly the kc*MR / kc*NR sliver length the UkrFn contract
        // guarantees.
        Site {
            name: "avx512_f32_a_read",
            place: "cake-kernels/src/avx512.rs: f32 kernel a.add(k*14 + i), i < 14",
            need: v("kc").minus(c(1)).times(c(14)).plus(c(13)).plus(c(1)),
            cap: v("kc").times(c(14)),
            ranges: vec![("kc", 1, 8)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "avx512_f32_b_read",
            place: "cake-kernels/src/avx512.rs: f32 kernel _mm512_loadu_ps(b.add(k*32 + 16))",
            need: v("kc").minus(c(1)).times(c(32)).plus(c(31)).plus(c(1)),
            cap: v("kc").times(c(32)),
            ranges: vec![("kc", 1, 8)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "avx512_f64_a_read",
            place: "cake-kernels/src/avx512.rs: f64 kernel a.add(k*8 + i), i < 8",
            need: v("kc").minus(c(1)).times(c(8)).plus(c(7)).plus(c(1)),
            cap: v("kc").times(c(8)),
            ranges: vec![("kc", 1, 8)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "avx512_f64_b_read",
            place: "cake-kernels/src/avx512.rs: f64 kernel _mm512_loadu_pd(b.add(k*16 + 8))",
            need: v("kc").minus(c(1)).times(c(16)).plus(c(15)).plus(c(1)),
            cap: v("kc").times(c(16)),
            ranges: vec![("kc", 1, 8)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        // The prefetch addresses are clamped `kpf = (k + PF_DIST_K).min(kc-1)`
        // before the pointer add, so the computed pointer never leaves the
        // sliver even on the last K iterations. Prefetch itself cannot
        // fault, but the *pointer arithmetic* must stay in bounds — that
        // is what these sites prove. The AVX2 kernels share the identical
        // clamp (avx2.rs imports PF_DIST_K), so the f32 B case below —
        // the farthest-reaching prefetch, second 16-lane vector — covers
        // the whole family's worst corner.
        Site {
            name: "avx512_prefetch_a",
            place: "cake-kernels/src/avx512.rs: _mm_prefetch(a.add(kpf*14)), kpf <= kc-1",
            need: v("kpf").times(c(14)).plus(c(1)),
            cap: v("kc").times(c(14)),
            ranges: vec![("kpf", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["kpf"] < e["kc"]),
            corner_subst: vec![("kpf", v("kc").minus(c(1)))],
            finite_domain: false,
        },
        Site {
            name: "avx512_prefetch_b_second_vec",
            place: "cake-kernels/src/avx512.rs: _mm_prefetch(b.add(kpf*32 + 16)), kpf <= kc-1",
            need: v("kpf").times(c(32)).plus(c(16)).plus(c(1)),
            cap: v("kc").times(c(32)),
            ranges: vec![("kpf", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["kpf"] < e["kc"]),
            corner_subst: vec![("kpf", v("kc").minus(c(1)))],
            finite_domain: false,
        },
        Site {
            name: "avx512_spill_lanes",
            place: "cake-kernels/src/avx512.rs: strided-C spill, two storeu into lanes[NR]",
            // Both kernels spill a full accumulator row into a stack array
            // before scalar C writes: f32 writes 16+16 floats into
            // [f32; 32], f64 writes 8+8 into [f64; 16]. Constant domain:
            // the second store's one-past-end equals the array length.
            need: c(16).plus(c(16)),
            cap: c(32),
            ranges: vec![],
            constraint: None,
            corner_subst: vec![],
            finite_domain: true,
        },
        // ---- narrow-dtype microkernels (avx512.rs / avx2.rs) ----
        // The VNNI int8 kernel consumes K in groups of four: each group
        // load reads the 64 bytes at byte offset k0*16 (MR = NR = 16, one
        // byte per i8), with the loop guaranteeing k0 + 4 <= kc. The same
        // site covers the A and B loads — identical offset and extent.
        Site {
            name: "avx512_vnni_group_read",
            place: "cake-kernels/src/avx512.rs: vnni i8 64B group load a/b.add(k0*16), k0+4 <= kc",
            need: v("k0").times(c(16)).plus(c(64)),
            cap: v("kc").times(c(16)),
            ranges: vec![("k0", 0, 8), ("kc", 1, 12)],
            constraint: Some(|e| e["k0"] + 4 <= e["kc"]),
            corner_subst: vec![("k0", v("kc").minus(c(4)))],
            finite_domain: false,
        },
        // The K tail is byte-masked to rem*16 live bytes at offset k0*16,
        // with k0 = kc - rem by construction: the masked extent ends at
        // exactly kc*16, the packed sliver length.
        Site {
            name: "avx512_vnni_tail_read",
            place: "cake-kernels/src/avx512.rs: vnni i8 masked tail load, rem*16 bytes at k0*16",
            need: v("k0").plus(v("rem")).times(c(16)),
            cap: v("kc").times(c(16)),
            ranges: vec![("k0", 0, 9), ("rem", 1, 3), ("kc", 1, 12)],
            constraint: Some(|e| e["k0"] + e["rem"] == e["kc"]),
            corner_subst: vec![("k0", v("kc").minus(v("rem")))],
            finite_domain: false,
        },
        // Contiguous-C fast path: a full 16-lane i32 row load/store at
        // c + i*rsc. One past its last lane is i*rsc + 16; the UkrFn
        // contract (csc = 1, i < 16, j < 16) makes 15*rsc + 16 the cap.
        Site {
            name: "avx512_vnni_c_row_vec",
            place: "cake-kernels/src/avx512.rs: vnni i8 C row vector, c.add(i*rsc) 16 lanes",
            need: v("i").times(v("rsc")).plus(c(16)),
            cap: c(15).times(v("rsc")).plus(c(16)),
            ranges: vec![("i", 0, 15), ("rsc", 1, 3)],
            constraint: None,
            corner_subst: vec![("i", c(15))],
            finite_domain: false,
        },
        // The bf16 kernel loads one full 32-element B row per K step
        // (64 bytes at word offset k0*32) and a 14-word-masked A row
        // (offset k0*14), both guarded by k0 < kc.
        Site {
            name: "avx512_bf16_b_row_read",
            place: "cake-kernels/src/avx512.rs: bf16 B row load b.add(k0*32), k0 < kc",
            need: v("k0").plus(c(1)).times(c(32)),
            cap: v("kc").times(c(32)),
            ranges: vec![("k0", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["k0"] < e["kc"]),
            corner_subst: vec![("k0", v("kc").minus(c(1)))],
            finite_domain: false,
        },
        Site {
            name: "avx512_bf16_a_row_read",
            place: "cake-kernels/src/avx512.rs: bf16 A masked row load a.add(k0*14), 14 live words",
            need: v("k0").times(c(14)).plus(c(14)),
            cap: v("kc").times(c(14)),
            ranges: vec![("k0", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["k0"] < e["kc"]),
            corner_subst: vec![("k0", v("kc").minus(c(1)))],
            finite_domain: false,
        },
        // Contiguous-C fast path: two 16-lane f32 vectors per row, the
        // second at row + 16, reaching i*rsc + 32; cap from the contract's
        // (i < 14, j < 32, csc = 1) corner.
        Site {
            name: "avx512_bf16_c_row_pair",
            place: "cake-kernels/src/avx512.rs: bf16 C row pair, loadu_ps(row) + loadu_ps(row+16)",
            need: v("i").times(v("rsc")).plus(c(32)),
            cap: c(13).times(v("rsc")).plus(c(32)),
            ranges: vec![("i", 0, 13), ("rsc", 1, 3)],
            constraint: None,
            corner_subst: vec![("i", c(13))],
            finite_domain: false,
        },
        // AVX2 narrow kernels (i8 4x8 and bf16 4x8) read one 8-element B
        // row per K step (8 bytes / 16 bytes, element offsets identical)
        // and 4 scalar A elements at k*4 + i, i < 4.
        Site {
            name: "avx2_narrow_b_row_read",
            place: "cake-kernels/src/avx2.rs: i8/bf16 B row load b.add(k*8), 8 elements, k < kc",
            need: v("k").times(c(8)).plus(c(8)),
            cap: v("kc").times(c(8)),
            ranges: vec![("k", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["k"] < e["kc"]),
            corner_subst: vec![("k", v("kc").minus(c(1)))],
            finite_domain: false,
        },
        Site {
            name: "avx2_narrow_a_read",
            place: "cake-kernels/src/avx2.rs: i8/bf16 A scalar reads a.add(k*4 + i), i < 4, k < kc",
            need: v("k").times(c(4)).plus(c(4)),
            cap: v("kc").times(c(4)),
            ranges: vec![("k", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["k"] < e["kc"]),
            corner_subst: vec![("k", v("kc").minus(c(1)))],
            finite_domain: false,
        },
        // Contiguous-C fast path: one 8-lane vector per row at c + i*rsc,
        // i < 4 from the 4x8 tile contract.
        Site {
            name: "avx2_narrow_c_row_vec",
            place: "cake-kernels/src/avx2.rs: i8/bf16 C row vector, c.add(i*rsc) 8 lanes",
            need: v("i").times(v("rsc")).plus(c(8)),
            cap: c(3).times(v("rsc")).plus(c(8)),
            ranges: vec![("i", 0, 3), ("rsc", 1, 3)],
            constraint: None,
            corner_subst: vec![("i", c(3))],
            finite_domain: false,
        },
        // ---- AMX int8 microkernel (cake-kernels/src/amx.rs) ----
        // Step st < steps loads A tiles at a + st*2048 and + 1024, each 16
        // rows of 64 bytes (stride 64): the last byte of step st is
        // st*2048 + 1024 + 15*64 + 63. The contract gives a sliver of
        // 32 rows x 64 bytes per step.
        Site {
            name: "amx_a_tile_load",
            place: "cake-kernels/src/amx.rs: tileloadd tmm4/tmm5 [a + st*2048 (+1024)], 16 rows x 64 B, stride 64",
            need: v("st").times(c(2048)).plus(c(1024)).plus(c(15 * 64)).plus(c(64)),
            cap: c(32 * 64).times(v("steps")),
            ranges: vec![("st", 0, 7), ("steps", 1, 8)],
            constraint: Some(|e| e["st"] < e["steps"]),
            corner_subst: vec![("st", v("steps").minus(c(1)))],
            finite_domain: false,
        },
        // The same for the two 16-column B tiles of a 32-wide sliver.
        Site {
            name: "amx_b_tile_load",
            place: "cake-kernels/src/amx.rs: tileloadd tmm6/tmm7 [b + st*2048 (+1024)], 16 rows x 64 B, stride 64",
            need: v("st").times(c(2048)).plus(c(1024)).plus(c(15 * 64)).plus(c(64)),
            cap: c(32 * 64).times(v("steps")),
            ranges: vec![("st", 0, 7), ("steps", 1, 8)],
            constraint: Some(|e| e["st"] < e["steps"]),
            corner_subst: vec![("st", v("steps").minus(c(1)))],
            finite_domain: false,
        },
        // C tile (h, vv), h, vv < 2, is rows 16h..16h+16 at columns
        // 16vv..16vv+16, rows rs i32 apart: tileloadd/tilestored at
        // c + 16h*rs + 16vv. Its last element is (16h + 15)*rs + 16vv + 15;
        // the contract (i, j < 32, csc = 1) caps C at 31*rs + 32.
        Site {
            name: "amx_c_tile",
            place: "cake-kernels/src/amx.rs: tileloadd/tilestored tmm0-3 [c + 16h*rs + 16vv], 16 rows x 16 i32",
            need: v("h")
                .times(c(16))
                .plus(c(15))
                .times(v("rs"))
                .plus(v("vv").times(c(16)))
                .plus(c(16)),
            cap: c(31).times(v("rs")).plus(c(32)),
            ranges: vec![("h", 0, 1), ("vv", 0, 1), ("rs", 1, 40)],
            constraint: None,
            corner_subst: vec![("h", c(1)), ("vv", c(1))],
            finite_domain: false,
        },
        // ---- goto baseline (cake-goto/src/loops5.rs) ----
        Site {
            name: "goto_pb_sliver",
            place: "cake-goto/src/loops5.rs: pb_base.add(layout.b_offset(t, kl)), len nr*kl (kl padded as the layout pads it)",
            need: v("nl").ceil_div(v("nr")).times(v("nr")).times(v("kl")),
            cap: packed_size(goto_eff("nc", "nr", "n"), "nr", v("kc").min_e(v("k"))),
            ranges: vec![
                ("nl", 1, 4),
                small("nr"),
                small("nc"),
                ("n", 1, 4),
                ("kl", 1, 4),
                small("kc"),
                ("k", 1, 4),
            ],
            constraint: Some(|e| {
                let nc_eff = e["nc"].min(div_ceil_i(e["n"], e["nr"]) * e["nr"]);
                let kc_eff = e["kc"].min(e["k"]);
                e["nl"] <= nc_eff.min(e["n"]) && e["kl"] <= kc_eff
            }),
            corner_subst: vec![
                ("nl", goto_eff("nc", "nr", "n").min_e(v("n"))),
                ("kl", v("kc").min_e(v("k"))),
            ],
            finite_domain: false,
        },
        Site {
            name: "goto_pa_pack",
            place: "cake-goto/src/loops5.rs: pack_a into a worker strip of pa_stride",
            need: v("ml").ceil_div(v("mr")).times(v("mr")).times(v("kl")),
            cap: packed_size(goto_eff("mc", "mr", "m"), "mr", v("kc").min_e(v("k"))),
            ranges: vec![
                ("ml", 1, 4),
                small("mr"),
                small("mc"),
                ("m", 1, 4),
                ("kl", 1, 4),
                small("kc"),
                ("k", 1, 4),
            ],
            constraint: Some(|e| {
                let mc_eff = e["mc"].min(div_ceil_i(e["m"], e["mr"]) * e["mr"]);
                let kc_eff = e["kc"].min(e["k"]);
                e["ml"] <= mc_eff.min(e["m"]) && e["kl"] <= kc_eff
            }),
            corner_subst: vec![
                ("ml", goto_eff("mc", "mr", "m").min_e(v("m"))),
                ("kl", v("kc").min_e(v("k"))),
            ],
            finite_domain: false,
        },
        Site {
            name: "goto_pa_strip",
            place: "cake-goto/src/loops5.rs: packed_a.base_ptr().add(wid*pa_stride), len pa_stride",
            need: v("wid").plus(c(1)).times(v("s")),
            cap: v("p").times(v("s")),
            ranges: vec![("wid", 0, 3), ("p", 1, 4), ("s", 1, 5)],
            constraint: Some(|e| e["wid"] < e["p"]),
            corner_subst: vec![("wid", v("p").minus(c(1)))],
            finite_domain: false,
        },
        Site {
            name: "goto_c_tile",
            place: "cake-goto/src/loops5.rs: run_tile C pointer (ir+i)*rsc + (jr+j)*csc",
            need: v("rm")
                .minus(c(1))
                .times(v("rsc"))
                .plus(v("cn").minus(c(1)).times(v("csc")))
                .plus(c(1)),
            cap: v("m")
                .minus(c(1))
                .times(v("rsc"))
                .plus(v("n").minus(c(1)).times(v("csc")))
                .plus(c(1)),
            ranges: vec![("rm", 1, 4), ("cn", 1, 4), ("m", 1, 4), ("n", 1, 4), small("rsc"), small("csc")],
            constraint: Some(|e| e["rm"] <= e["m"] && e["cn"] <= e["n"]),
            corner_subst: vec![("rm", v("m")), ("cn", v("n"))],
            finite_domain: false,
        },
    ]
}

/// Seeded mutant sites: each encodes a classic off-by-one and must be
/// **refuted** with a concrete witness, proving the checker has teeth.
pub fn mutant_sites() -> Vec<Site> {
    vec![
        Site {
            name: "mutant_pack_tail_off_by_one",
            place: "seeded: pack tail writes one element past the panel",
            need: packed_tail("ml", "mr", "kl").plus(c(1)),
            cap: packed_size(v("ml"), "mr", v("kl")),
            ranges: vec![("ml", 1, 7), ("mr", 1, 4), ("kl", 1, 4)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "mutant_strip_unclamped_wid",
            place: "seeded: worker strip indexed with wid <= p (missing wid < p clamp)",
            need: v("wid").plus(c(1)).times(v("s")),
            cap: v("p").times(v("s")),
            ranges: vec![("wid", 0, 4), ("p", 1, 4), ("s", 1, 5)],
            constraint: Some(|e| e["wid"] <= e["p"]),
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "mutant_avx512_b_off_by_one",
            place: "seeded: AVX-512 f32 B load as if the sliver held one extra element",
            // The second 16-lane load issued from b.add(k*32 + 17) instead
            // of +16 — the last lane of the last K iteration reads
            // b[kc*32], one past the packed sliver. Refuted at kc = 1.
            need: v("kc").minus(c(1)).times(c(32)).plus(c(32)).plus(c(1)),
            cap: v("kc").times(c(32)),
            ranges: vec![("kc", 1, 8)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "mutant_vnni_group_guard_slipped",
            place: "seeded: vnni i8 group loop guarded k0+3 <= kc instead of k0+4 <= kc",
            // The 64-byte group load still reads 4 K rows; admitting
            // k0 = kc-3 makes the last group read 16 bytes past the
            // sliver. Refuted at (k0, kc) = (0, 3).
            need: v("k0").times(c(16)).plus(c(64)),
            cap: v("kc").times(c(16)),
            ranges: vec![("k0", 0, 8), ("kc", 1, 12)],
            constraint: Some(|e| e["k0"] + 3 <= e["kc"]),
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "mutant_bf16_tail_reads_pair_row",
            place: "seeded: bf16 odd-K tail loads row k0+1 instead of a zero register",
            // Pairing the final K row with a real load of the next row
            // reads one full 32-word row past the sliver. Refuted at
            // k0 = kc-1.
            need: v("k0").plus(c(2)).times(c(32)),
            cap: v("kc").times(c(32)),
            ranges: vec![("k0", 0, 7), ("kc", 1, 8)],
            constraint: Some(|e| e["k0"] < e["kc"]),
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "mutant_amx_b_tile_stride_off_by_64",
            place: "seeded: AMX B tile loaded with a 128-byte row stride instead of 64",
            // Row 15 of the second B tile then sits 15*64 bytes further:
            // the last k-step reads past the sliver. Refuted at st = 0.
            need: v("st").times(c(2048)).plus(c(1024)).plus(c(15 * 128)).plus(c(64)),
            cap: c(32 * 64).times(v("steps")),
            ranges: vec![("st", 0, 7), ("steps", 1, 8)],
            constraint: Some(|e| e["st"] < e["steps"]),
            corner_subst: vec![],
            finite_domain: false,
        },
        Site {
            name: "mutant_sliver_unpadded_buffer",
            place: "seeded: panel sized for nl columns without ceil-to-nr zero padding",
            // The pack tail always writes the zero-padded ceil(nl/nr)*nr*kl
            // region; a buffer sized nl*kl loses the padding columns.
            need: v("nl").ceil_div(v("nr")).times(v("nr")).times(v("kl")),
            cap: v("nl").times(v("kl")),
            ranges: vec![("nl", 1, 7), ("nr", 1, 4), ("kl", 1, 4)],
            constraint: None,
            corner_subst: vec![],
            finite_domain: false,
        },
    ]
}

/// Exhaustive code-linked lemmas: validate, against the *real* workspace
/// functions, every constraint the corner substitutions assumed.
pub fn lemmas() -> (Vec<String>, Vec<String>) {
    let mut held = Vec::new();
    let mut failed = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        if ok {
            held.push(name.to_string());
        } else {
            failed.push(format!("{name}: {detail}"));
        }
    };

    // L1: split_range produces contiguous, disjoint, covering ranges with
    // every part at most ceil(total/parts) long.
    {
        let mut ok = true;
        let mut detail = String::new();
        'l1: for total in 0usize..=40 {
            for parts in 1usize..=8 {
                let mut next = 0usize;
                for idx in 0..parts {
                    let r = split_range(total, parts, idx);
                    if r.start != next || r.len() > total.div_ceil(parts) {
                        ok = false;
                        detail = format!("total={total} parts={parts} idx={idx} r={r:?}");
                        break 'l1;
                    }
                    next = r.end;
                }
                if next != total {
                    ok = false;
                    detail = format!("total={total} parts={parts}: union ends at {next}");
                    break 'l1;
                }
            }
        }
        check("split_range_balanced_partition", ok, detail);
    }

    // L2: the 2D worker grid tiles every block exactly. worker_grid yields
    // (pm, pn) with pm*pn == p; the worker_rows strips over the pm row
    // groups are disjoint and cover [0, ml); and no strip's tile count
    // exceeds worker_tile_bound(T, p) for the sizing maximum T = ceil(bm/mr)
    // — the bound the exec_pa_pack/exec_pa_read sites substitute as the
    // corner. The bound is also nondecreasing in the block height, so
    // sizing for the largest block covers every partial edge block.
    {
        let mut ok = true;
        let mut detail = String::new();
        'l2: for p in 1usize..=6 {
            for mc in 1usize..=4 {
                for mr in 1usize..=4 {
                    let bm = p * mc;
                    let cap_tiles = worker_tile_bound(bm.div_ceil(mr), p);
                    if cap_tiles > worker_tile_bound((bm + 1).div_ceil(mr), p) {
                        ok = false;
                        detail = format!("bound not monotone at bm={bm} mr={mr} p={p}");
                        break 'l2;
                    }
                    for ml in 0..=bm {
                        let (pm, pn) = worker_grid(p, ml.div_ceil(mr));
                        if pm * pn != p {
                            ok = false;
                            detail = format!("grid {pm}x{pn} != p={p} at ml={ml} mr={mr}");
                            break 'l2;
                        }
                        let mut covered = 0usize;
                        for wm in 0..pm {
                            let Some((row0, rows)) = worker_rows(ml, mr, pm, wm) else {
                                continue;
                            };
                            let tiles = rows.div_ceil(mr);
                            if row0 != covered || row0 + rows > ml || tiles > cap_tiles || rows == 0
                            {
                                ok = false;
                                detail = format!(
                                    "bm={bm} ml={ml} mr={mr} p={p} grid={pm}x{pn} wm={wm}: \
                                     row0={row0} rows={rows} tiles={tiles} cap={cap_tiles}"
                                );
                                break 'l2;
                            }
                            covered = row0 + rows;
                        }
                        if covered != ml {
                            ok = false;
                            detail =
                                format!("bm={bm} ml={ml} mr={mr} p={p}: strips cover {covered}");
                            break 'l2;
                        }
                    }
                }
            }
        }
        check("worker_grid_cover_and_tile_bound", ok, detail);
    }

    // L3: the sliver-offset helpers match the model's linear formulas, and
    // every kernel layout's offsets are those formulas over its padded
    // depth: kp = kc (k-major) or kc rounded up to 64 (tiles), which is
    // nondecreasing in kc and never below it — what the executor sites'
    // kl <= kc constraint needs of the padded depths.
    {
        let mut ok = true;
        let mut detail = String::new();
        let layouts = |r: usize| {
            let mut out = vec![PackLayout::k_major(r, r)];
            if r.is_multiple_of(16) {
                out.push(PackLayout::tiles(r, r));
            }
            out
        };
        'l3: for s in 0usize..=6 {
            for kc in 0usize..=130 {
                for r in [1usize, 2, 3, 4, 5, 16, 32] {
                    if a_sliver_offset(s, kc, r) != s * r * kc {
                        ok = false;
                        detail = format!("a_sliver_offset({s},{kc},{r})");
                        break 'l3;
                    }
                    if b_sliver_offset(s, kc, r) != s * r * kc {
                        ok = false;
                        detail = format!("b_sliver_offset({s},{kc},{r})");
                        break 'l3;
                    }
                    for l in layouts(r) {
                        let kp = l.k_padded(kc);
                        if kp < kc
                            || l.k_padded(kc + 1) < kp
                            || l.a_offset(s, kc) != s * r * kp
                            || l.b_offset(s, kc) != s * r * kp
                        {
                            ok = false;
                            detail = format!("{l:?} s={s} kc={kc}: kp={kp}");
                            break 'l3;
                        }
                    }
                }
            }
        }
        check("sliver_offsets_linear", ok, detail);
    }

    // L4: packed_{a,b}_size and the k-major layout's a_size/b_size match
    // the model's ceil(l/r)*r*k, and the tile layout's match
    // ceil(l/r)*r*kp, kp the depth padded to 64 (including the zero-extent
    // special case, where all are 0). The tile extents run past several
    // 16- and 32-wide slivers.
    {
        let mut ok = true;
        let mut detail = String::new();
        'l4: for l in 0usize..=8 {
            for kx in 0usize..=70 {
                for r in 1usize..=4 {
                    let model = if l == 0 || kx == 0 { 0 } else { l.div_ceil(r) * r * kx };
                    if packed_a_size(l, kx, r) != model || packed_b_size(kx, l, r) != model {
                        ok = false;
                        detail = format!("l={l} k={kx} r={r}");
                        break 'l4;
                    }
                    let km = PackLayout::k_major(r, r);
                    if km.a_size(l, kx) != model || km.b_size(kx, l) != model {
                        ok = false;
                        detail = format!("k-major layout l={l} k={kx} r={r}");
                        break 'l4;
                    }
                }
            }
        }
        'l4t: for l in 0usize..=70 {
            for kx in 0usize..=130 {
                let kp = kx.next_multiple_of(64);
                for (mr, nr) in [(16usize, 16usize), (16, 32), (32, 16), (32, 32)] {
                    let tiles = PackLayout::tiles(mr, nr);
                    let model = |r: usize| if l == 0 || kx == 0 { 0 } else { l.div_ceil(r) * r * kp };
                    if tiles.a_size(l, kx) != model(mr) || tiles.b_size(kx, l) != model(nr) {
                        ok = false;
                        detail = format!("tile layout l={l} k={kx} mr={mr} nr={nr}");
                        break 'l4t;
                    }
                }
            }
        }
        check("packed_sizes_match_model", ok, detail);
    }

    // L5: exhaustive small-extent executor replay. Walk the real K-first
    // schedule over real block grids and check, for every block and worker,
    // that the packed-A strip demand and the B-panel sliver demand fit the
    // workspace's pa_stride / pb_len (the exact formulas from
    // GemmWorkspace::prepare).
    {
        let mut ok = true;
        let mut detail = String::new();
        let mut replays = 0usize;
        'l5: for &m in &[1usize, 2, 3, 5] {
            for &k in &[1usize, 2, 3, 5] {
                for &n in &[1usize, 2, 3, 5] {
                    for mc in 1usize..=3 {
                        for kc in 1usize..=3 {
                            for nc in 1usize..=3 {
                                for mr in 1usize..=3 {
                                    for nr in 1usize..=3 {
                                        for p in 1usize..=3 {
                                            replays += 1;
                                            let bm = p * mc;
                                            let grid = BlockGrid::for_problem(m, k, n, bm, kc, nc);
                                            let max_tiles =
                                                worker_tile_bound(bm.div_ceil(mr), p);
                                            let pa_stride = packed_a_size(max_tiles * mr, kc, mr);
                                            let pb_len = packed_b_size(kc, nc, nr);
                                            for cd in Schedule::k_first(grid, m, n) {
                                                let ml = bm.min(m - cd.m * bm);
                                                let kl = kc.min(k - cd.k * kc);
                                                let nl = nc.min(n - cd.n * nc);
                                                if packed_b_size(kl, nl, nr) > pb_len {
                                                    ok = false;
                                                    detail = format!(
                                                        "B overflow: m={m} k={k} n={n} mc={mc} kc={kc} \
                                                         nc={nc} nr={nr} p={p} block={cd:?}"
                                                    );
                                                    break 'l5;
                                                }
                                                let (pm, pn) =
                                                    worker_grid(p, ml.div_ceil(mr));
                                                for wid in 0..p {
                                                    let Some((_, rows)) =
                                                        worker_rows(ml, mr, pm, wid / pn)
                                                    else {
                                                        continue;
                                                    };
                                                    if packed_a_size(rows, kl, mr) > pa_stride {
                                                        ok = false;
                                                        detail = format!(
                                                            "A overflow: m={m} k={k} n={n} mc={mc} \
                                                             kc={kc} mr={mr} p={p} wid={wid} block={cd:?}"
                                                        );
                                                        break 'l5;
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // The same replay for the tile layout (mr, nr multiples of 16, K
        // padded to 64) with the workspace's layout-aware sizes.
        'l5t: for &m in &[1usize, 17, 40] {
            for &k in &[1usize, 63, 64, 65, 130] {
                for &n in &[1usize, 17, 40] {
                    for (mc, kc, nc) in [(16, 16, 16), (32, 64, 32), (48, 100, 64)] {
                        for (mr, nr) in [(16, 16), (32, 32), (16, 32)] {
                            for p in 1usize..=3 {
                                replays += 1;
                                let layout = PackLayout::tiles(mr, nr);
                                let bm = p * mc;
                                let grid = BlockGrid::for_problem(m, k, n, bm, kc, nc);
                                let max_tiles = worker_tile_bound(bm.div_ceil(mr), p);
                                let pa_stride = layout.a_size(max_tiles * mr, kc);
                                let pb_len = layout.b_size(kc, nc);
                                for cd in Schedule::k_first(grid, m, n) {
                                    let ml = bm.min(m - cd.m * bm);
                                    let kl = kc.min(k - cd.k * kc);
                                    let nl = nc.min(n - cd.n * nc);
                                    let (pm, pn) = worker_grid(p, ml.div_ceil(mr));
                                    let a_over = (0..p).any(|wid| {
                                        worker_rows(ml, mr, pm, wid / pn)
                                            .is_some_and(|(_, rows)| layout.a_size(rows, kl) > pa_stride)
                                    });
                                    if layout.b_size(kl, nl) > pb_len || a_over {
                                        ok = false;
                                        detail = format!(
                                            "tile layout overflow: m={m} k={k} n={n} mc={mc} kc={kc} \
                                             nc={nc} mr={mr} nr={nr} p={p} block={cd:?}"
                                        );
                                        break 'l5t;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        check("executor_small_extent_replay", ok, format!("{detail} ({replays} replays)"));
    }

    // L6: every kernel tile shape the crate can ever dispatch — the real
    // REGISTERED_SHAPES registry, detection-independent — fits the edge
    // scratch (MAX_TILE) and lies inside the domain the edge_scratch_tile
    // site enumerates: mr <= 32, nr <= 32. A new kernel that outgrows
    // either bound fails here even on hosts that cannot run it.
    {
        let mut ok = true;
        let mut detail = String::new();
        for (name, mr, nr) in cake_kernels::select::REGISTERED_SHAPES {
            if mr * nr > cake_kernels::edge::MAX_TILE {
                ok = false;
                detail = format!("{name}: {mr}x{nr} = {} > MAX_TILE {}", mr * nr, cake_kernels::edge::MAX_TILE);
                break;
            }
            if mr == 0 || nr == 0 || mr > 32 || nr > 32 {
                ok = false;
                detail = format!("{name}: {mr}x{nr} outside the proven (1..=32, 1..=32) domain");
                break;
            }
        }
        check("registered_shapes_fit_edge_scratch", ok, detail);
    }

    (held, failed)
}

/// Run the full bounds check: prove every site, validate every lemma, and
/// refute every mutant.
pub fn check() -> BoundsReport {
    let mut report = BoundsReport::default();
    for site in sites() {
        report.proofs.push(prove_site(&site));
    }
    let (held, failed) = lemmas();
    report.lemmas = held;
    report.lemma_failures = failed;

    // Self-check: every seeded mutant must be refuted with a witness.
    for mutant in mutant_sites() {
        let proof = prove_site(&mutant);
        if proof.method.is_some() || proof.witness.is_none() {
            report
                .lemma_failures
                .push(format!("mutant {} was NOT refuted — the checker has no teeth", proof.name));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_site_is_proven() {
        for site in sites() {
            let proof = prove_site(&site);
            assert!(
                proof.method.is_some(),
                "site {} unproven (witness: {:?})",
                proof.name,
                proof.witness
            );
            assert!(proof.checked > 0, "site {} validated zero assignments", proof.name);
        }
    }

    #[test]
    fn symbolic_sites_do_not_fall_back_to_enumeration() {
        // Every infinite-domain site must carry a *symbolic* certificate —
        // otherwise the "whole tuning space" claim silently degrades.
        for site in sites() {
            let proof = prove_site(&site);
            if !site.finite_domain {
                assert!(
                    matches!(proof.method, Some(Method::Equality) | Some(Method::Dominance)),
                    "site {} proved only by enumeration: {:?}",
                    proof.name,
                    proof.method
                );
            }
        }
    }

    #[test]
    fn mutants_are_refuted_with_witnesses() {
        for mutant in mutant_sites() {
            let proof = prove_site(&mutant);
            assert!(proof.method.is_none(), "mutant {} was proven!", proof.name);
            assert!(proof.witness.is_some(), "mutant {} refuted without witness", proof.name);
        }
    }

    #[test]
    fn lemmas_hold_against_real_code() {
        let (held, failed) = lemmas();
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(held.len(), 6);
    }

    #[test]
    fn full_check_is_green_and_serializes() {
        let report = check();
        assert!(report.ok(), "{:?}", report.lemma_failures);
        let json = report.to_json();
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("exec_pa_pack"));
    }
}
