//! Symbolic index arithmetic for the bounds prover.
//!
//! The pack/microkernel offset sites all reduce to inequalities of the form
//! `need <= cap` over the tuning variables `(mr, nr, mc, kc, nc, m, k, n, p)`,
//! built from `+`, `-`, `*`, `ceil-div`, and `min`. This module provides:
//!
//! * an expression AST ([`Expr`]) with substitution and concrete evaluation,
//! * a **polynomial normal form** ([`Poly`]) over opaque atoms
//!   (variables, irreducible `ceil(a/b)`, irreducible `min(a,b)`) with the
//!   rewrite rules that make the workspace's sizing formulas collapse:
//!   `ceil(x*d / d) -> x` (exact division) and
//!   `ceil(min(a,b)/d) -> min(ceil(a/d), ceil(b/d))`,
//! * sound dominance checking ([`dominates`]): `cap - need` is proven
//!   non-negative either because every coefficient is `>= 0`, or after
//!   replacing a `min`/`ceil` atom in a negative monomial by one of its
//!   (pointwise larger) arguments,
//! * a deterministic xorshift sampler used to validate monotonicity claims
//!   that justify corner substitution of constrained variables.
//!
//! Domain convention: every variable is a non-negative size, and every
//! divisor is `>= 1`. The symbolic rules are only applied where they are
//! sound under that convention; the bounds module re-validates each proof
//! numerically on sampled and exhaustively enumerated small assignments.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Ceiling division for the non-negative domain.
#[inline]
pub fn div_ceil_i(a: i128, b: i128) -> i128 {
    assert!(a >= 0 && b > 0, "div_ceil domain violation: {a}/{b}");
    (a + b - 1).div_euclid(b)
}

/// Symbolic index expression over named size variables.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Integer literal.
    Const(i128),
    /// Named tuning/shape variable (non-negative by convention).
    Var(&'static str),
    /// `a + b`.
    Add(Rc<Expr>, Rc<Expr>),
    /// `a - b`.
    Sub(Rc<Expr>, Rc<Expr>),
    /// `a * b`.
    Mul(Rc<Expr>, Rc<Expr>),
    /// `ceil(a / b)`; `b >= 1` on the domain.
    DivCeil(Rc<Expr>, Rc<Expr>),
    /// `min(a, b)`.
    Min(Rc<Expr>, Rc<Expr>),
}

/// Shorthand constructor for a variable.
pub fn v(name: &'static str) -> Expr {
    Expr::Var(name)
}

/// Shorthand constructor for a literal.
pub fn c(k: i128) -> Expr {
    Expr::Const(k)
}

impl Expr {
    /// `self + o`.
    pub fn plus(self, o: Expr) -> Expr {
        Expr::Add(Rc::new(self), Rc::new(o))
    }

    /// `self - o`.
    pub fn minus(self, o: Expr) -> Expr {
        Expr::Sub(Rc::new(self), Rc::new(o))
    }

    /// `self * o`.
    pub fn times(self, o: Expr) -> Expr {
        Expr::Mul(Rc::new(self), Rc::new(o))
    }

    /// `ceil(self / o)`.
    pub fn ceil_div(self, o: Expr) -> Expr {
        Expr::DivCeil(Rc::new(self), Rc::new(o))
    }

    /// `min(self, o)`.
    pub fn min_e(self, o: Expr) -> Expr {
        Expr::Min(Rc::new(self), Rc::new(o))
    }

    /// Evaluate under a full assignment; panics on unbound variables or
    /// non-positive divisors (domain violations, not proof failures).
    pub fn eval(&self, env: &BTreeMap<&'static str, i128>) -> i128 {
        match self {
            Expr::Const(k) => *k,
            Expr::Var(x) => *env
                .get(x)
                .unwrap_or_else(|| panic!("unbound variable {x} in bounds model")),
            Expr::Add(a, b) => a.eval(env) + b.eval(env),
            Expr::Sub(a, b) => a.eval(env) - b.eval(env),
            Expr::Mul(a, b) => a.eval(env) * b.eval(env),
            Expr::DivCeil(a, b) => div_ceil_i(a.eval(env), b.eval(env)),
            Expr::Min(a, b) => a.eval(env).min(b.eval(env)),
        }
    }

    /// Replace every occurrence of `var` by `with`.
    pub fn subst(&self, var: &str, with: &Expr) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(x) => {
                if *x == var {
                    with.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Add(a, b) => Expr::Add(Rc::new(a.subst(var, with)), Rc::new(b.subst(var, with))),
            Expr::Sub(a, b) => Expr::Sub(Rc::new(a.subst(var, with)), Rc::new(b.subst(var, with))),
            Expr::Mul(a, b) => Expr::Mul(Rc::new(a.subst(var, with)), Rc::new(b.subst(var, with))),
            Expr::DivCeil(a, b) => {
                Expr::DivCeil(Rc::new(a.subst(var, with)), Rc::new(b.subst(var, with)))
            }
            Expr::Min(a, b) => Expr::Min(Rc::new(a.subst(var, with)), Rc::new(b.subst(var, with))),
        }
    }

    /// Collect the free variables.
    pub fn vars(&self, out: &mut BTreeSet<&'static str>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(x) => {
                out.insert(x);
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::DivCeil(a, b)
            | Expr::Min(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

/// Irreducible sub-expression appearing as a polynomial "indeterminate".
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Atom {
    /// A named variable.
    Var(&'static str),
    /// `ceil(a / b)` that resisted every rewrite.
    DivCeil(Poly, Poly),
    /// `min(a, b)` with neither side provably dominant; arguments are stored
    /// in canonical (sorted) order so `min(a,b) == min(b,a)` structurally.
    Min(Poly, Poly),
}

/// A monomial: a sorted multiset of atoms (empty = the constant monomial).
pub type Mono = Vec<Atom>;

/// Multivariate polynomial over [`Atom`]s with `i128` coefficients, in
/// canonical form (sorted monomials, no zero coefficients).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Poly(pub BTreeMap<Mono, i128>);

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly(BTreeMap::new())
    }

    /// A constant polynomial.
    pub fn constant(k: i128) -> Poly {
        let mut m = BTreeMap::new();
        if k != 0 {
            m.insert(Vec::new(), k);
        }
        Poly(m)
    }

    /// A single atom with coefficient 1.
    pub fn atom(a: Atom) -> Poly {
        let mut m = BTreeMap::new();
        m.insert(vec![a], 1);
        Poly(m)
    }

    /// `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    /// `Some(k)` if this is the constant polynomial `k`.
    pub fn as_const(&self) -> Option<i128> {
        match self.0.len() {
            0 => Some(0),
            1 => self.0.get(&Vec::new() as &Mono).copied(),
            _ => None,
        }
    }

    fn insert(&mut self, mono: Mono, coeff: i128) {
        if coeff == 0 {
            return;
        }
        let slot = self.0.entry(mono).or_insert(0);
        *slot += coeff;
        if *slot == 0 {
            // Re-fetch to remove: entry API gave us a &mut, key still known.
            self.0.retain(|_, c| *c != 0);
        }
    }

    /// `self + o`.
    pub fn add(&self, o: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &o.0 {
            out.insert(m.clone(), *c);
        }
        out
    }

    /// `-self`.
    pub fn neg(&self) -> Poly {
        Poly(self.0.iter().map(|(m, c)| (m.clone(), -c)).collect())
    }

    /// `self - o`.
    pub fn sub(&self, o: &Poly) -> Poly {
        self.add(&o.neg())
    }

    /// `self * o`.
    pub fn mul(&self, o: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (m1, c1) in &self.0 {
            for (m2, c2) in &o.0 {
                let mut mono = m1.clone();
                mono.extend(m2.iter().cloned());
                mono.sort();
                out.insert(mono, c1 * c2);
            }
        }
        out
    }

    /// Exact division by a single-monomial divisor: `Some(q)` with
    /// `q * divisor == self`, or `None` if any monomial is not divisible.
    fn div_exact_mono(&self, dmono: &Mono, dcoeff: i128) -> Option<Poly> {
        let mut out = Poly::zero();
        for (m, cfe) in &self.0 {
            if cfe % dcoeff != 0 {
                return None;
            }
            let mut rest = m.clone();
            for a in dmono {
                let pos = rest.iter().position(|x| x == a)?;
                rest.remove(pos);
            }
            out.insert(rest, cfe / dcoeff);
        }
        Some(out)
    }

    /// `true` if every coefficient is non-negative — which, together with the
    /// domain convention (atoms evaluate to non-negative values), proves the
    /// polynomial is non-negative everywhere on the domain.
    pub fn coeffs_nonneg(&self) -> bool {
        self.0.values().all(|&c| c >= 0)
    }
}

/// `ceil(a / b)` in normal form, applying the rewrite rules.
pub fn divceil_poly(a: &Poly, b: &Poly) -> Poly {
    if a.is_zero() {
        return Poly::zero();
    }
    if b.as_const() == Some(1) {
        return a.clone();
    }
    if let (Some(ka), Some(kb)) = (a.as_const(), b.as_const()) {
        if kb >= 1 && ka >= 0 {
            return Poly::constant(div_ceil_i(ka, kb));
        }
    }
    // Exact division: a == q*b term-wise => ceil(a/b) == q (b >= 1 on the
    // domain, and the quotient is an integer polynomial). Only attempted for
    // single-monomial divisors, which covers `x*d/d` and `X*nr/nr`.
    if b.0.len() == 1 {
        let (dm, dc) = b.0.iter().next().unwrap();
        if *dc >= 1 {
            if let Some(q) = a.div_exact_mono(dm, *dc) {
                return q;
            }
        }
    }
    // Distribute over min: ceil is non-decreasing, so
    // ceil(min(x,y)/b) == min(ceil(x/b), ceil(y/b)).
    if a.0.len() == 1 {
        let (m, cfe) = a.0.iter().next().unwrap();
        if *cfe == 1 && m.len() == 1 {
            if let Atom::Min(x, y) = &m[0] {
                return min_poly(&divceil_poly(x, b), &divceil_poly(y, b));
            }
        }
    }
    Poly::atom(Atom::DivCeil(a.clone(), b.clone()))
}

/// `min(a, b)` in normal form: folds constants, discharges one side when the
/// difference has all-non-negative coefficients, and canonicalizes order.
pub fn min_poly(a: &Poly, b: &Poly) -> Poly {
    if a == b {
        return a.clone();
    }
    if let (Some(ka), Some(kb)) = (a.as_const(), b.as_const()) {
        return Poly::constant(ka.min(kb));
    }
    if a.sub(b).coeffs_nonneg() {
        return b.clone(); // a >= b pointwise on the domain
    }
    if b.sub(a).coeffs_nonneg() {
        return a.clone();
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    Poly::atom(Atom::Min(x.clone(), y.clone()))
}

/// Rewrite an expression into polynomial normal form.
pub fn normalize(e: &Expr) -> Poly {
    match e {
        Expr::Const(k) => Poly::constant(*k),
        Expr::Var(x) => Poly::atom(Atom::Var(x)),
        Expr::Add(a, b) => normalize(a).add(&normalize(b)),
        Expr::Sub(a, b) => normalize(a).sub(&normalize(b)),
        Expr::Mul(a, b) => normalize(a).mul(&normalize(b)),
        Expr::DivCeil(a, b) => divceil_poly(&normalize(a), &normalize(b)),
        Expr::Min(a, b) => min_poly(&normalize(a), &normalize(b)),
    }
}

/// Prove `p >= 0` on the domain. Besides the all-coefficients-non-negative
/// certificate, negative monomials containing a `min`/`ceil` atom may have
/// that atom replaced by a pointwise **upper bound** (`min(x,y) <= x|y`;
/// `ceil(x/d) <= x` for `x >= 0`, `d >= 1`), which only *shrinks* the
/// polynomial's value — so a certificate for the rewritten polynomial is a
/// certificate for the original. Bounded branching depth keeps this total.
pub fn prove_nonneg(p: &Poly, depth: usize) -> bool {
    if p.coeffs_nonneg() {
        return true;
    }
    if depth == 0 {
        return false;
    }
    for (mono, &coeff) in &p.0 {
        if coeff >= 0 {
            continue;
        }
        for (i, atom) in mono.iter().enumerate() {
            let uppers: Vec<Poly> = match atom {
                Atom::Min(x, y) => vec![x.clone(), y.clone()],
                Atom::DivCeil(x, _) => vec![x.clone()],
                Atom::Var(_) => continue,
            };
            for upper in uppers {
                let mut rest = mono.clone();
                rest.remove(i);
                let mut rest_poly = Poly::zero();
                rest_poly.insert(rest, coeff);
                // p2 = p - coeff*mono + coeff*upper*rest  (<= p pointwise).
                let mut without = p.clone();
                without.insert(mono.clone(), -coeff);
                let p2 = without.add(&upper.mul(&rest_poly));
                if prove_nonneg(&p2, depth - 1) {
                    return true;
                }
            }
        }
    }
    false
}

/// Prove `need <= cap` on the whole domain (symbolic certificate only).
pub fn dominates(cap: &Expr, need: &Expr) -> bool {
    prove_nonneg(&normalize(cap).sub(&normalize(need)), 6)
}

/// `true` if `need` and `cap` normalize to the identical polynomial.
pub fn symbolically_equal(cap: &Expr, need: &Expr) -> bool {
    normalize(cap).sub(&normalize(need)).is_zero()
}

/// Deterministic xorshift64 PRNG for sampling-based validation.
#[derive(Clone)]
pub struct XorShift64(pub u64);

impl XorShift64 {
    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform draw in `[lo, hi]` inclusive.
    pub fn in_range(&mut self, lo: i128, hi: i128) -> i128 {
        debug_assert!(lo <= hi);
        let span = (hi - lo + 1) as u128;
        lo + (self.next_u64() as u128 % span) as i128
    }
}

/// Validate by sampling that `expr` is non-decreasing in `var` over the given
/// per-variable ranges — the side condition justifying corner substitution
/// (replacing a constrained variable by its upper bound in `need`).
pub fn sampled_nondecreasing(
    expr: &Expr,
    var: &'static str,
    ranges: &[(&'static str, i128, i128)],
    samples: usize,
    seed: u64,
) -> bool {
    let mut rng = XorShift64(seed | 1);
    let (_, lo, hi) = *ranges
        .iter()
        .find(|(n, _, _)| *n == var)
        .unwrap_or_else(|| panic!("no range declared for {var}"));
    for _ in 0..samples {
        let mut env: BTreeMap<&'static str, i128> = BTreeMap::new();
        for &(name, rlo, rhi) in ranges {
            env.insert(name, rng.in_range(rlo, rhi));
        }
        if hi <= lo {
            continue;
        }
        let x = rng.in_range(lo, hi - 1);
        let dx = rng.in_range(1, hi - x);
        env.insert(var, x);
        let at_x = expr.eval(&env);
        env.insert(var, x + dx);
        let at_xdx = expr.eval(&env);
        if at_xdx < at_x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&'static str, i128)]) -> BTreeMap<&'static str, i128> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn eval_matches_hand_arithmetic() {
        // ceil(7/2)*2*3 = 24; min(24, 20) = 20
        let e = v("x").ceil_div(c(2)).times(c(2)).times(v("y")).min_e(c(20));
        assert_eq!(e.eval(&env(&[("x", 7), ("y", 3)])), 20);
    }

    #[test]
    fn exact_division_rewrite_fires() {
        // ceil(x*d/d) == x symbolically, even for a symbolic divisor.
        let e = v("x").times(v("d")).ceil_div(v("d"));
        assert!(symbolically_equal(&e, &v("x")));
    }

    #[test]
    fn min_distributes_through_divceil() {
        // ceil(min(a,b)/d) == min(ceil(a/d), ceil(b/d))
        let lhs = v("a").min_e(v("b")).ceil_div(v("d"));
        let rhs = v("a").ceil_div(v("d")).min_e(v("b").ceil_div(v("d")));
        assert!(symbolically_equal(&lhs, &rhs));
    }

    #[test]
    fn packed_tail_telescopes_to_full_size() {
        // (ceil(ml/mr)-1)*mr*kl + (kl-1)*mr + (mr-1) + 1 == ceil(ml/mr)*mr*kl
        let slivers = v("ml").ceil_div(v("mr"));
        let need = slivers
            .clone()
            .minus(c(1))
            .times(v("mr"))
            .times(v("kl"))
            .plus(v("kl").minus(c(1)).times(v("mr")))
            .plus(v("mr").minus(c(1)))
            .plus(c(1));
        let cap = slivers.times(v("mr")).times(v("kl"));
        assert!(symbolically_equal(&cap, &need));
    }

    #[test]
    fn min_dominance_via_branching() {
        // min(x,y)*z <= x*z needs the negative-monomial min-replacement.
        let need = v("x").min_e(v("y")).times(v("z"));
        let cap = v("x").times(v("z"));
        assert!(dominates(&cap, &need));
        assert!(!dominates(&need, &cap));
    }

    #[test]
    fn dominance_rejects_false_claims() {
        assert!(!dominates(&v("x"), &v("x").plus(c(1))));
        assert!(!dominates(&v("x").times(c(2)), &v("x").times(c(3))));
    }

    #[test]
    fn monotonicity_sampler_accepts_and_rejects() {
        let ranges = [("x", 0, 40), ("d", 1, 8)];
        let inc = v("x").ceil_div(v("d")).times(v("d"));
        assert!(sampled_nondecreasing(&inc, "x", &ranges, 300, 11));
        let dec = c(100).minus(v("x"));
        assert!(!sampled_nondecreasing(&dec, "x", &ranges, 300, 11));
    }
}
