//! Output checks. Every op's output is checked outside its timed window; a
//! failed check counts against the op.

use crate::surface::{gemm_tolerance, random, Layout, Matrix};

/// Checked ops and how many of them failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// `m * x` in f64 for a matrix of either layout.
fn matvec(m: &Matrix<f32>, x: &[f64]) -> Vec<f64> {
    let (rows, cols) = (m.rows(), m.cols());
    let s = m.as_slice();
    let mut y = vec![0.0f64; rows];
    match m.layout() {
        Layout::RowMajor => {
            for (yi, row) in y.iter_mut().zip(s.chunks_exact(cols.max(1))) {
                *yi = row.iter().zip(x).map(|(&a, &b)| a as f64 * b).sum();
            }
        }
        Layout::ColMajor => {
            for (col, &xj) in s.chunks_exact(rows.max(1)).zip(x) {
                for (yi, &a) in y.iter_mut().zip(col) {
                    *yi += a as f64 * xj;
                }
            }
        }
    }
    y
}

/// Freivalds' check of `C = A * B` with two seeded ±1 vectors: `C r` must
/// equal `A (B r)`. `A (B r)` is computed once, when the inputs are made, so
/// checking an op costs two passes over `C`.
pub struct Freivalds {
    r: [Vec<f64>; 2],
    expect: [Vec<f64>; 2],
    k: usize,
}

impl Freivalds {
    pub fn new(a: &Matrix<f32>, b: &Matrix<f32>, seed: u64) -> Self {
        let sign = |s: u64| -> Vec<f64> {
            let u = random::<f64>(1, b.cols(), s);
            u.as_slice()
                .iter()
                .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                .collect()
        };
        let r = [sign(seed), sign(seed ^ 0x5bd1_e995)];
        let expect = [0, 1].map(|t| matvec(a, &matvec(b, &r[t])));
        Self {
            r,
            expect,
            k: a.cols(),
        }
    }

    /// `true` when every row of `C r` is within tolerance of `A (B r)` for
    /// both vectors. The tolerance is the per-entry GEMM bound
    /// (`gemm_tolerance`, 8·K·ε scaled by `max(1, |c|)`) summed over the row
    /// in quadrature: under ±1 weights independent rounding errors add as a
    /// random walk. A NaN or infinite entry always fails.
    pub fn holds(&self, c: &Matrix<f32>) -> bool {
        debug_assert_eq!(c.layout(), Layout::RowMajor);
        let tol = gemm_tolerance::<f32>(self.k);
        let n = c.cols().max(1);
        c.as_slice().chunks_exact(n).enumerate().all(|(i, row)| {
            let (mut s0, mut s1, mut norm2) = (0.0f64, 0.0f64, 0.0f64);
            for ((&v, &r0), &r1) in row.iter().zip(&self.r[0]).zip(&self.r[1]) {
                let v = v as f64;
                s0 += v * r0;
                s1 += v * r1;
                norm2 += v.abs().max(1.0).powi(2);
            }
            let bound = tol * norm2.sqrt();
            (s0 - self.expect[0][i]).abs() <= bound && (s1 - self.expect[1][i]).abs() <= bound
        })
    }
}

/// Largest absolute difference relative to the largest reference magnitude.
pub fn rel_err(out: &[f32], reference: &[f32]) -> f64 {
    if out.len() != reference.len() || out.iter().any(|x| !x.is_finite()) {
        return f64::INFINITY;
    }
    let mut diff = 0.0f64;
    let mut mag = 0.0f64;
    for (&x, &y) in out.iter().zip(reference) {
        diff = diff.max((x as f64 - y as f64).abs());
        mag = mag.max((y as f64).abs());
    }
    if mag == 0.0 {
        diff
    } else {
        diff / mag
    }
}

/// Bit-for-bit equality (so `-0.0 != 0.0` and a NaN never matches).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() && !x.is_nan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::cake;

    #[test]
    fn freivalds_passes_a_correct_gemm_and_catches_one_corrupted_entry() {
        let (m, k, n) = (37, 53, 41);
        let a = random::<f32>(m, k, 1).to_layout(Layout::ColMajor);
        let b = random::<f32>(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        cake(2).gemm(&a, &b, &mut c);
        let check = Freivalds::new(&a, &b, 3);
        assert!(check.holds(&c), "a correct product must pass");

        let (i, j) = (19, 23);
        let good = c.get(i, j);
        c.set(i, j, good + 0.01);
        assert!(!check.holds(&c), "one entry off by 0.01 must fail");
        c.set(i, j, f32::NAN);
        assert!(!check.holds(&c), "a NaN entry must fail");
        c.set(i, j, good);
        assert!(check.holds(&c));
    }

    #[test]
    fn cnn_comparisons() {
        assert_eq!(rel_err(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
        assert!((rel_err(&[1.0, -2.1], &[1.0, -2.0]) - 0.05).abs() < 1e-6);
        assert!(rel_err(&[f32::NAN], &[1.0]).is_infinite());
        assert!(same_bits(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[f32::NAN], &[f32::NAN]));
    }
}
