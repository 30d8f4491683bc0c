//! Order statistics over per-op samples.

/// Quantile `q` in `[0, 1]` of `xs`, interpolating linearly between the two
/// nearest order statistics. `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn fastest(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}

/// The fastest time seen for each part of an op (each GEMM call or layer,
/// and last the op's time outside them) over the ops of a run.
///
/// Their sum, [`op_secs`](Self::op_secs), is the op's time with every part
/// at its best, and is what `gops` is computed from. The shared host slows
/// a vCPU for spells of a fraction of a second to tens of seconds, and the
/// share of slowed time changes from run to run, so any statistic of whole
/// ops moves with it; the fastest whole op needs one quiet spell as long as
/// an op. A part of a few milliseconds finds a quiet moment in every run,
/// so the sum of part minima spreads least from run to run (README).
#[derive(Debug, Default)]
pub struct PartMins {
    mins: Vec<f64>,
}

impl PartMins {
    /// Add one op of `secs` seconds whose parts took `parts`; every op of a
    /// run has the same parts in the same order.
    pub fn add(&mut self, secs: f64, parts: &[f64]) {
        let rest = (secs - parts.iter().sum::<f64>()).max(0.0);
        let times = parts.iter().copied().chain([rest]);
        if self.mins.is_empty() {
            self.mins.extend(times);
        } else {
            debug_assert_eq!(self.mins.len(), parts.len() + 1, "same parts every op");
            for (m, t) in self.mins.iter_mut().zip(times) {
                *m = m.min(t);
            }
        }
    }

    /// Parts per op, the time outside them included.
    pub fn parts(&self) -> usize {
        self.mins.len()
    }

    pub fn op_secs(&self) -> f64 {
        self.mins.iter().sum()
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work reports 0).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn part_minima_sum_to_at_most_the_fastest_op() {
        let mut m = PartMins::default();
        m.add(10.0, &[3.0, 4.0]);
        m.add(9.0, &[4.0, 2.0]);
        m.add(12.0, &[2.5, 5.0]);
        // Minima 2.5 and 2.0; outside the parts 3.0, 3.0 and 4.5.
        assert_eq!(m.parts(), 3);
        assert_eq!(m.op_secs(), 2.5 + 2.0 + 3.0);
        assert!(m.op_secs() <= 9.0);
        // Parts that add up to more than the op (clock jitter) leave 0 outside.
        let mut m = PartMins::default();
        m.add(1.0, &[0.6, 0.5]);
        assert_eq!(m.op_secs(), 1.1);
    }
}
