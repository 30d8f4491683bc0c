//! Result records produced by the timing engine and consumed by the
//! figure runners.

/// Outcome of simulating one GEMM on one CPU configuration.
///
/// `PartialEq` is derived so determinism tests can assert bit-identical
/// reports (same engine, same seed ⇒ same floats, exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// CPU name.
    pub cpu: String,
    /// Algorithm ("CAKE" or "GOTO").
    pub algo: String,
    /// Cores used.
    pub p: usize,
    /// Problem extents.
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Column extent.
    pub n: usize,
    /// Simulated wall time, seconds.
    pub seconds: f64,
    /// Achieved throughput, GFLOP/s.
    pub gflops: f64,
    /// Total DRAM traffic, bytes.
    pub dram_bytes: u64,
    /// Average DRAM bandwidth over the run, GB/s.
    pub avg_dram_bw_gbs: f64,
    /// Seconds the cores were stalled on DRAM (IO time not hidden by
    /// compute).
    pub dram_stall_seconds: f64,
    /// Seconds stalled on local-memory (LLC<->core) bandwidth.
    pub internal_stall_seconds: f64,
    /// Number of blocks / rounds executed.
    pub steps: usize,
    /// MAC operations executed (must equal `m * k * n` for a real run).
    pub macs: u64,
    /// Bytes moved over the internal (LLC<->core) port.
    pub int_bytes: u64,
    /// Discrete events processed.
    pub events: u64,
}

impl SimReport {
    /// FLOPs of the simulated problem.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// Fraction of time lost to DRAM stalls.
    pub fn dram_stall_fraction(&self) -> f64 {
        if self.seconds > 0.0 {
            self.dram_stall_seconds / self.seconds
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<8} p={:<3} {:>6}x{:<6}x{:<6} {:>9.2} GFLOP/s  DRAM {:>7.2} GB/s  stalls dram {:>5.1}% int {:>5.1}%",
            self.algo,
            self.p,
            self.m,
            self.k,
            self.n,
            self.gflops,
            self.avg_dram_bw_gbs,
            100.0 * self.dram_stall_fraction(),
            100.0 * self.internal_stall_seconds / self.seconds.max(1e-30),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        SimReport {
            cpu: "Test".into(),
            algo: "CAKE".into(),
            p: 4,
            m: 100,
            k: 100,
            n: 100,
            seconds: 0.5,
            gflops: 4.0,
            dram_bytes: 1_000_000,
            avg_dram_bw_gbs: 0.002,
            dram_stall_seconds: 0.1,
            internal_stall_seconds: 0.05,
            steps: 7,
            macs: 1_000_000,
            int_bytes: 2_000_000,
            events: 42,
        }
    }

    #[test]
    fn flops_and_fractions() {
        let r = sample();
        assert_eq!(r.flops(), 2e6);
        assert!((r.dram_stall_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn clone_preserves_fields() {
        let r = sample();
        let b = r.clone();
        assert_eq!(b.gflops, r.gflops);
        assert_eq!(b.steps, r.steps);
    }
}
