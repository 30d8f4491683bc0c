//! Host-topology detection and effective-parallelism clamping.
//!
//! CAKE's block *shaping* is a function of the requested core count `p`
//! (paper Section 3: `m = p·k`, `n = α·p·k`), but actually *running* more
//! workers than the host exposes cores is pure oversubscription: every
//! rotation barrier then waits on threads the scheduler has parked, and
//! the measured "scaling" curve is an artifact of timeslice donation, not
//! of the algorithm (on a single-core host, an unclamped p = 8 once ran at
//! 0.05× of p = 1).
//!
//! This module separates the two roles of `p`:
//!
//! * **Requested p** keeps driving the analytic model, the traffic math,
//!   and the CB-block geometry — those are statements about the schedule,
//!   valid at any worker count.
//! * **Effective p** ([`effective_p`]) is the worker count actually
//!   spawned, clamped to the cores this *process* may run on. The
//!   affinity mask (`sched_getaffinity`) is consulted first — a container
//!   or `taskset` cgroup often grants fewer cores than the machine has —
//!   falling back to `std::thread::available_parallelism`.
//!
//! The clamp decision is surfaced in [`crate::executor::ExecStats`]
//! (`requested_workers` vs `workers`, plus `host_cores`) and printed by
//! `cakectl gemm --stats` / `--explain`, so a sweep that silently ran at
//! `effective_p = 1` is always distinguishable from a real scaling run.

use std::sync::OnceLock;

use crate::pool::affinity;

/// Cores available to this process: the scheduler-affinity mask size when
/// the platform reports one, else `available_parallelism`, else 1. Probed
/// once and cached — topology does not change under us mid-run, and the
/// executor consults this on every call.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(probe_cores)
}

/// Uncached probe behind [`available_cores`]; exposed for tests.
pub fn probe_cores() -> usize {
    affinity::allowed_cores()
        .filter(|&n| n > 0)
        .unwrap_or_else(affinity::available_cores)
        .max(1)
}

/// Clamp a requested worker count to the host: `min(requested, cores)`,
/// never below 1. The CB-block shape derived for `requested` stays valid —
/// the executor partitions any block across any worker count — but the
/// spawned pool stops burning timeslices on workers that can never run
/// concurrently.
pub fn effective_p(requested: usize) -> usize {
    requested.clamp(1, available_cores())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_at_least_one_core() {
        assert!(probe_cores() >= 1);
        assert_eq!(available_cores(), available_cores(), "cache is stable");
    }

    #[test]
    fn effective_p_clamps_to_host_and_floor() {
        let cores = available_cores();
        assert_eq!(effective_p(0), 1, "zero requests still get one worker");
        assert_eq!(effective_p(1), 1);
        assert_eq!(effective_p(cores), cores);
        assert_eq!(effective_p(cores + 7), cores, "oversubscription is clamped");
        assert_eq!(effective_p(usize::MAX), cores);
    }

    #[test]
    fn affinity_mask_agrees_with_probe_when_reported() {
        if let Some(allowed) = affinity::allowed_cores() {
            assert_eq!(probe_cores(), allowed.max(1));
        }
    }
}
