//! Packet-level functional simulator of the abstract CB machine
//! (paper Section 6.2 and Figure 3).
//!
//! The paper validated the CB block design with a SystemC simulator in
//! which "standardized packets are used for all communication between
//! simulated hardware modules. Packets originate from external memory and
//! contain headers to control routing as well as fields containing the
//! packet's tile index into the computation space and CB block."
//!
//! This module reproduces that validation path *functionally*: it executes
//! a real (tile-granular) matrix multiplication by moving [`Packet`]s
//! between three modules — external memory, local memory, and a `p x k`
//! core grid — under the K-first snake schedule, and produces
//!
//! * the numerically exact product (verified against a reference in
//!   tests — the "correctness of the CB block design and execution
//!   schedule" check), and
//! * cycle/traffic accounting that independently confirms the
//!   constant-bandwidth property (Figure 4) and cross-checks the analytic
//!   traffic model in `cake_core::traffic`.
//!
//! Tiles are unit scalars (`f64`), which makes the computation space an
//! `M x K x N` grid of MACs exactly as in Figure 2b.

use cake_core::schedule::{BlockGrid, Schedule};
use cake_matrix::Matrix;
/// Hardware module addresses for packet routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// External DRAM.
    ExternalMemory,
    /// Shared local memory (LLC).
    LocalMemory,
    /// Core `(row, col)` of the processing grid (Figure 3b).
    Core(u16, u16),
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A tile of matrix A at computation-space coords `(m, k)`.
    ATile(f64),
    /// A tile of matrix B at `(k, n)`.
    BTile(f64),
    /// A partial (or complete) result tile of C at `(m, n)`.
    CTile(f64),
}

/// A communication packet (paper: source-routed with tile indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Originating module.
    pub src: Module,
    /// Destination module.
    pub dst: Module,
    /// Index of the CB block this packet belongs to (execution order).
    pub block: u32,
    /// Tile row index in the computation space (`m` for A/C, `k` for B).
    pub row: u32,
    /// Tile column index (`k` for A, `n` for B/C).
    pub col: u32,
    /// Tile contents.
    pub payload: Payload,
}

/// Configuration of the abstract CB machine.
#[derive(Debug, Clone, Copy)]
pub struct PacketSimConfig {
    /// Rows of the core grid (`m = p * k_grid` tiles per block M-extent;
    /// paper's `p`).
    pub p: usize,
    /// Columns of the core grid = reduction depth of a block in tiles
    /// (paper's `k`).
    pub k_grid: usize,
    /// Aspect factor: block N-extent is `alpha * p * k_grid` tiles.
    pub alpha: usize,
    /// External-memory link bandwidth, tiles per cycle.
    pub dram_tiles_per_cycle: f64,
    /// Local-memory capacity in tiles; the three block surfaces plus the
    /// double-buffered next inputs must fit (Section 4.3 rule).
    pub llc_capacity_tiles: usize,
    /// Cycles one core needs per tile multiply-accumulate.
    pub cycles_per_mac: u64,
}

impl PacketSimConfig {
    /// A machine shaped per Section 3: `p*k x k` core grid, `alpha`-wide
    /// blocks, with the LLC sized by the Section 4.3 rule.
    pub fn balanced(p: usize, k_grid: usize, alpha: usize, dram_tiles_per_cycle: f64) -> Self {
        let (a, b, c) = Self::surfaces_of(p, k_grid, alpha);
        Self {
            p,
            k_grid,
            alpha,
            dram_tiles_per_cycle,
            llc_capacity_tiles: c + 2 * (a + b),
            cycles_per_mac: 1,
        }
    }

    fn surfaces_of(p: usize, k: usize, alpha: usize) -> (usize, usize, usize) {
        let m = p * k;
        let n = alpha * p * k;
        (m * k, k * n, m * n)
    }

    /// Block extents in tiles: `(m, k, n)`.
    pub fn block_dims(&self) -> (usize, usize, usize) {
        (
            self.p * self.k_grid,
            self.k_grid,
            self.alpha * self.p * self.k_grid,
        )
    }
}

/// Counters and outputs of a packet simulation.
#[derive(Debug, Clone)]
pub struct PacketSimResult {
    /// Total cycles (with IO/compute overlap across blocks).
    pub cycles: u64,
    /// Tiles moved over the external-memory link (both directions).
    pub dram_tile_transfers: u64,
    /// Packets exchanged between local memory and cores.
    pub internal_packets: u64,
    /// Largest number of tiles resident in local memory at once
    /// (current block + incoming next-block inputs).
    pub peak_llc_tiles: usize,
    /// Blocks executed.
    pub blocks: usize,
    /// Average external bandwidth, tiles per cycle.
    pub avg_dram_tiles_per_cycle: f64,
    /// MAC operations performed (must equal `M * K * N`).
    pub macs: u64,
}

/// Error conditions the simulator detects (the "corner cases that are
/// difficult to analyze" the paper built its simulator for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketSimError {
    /// The working set exceeded local memory capacity.
    LlcOverflow {
        /// Tiles that would have been resident.
        needed: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// Operand shapes inconsistent.
    ShapeMismatch(String),
}

impl std::fmt::Display for PacketSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketSimError::LlcOverflow { needed, capacity } => {
                write!(f, "local memory overflow: need {needed} tiles, capacity {capacity}")
            }
            PacketSimError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
        }
    }
}

impl std::error::Error for PacketSimError {}

/// Execute `C = A * B` on the packet machine (`A: M x K`, `B: K x N`
/// tile matrices) and return the result matrix plus accounting.
///
/// The computation is performed through the actual packet dataflow:
/// A tiles are pinned one-per-core, B tiles are broadcast down core-grid
/// columns, partial C tiles are accumulated in local memory across the
/// block's K extent and across blocks along the schedule's K runs, and
/// completed C tiles are shipped back to external memory.
pub fn simulate_packets(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    cfg: &PacketSimConfig,
) -> Result<(Matrix<f64>, PacketSimResult), PacketSimError> {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    if b.rows() != k {
        return Err(PacketSimError::ShapeMismatch(format!(
            "A is {m}x{k} but B is {}x{n}",
            b.rows()
        )));
    }

    let (bm, bk, bn) = cfg.block_dims();
    let grid = BlockGrid::for_problem(m, k, n, bm, bk, bn);
    let sched = Schedule::k_first(grid, m, n);
    let kb = grid.kb;

    let mut c = Matrix::<f64>::zeros(m, n);
    // Partial C panel held in local memory for the current (m, n) run.
    let mut c_panel: Vec<f64> = vec![0.0; bm * bn];

    let mut res = PacketSimResult {
        cycles: 0,
        dram_tile_transfers: 0,
        internal_packets: 0,
        peak_llc_tiles: 0,
        blocks: 0,
        avg_dram_tiles_per_cycle: 0.0,
        macs: 0,
    };

    let mut prev: Option<cake_core::schedule::BlockCoord> = None;
    let mut k_run = 0usize;
    // Carry-over IO time from the pipelined previous block.
    let mut pending_io_cycles = 0f64;

    for (bi, coord) in sched.enumerate() {
        let m0 = coord.m * bm;
        let k0 = coord.k * bk;
        let n0 = coord.n * bn;
        let ml = bm.min(m - m0);
        let kl = bk.min(k - k0);
        let nl = bn.min(n - n0);

        let share_a = prev.is_some_and(|p| p.m == coord.m && p.k == coord.k);
        let share_b = prev.is_some_and(|p| p.k == coord.k && p.n == coord.n);
        let same_panel = prev.is_some_and(|p| p.m == coord.m && p.n == coord.n);
        if same_panel {
            k_run += 1;
        } else {
            k_run = 1;
            // The panel is indexed with stride `bn`; clear it all.
            c_panel.iter_mut().for_each(|x| *x = 0.0);
        }
        prev = Some(coord);

        // --- Capacity check (the Section 4.3 invariant, enforced). ---
        let footprint = ml * kl + kl * nl + ml * nl; // current surfaces
        let incoming = ml * kl + kl * nl; // next block's inputs stream in
        let resident = footprint + incoming;
        if resident > cfg.llc_capacity_tiles {
            return Err(PacketSimError::LlcOverflow {
                needed: resident,
                capacity: cfg.llc_capacity_tiles,
            });
        }
        res.peak_llc_tiles = res.peak_llc_tiles.max(resident);

        // --- IO phase: packets from external memory to local memory. ---
        let mut dram_tiles = 0u64;
        if !share_a {
            dram_tiles += (ml * kl) as u64;
        }
        if !share_b {
            dram_tiles += (kl * nl) as u64;
        }

        // --- Distribute + compute: the core grid (Figure 3b/3d). ---
        // Core (i, j) holds A tile (m0 + i_strip, k0 + j). Each core-grid
        // column j multiplies its A tiles with the broadcast B row j and
        // the column's partial products are summed (outer-product
        // accumulation), then added into the local-memory C panel.
        let mut macs_this_block = 0u64;
        for t in 0..nl {
            // B tile (k0 + j, n0 + t) broadcast to column j: one packet
            // per live grid column.
            res.internal_packets += kl as u64;
            for i in 0..ml {
                // Core at grid position (i % p-strip, j) — functionally we
                // sweep all live rows. Each core performs kl MACs for
                // this output tile (one per grid column).
                let mut acc = 0.0f64;
                for j in 0..kl {
                    // a tile value * b tile value (unit tiles = scalars).
                    acc += a.get(m0 + i, k0 + j) * b.get(k0 + j, n0 + t);
                }
                macs_this_block += kl as u64;
                // Accumulated column result cycles back to local memory.
                c_panel[i * bn + t] += acc;
            }
        }
        res.internal_packets += (ml * nl) as u64; // partials to local memory
        res.internal_packets += (ml * kl) as u64; // A tiles onto cores
        res.macs += macs_this_block;

        // --- Writeback when the K reduction completes. ---
        if k_run == kb {
            for i in 0..ml {
                for t in 0..nl {
                    c.set(m0 + i, n0 + t, c_panel[i * bn + t]);
                }
            }
            dram_tiles += (ml * nl) as u64;
        }

        // --- Timing: IO of this block overlaps the previous block's
        // compute (double buffering); per-block cost is max of the two.
        let compute_cycles = macs_this_block as f64 * cfg.cycles_per_mac as f64
            / (cfg.p * cfg.k_grid) as f64; // p*k cores work in parallel
        let io_cycles = dram_tiles as f64 / cfg.dram_tiles_per_cycle;
        let step = if bi == 0 {
            io_cycles + compute_cycles // pipeline fill
        } else {
            compute_cycles.max(pending_io_cycles)
        };
        pending_io_cycles = io_cycles;
        res.cycles += step.ceil() as u64;
        res.dram_tile_transfers += dram_tiles;
        res.blocks += 1;
    }
    // Drain the final writeback.
    res.cycles += pending_io_cycles.ceil() as u64;

    res.avg_dram_tiles_per_cycle = if res.cycles > 0 {
        res.dram_tile_transfers as f64 / res.cycles as f64
    } else {
        0.0
    };
    Ok((c, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_core::traffic::{dram_traffic, CResidency, TrafficParams};
    use cake_matrix::init;

    fn reference(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let mut c = Matrix::<f64>::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn packet_machine_computes_the_exact_product() {
        let (m, k, n) = (24, 18, 30);
        let a = init::random::<f64>(m, k, 1);
        let b = init::random::<f64>(k, n, 2);
        let cfg = PacketSimConfig::balanced(2, 3, 1, 4.0);
        let (c, res) = simulate_packets(&a, &b, &cfg).unwrap();
        let expect = reference(&a, &b);
        cake_matrix::compare::assert_gemm_eq(&c, &expect, k);
        assert_eq!(res.macs, (m * k * n) as u64);
    }

    #[test]
    fn ragged_problems_compute_correctly() {
        for (m, k, n) in [(7usize, 5usize, 11usize), (13, 13, 13), (1, 20, 1), (25, 2, 9)] {
            let a = init::random::<f64>(m, k, 3);
            let b = init::random::<f64>(k, n, 4);
            let cfg = PacketSimConfig::balanced(2, 2, 2, 2.0);
            let (c, _) = simulate_packets(&a, &b, &cfg).unwrap();
            cake_matrix::compare::assert_gemm_eq(&c, &reference(&a, &b), k);
        }
    }

    #[test]
    fn dram_transfers_match_analytic_traffic_model() {
        // Independent cross-check: the packet machine's transfer count must
        // equal cake_core::traffic's prediction for the same schedule.
        let (m, k, n) = (32, 24, 40);
        let a = init::random::<f64>(m, k, 5);
        let b = init::random::<f64>(k, n, 6);
        let cfg = PacketSimConfig::balanced(2, 4, 1, 4.0);
        let (_, res) = simulate_packets(&a, &b, &cfg).unwrap();

        let (bm, bk, bn) = cfg.block_dims();
        let tp = TrafficParams { m, k, n, bm, bk, bn };
        let t = dram_traffic(Schedule::k_first(tp.grid(), m, n), tp, CResidency::HoldInLlc, 1);
        assert_eq!(res.dram_tile_transfers, t.total());
    }

    #[test]
    fn constant_bandwidth_property_figure4() {
        // Doubling p (with block volume growing p^2) must keep the
        // *average external bandwidth* essentially constant — the paper's
        // central claim, validated on the packet machine.
        let k_grid = 2;
        let dram = 3.0;
        let mut bws = Vec::new();
        for p in [2usize, 4, 8] {
            let (bm, _, bn) = PacketSimConfig::balanced(p, k_grid, 1, dram).block_dims();
            // Problem sized to a whole number of blocks for cleanliness.
            let (m, k, n) = (2 * bm, 8 * k_grid, 2 * bn);
            let a = init::random::<f64>(m, k, 7);
            let b = init::random::<f64>(k, n, 8);
            let cfg = PacketSimConfig::balanced(p, k_grid, 1, dram);
            let (_, res) = simulate_packets(&a, &b, &cfg).unwrap();
            bws.push(res.avg_dram_tiles_per_cycle);
        }
        let lo = bws.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = bws.iter().cloned().fold(0.0, f64::max);
        assert!(
            hi / lo < 1.35,
            "external bandwidth should stay constant as p grows: {bws:?}"
        );
    }

    #[test]
    fn throughput_scales_with_cores_at_constant_bandwidth() {
        // Same setup: cycles per MAC must drop ~p while bandwidth is flat.
        let k_grid = 2;
        let mut cpm = Vec::new();
        for p in [2usize, 4, 8] {
            let (bm, _, bn) = PacketSimConfig::balanced(p, k_grid, 1, 3.0).block_dims();
            let (m, k, n) = (2 * bm, 8 * k_grid, 2 * bn);
            let a = init::random::<f64>(m, k, 9);
            let b = init::random::<f64>(k, n, 10);
            let cfg = PacketSimConfig::balanced(p, k_grid, 1, 3.0);
            let (_, res) = simulate_packets(&a, &b, &cfg).unwrap();
            cpm.push(res.cycles as f64 / res.macs as f64);
        }
        assert!(cpm[1] < 0.6 * cpm[0], "{cpm:?}");
        assert!(cpm[2] < 0.6 * cpm[1], "{cpm:?}");
    }

    #[test]
    fn llc_overflow_is_detected() {
        let a = init::random::<f64>(16, 16, 11);
        let b = init::random::<f64>(16, 16, 12);
        let mut cfg = PacketSimConfig::balanced(2, 2, 1, 2.0);
        cfg.llc_capacity_tiles = 4; // absurdly small
        let err = simulate_packets(&a, &b, &cfg).unwrap_err();
        assert!(matches!(err, PacketSimError::LlcOverflow { .. }));
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = init::random::<f64>(4, 5, 13);
        let b = init::random::<f64>(6, 4, 14);
        let cfg = PacketSimConfig::balanced(1, 2, 1, 2.0);
        assert!(matches!(
            simulate_packets(&a, &b, &cfg),
            Err(PacketSimError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn balanced_config_obeys_sizing_rule() {
        let cfg = PacketSimConfig::balanced(4, 3, 2, 1.0);
        let (bm, bk, bn) = cfg.block_dims();
        assert_eq!((bm, bk, bn), (12, 3, 24));
        let (a, b, c) = (bm * bk, bk * bn, bm * bn);
        assert_eq!(cfg.llc_capacity_tiles, c + 2 * (a + b));
    }
}
