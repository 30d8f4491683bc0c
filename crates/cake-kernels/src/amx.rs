//! AMX int8 microkernel (x86_64 Linux, selected at run time).
//!
//! The `32 x 32` tile holds C in four AMX tile registers (`tmm0-3`, each
//! 16 rows of 16 i32), and each 64-deep k-step loads two A tiles
//! (`tmm4-5`, 16 rows of 64 k values) and two B tiles (`tmm6-7`, 16
//! k-groups of 16 columns x 4 k values) and issues four `tdpbssd`, each
//! 16 x 16 x 64 signed-by-signed byte MACs into i32. The kernel reads
//! [`LayoutKind::Tiles`](crate::pack::LayoutKind::Tiles) slivers, so every
//! tile load is one contiguous 1 KiB block, and K arrives zero-padded to a
//! multiple of 64, so the k-loop has no tail. Products are exact in i32,
//! so the kernel is bit-identical to the widening scalar reference.
//!
//! The kernel also reads a B sliver in place ([`BTiles`]): a `tileloadd`
//! takes its 16 rows at any stride, so a B whose tiles already sit in
//! memory (a convolution's input stored channel-group-interleaved,
//! `cake_dnn::quant`) is loaded with one instruction per tile and k-step
//! from its own base, step offset and row stride, and is never packed.
//! The A side and the C tiles are the packed kernel's. A C tile that is
//! partial (fewer than 32 live rows or columns) or strided is accumulated
//! into a dense 32 x 32 tile first, whose live corner is then added in.
//!
//! Three things are not available on stable Rust and are done by hand:
//!
//! * the instructions (`ldtilecfg`, `tileloadd`, `tdpbssd`, `tilestored`)
//!   go through `asm!`, because the AMX intrinsics are unstable;
//! * detection reads CPUID leaf 7 (EDX bits 22, 24 and 25), because
//!   `is_x86_feature_detected!("amx-int8")` is unstable;
//! * Linux hands out the tile-data register state only on request: one
//!   `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` per process,
//!   through the same `extern "C"` route `cake_core::pool::affinity` uses
//!   for `sched_setaffinity`. Until it succeeds, the first tile
//!   instruction would fault, so no kernel is handed out before it.
//!
//! The tile configuration (palette 1, eight 16 x 64-byte tiles) is loaded
//! once per thread, on the thread's first kernel call, and then stays: the
//! OS saves and restores it with the thread's register state. Code that
//! releases it (`tilerelease`) on a thread that has run this kernel would
//! leave the thread-local flag stale; nothing in the workspace does.
//!
//! The module is compiled out under Miri, which models none of this.

use std::arch::asm;
use std::arch::x86_64::{__cpuid_count, __get_cpuid_max};
use std::cell::Cell;
use std::sync::OnceLock;

use crate::pack::{PackLayout, TILE_K, TILE_ROWS};
use crate::ukernel::{BTiles, Ukr};

const MR: usize = 32;
const NR: usize = 32;

/// Bytes from one tile's rows to the next tile's in a k-step of a packed
/// sliver (`16 rows x 64 bytes`), and from one k-step to the next.
const TILE_BYTES: usize = TILE_ROWS * TILE_K;
const A_STEP_BYTES: usize = MR * TILE_K;
const B_STEP_BYTES: usize = NR * TILE_K;

/// The AMX features CPUID leaf 7 reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AmxFeatures {
    /// AMX-BF16 (EDX bit 22): `tdpbf16ps`.
    pub bf16: bool,
    /// AMX-TILE (EDX bit 24): the tile registers and their loads/stores.
    pub tile: bool,
    /// AMX-INT8 (EDX bit 25): `tdpbssd` and its signedness variants.
    pub int8: bool,
}

/// Read CPUID leaf 7, sub-leaf 0, EDX.
pub fn cpuid_features() -> AmxFeatures {
    // Leaf 7 is read only when the maximum basic leaf reports it.
    if __get_cpuid_max(0).0 < 7 {
        return AmxFeatures::default();
    }
    let edx = __cpuid_count(7, 0).edx;
    AmxFeatures {
        bf16: edx & (1 << 22) != 0,
        tile: edx & (1 << 24) != 0,
        int8: edx & (1 << 25) != 0,
    }
}

/// Whether this process may run the AMX int8 kernel: the CPU reports
/// AMX-TILE and AMX-INT8, and the OS granted the tile-data permission.
/// The permission is requested on the first call; later calls return the
/// cached answer.
pub fn int8_available() -> bool {
    static READY: OnceLock<bool> = OnceLock::new();
    *READY.get_or_init(|| {
        let f = cpuid_features();
        f.tile && f.int8 && request_tile_permission()
    })
}

/// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`: ask Linux to
/// enable the tile-data state component for this process. `true` when
/// granted.
#[cfg(target_os = "linux")]
fn request_tile_permission() -> bool {
    use std::ffi::c_long;
    const SYS_ARCH_PRCTL: c_long = 158;
    const ARCH_REQ_XCOMP_PERM: c_long = 0x1023;
    const XFEATURE_XTILEDATA: c_long = 18;
    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
    }
    // SAFETY: arch_prctl with ARCH_REQ_XCOMP_PERM takes two integer
    // arguments and touches no memory of ours; on an unsupported kernel it
    // returns an error code, never faults.
    unsafe { syscall(SYS_ARCH_PRCTL, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn request_tile_permission() -> bool {
    false
}

/// The int8 `32x32` AMX kernel (i32 accumulate), if this process may run
/// it ([`int8_available`]), with its in-place B entry.
pub fn amx_i8_32x32() -> Option<Ukr<i8>> {
    int8_available().then(|| {
        Ukr::with_layout(PackLayout::tiles(MR, NR), "amx_i8_32x32", ukr_i8_32x32).with_b_tiles(ukr_i8_b_tiles)
    })
}

/// The 64-byte `ldtilecfg` operand: palette 1, and tiles 0-7 each 16 rows
/// of 64 bytes (`colsb` is a little-endian u16 per tile from byte 16,
/// `rows` one byte per tile from byte 48).
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

static TILE_CONFIG: TileConfig = tile_config();

const fn tile_config() -> TileConfig {
    let mut cfg = [0u8; 64];
    cfg[0] = 1;
    let mut t = 0;
    while t < 8 {
        cfg[16 + 2 * t] = TILE_K as u8;
        cfg[48 + t] = TILE_ROWS as u8;
        t += 1;
    }
    TileConfig(cfg)
}

thread_local! {
    /// Whether this thread has loaded [`TILE_CONFIG`].
    static CONFIGURED: Cell<bool> = const { Cell::new(false) };
}

/// Load the tile configuration unless this thread already has.
#[inline]
fn configure_tiles() {
    if !CONFIGURED.get() {
        // SAFETY: only reached through `ukr_i8_32x32`, which is installed
        // after `int8_available` saw AMX-TILE and got the tile-data
        // permission; `ldtilecfg` reads the 64 bytes of TILE_CONFIG, a
        // valid palette-1 configuration, and writes no memory.
        unsafe {
            asm!(
                "ldtilecfg [{cfg}]",
                cfg = in(reg) TILE_CONFIG.0.as_ptr(),
                options(nostack, readonly, preserves_flags),
            )
        };
        CONFIGURED.set(true);
    }
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract for the `32x32` tile layout, plus
/// AMX-TILE/AMX-INT8 with the tile-data permission granted, which
/// [`amx_i8_32x32`] checks before handing out this pointer.
unsafe fn ukr_i8_32x32(kc: usize, a: *const i8, b: *const i8, c: *mut i32, rsc: usize, csc: usize) {
    if kc == 0 {
        return;
    }
    configure_tiles();
    let steps = kc.div_ceil(TILE_K);
    if csc == 1 {
        // SAFETY: the caller's contract: a and b hold steps k-steps of
        // packed tiles, and row-major C rows i < 32 hold 32 valid i32.
        unsafe { tile_gemm(steps, a, b, c, rsc) };
    } else {
        // Strided C: accumulate into a dense tile, then add it in.
        let mut tile = [0i32; MR * NR];
        // SAFETY: a/b as above; tile is a dense 32 x 32 i32 block.
        unsafe { tile_gemm(steps, a, b, tile.as_mut_ptr(), NR) };
        // SAFETY: the contract makes c[i*rsc + j*csc] valid for i, j < 32.
        unsafe { add_tile(&tile, c, (rsc, csc), (MR, NR)) };
    }
}

/// The in-place B entry ([`crate::ukernel::BTilesFn`]): a whole row-major
/// tile runs straight into C, any other through a dense tile.
///
/// # Safety
/// [`crate::ukernel::BTilesFn`]'s contract for the `32x32` tile layout,
/// plus AMX-TILE/AMX-INT8 with the tile-data permission granted, which
/// [`amx_i8_32x32`] checks before handing out this pointer.
unsafe fn ukr_i8_b_tiles(
    a: *const i8,
    b: BTiles<'_, i8>,
    c: *mut i32,
    (rsc, csc): (usize, usize),
    (mrows, ncols): (usize, usize),
) {
    if b.steps.is_empty() || mrows == 0 || ncols == 0 {
        return;
    }
    configure_tiles();
    if (mrows, ncols, csc) == (MR, NR, 1) {
        // SAFETY: the caller's contract: a holds the steps' packed A
        // tiles, b names readable tile rows, and C rows i < 32 hold 32
        // valid i32.
        unsafe { tile_gemm_b(a, b, c, rsc) };
        return;
    }
    let mut tile = [0i32; MR * NR];
    // SAFETY: a/b as above; tile is a dense 32 x 32 i32 block.
    unsafe { tile_gemm_b(a, b, tile.as_mut_ptr(), NR) };
    // SAFETY: the contract makes c[i*rsc + j*csc] valid for i < mrows,
    // j < ncols.
    unsafe { add_tile(&tile, c, (rsc, csc), (mrows, ncols)) };
}

/// Add the `mrows x ncols` corner of a dense `32 x 32` tile into C.
///
/// # Safety
/// `c[i*rsc + j*csc]` is valid for `i < mrows`, `j < ncols`.
unsafe fn add_tile(tile: &[i32; MR * NR], c: *mut i32, (rsc, csc): (usize, usize), (mrows, ncols): (usize, usize)) {
    for (i, row) in tile.chunks_exact(NR).enumerate().take(mrows) {
        for (j, &v) in row.iter().enumerate().take(ncols) {
            // SAFETY: i < mrows and j < ncols, valid by the contract.
            unsafe { *c.add(i * rsc + j * csc) += v };
        }
    }
}

/// `C[0..32][0..32] += A * B` over `steps` k-steps of packed tiles, with
/// C's rows `rs` i32 apart.
///
/// # Safety
/// This thread's tile configuration is loaded; `a` and `b` hold `steps *
/// 2048` bytes (32 rows or columns of 64 bytes per step); rows `0..32` of
/// C hold 32 i32 each at `c + i * rs`.
#[inline]
unsafe fn tile_gemm(steps: usize, a: *const i8, b: *const i8, c: *mut i32, rs: usize) {
    // C rows 16..32: the lower two C tiles.
    let c_low = c.wrapping_add(TILE_ROWS * rs);
    // audit: bounds amx_c_tile amx_a_tile_load amx_b_tile_load
    // SAFETY: the C tiles are C's rows 0..32 at columns 0 and 16, stride
    // rs*4 bytes: inside C by the contract. Step s < steps loads A and B
    // tiles of 16 x 64 bytes at s*2048 and s*2048 + 1024: inside both
    // slivers (steps*2048 bytes). The configuration is loaded, and the
    // compiler never allocates tile registers.
    unsafe {
        asm!(
            "tileloadd tmm0, [{c0} + {cs}*1]",
            "tileloadd tmm1, [{c0} + {cs}*1 + 64]",
            "tileloadd tmm2, [{c1} + {cs}*1]",
            "tileloadd tmm3, [{c1} + {cs}*1 + 64]",
            "2:",
            "tileloadd tmm4, [{a} + {s}*1]",
            "tileloadd tmm6, [{b} + {s}*1]",
            "tdpbssd tmm0, tmm4, tmm6",
            "tileloadd tmm7, [{b} + {s}*1 + {tile}]",
            "tdpbssd tmm1, tmm4, tmm7",
            "tileloadd tmm5, [{a} + {s}*1 + {tile}]",
            "tdpbssd tmm2, tmm5, tmm6",
            "tdpbssd tmm3, tmm5, tmm7",
            "add {a}, {astep}",
            "add {b}, {bstep}",
            "dec {n}",
            "jnz 2b",
            "tilestored [{c0} + {cs}*1], tmm0",
            "tilestored [{c0} + {cs}*1 + 64], tmm1",
            "tilestored [{c1} + {cs}*1], tmm2",
            "tilestored [{c1} + {cs}*1 + 64], tmm3",
            a = inout(reg) a => _,
            b = inout(reg) b => _,
            n = inout(reg) steps => _,
            c0 = in(reg) c,
            c1 = in(reg) c_low,
            cs = in(reg) rs * 4,
            s = in(reg) TILE_K,
            tile = const TILE_BYTES,
            astep = const A_STEP_BYTES,
            bstep = const B_STEP_BYTES,
            options(nostack),
        );
    }
}

/// [`tile_gemm`] with B read in place: step `s` loads B tile `t` from
/// `b.tiles[t] + b.steps[s]`, its 16 rows `b.row_stride` bytes apart.
///
/// # Safety
/// This thread's tile configuration is loaded; `a` holds
/// `b.steps.len() * 2048` bytes; `b.steps` is not empty and every tile row
/// it names is readable for 64 bytes; rows `0..32` of C hold 32 i32 each
/// at `c + i * rs`.
#[inline]
unsafe fn tile_gemm_b(a: *const i8, b: BTiles<'_, i8>, c: *mut i32, rs: usize) {
    let c_low = c.wrapping_add(TILE_ROWS * rs);
    let [b0, b1] = b.tiles;
    // audit: bounds amx_c_tile amx_a_tile_load amx_b_tile_in_place
    // SAFETY: the C tiles and A tiles as in `tile_gemm`. Step s < steps
    // loads B tile t from tiles[t] + steps[s], 16 rows of 64 bytes at
    // stride row_stride: readable by the contract. `off` walks the step
    // offsets, one usize each.
    unsafe {
        asm!(
            "tileloadd tmm0, [{c0} + {cs}*1]",
            "tileloadd tmm1, [{c0} + {cs}*1 + 64]",
            "tileloadd tmm2, [{c1} + {cs}*1]",
            "tileloadd tmm3, [{c1} + {cs}*1 + 64]",
            "2:",
            "mov {t}, qword ptr [{off}]",
            "lea {p}, [{b0} + {t}]",
            "tileloadd tmm6, [{p} + {rb}*1]",
            "tileloadd tmm4, [{a} + {s}*1]",
            "tdpbssd tmm0, tmm4, tmm6",
            "lea {p}, [{b1} + {t}]",
            "tileloadd tmm7, [{p} + {rb}*1]",
            "tdpbssd tmm1, tmm4, tmm7",
            "tileloadd tmm5, [{a} + {s}*1 + {tile}]",
            "tdpbssd tmm2, tmm5, tmm6",
            "tdpbssd tmm3, tmm5, tmm7",
            "add {a}, {astep}",
            "add {off}, 8",
            "dec {n}",
            "jnz 2b",
            "tilestored [{c0} + {cs}*1], tmm0",
            "tilestored [{c0} + {cs}*1 + 64], tmm1",
            "tilestored [{c1} + {cs}*1], tmm2",
            "tilestored [{c1} + {cs}*1 + 64], tmm3",
            a = inout(reg) a => _,
            off = inout(reg) b.steps.as_ptr() => _,
            n = inout(reg) b.steps.len() => _,
            b0 = in(reg) b0,
            b1 = in(reg) b1,
            rb = in(reg) b.row_stride,
            t = out(reg) _,
            p = out(reg) _,
            c0 = in(reg) c,
            c1 = in(reg) c_low,
            cs = in(reg) rs * 4,
            s = in(reg) TILE_K,
            tile = const TILE_BYTES,
            astep = const A_STEP_BYTES,
            options(nostack),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ukernel::reference_ukr;
    use cake_matrix::init;

    /// The kernel against `reference_ukr` on one 32 x 32 tile: A and B
    /// packed in the tile layout, the reference fed the same values
    /// k-major. C is pre-filled so accumulation (not overwrite) is checked.
    fn check(ukr: &Ukr<i8>, kc: usize, rsc: usize, csc: usize, seed: u64) {
        let layout = ukr.pack_layout();
        let a = init::random_i8(MR, kc, seed);
        let b = init::random_i8(kc, NR, seed + 1);
        let mut pa = vec![99i8; layout.a_size(MR, kc)];
        let mut pb = vec![99i8; layout.b_size(kc, NR)];
        layout.pack_a(&a.view(), &mut pa);
        layout.pack_b(&b.view(), &mut pb);
        let ka: Vec<i8> = (0..kc).flat_map(|k| (0..MR).map(move |i| (i, k))).map(|(i, k)| a.get(i, k)).collect();
        let kb: Vec<i8> = (0..kc).flat_map(|k| (0..NR).map(move |j| (k, j))).map(|(k, j)| b.get(k, j)).collect();
        let len = 31 * rsc + 31 * csc + 1;
        let mut c: Vec<i32> = (0..len).map(|i| (i % 13) as i32 - 6).collect();
        let mut want = c.clone();
        // SAFETY: pa/pb are whole tile-layout slivers for kc, and c holds
        // every c[i*rsc + j*csc] for i, j < 32.
        unsafe { ukr.call(kc, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), rsc, csc) };
        reference_ukr(kc, MR, NR, &ka, &kb, &mut want, rsc, csc);
        assert_eq!(c, want, "kc={kc} rsc={rsc} csc={csc}");
    }

    #[test]
    fn matches_reference_for_every_kc_and_c_layout() {
        let Some(ukr) = amx_i8_32x32() else {
            return;
        };
        for kc in 1..=130 {
            check(&ukr, kc, NR, 1, kc as u64);
        }
        for kc in [1, 63, 64, 65, 128, 300] {
            check(&ukr, kc, NR + 5, 1, 7);
            check(&ukr, kc, 1, MR, 8);
            check(&ukr, kc, 1, MR + 3, 9);
        }
    }

    #[test]
    fn edge_tiles_match_reference_through_run_tile() {
        let Some(ukr) = amx_i8_32x32() else {
            return;
        };
        let layout = ukr.pack_layout();
        for kc in [1, 63, 64, 65, 130] {
            for (rows, cols) in [(1, 1), (5, 32), (32, 7), (16, 16), (17, 31), (31, 17)] {
                let a = init::random_i8(rows, kc, (kc * 7 + rows) as u64);
                let b = init::random_i8(kc, cols, (kc * 11 + cols) as u64);
                let mut pa = vec![0i8; layout.a_size(rows, kc)];
                let mut pb = vec![0i8; layout.b_size(kc, cols)];
                layout.pack_a(&a.view(), &mut pa);
                layout.pack_b(&b.view(), &mut pb);
                let ld = cols + 2;
                let mut c = vec![3i32; rows * ld];
                // SAFETY: whole zero-padded slivers; the rows x cols region
                // at row stride ld lies inside c.
                unsafe { crate::edge::run_tile(&ukr, kc, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), ld, 1, rows, cols) };
                for i in 0..rows {
                    for j in 0..ld {
                        let want = if j < cols {
                            3 + (0..kc).map(|k| a.get(i, k) as i32 * b.get(k, j) as i32).sum::<i32>()
                        } else {
                            3
                        };
                        assert_eq!(c[i * ld + j], want, "kc={kc} {rows}x{cols} at ({i},{j})");
                    }
                }
            }
        }
    }

    /// The in-place entry against the widening reference: A packed, B's
    /// tiles copied out of a packed sliver to a row stride wider than a
    /// tile row, tile 1 before tile 0 and the k-steps in reverse order,
    /// everything else in the buffer garbage. Full, partial and strided C
    /// tiles; nothing outside the live corner changes.
    #[test]
    fn b_tiles_read_in_place_match_reference() {
        let Some(ukr) = amx_i8_32x32() else {
            return;
        };
        assert!(ukr.reads_b_tiles());
        let layout = ukr.pack_layout();
        for steps in 1..=4usize {
            let kc = steps * TILE_K;
            let a = init::random_i8(MR, kc, steps as u64);
            let b = init::random_i8(kc, NR, steps as u64 + 10);
            let mut pa = vec![0i8; layout.a_size(MR, kc)];
            let mut pb = vec![0i8; layout.b_size(kc, NR)];
            layout.pack_a(&a.view(), &mut pa);
            layout.pack_b(&b.view(), &mut pb);
            let row = TILE_K + 24;
            let mut src = vec![99i8; (2 * steps + 1) * TILE_ROWS * row];
            let tiles = [TILE_ROWS * row, 0];
            let offs: Vec<usize> = (0..steps).map(|s| (steps - 1 - s) * 2 * TILE_ROWS * row + TILE_ROWS * row).collect();
            for (s, &off) in offs.iter().enumerate() {
                for (t, &base) in tiles.iter().enumerate() {
                    for r in 0..TILE_ROWS {
                        let at = base + off + r * row;
                        let from = s * B_STEP_BYTES + t * TILE_BYTES + r * TILE_K;
                        src[at..at + TILE_K].copy_from_slice(&pb[from..from + TILE_K]);
                    }
                }
            }
            let bt = BTiles { tiles: tiles.map(|t| src.as_ptr().wrapping_add(t)), steps: &offs, row_stride: row };
            for (mrows, ncols, rsc, csc) in [(32, 32, 32, 1), (32, 32, 40, 1), (5, 32, 32, 1), (32, 7, 32, 1), (17, 31, 1, 33), (1, 1, 3, 1)] {
                let len = 31 * rsc + 31 * csc + 1;
                let mut c: Vec<i32> = (0..len).map(|i| (i % 7) as i32 - 3).collect();
                let before = c.clone();
                // SAFETY: pa is a whole A sliver of `steps` k-steps, every
                // tile row bt names lies inside src, and c holds every
                // c[i*rsc + j*csc] for i, j < 32.
                unsafe { ukr.call_b_tiles(pa.as_ptr(), bt, c.as_mut_ptr(), (rsc, csc), (mrows, ncols)) };
                for i in 0..MR {
                    for j in 0..NR {
                        let at = i * rsc + j * csc;
                        let dot = (0..kc).map(|k| a.get(i, k) as i32 * b.get(k, j) as i32).sum::<i32>();
                        let want = before[at] + if i < mrows && j < ncols { dot } else { 0 };
                        assert_eq!(c[at], want, "steps={steps} {mrows}x{ncols} rsc={rsc} csc={csc} at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn extremes_are_exact() {
        let Some(ukr) = amx_i8_32x32() else {
            return;
        };
        let layout = ukr.pack_layout();
        for (va, vb) in [(-128i8, -128i8), (127, -128), (-128, 127)] {
            let kc = 200;
            let mut pa = vec![0i8; layout.a_size(MR, kc)];
            let mut pb = vec![0i8; layout.b_size(kc, NR)];
            layout.pack_a(&cake_matrix::Matrix::from_fn(MR, kc, |_, _| va).view(), &mut pa);
            layout.pack_b(&cake_matrix::Matrix::from_fn(kc, NR, |_, _| vb).view(), &mut pb);
            let mut c = vec![1i32; MR * NR];
            // SAFETY: whole slivers and a dense 32 x 32 C.
            unsafe { ukr.call(kc, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), NR, 1) };
            assert!(c.iter().all(|&x| x == 1 + kc as i32 * va as i32 * vb as i32), "{va} x {vb}");
        }
    }

    #[test]
    fn tile_config_is_palette_one_with_eight_full_tiles() {
        let cfg = &TILE_CONFIG.0;
        assert_eq!(cfg[0], 1);
        for t in 0..8 {
            assert_eq!(u16::from_le_bytes([cfg[16 + 2 * t], cfg[17 + 2 * t]]), 64);
            assert_eq!(cfg[48 + t], 16);
        }
        assert!(cfg[16 + 16..48].iter().all(|&x| x == 0) && cfg[56..].iter().all(|&x| x == 0));
    }

    #[test]
    fn detection_agrees_with_cpuid() {
        let f = cpuid_features();
        if !(f.tile && f.int8) {
            assert!(!int8_available());
            assert!(amx_i8_32x32().is_none());
        }
        // Asking twice gives the cached answer.
        assert_eq!(int8_available(), int8_available());
    }
}
