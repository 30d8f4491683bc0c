//! AVX-512F microkernels (x86_64 only, selected at runtime).
//!
//! Register blocking widens the AVX2 Haswell tiles to the 32-register
//! zmm file (MOMMS: the tile shape must grow with the machine's
//! compute/bandwidth ratio):
//!
//! * f32 `14 x 32`: 28 accumulator ZMM registers (14 rows x 2 vectors of
//!   16 lanes), 2 registers for the `B` row, 1 for the `A` broadcast —
//!   31 of the 32 architectural ZMM registers. One const-generic body
//!   (`f32_tile`) serves the full tile and every partial one: an
//!   instance runs `ROWS` rows against `VECS` 16-column vectors and writes
//!   only the live columns, so an edge tile costs its live region.
//! * f64 `8 x 16`: 16 accumulators (8 rows x 2 vectors of 8 lanes) + 3.
//!
//! Both kernels share the AVX2 tier's structure: a fast store path for
//! unit column stride (`csc == 1`, row-major `C`; masked to the live
//! columns in the f32 body) and a scalar fallback for arbitrary strides.
//! The K-loop additionally issues software
//! prefetches [`PF_DIST_K`] iterations ahead into the current packed
//! slivers, and the `C` tile rows are prefetched once at kernel entry so
//! the read-modify-write at store time hits cache (the BLIS prefetch
//! discipline). Only `avx512f` is required; the wider `bw/dq/vl` subsets
//! are not used.

use core::arch::x86_64::*;

use cake_matrix::Bf16;

use crate::ukernel::{EdgeFn, Ukr};

/// K-loop software-prefetch distance, in k iterations. One iteration of
/// the f32 kernel consumes 56 B of A and 128 B of B; four iterations
/// ahead keeps ~0.5 KiB in flight — far enough to cover an L2 hit,
/// near enough not to thrash L1. Shared with the AVX2 tier.
pub const PF_DIST_K: usize = 4;

/// The f32 `14x32` AVX-512F kernel, if the CPU supports it. Its partial
/// tiles run the instance of its kernel body for their live shape, which
/// writes only the live region (see [`crate::edge`]).
pub fn avx512_f32_14x32() -> Option<Ukr<f32>> {
    if is_x86_feature_detected!("avx512f") {
        Some(Ukr::new(14, 32, "avx512_f32_14x32", ukr_f32_14x32).with_edge(f32_edge))
    } else {
        None
    }
}

/// The f64 `8x16` AVX-512F kernel, if the CPU supports it.
pub fn avx512_f64_8x16() -> Option<Ukr<f64>> {
    if is_x86_feature_detected!("avx512f") {
        Some(Ukr::new(8, 16, "avx512_f64_8x16", ukr_f64_8x16))
    } else {
        None
    }
}

/// The int8 `16x16` AVX-512 VNNI kernel (i32 accumulate), if the CPU
/// supports it. Needs F+BW (byte masks), VNNI (`vpdpbusd`), and VBMI
/// (`vpermb` for the in-register 4-k interleave — the packed sliver
/// layout stays plain k-major, shared with every other dtype).
///
/// `vpdpbusd` multiplies *unsigned* bytes by signed bytes, so A is biased
/// by +128 (one XOR) and the bias is cancelled at store time with a
/// per-column compensation row: `C += acc - 128 * sum_k B[k][j]`, where
/// the column sums ride along in a 17th accumulator fed by an all-ones
/// unsigned operand. The compensation is exact in i32, so the kernel is
/// bit-exact against the widening scalar reference for all inputs,
/// including `-128` and zero-padded sliver tails.
pub fn avx512_vnni_i8_16x16() -> Option<Ukr<i8>> {
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni")
        && is_x86_feature_detected!("avx512vbmi")
    {
        Some(Ukr::new(16, 16, "avx512_vnni_i8_16x16", ukr_i8_16x16))
    } else {
        None
    }
}

/// The bf16 `14x32` AVX-512 BF16 kernel (f32 accumulate), if the CPU
/// supports it. Needs F+BW (`vpermt2w` for the in-register 2-k pair
/// interleave) and BF16 (`vdpbf16ps`). Same 14x32 tile as the f32 kernel:
/// 28 f32 accumulators, each `vdpbf16ps` retiring two k steps.
pub fn avx512_bf16_14x32() -> Option<Ukr<Bf16>> {
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512bf16")
    {
        Some(Ukr::new(14, 32, "avx512_bf16_14x32", ukr_bf16_14x32))
    } else {
        None
    }
}

/// The full f32 tile: the `<14, 2>` instance of [`f32_tile`] with all 32
/// columns live.
///
/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract, plus AVX-512F must be available.
#[target_feature(enable = "avx512f")]
unsafe fn ukr_f32_14x32(kc: usize, a: *const f32, b: *const f32, c: *mut f32, rsc: usize, csc: usize) {
    // SAFETY: installed only by `avx512_f32_14x32` after runtime AVX-512F
    // detection; UkrFn's contract makes all 14 x 32 C elements valid, which
    // is f32_tile's contract at ROWS = 14, VECS = 2, ncols = 32.
    unsafe { f32_tile::<14, 2>(kc, a, b, c, rsc, csc, 32) }
}

/// The f32 kernel's partial-tile instances: row `r - 1` holds the `r`-row
/// instances, one per number of live 16-column vectors.
static F32_TILES: [[EdgeFn<f32>; 2]; 14] = {
    macro_rules! rows {
        ($($r:literal)*) => { [$([f32_tile::<$r, 1> as EdgeFn<f32>, f32_tile::<$r, 2>]),*] };
    }
    rows!(1 2 3 4 5 6 7 8 9 10 11 12 13 14)
};

/// The f32 instance for a live `mrows x ncols` region: `mrows` rows and
/// `ceil(ncols / 16)` column vectors. `None` outside `1..=14 x 1..=32`.
fn f32_edge(mrows: usize, ncols: usize) -> Option<EdgeFn<f32>> {
    let row = F32_TILES.get(mrows.wrapping_sub(1))?;
    row.get(ncols.div_ceil(16).wrapping_sub(1)).copied()
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract, plus AVX-512F must be available.
unsafe fn ukr_f64_8x16(kc: usize, a: *const f64, b: *const f64, c: *mut f64, rsc: usize, csc: usize) {
    // SAFETY: installed by `avx512_f64_8x16` after AVX-512F detection;
    // the caller upholds UkrFn's contract.
    unsafe { ukr_f64_8x16_impl(kc, a, b, c, rsc, csc) }
}

/// The f32 kernel body. An instance multiplies the first `ROWS` rows
/// (1..=14) of a packed 14-row A sliver by the first `VECS` 16-column
/// vectors (1 or 2) of a packed 32-column B sliver, reading both at the
/// full tile's strides (`a[k*14 + i]`, `b[k*32 + j]`), and adds the result
/// into the first `ncols` columns of C. Each C element gets the same FMAs
/// in the same k order as in the full tile, so a partial tile written here
/// equals the full tile's corner bit for bit.
///
/// # Safety
/// [`EdgeFn`]'s contract at `rows = ROWS`: `a` holds `kc*14` elements, `b`
/// holds `kc*32`, `c[i*rsc + j*csc]` is valid for `i < ROWS`, `j < ncols`,
/// and `16*(VECS-1) < ncols <= 16*VECS`. AVX-512F is enforced by
/// `target_feature`.
#[target_feature(enable = "avx512f")]
unsafe fn f32_tile<const ROWS: usize, const VECS: usize>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    rsc: usize,
    csc: usize,
    ncols: usize,
) {
    const MR: usize = 14;
    const NR: usize = 32;
    // Lane l of vector v is live when 16v + l < ncols.
    let live: u32 = if ncols >= NR { u32::MAX } else { (1u32 << ncols) - 1 };
    let masks: [__mmask16; 2] = [live as u16, (live >> 16) as u16];

    // Vector v's unit-stride C row base, row + 16v, is itself a live
    // column (16v < ncols), and the unaligned intrinsics need no alignment.
    // SAFETY: the contract gives `a` kc*14 elements, `b` kc*32 and C cells
    // c[i*rsc + j*csc] for i < ROWS, j < ncols. A reads a[k*14 + i], i < ROWS;
    // B reads b[k*32 + 16v..][..16], v < VECS; prefetched k is clamped to
    // [0, kc). Unit-stride C moves only the lanes set in `masks` (a masked-
    // off lane is never accessed), the strided path only columns j < ncols.
    unsafe {
        // Warm the C tile while the K-loop runs: these are exactly the
        // row base addresses the store loop will read-modify-write.
        if csc == 1 {
            for i in 0..ROWS {
                _mm_prefetch(c.add(i * rsc).cast::<i8>(), _MM_HINT_T0);
            }
        }

        let mut acc = [[_mm512_setzero_ps(); VECS]; ROWS];

        for k in 0..kc {
            let kpf = (k + PF_DIST_K).min(kc - 1);
            _mm_prefetch(a.add(kpf * MR).cast::<i8>(), _MM_HINT_T0);
            // One B row is 128 B = two cache lines, one per vector.
            for v in 0..VECS {
                _mm_prefetch(b.add(kpf * NR + 16 * v).cast::<i8>(), _MM_HINT_T0);
            }

            let bk = b.add(k * NR);
            let mut bv = [_mm512_setzero_ps(); VECS];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = _mm512_loadu_ps(bk.add(16 * v));
            }
            let ak = a.add(k * MR);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*ak.add(i));
                for (x, &bx) in row.iter_mut().zip(&bv) {
                    *x = _mm512_fmadd_ps(ai, bx, *x);
                }
            }
        }

        if csc == 1 {
            for (i, row) in acc.iter().enumerate() {
                let crow = c.add(i * rsc);
                for (v, (&x, &m)) in row.iter().zip(&masks).enumerate() {
                    let p = crow.add(16 * v);
                    let cv = _mm512_maskz_loadu_ps(m, p);
                    _mm512_mask_storeu_ps(p, m, _mm512_add_ps(cv, x));
                }
            }
        } else {
            let mut lanes = [0.0f32; NR];
            for (i, row) in acc.iter().enumerate() {
                for (v, &x) in row.iter().enumerate() {
                    _mm512_storeu_ps(lanes.as_mut_ptr().add(16 * v), x);
                }
                for (j, &x) in lanes.iter().take(ncols).enumerate() {
                    let p = c.add(i * rsc + j * csc);
                    *p += x;
                }
            }
        }
    }
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract; AVX-512F enforced by `target_feature`.
#[target_feature(enable = "avx512f")]
unsafe fn ukr_f64_8x16_impl(
    kc: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    rsc: usize,
    csc: usize,
) {
    const MR: usize = 8;
    const NR: usize = 16;

    // SAFETY: UkrFn's contract gives `a` kc*8 elements, `b` kc*16
    // elements, and valid non-aliasing C addresses c[i*rsc + j*csc] for
    // i < 8, j < 16. All offsets below stay within those ranges, the
    // prefetch offsets are clamped to the same ranges, and the unaligned
    // load/store intrinsics have no alignment requirement.
    unsafe {
        if csc == 1 {
            for i in 0..MR {
                _mm_prefetch(c.add(i * rsc).cast::<i8>(), _MM_HINT_T0);
            }
        }

        let mut acc0 = [_mm512_setzero_pd(); MR];
        let mut acc1 = [_mm512_setzero_pd(); MR];

        for k in 0..kc {
            let kpf = (k + PF_DIST_K).min(kc - 1);
            _mm_prefetch(a.add(kpf * MR).cast::<i8>(), _MM_HINT_T0);
            // One B row is 128 B = two cache lines.
            _mm_prefetch(b.add(kpf * NR).cast::<i8>(), _MM_HINT_T0);
            _mm_prefetch(b.add(kpf * NR + 8).cast::<i8>(), _MM_HINT_T0);

            let bk = b.add(k * NR);
            let b0 = _mm512_loadu_pd(bk);
            let b1 = _mm512_loadu_pd(bk.add(8));
            let ak = a.add(k * MR);
            for i in 0..MR {
                let ai = _mm512_set1_pd(*ak.add(i));
                acc0[i] = _mm512_fmadd_pd(ai, b0, acc0[i]);
                acc1[i] = _mm512_fmadd_pd(ai, b1, acc1[i]);
            }
        }

        if csc == 1 {
            for i in 0..MR {
                let row = c.add(i * rsc);
                let c0 = _mm512_loadu_pd(row);
                let c1 = _mm512_loadu_pd(row.add(8));
                _mm512_storeu_pd(row, _mm512_add_pd(c0, acc0[i]));
                _mm512_storeu_pd(row.add(8), _mm512_add_pd(c1, acc1[i]));
            }
        } else {
            let mut lanes = [0.0f64; NR];
            for i in 0..MR {
                _mm512_storeu_pd(lanes.as_mut_ptr(), acc0[i]);
                _mm512_storeu_pd(lanes.as_mut_ptr().add(8), acc1[i]);
                for (j, &v) in lanes.iter().enumerate() {
                    let p = c.add(i * rsc + j * csc);
                    *p += v;
                }
            }
        }
    }
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract, plus AVX-512 F/BW/VNNI/VBMI must
/// be available.
unsafe fn ukr_i8_16x16(kc: usize, a: *const i8, b: *const i8, c: *mut i32, rsc: usize, csc: usize) {
    // SAFETY: installed by `avx512_vnni_i8_16x16` after runtime detection
    // of all four features; the caller upholds UkrFn's contract.
    unsafe { ukr_i8_16x16_impl(kc, a, b, c, rsc, csc) }
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract, plus AVX-512 F/BW/BF16 must be
/// available.
unsafe fn ukr_bf16_14x32(kc: usize, a: *const Bf16, b: *const Bf16, c: *mut f32, rsc: usize, csc: usize) {
    // SAFETY: installed by `avx512_bf16_14x32` after runtime detection of
    // all three features; the caller upholds UkrFn's contract.
    unsafe { ukr_bf16_14x32_impl(kc, a, b, c, rsc, csc) }
}

/// Groups of four k values staged per chunk of the VNNI kernel's A
/// pre-pass (4 KiB of stack — comfortably L1-resident alongside the B
/// panel slice the hot loop streams).
const VNNI_CHUNK: usize = 64;

/// 64-byte-aligned staging buffer: the VNNI kernel's pre-pass writes one
/// permuted+biased A group (16 dwords) per slot, and the hot loop reads
/// each row operand back as a plain `vpbroadcastd` load (one port-2/3
/// uop) instead of a cross-lane shuffle — shuffles share ports with
/// `vpdpbusd`, so every one issued in the hot loop would steal a MAC slot.
#[repr(align(64))]
struct Staged {
    // Accessed exclusively through `MaybeUninit` pointer casts; the field
    // exists to give the buffer its size and 64-byte alignment.
    _slots: [i32; 16 * VNNI_CHUNK],
}

/// 4-k interleave permutation for the VNNI kernel: output byte
/// `4*lane + t` takes input byte `t*16 + lane`, so one 64-byte load of
/// four k-major 16-wide rows becomes one dword per row/column holding
/// its four consecutive k values — exactly `vpdpbusd`'s operand shape.
/// The same index serves A and B because both use 16-element rows.
static VNNI_IDX: [u8; 64] = vnni_idx();

const fn vnni_idx() -> [u8; 64] {
    let mut idx = [0u8; 64];
    let mut lane = 0;
    while lane < 16 {
        let mut t = 0;
        while t < 4 {
            idx[4 * lane + t] = (t * 16 + lane) as u8;
            t += 1;
        }
        lane += 1;
    }
    idx
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract; features enforced by
/// `target_feature`.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512vbmi")]
unsafe fn ukr_i8_16x16_impl(
    kc: usize,
    a: *const i8,
    b: *const i8,
    c: *mut i32,
    rsc: usize,
    csc: usize,
) {
    const MR: usize = 16;
    const NR: usize = 16;

    // UkrFn's contract gives `a` kc*16 i8 elements, `b` kc*16 i8 elements,
    // and valid non-aliasing C addresses c[i*rsc + j*csc] for i < 16,
    // j < 16. Full-group loads read the 64 bytes at offset k0*16 with
    // k0 + 4 <= kc, so they stay inside kc*16; the tail load is byte-masked
    // to the remaining rem*16 bytes (masked-off bytes are never touched).
    // SAFETY: the contract above bounds every pointer add; prefetch offsets
    // are clamped to [0, kc); the unaligned intrinsics have no alignment
    // requirement; the relay store is 64 bytes into an align(64) buffer.
    unsafe {
        // Load the permutation through an opaque pointer: with a
        // known-constant selector LLVM rewrites the staging `vpermb` into
        // a ~13-op xmm unpack chain that floods the shuffle ports the
        // MACs need. One black_box per call pins it as a single vpermb.
        let vidx = _mm512_loadu_si512(std::hint::black_box(VNNI_IDX.as_ptr()).cast());
        // a ^ 0x80 == a + 128 reinterpreted as unsigned: vpdpbusd wants a
        // u8 left operand. The +128 bias adds 128 * sum_k b[k][j] to every
        // accumulator row, which `comp` tracks exactly for store-time
        // cancellation.
        let bias = _mm512_set1_epi8(-128i8);
        let ones = _mm512_set1_epi8(1);

        if csc == 1 {
            for i in 0..MR {
                _mm_prefetch(c.add(i * rsc).cast::<i8>(), _MM_HINT_T0);
            }
        }

        let mut acc = [_mm512_setzero_si512(); MR];
        let mut comp = _mm512_setzero_si512();
        // Deliberately uninitialized: zero-filling 8 KiB of staging per
        // call compiles to a memset that dwarfs the MAC loop at small kc.
        // Every slot the kernel reads is stored first — the prologue
        // stages chunk 0's `min(VNNI_CHUNK, groups)` slots, iteration ci
        // reads exactly the `len` slots that the prologue (ci = 0) or
        // iteration ci-1's staging pass (`nlen == len` of ci) wrote, and
        // the k-tail writes slot 0 of `staged[0]` before reading it.
        let mut staged = [
            std::mem::MaybeUninit::<Staged>::uninit(),
            std::mem::MaybeUninit::<Staged>::uninit(),
        ];

        let groups = kc / 4;
        let rem = kc % 4;

        // Chunk-pipelined schedule: while the hot loop consumes chunk c's
        // staged A groups as dword broadcasts, it also permutes+biases
        // chunk c+1 into the other staging buffer. The staging shuffles
        // ride the hot loop's idle shuffle/store slots (`vpdpbusd` leaves
        // them free), and every staged read sits a whole chunk after its
        // store — so staging costs neither MAC slots nor forwarding stalls.
        let chunks = groups.div_ceil(VNNI_CHUNK);
        for cg in 0..VNNI_CHUNK.min(groups) {
            // Prologue: stage chunk 0.
            let araw = _mm512_loadu_si512(a.add(cg * 4 * MR).cast());
            let au = _mm512_xor_si512(_mm512_permutexvar_epi8(vidx, araw), bias);
            _mm512_storeu_si512(staged[0].as_mut_ptr().cast::<i32>().add(cg * 16).cast(), au);
        }
        for ci in 0..chunks {
            let base = ci * VNNI_CHUNK;
            let len = VNNI_CHUNK.min(groups - base);
            let nbase = base + len;
            let nlen = VNNI_CHUNK.min(groups.saturating_sub(nbase));
            let cur = staged[ci & 1].as_ptr().cast::<i32>();
            let nxt = staged[(ci + 1) & 1].as_mut_ptr().cast::<i32>();
            for cg in 0..len {
                if cg < nlen {
                    let araw = _mm512_loadu_si512(a.add((nbase + cg) * 4 * MR).cast());
                    let au = _mm512_xor_si512(_mm512_permutexvar_epi8(vidx, araw), bias);
                    _mm512_storeu_si512(nxt.add(cg * 16).cast(), au);
                }
                let k0 = (base + cg) * 4;
                let kpf = (k0 + 4 * PF_DIST_K).min(kc - 1);
                _mm_prefetch(b.add(kpf * NR), _MM_HINT_T0);
                let braw = _mm512_loadu_si512(b.add(k0 * NR).cast());
                let bperm = _mm512_permutexvar_epi8(vidx, braw);
                comp = _mm512_dpbusd_epi32(comp, ones, bperm);
                for (i, accr) in acc.iter_mut().enumerate() {
                    let va = _mm512_set1_epi32(*cur.add(cg * 16 + i));
                    *accr = _mm512_dpbusd_epi32(*accr, va, bperm);
                }
            }
        }

        if rem > 0 {
            // Tail: load only the rem*16 live bytes. After the bias XOR
            // the dead A bytes read 0x80, but their B partners are zero,
            // so both acc and comp gain exactly 0 from dead lanes.
            let k0 = groups * 4;
            let mask: __mmask64 = (1u64 << (rem * 16)) - 1;
            let araw = _mm512_maskz_loadu_epi8(mask, a.add(k0 * MR));
            let braw = _mm512_maskz_loadu_epi8(mask, b.add(k0 * NR));
            let bperm = _mm512_permutexvar_epi8(vidx, braw);
            let au = _mm512_xor_si512(_mm512_permutexvar_epi8(vidx, araw), bias);
            let tail = staged[0].as_mut_ptr().cast::<i32>();
            _mm512_storeu_si512(tail.cast(), au);
            comp = _mm512_dpbusd_epi32(comp, ones, bperm);
            for (i, accr) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_epi32(*tail.add(i));
                *accr = _mm512_dpbusd_epi32(*accr, va, bperm);
            }
        }

        // C[i][j] += acc[i][j] - 128 * comp[j].
        let comp128 = _mm512_slli_epi32::<7>(comp);
        if csc == 1 {
            for (i, accv) in acc.iter().enumerate() {
                let row = c.add(i * rsc);
                let cur = _mm512_loadu_si512(row.cast());
                let val = _mm512_add_epi32(cur, _mm512_sub_epi32(*accv, comp128));
                _mm512_storeu_si512(row.cast(), val);
            }
        } else {
            let mut lanes = [0i32; NR];
            let mut comp_lanes = [0i32; NR];
            _mm512_storeu_si512(comp_lanes.as_mut_ptr().cast(), comp128);
            for (i, accv) in acc.iter().enumerate() {
                _mm512_storeu_si512(lanes.as_mut_ptr().cast(), *accv);
                for (j, (&lv, &cv)) in lanes.iter().zip(comp_lanes.iter()).enumerate() {
                    let p = c.add(i * rsc + j * csc);
                    *p += lv - cv;
                }
            }
        }
    }
}

/// # Safety
/// [`crate::ukernel::UkrFn`]'s contract; features enforced by
/// `target_feature`.
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn ukr_bf16_14x32_impl(
    kc: usize,
    a: *const Bf16,
    b: *const Bf16,
    c: *mut f32,
    rsc: usize,
    csc: usize,
) {
    const MR: usize = 14;
    const NR: usize = 32;

    // 2-k pair interleave for vpermt2w: output word 2j takes word j of
    // the even-k row (selector j), word 2j+1 takes word j of the odd-k
    // row (selector 32 + j). `lo` covers columns 0..16, `hi` 16..32 —
    // each produces 16 column-pairs, vdpbf16ps's operand shape.
    let mut idx_lo = [0u16; 32];
    let mut idx_hi = [0u16; 32];
    for j in 0..16 {
        idx_lo[2 * j] = j as u16;
        idx_lo[2 * j + 1] = (32 + j) as u16;
        idx_hi[2 * j] = (16 + j) as u16;
        idx_hi[2 * j + 1] = (48 + j) as u16;
    }
    // Opaque for the same reason as the VNNI kernel's index: a constant
    // selector invites LLVM to lower vpermt2w into unpack chains.
    let idx_lo = std::hint::black_box(idx_lo);
    let idx_hi = std::hint::black_box(idx_hi);

    // UkrFn's contract gives `a` kc*14 bf16 elements, `b` kc*32 bf16
    // elements, and valid non-aliasing C addresses c[i*rsc + j*csc] for
    // i < 14, j < 32. B-row loads read the 64 bytes of row k (k < kc,
    // offset k*32 words); A-row loads are word-masked to the row's 14 live
    // words (masked-off words never touched); the odd-kc tail pairs the
    // last row with an all-zero register, reading nothing extra.
    // SAFETY: the contract above bounds every pointer add; prefetch offsets
    // are clamped to [0, kc); the unaligned intrinsics have no alignment
    // requirement; staging stores land at slot cp < VNNI_CHUNK, 64 bytes
    // each, inside the align(64) `Staged` buffer of 16 * VNNI_CHUNK dwords.
    unsafe {
        let vlo = _mm512_loadu_si512(idx_lo.as_ptr().cast());
        let vhi = _mm512_loadu_si512(idx_hi.as_ptr().cast());
        let amask: __mmask32 = 0x3FFF; // 14 live words per A row

        if csc == 1 {
            for i in 0..MR {
                _mm_prefetch(c.add(i * rsc).cast::<i8>(), _MM_HINT_T0);
            }
        }

        let mut acc0 = [_mm512_setzero_ps(); MR];
        let mut acc1 = [_mm512_setzero_ps(); MR];
        // Uninitialized for the same reason as the VNNI kernel: the 4 KiB
        // zero-fill is a per-call memset, and every slot read below is
        // stored by the pre-pass (slots 0..chunk) or the odd tail (slot 0)
        // before the hot loop touches it.
        let mut staged = std::mem::MaybeUninit::<Staged>::uninit();
        let stage = staged.as_mut_ptr().cast::<i32>();

        // Chunked two-pass schedule, same as the VNNI kernel: the pre-pass
        // pair-interleaves up to VNNI_CHUNK A row pairs into `staged` (one
        // 64-byte slot per pair), then the hot loop re-reads each row's
        // k-pair as a dword broadcast — keeping every vpermt2w out of the
        // hot loop and every staging read a full pass away from its store.
        let pairs = kc / 2;
        let mut p0 = 0usize;
        while p0 < pairs {
            let chunk = VNNI_CHUNK.min(pairs - p0);
            for cp in 0..chunk {
                let k0 = 2 * (p0 + cp);
                let a0 = _mm512_maskz_loadu_epi16(amask, a.add(k0 * MR).cast::<i16>());
                let a1 = _mm512_maskz_loadu_epi16(amask, a.add((k0 + 1) * MR).cast::<i16>());
                let apair = _mm512_permutex2var_epi16(a0, vlo, a1);
                _mm512_storeu_si512(stage.add(cp * 16).cast(), apair);
            }
            for cp in 0..chunk {
                let k0 = 2 * (p0 + cp);
                let kpf = (k0 + 2 * PF_DIST_K).min(kc - 1);
                _mm_prefetch(b.add(kpf * NR).cast::<i8>(), _MM_HINT_T0);

                let b0 = _mm512_loadu_si512(b.add(k0 * NR).cast());
                let b1 = _mm512_loadu_si512(b.add((k0 + 1) * NR).cast());
                let blo = _mm512_permutex2var_epi16(b0, vlo, b1);
                let bhi = _mm512_permutex2var_epi16(b0, vhi, b1);

                for i in 0..MR {
                    let va: __m512bh = core::mem::transmute(_mm512_set1_epi32(*stage.add(cp * 16 + i)));
                    acc0[i] =
                        _mm512_dpbf16_ps(acc0[i], va, core::mem::transmute::<__m512i, __m512bh>(blo));
                    acc1[i] =
                        _mm512_dpbf16_ps(acc1[i], va, core::mem::transmute::<__m512i, __m512bh>(bhi));
                }
            }
            p0 += chunk;
        }

        if kc % 2 == 1 {
            // Odd tail: pair the final k with a zero row; 0.0bf16 products
            // contribute exactly 0.0f32 to the dot accumulation.
            let k0 = kc - 1;
            let b0 = _mm512_loadu_si512(b.add(k0 * NR).cast());
            let zero = _mm512_setzero_si512();
            let blo = _mm512_permutex2var_epi16(b0, vlo, zero);
            let bhi = _mm512_permutex2var_epi16(b0, vhi, zero);
            let a0 = _mm512_maskz_loadu_epi16(amask, a.add(k0 * MR).cast::<i16>());
            let apair = _mm512_permutex2var_epi16(a0, vlo, zero);
            _mm512_storeu_si512(stage.cast(), apair);
            for i in 0..MR {
                let va: __m512bh = core::mem::transmute(_mm512_set1_epi32(*stage.add(i)));
                acc0[i] = _mm512_dpbf16_ps(acc0[i], va, core::mem::transmute::<__m512i, __m512bh>(blo));
                acc1[i] = _mm512_dpbf16_ps(acc1[i], va, core::mem::transmute::<__m512i, __m512bh>(bhi));
            }
        }

        if csc == 1 {
            for i in 0..MR {
                let row = c.add(i * rsc);
                let c0 = _mm512_loadu_ps(row);
                let c1 = _mm512_loadu_ps(row.add(16));
                _mm512_storeu_ps(row, _mm512_add_ps(c0, acc0[i]));
                _mm512_storeu_ps(row.add(16), _mm512_add_ps(c1, acc1[i]));
            }
        } else {
            let mut lanes = [0.0f32; NR];
            for i in 0..MR {
                _mm512_storeu_ps(lanes.as_mut_ptr(), acc0[i]);
                _mm512_storeu_ps(lanes.as_mut_ptr().add(16), acc1[i]);
                for (j, &v) in lanes.iter().enumerate() {
                    let p = c.add(i * rsc + j * csc);
                    *p += v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ukernel::reference_ukr;
    use cake_matrix::init;

    fn check_f32(kc: usize, rsc: usize, csc: usize, c_len: usize) {
        let Some(ukr) = avx512_f32_14x32() else {
            eprintln!("AVX-512F not available; skipping");
            return;
        };
        let a = init::random::<f32>(kc, 14, 5);
        let b = init::random::<f32>(kc, 32, 6);
        let mut c1 = vec![1.0f32; c_len];
        let mut c2 = c1.clone();
        // SAFETY: a/b are kc*14- and kc*32-element slivers, and each caller
        // passes a c_len large enough that 13*rsc + 31*csc < c_len.
        unsafe {
            ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c1.as_mut_ptr(), rsc, csc)
        };
        reference_ukr(kc, 14, 32, a.as_slice(), b.as_slice(), &mut c2, rsc, csc);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn f32_unit_stride_matches_reference() {
        for kc in [1, 2, 5, 9, 100] {
            check_f32(kc, 32, 1, 14 * 32);
        }
    }

    #[test]
    fn f32_wide_row_stride() {
        check_f32(33, 40, 1, 14 * 40);
    }

    #[test]
    fn f32_column_major_c() {
        check_f32(17, 1, 14, 32 * 14);
    }

    #[test]
    fn f32_edge_covers_the_tile_and_nothing_past_it() {
        // run_tile relies on the lookup for every live region of the tile;
        // shapes past it must miss rather than pick a wrong instance.
        for mrows in 0..=16 {
            for ncols in 0..=34 {
                let inside = (1..=14).contains(&mrows) && (1..=32).contains(&ncols);
                assert_eq!(f32_edge(mrows, ncols).is_some(), inside, "{mrows}x{ncols}");
            }
        }
    }

    #[test]
    fn f64_matches_reference_various_strides() {
        let Some(ukr) = avx512_f64_8x16() else {
            eprintln!("AVX-512F not available; skipping");
            return;
        };
        for (kc, rsc, csc, len) in [(1, 16, 1, 128), (23, 19, 1, 8 * 19), (23, 1, 8, 128)] {
            let a = init::random::<f64>(kc, 8, 7);
            let b = init::random::<f64>(kc, 16, 8);
            let mut c1 = vec![0.5f64; len];
            let mut c2 = c1.clone();
            // SAFETY: a/b are kc*8- and kc*16-element slivers; each (rsc,
            // csc, len) triple satisfies 7*rsc + 15*csc < len.
            unsafe {
                ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c1.as_mut_ptr(), rsc, csc)
            };
            reference_ukr(kc, 8, 16, a.as_slice(), b.as_slice(), &mut c2, rsc, csc);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn kernels_accumulate_rather_than_overwrite() {
        let Some(ukr) = avx512_f32_14x32() else {
            return;
        };
        let kc = 4;
        let a = init::ones::<f32>(kc, 14);
        let b = init::ones::<f32>(kc, 32);
        let mut c = vec![10.0f32; 14 * 32];
        // SAFETY: a/b are kc*14 and kc*32 ones-filled slivers, and c is a
        // dense 14x32 row-major tile (rsc=32, csc=1).
        unsafe {
            ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c.as_mut_ptr(), 32, 1)
        };
        // Each element: 10 + sum_k 1*1 = 10 + kc.
        assert!(c.iter().all(|&x| x == 14.0));
    }

    #[test]
    fn shapes_agree_with_the_tier_registry() {
        // The selection ladder and the audit lemma both rely on these
        // exact shapes; pin them here where the kernels live.
        if let Some(kf) = avx512_f32_14x32() {
            assert_eq!((kf.mr(), kf.nr()), (14, 32));
            assert!(kf.mr() * kf.nr() <= crate::edge::MAX_TILE);
        }
        if let Some(kd) = avx512_f64_8x16() {
            assert_eq!((kd.mr(), kd.nr()), (8, 16));
            assert!(kd.mr() * kd.nr() <= crate::edge::MAX_TILE);
        }
        if let Some(ki) = avx512_vnni_i8_16x16() {
            assert_eq!((ki.mr(), ki.nr()), (16, 16));
            assert!(ki.mr() * ki.nr() <= crate::edge::MAX_TILE);
        }
        if let Some(kb) = avx512_bf16_14x32() {
            assert_eq!((kb.mr(), kb.nr()), (14, 32));
            assert!(kb.mr() * kb.nr() <= crate::edge::MAX_TILE);
        }
    }

    #[test]
    fn i8_matches_reference_exactly_various_kc_and_strides() {
        let Some(ukr) = avx512_vnni_i8_16x16() else {
            eprintln!("AVX-512 VNNI/VBMI not available; skipping");
            return;
        };
        // kc sweeps every tail residue (rem 0..3) plus long runs.
        for (kc, rsc, csc, len) in [
            (1, 16, 1, 256),
            (2, 16, 1, 256),
            (3, 16, 1, 256),
            (4, 16, 1, 256),
            (5, 16, 1, 256),
            (63, 19, 1, 16 * 19),
            (64, 16, 1, 256),
            (257, 1, 16, 256),
        ] {
            let a = init::random_i8(kc, 16, kc as u64);
            let b = init::random_i8(kc, 16, kc as u64 + 1);
            let mut c1 = vec![-3i32; len];
            let mut c2 = c1.clone();
            // SAFETY: a/b are kc*16-element slivers; each (rsc, csc, len)
            // triple satisfies 15*rsc + 15*csc < len.
            unsafe {
                ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c1.as_mut_ptr(), rsc, csc)
            };
            reference_ukr(kc, 16, 16, a.as_slice(), b.as_slice(), &mut c2, rsc, csc);
            assert_eq!(c1, c2, "kc={kc} rsc={rsc} csc={csc}");
        }
    }

    #[test]
    fn i8_bias_compensation_is_exact_at_extremes() {
        // -128 x -128 everywhere: the biased unsigned operand is 0, so the
        // whole result rides on the compensation row being exact.
        let Some(ukr) = avx512_vnni_i8_16x16() else {
            return;
        };
        for kc in [1, 3, 4, 7, 32] {
            let a = vec![-128i8; kc * 16];
            let b = vec![-128i8; kc * 16];
            let mut c = vec![0i32; 256];
            // SAFETY: a/b are kc*16 slivers; c is a dense 16x16 tile.
            unsafe { ukr.call(kc, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), 16, 1) };
            assert!(c.iter().all(|&x| x == 16384 * kc as i32), "kc={kc}");
        }
    }

    #[test]
    fn i8_zero_padded_rows_contribute_nothing() {
        // Simulates pack_a's zero-padded sliver tail: rows 8.. are zero;
        // the bias trick must cancel exactly so those C rows stay put.
        let Some(ukr) = avx512_vnni_i8_16x16() else {
            return;
        };
        let kc = 9;
        let mut a = vec![0i8; kc * 16];
        for k in 0..kc {
            for i in 0..8 {
                a[k * 16 + i] = (k as i8).wrapping_mul(7).wrapping_add(i as i8);
            }
        }
        let b = init::random_i8(kc, 16, 77);
        let mut c = vec![5i32; 256];
        // SAFETY: a/b are kc*16 slivers; c is a dense 16x16 tile.
        unsafe { ukr.call(kc, a.as_ptr(), b.as_slice().as_ptr(), c.as_mut_ptr(), 16, 1) };
        for i in 8..16 {
            for j in 0..16 {
                assert_eq!(c[i * 16 + j], 5, "padded row changed at ({i},{j})");
            }
        }
    }

    #[test]
    fn bf16_matches_reference_various_kc_and_strides() {
        let Some(ukr) = avx512_bf16_14x32() else {
            eprintln!("AVX-512 BF16 not available; skipping");
            return;
        };
        // Odd and even kc to cover the zero-padded tail pair.
        for (kc, rsc, csc, len) in [
            (1, 32, 1, 14 * 32),
            (2, 32, 1, 14 * 32),
            (9, 40, 1, 14 * 40),
            (64, 32, 1, 14 * 32),
            (17, 1, 14, 32 * 14),
        ] {
            let a = init::random::<Bf16>(kc, 14, kc as u64 + 30);
            let b = init::random::<Bf16>(kc, 32, kc as u64 + 31);
            let mut c1 = vec![0.75f32; len];
            let mut c2 = c1.clone();
            // SAFETY: a/b are kc*14- and kc*32-element slivers; each (rsc,
            // csc, len) triple satisfies 13*rsc + 31*csc < len.
            unsafe {
                ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c1.as_mut_ptr(), rsc, csc)
            };
            reference_ukr(kc, 14, 32, a.as_slice(), b.as_slice(), &mut c2, rsc, csc);
            // Pairwise vdpbf16ps accumulation vs sequential reference: the
            // products themselves are exact, only summation order differs.
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()) * kc as f32, "{x} vs {y} kc={kc}");
            }
        }
    }
}
