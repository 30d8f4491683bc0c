//! Runtime kernel selection.
//!
//! Dispatch is a four-rung *tier ladder* — `amx → avx512 → avx2 →
//! portable` — walked top-down: `best_kernel::<T>()` returns the highest
//! tier the running CPU supports that has a kernel for `T`. Only int8 has
//! an `amx` kernel; the other dtypes fall through to `avx512`. The
//! `CAKE_KERNEL` environment variable (set directly or via `cakectl gemm
//! --kernel`) *caps* the ladder for A/B experiments: `CAKE_KERNEL=avx512`
//! runs int8 on VNNI instead of AMX, and a cap naming a tier the host lacks
//! falls through to the next rung rather than failing, so the same command
//! line works on any machine. The variable is read once per process.
//! Selection happens once per GEMM call, far off the hot path.

use std::sync::OnceLock;

use cake_matrix::{Bf16, Dtype};

use crate::ukernel::{self, Ukr};

/// Dispatch tiers, ordered slowest to fastest (derived `Ord` matches the
/// ladder: `Portable < Avx2 < Avx512 < Amx`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Auto-vectorized portable kernels; always available.
    Portable,
    /// AVX2 + FMA ymm kernels (x86_64, runtime-detected).
    Avx2,
    /// AVX-512F zmm kernels (x86_64, runtime-detected).
    Avx512,
    /// AMX tile kernels (x86_64 Linux, runtime-detected; int8 only).
    Amx,
}

impl KernelTier {
    /// All tiers, ladder order (lowest first).
    pub const ALL: [KernelTier; 4] =
        [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512, KernelTier::Amx];

    /// The top of the ladder: the uncapped default.
    pub const TOP: KernelTier = KernelTier::Amx;

    /// The tier's name as used by `CAKE_KERNEL` / `--kernel` and reported
    /// in stats and bench output.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Amx => "amx",
        }
    }

    /// Parse a tier name (case-insensitive). `None` for unknown names.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.to_ascii_lowercase().as_str() {
            "portable" => Some(KernelTier::Portable),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            "amx" => Some(KernelTier::Amx),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which SIMD tiers the host CPU supports. Separated from detection so the
/// fallback ladder ([`CpuTiers::resolve`]) is a pure function testable on
/// hosts missing any feature combination.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTiers {
    /// AVX2 and FMA both present.
    pub avx2: bool,
    /// AVX-512F present.
    pub avx512: bool,
    /// AMX-TILE and AMX-INT8 present, and the OS granted tile data.
    pub amx: bool,
}

impl CpuTiers {
    /// Probe the running CPU.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuTiers {
                avx2: is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
                avx512: is_x86_feature_detected!("avx512f"),
                #[cfg(not(miri))]
                amx: crate::amx::int8_available(),
                #[cfg(miri)]
                amx: false,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuTiers::default()
        }
    }

    /// Walk the ladder down from `cap`: the highest tier that is both
    /// requested and supported. Portable is the unconditional floor.
    pub fn resolve(self, cap: KernelTier) -> KernelTier {
        if cap >= KernelTier::Amx && self.amx {
            return KernelTier::Amx;
        }
        if cap >= KernelTier::Avx512 && self.avx512 {
            return KernelTier::Avx512;
        }
        if cap >= KernelTier::Avx2 && self.avx2 {
            return KernelTier::Avx2;
        }
        KernelTier::Portable
    }
}

/// The tier cap requested via `CAKE_KERNEL` (unset or unparseable means
/// "no cap": the full ladder up to [`KernelTier::TOP`] is available).
/// Read once per process and cached, like the core count in
/// `cake_core::topology::available_cores`: every kernel selection, and so
/// every GEMM call, consults the cap, and reading the variable allocates.
/// Set the variable before the first selection (as `cakectl gemm
/// --kernel` does); a later change is not seen.
pub fn env_tier_cap() -> KernelTier {
    static CAP: OnceLock<KernelTier> = OnceLock::new();
    *CAP.get_or_init(|| match std::env::var("CAKE_KERNEL") {
        Ok(v) => KernelTier::parse(&v).unwrap_or(KernelTier::TOP),
        Err(_) => KernelTier::TOP,
    })
}

/// The tier [`best_kernel`] will dispatch to right now: host features
/// resolved against the `CAKE_KERNEL` cap.
pub fn selected_tier() -> KernelTier {
    CpuTiers::detect().resolve(env_tier_cap())
}

/// Every tier the host can actually run, ladder order (portable first).
/// Drives the differential fuzzer's tier cross-check and the per-tier
/// conformance and pre-packed checks of `cake-verify`.
pub fn available_tiers() -> Vec<KernelTier> {
    let cpu = CpuTiers::detect();
    let mut tiers = vec![KernelTier::Portable];
    if cpu.avx2 {
        tiers.push(KernelTier::Avx2);
    }
    if cpu.avx512 {
        tiers.push(KernelTier::Avx512);
    }
    if cpu.amx {
        tiers.push(KernelTier::Amx);
    }
    tiers
}

/// Register-tile shapes of every kernel this crate can ever dispatch,
/// independent of host CPU detection: `(name, mr, nr)`. The audit lemma
/// over [`crate::edge::MAX_TILE`] quantifies over this registry, so a new
/// kernel that outgrows the edge scratch is caught even on hosts that
/// cannot run it.
pub const REGISTERED_SHAPES: [(&str, usize, usize); 15] = [
    ("portable_f32_8x8", 8, 8),
    ("portable_f32_4x4", 4, 4),
    ("portable_f64_4x8", 4, 8),
    ("portable_f64_4x4", 4, 4),
    ("portable_i8_8x8", 8, 8),
    ("portable_bf16_8x8", 8, 8),
    ("avx2_f32_6x16", 6, 16),
    ("avx2_f64_4x8", 4, 8),
    ("avx2_i8_4x8", 4, 8),
    ("avx2_bf16_4x8", 4, 8),
    ("avx512_f32_14x32", 14, 32),
    ("avx512_f64_8x16", 8, 16),
    ("avx512_vnni_i8_16x16", 16, 16),
    ("avx512_bf16_14x32", 14, 32),
    ("amx_i8_32x32", 32, 32),
];

/// Element types with a kernel registry. Implemented for `f32`, `f64`,
/// `i8` (i32 accumulate) and [`Bf16`] (f32 accumulate).
pub trait KernelSelect: Dtype {
    /// The kernel for `tier`, if this host can run it. `Portable` always
    /// succeeds; SIMD tiers return `None` when the feature (or the
    /// x86_64 architecture itself) is absent. Narrow-dtype tiers need
    /// *more* than the base feature (int8 avx512 additionally wants
    /// BW+VNNI+VBMI, bf16 wants BW+BF16), so a tier can be in
    /// [`available_tiers`] yet return `None` for one dtype.
    fn for_tier(tier: KernelTier) -> Option<Ukr<Self>>;

    /// Fastest kernel available on this CPU, honoring the `CAKE_KERNEL`
    /// cap. Walks the ladder *per dtype*: if the capped tier exists but
    /// has no kernel for this element type (e.g. avx512f without VNNI for
    /// int8), the next rung down is tried rather than jumping straight to
    /// portable.
    fn best() -> Ukr<Self> {
        Self::best_for_depth(usize::MAX)
    }

    /// [`best`](Self::best) for a GEMM of depth `k`: a kernel whose layout
    /// pads K to whole steps ([`PackLayout::k_step`]) is passed over when
    /// `k` is less than one step. Below one step the padding at least
    /// doubles the packed B panel and buys no speed: on a 2-core AMX host,
    /// ten alternating `cnn_int8` benchmark pairs with and without this
    /// rule (its first conv layer has K = 27) ran at the same GOP/s
    /// (medians 224 and 226, inside either side's quartiles), while the
    /// peak heap was 4.14 MiB with it against 4.61 MiB without, in every
    /// pair.
    ///
    /// [`PackLayout::k_step`]: crate::pack::PackLayout::k_step
    fn best_for_depth(k: usize) -> Ukr<Self> {
        let cap = selected_tier();
        for tier in KernelTier::ALL.iter().rev() {
            if *tier <= cap {
                if let Some(ukr) = Self::for_tier(*tier) {
                    if ukr.pack_layout().k_step() <= k {
                        return ukr;
                    }
                }
            }
        }
        Self::portable()
    }

    /// The portable (ISA-independent) kernel.
    fn portable() -> Ukr<Self>;
}

impl KernelSelect for f32 {
    fn for_tier(tier: KernelTier) -> Option<Ukr<f32>> {
        match tier {
            KernelTier::Portable => Some(ukernel::portable_f32_8x8()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => crate::avx2::avx2_f32_6x16(),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => crate::avx512::avx512_f32_14x32(),
            KernelTier::Amx => None,
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    fn portable() -> Ukr<f32> {
        ukernel::portable_f32_8x8()
    }
}

impl KernelSelect for f64 {
    fn for_tier(tier: KernelTier) -> Option<Ukr<f64>> {
        match tier {
            KernelTier::Portable => Some(ukernel::portable_f64_4x8()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => crate::avx2::avx2_f64_4x8(),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => crate::avx512::avx512_f64_8x16(),
            KernelTier::Amx => None,
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    fn portable() -> Ukr<f64> {
        ukernel::portable_f64_4x8()
    }
}

impl KernelSelect for i8 {
    fn for_tier(tier: KernelTier) -> Option<Ukr<i8>> {
        match tier {
            KernelTier::Portable => Some(ukernel::portable_i8_8x8()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => crate::avx2::avx2_i8_4x8(),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => crate::avx512::avx512_vnni_i8_16x16(),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            KernelTier::Amx => crate::amx::amx_i8_32x32(),
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            KernelTier::Amx => None,
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    fn portable() -> Ukr<i8> {
        ukernel::portable_i8_8x8()
    }
}

impl KernelSelect for Bf16 {
    fn for_tier(tier: KernelTier) -> Option<Ukr<Bf16>> {
        match tier {
            KernelTier::Portable => Some(ukernel::portable_bf16_8x8()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => crate::avx2::avx2_bf16_4x8(),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => crate::avx512::avx512_bf16_14x32(),
            KernelTier::Amx => None,
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    fn portable() -> Ukr<Bf16> {
        ukernel::portable_bf16_8x8()
    }
}

/// Fastest kernel available on this CPU for element type `T`, honoring the
/// `CAKE_KERNEL` tier cap.
pub fn best_kernel<T: KernelSelect>() -> Ukr<T> {
    T::best()
}

/// [`best_kernel`] for a GEMM of depth `k` ([`KernelSelect::best_for_depth`]).
pub fn best_kernel_for_depth<T: KernelSelect>(k: usize) -> Ukr<T> {
    T::best_for_depth(k)
}

/// The portable kernel for element type `T` (useful for A/B testing and as
/// a deterministic baseline in benches).
pub fn portable_kernel<T: KernelSelect>() -> Ukr<T> {
    T::portable()
}

/// The kernel for a specific tier, if this host can run it.
pub fn tier_kernel<T: KernelSelect>(tier: KernelTier) -> Option<Ukr<T>> {
    T::for_tier(tier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_kernels_have_sane_shapes() {
        let kf = best_kernel::<f32>();
        assert!(kf.mr() >= 1 && kf.nr() >= 1);
        assert!(kf.mr() * kf.nr() <= crate::edge::MAX_TILE);
        let kd = best_kernel::<f64>();
        assert!(kd.mr() * kd.nr() <= crate::edge::MAX_TILE);
    }

    #[test]
    fn portable_kernels_are_portable_named() {
        assert!(portable_kernel::<f32>().name().starts_with("portable"));
        assert!(portable_kernel::<f64>().name().starts_with("portable"));
        assert!(portable_kernel::<i8>().name().starts_with("portable"));
        assert!(portable_kernel::<Bf16>().name().starts_with("portable"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn top_supported_tier_is_selected() {
        // This test must tolerate a CAKE_KERNEL cap set by the harness.
        let cap = env_tier_cap();
        let tier = CpuTiers::detect().resolve(cap);
        let expect_f32 = match tier {
            KernelTier::Amx | KernelTier::Avx512 => "avx512_f32_14x32",
            KernelTier::Avx2 => "avx2_f32_6x16",
            KernelTier::Portable => "portable_f32_8x8",
        };
        let expect_f64 = match tier {
            KernelTier::Amx | KernelTier::Avx512 => "avx512_f64_8x16",
            KernelTier::Avx2 => "avx2_f64_4x8",
            KernelTier::Portable => "portable_f64_4x8",
        };
        assert_eq!(best_kernel::<f32>().name(), expect_f32);
        assert_eq!(best_kernel::<f64>().name(), expect_f64);
        if tier == KernelTier::Amx {
            assert_eq!(best_kernel::<i8>().name(), "amx_i8_32x32");
        }
    }

    /// Satellite: graceful fallback order on hosts missing each feature.
    /// `resolve` is pure, so every feature combination x cap is checkable
    /// on any machine.
    #[test]
    fn ladder_falls_back_amx_avx512_avx2_portable() {
        use KernelTier::*;
        const TOP: KernelTier = KernelTier::TOP;
        let tiers = |amx, avx512, avx2| CpuTiers { avx2, avx512, amx };
        let amx = tiers(true, true, true);
        let full = tiers(false, true, true);
        let no512 = tiers(false, false, true);
        let bare = tiers(false, false, false);
        // Odd but possible (e.g. avx512 masked by a hypervisor quirk leaves
        // avx2-only; the inverse cannot happen in hardware but the ladder
        // must still not panic).
        let only512 = tiers(false, true, false);
        let only_amx = tiers(true, false, false);

        // Uncapped: highest supported tier wins.
        assert_eq!(amx.resolve(TOP), Amx);
        assert_eq!(full.resolve(TOP), Avx512);
        assert_eq!(no512.resolve(TOP), Avx2);
        assert_eq!(bare.resolve(TOP), Portable);
        assert_eq!(only512.resolve(TOP), Avx512);
        assert_eq!(only_amx.resolve(TOP), Amx);

        // Capped at avx512: amx never selected even when present.
        assert_eq!(amx.resolve(Avx512), Avx512);
        assert_eq!(full.resolve(Avx512), Avx512);
        assert_eq!(no512.resolve(Avx512), Avx2);
        assert_eq!(bare.resolve(Avx512), Portable);
        assert_eq!(only512.resolve(Avx512), Avx512);
        assert_eq!(only_amx.resolve(Avx512), Portable);

        // Capped at avx2: avx512 never selected even when present.
        assert_eq!(full.resolve(Avx2), Avx2);
        assert_eq!(no512.resolve(Avx2), Avx2);
        assert_eq!(bare.resolve(Avx2), Portable);
        assert_eq!(only512.resolve(Avx2), Portable);

        // Capped at portable: always portable.
        for cpu in [amx, full, no512, bare, only512, only_amx] {
            assert_eq!(cpu.resolve(Portable), Portable);
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::parse("AVX512"), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::parse("amx"), Some(KernelTier::Amx));
        assert_eq!(KernelTier::TOP, *KernelTier::ALL.last().unwrap());
        assert_eq!(KernelTier::parse("neon"), None);
    }

    #[test]
    fn available_tiers_always_include_portable_and_match_detection() {
        let tiers = available_tiers();
        assert_eq!(tiers[0], KernelTier::Portable);
        let cpu = CpuTiers::detect();
        assert_eq!(tiers.contains(&KernelTier::Avx2), cpu.avx2);
        assert_eq!(tiers.contains(&KernelTier::Avx512), cpu.avx512);
        assert_eq!(tiers.contains(&KernelTier::Amx), cpu.amx);
        // Ladder order.
        let mut sorted = tiers.clone();
        sorted.sort();
        assert_eq!(tiers, sorted);
    }

    #[test]
    fn tier_kernels_match_registered_shapes() {
        for tier in available_tiers() {
            let mut shapes = Vec::new();
            // Every available rung below amx has float kernels; amx has
            // int8 only.
            if tier < KernelTier::Amx {
                let kf = tier_kernel::<f32>(tier).expect("available tier must yield a kernel");
                let kd = tier_kernel::<f64>(tier).expect("available tier must yield a kernel");
                shapes.extend([(kf.name(), kf.mr(), kf.nr()), (kd.name(), kd.mr(), kd.nr())]);
            } else {
                assert!(tier_kernel::<f32>(tier).is_none() && tier_kernel::<f64>(tier).is_none());
            }
            // Narrow dtypes need extra CPU features on top of the base tier
            // (VNNI/VBMI for int8, BF16 for bf16), so None is legitimate
            // here — but any kernel that *does* exist must be registered.
            if let Some(k) = tier_kernel::<i8>(tier) {
                shapes.push((k.name(), k.mr(), k.nr()));
            }
            if let Some(k) = tier_kernel::<Bf16>(tier) {
                shapes.push((k.name(), k.mr(), k.nr()));
            }
            for k in shapes {
                assert!(
                    REGISTERED_SHAPES.contains(&k),
                    "{k:?} missing from REGISTERED_SHAPES"
                );
            }
        }
    }

    /// The per-dtype ladder walk: capping at a tier whose narrow-dtype
    /// kernel is missing must fall to the next rung down, never skip
    /// straight past a usable one. (Observable end-to-end only through
    /// `best()`, so we check the invariant that best() always returns
    /// *some* registered kernel for every dtype.)
    #[test]
    fn best_exists_for_every_dtype() {
        let shapes: Vec<(&str, usize, usize)> = vec![
            {
                let k = best_kernel::<i8>();
                (k.name(), k.mr(), k.nr())
            },
            {
                let k = best_kernel::<Bf16>();
                (k.name(), k.mr(), k.nr())
            },
        ];
        for k in shapes {
            assert!(REGISTERED_SHAPES.contains(&k), "{k:?} unregistered");
        }
    }

    #[test]
    fn shallow_gemms_pass_over_padding_layouts() {
        // Below one tile step the int8 ladder skips the tile layout; from
        // one step on it is the same kernel as `best`.
        let best = best_kernel::<i8>();
        let step = best.pack_layout().k_step();
        assert_eq!(best_kernel_for_depth::<i8>(step).name(), best.name());
        assert_eq!(best_kernel_for_depth::<i8>(usize::MAX).name(), best.name());
        if step > 1 {
            let shallow = best_kernel_for_depth::<i8>(step - 1);
            assert_eq!(shallow.pack_layout().k_step(), 1, "{}", shallow.name());
        }
        // k-major kernels take any depth.
        assert_eq!(best_kernel_for_depth::<f32>(1).name(), best_kernel::<f32>().name());
    }

    #[test]
    fn registered_shapes_fit_max_tile() {
        for (name, mr, nr) in REGISTERED_SHAPES {
            assert!(
                mr * nr <= crate::edge::MAX_TILE,
                "{name}: {mr}x{nr} exceeds MAX_TILE"
            );
        }
    }

    #[test]
    fn best_and_portable_agree_numerically() {
        use crate::pack::{pack_a, pack_b, packed_a_size, packed_b_size};
        use cake_matrix::init;

        // Compare one full tile of the best kernel against a scalar compute.
        let ukr = best_kernel::<f32>();
        let (mr, nr, kc) = (ukr.mr(), ukr.nr(), 31);
        let a = init::random::<f32>(mr, kc, 1);
        let b = init::random::<f32>(kc, nr, 2);
        let mut pa = vec![0.0f32; packed_a_size(mr, kc, mr)];
        let mut pb = vec![0.0f32; packed_b_size(kc, nr, nr)];
        pack_a(&a.view(), &mut pa, mr);
        pack_b(&b.view(), &mut pb, nr);
        let mut c = vec![0.0f32; mr * nr];
        // SAFETY: pa/pb are full packed slivers (kc*mr / kc*nr elements) and
        // c is a dense mr x nr tile with rsc=nr, csc=1.
        unsafe { ukr.call(kc, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), nr, 1) };

        for i in 0..mr {
            for j in 0..nr {
                let mut s = 0.0f64;
                for k in 0..kc {
                    s += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                assert!((c[i * nr + j] as f64 - s).abs() < 1e-4 * (1.0 + s.abs()));
            }
        }
    }

    /// Every tier the host supports must agree with the scalar reference on
    /// a full tile — a direct (if small) cross-check of the whole ladder.
    #[test]
    fn all_available_tiers_agree_numerically() {
        use crate::pack::{pack_a, pack_b, packed_a_size, packed_b_size};
        use cake_matrix::init;

        for tier in available_tiers() {
            // The amx rung has no f32 kernel.
            let Some(ukr) = tier_kernel::<f32>(tier) else {
                continue;
            };
            let (mr, nr, kc) = (ukr.mr(), ukr.nr(), 17);
            let a = init::random::<f32>(mr, kc, 3);
            let b = init::random::<f32>(kc, nr, 4);
            let mut pa = vec![0.0f32; packed_a_size(mr, kc, mr)];
            let mut pb = vec![0.0f32; packed_b_size(kc, nr, nr)];
            pack_a(&a.view(), &mut pa, mr);
            pack_b(&b.view(), &mut pb, nr);
            let mut c = vec![0.0f32; mr * nr];
            // SAFETY: pa/pb are full packed slivers and c is a dense
            // mr x nr tile with rsc=nr, csc=1.
            unsafe { ukr.call(kc, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), nr, 1) };
            for i in 0..mr {
                for j in 0..nr {
                    let mut s = 0.0f64;
                    for k in 0..kc {
                        s += a.get(i, k) as f64 * b.get(k, j) as f64;
                    }
                    assert!(
                        (c[i * nr + j] as f64 - s).abs() < 1e-4 * (1.0 + s.abs()),
                        "tier {tier} mismatch at ({i},{j})"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::edge::run_tile;
    use crate::pack::{pack_a, pack_b, packed_a_size, packed_b_size};
    use cake_matrix::{init, Element};
    use proptest::prelude::*;

    /// Drive the full kernel stack (pack -> edge-masked microkernel) on a
    /// single random tile and compare against a scalar computation. C is
    /// row-major with `ld = ncols + ld_extra`, or column-major with
    /// `ld = mrows + ld_extra`; the padding past the live region must not
    /// change. The slivers hold a full random `mr x nr` tile, so a write
    /// past the live region would add a nonzero value there.
    #[allow(clippy::too_many_arguments)]
    fn tile_case<T: KernelSelect>(
        kc: usize,
        mrows: usize,
        ncols: usize,
        ld_extra: usize,
        col_major: bool,
        seed: u64,
        tol: f64,
    ) {
        let ukr = best_kernel::<T>();
        let (mr, nr) = (ukr.mr(), ukr.nr());
        let mrows = mrows.min(mr).max(1);
        let ncols = ncols.min(nr).max(1);

        let a = init::random::<T>(mr, kc, seed);
        let b = init::random::<T>(kc, nr, seed + 1);
        let mut pa = vec![T::ZERO; packed_a_size(mr, kc, mr)];
        let mut pb = vec![T::ZERO; packed_b_size(kc, nr, nr)];
        pack_a(&a.view(), &mut pa, mr);
        pack_b(&b.view(), &mut pb, nr);

        let fill = <T::Acc>::from_f64(0.25);
        let (rows, cols) = if col_major { (mrows + ld_extra, ncols) } else { (mrows, ncols + ld_extra) };
        let (rsc, csc) = if col_major { (1, rows) } else { (cols, 1) };
        let mut c = vec![fill; rows * cols];
        // SAFETY: pa/pb are ceil-padded packed slivers, and the mrows x
        // ncols region with (rsc, csc) = (cols, 1) or (1, rows) fits in the
        // rows x cols buffer.
        unsafe {
            run_tile(&ukr, kc, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), rsc, csc, mrows, ncols);
        }
        for i in 0..rows {
            for j in 0..cols {
                let got = c[i * rsc + j * csc];
                if i >= mrows || j >= ncols {
                    assert!(got == fill, "padding clobbered at ({i},{j})");
                    continue;
                }
                let mut s = 0.25f64;
                for kk in 0..kc {
                    s += a.get(i, kk).to_f64() * b.get(kk, j).to_f64();
                }
                let got = got.to_f64();
                assert!(
                    (got - s).abs() <= tol * (1.0 + s.abs()),
                    "({i},{j}): {got} vs {s}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn best_kernel_tile_random_f32(
            kc in 1usize..96,
            mrows in 1usize..15,
            ncols in 1usize..33,
            ld_extra in 0usize..5,
            col_major in any::<bool>(),
            seed in 0u64..10_000,
        ) {
            tile_case::<f32>(kc, mrows, ncols, ld_extra, col_major, seed, 1e-4);
        }

        #[test]
        fn best_kernel_tile_random_f64(
            kc in 1usize..96,
            mrows in 1usize..9,
            ncols in 1usize..17,
            ld_extra in 0usize..5,
            seed in 0u64..10_000,
        ) {
            tile_case::<f64>(kc, mrows, ncols, ld_extra, false, seed, 1e-10);
        }
    }
}
