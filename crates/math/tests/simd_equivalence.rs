//! Bit-identity of the AVX2 kernel table against the scalar fallback.
//!
//! Every dispatched kernel ends with an exact reduction to the canonical
//! `[0, q)` representative, so the SIMD and scalar paths must agree
//! **bit-for-bit** — not just mod q. These tests compare the two tables
//! directly via `dispatch::scalar_kernels()` / `dispatch::avx2_kernels()`,
//! independently of which one the process-wide `HEFV_FORCE_SCALAR` /
//! `HEFV_KERNEL` selection installed, so the suite is meaningful under
//! both settings of the CI matrix (on non-AVX2 hardware the comparisons
//! skip and only the scalar self-checks remain).
//!
//! Coverage deliberately includes both dispatch widths: moduli from 20
//! bits (narrow `pmuludq` path, `q < 2^30`), through the pointwise
//! narrow/wide boundary at `2^32`, up to the largest admissible primes
//! just under `2^62` (wide path), with inputs relaxed across the full
//! Harvey lazy range `[0, 4q)` for the forward transform and `[0, 2q)`
//! for the inverse.
//!
//! The HPS basis conversions (`extend_hps_cols`, `scale_hps_cols`) are
//! compared on the toy (3+4), medium and paper (6+7 × 30-bit) bases at
//! n ∈ {64, 256, 4096}, on arbitrary `u64` words as well as canonical
//! residues and edge values, over column ranges that start and end off
//! the 4-lane grid.
//!
//! The CRC-32 update (`crc32_update`) is compared on lengths up to 8 KiB
//! at unaligned start offsets with arbitrary register states, on one
//! 393,283-byte request frame, on chained updates over a random split,
//! and at the fold's block boundaries.

use hefv_math::dispatch::{self, Kernels};
use hefv_math::ntt::NttTable;
use hefv_math::primes::{ntt_prime, ntt_primes};
use hefv_math::rns::{Extender, HpsPrecision, RnsBasis, RnsContext, ScaleContext};
use hefv_math::zq::Modulus;
use proptest::prelude::*;

fn both_tables() -> Option<(&'static Kernels, &'static Kernels)> {
    dispatch::avx2_kernels().map(|avx2| (dispatch::scalar_kernels(), avx2))
}

/// Deterministic fill of `len` values in `[0, bound)` from a seed.
fn fill(seed: u64, len: usize, bound: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        })
        .collect()
}

/// Deterministic fill of `len` arbitrary 64-bit words from a seed.
fn fill_any(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ (state >> 29)
        })
        .collect()
}

/// The toy (n = 64, 3+4), medium (n = 256, 6+7) and paper (n = 4096, 6+7)
/// RNS contexts, all over 30-bit NTT primes.
fn hps_context(which: usize) -> RnsContext {
    let (n, k, l) = [(64, 3, 4), (256, 6, 7), (4096, 6, 7)][which];
    let ps = ntt_primes(30, n, k + l).unwrap();
    RnsContext::new(&ps[..k], &ps[k..]).unwrap()
}

/// A flat `basis.len() × n` source: canonical residues (mode 0), arbitrary
/// `u64` words (mode 1), or per-word edge values `0, q−1, ⌊q/2⌋, ⌊q/2⌋+1`
/// (mode 2).
fn hps_source(basis: &RnsBasis, n: usize, mode: u8, seed: u64) -> Vec<u64> {
    let raw = fill_any(seed, basis.len() * n);
    raw.iter()
        .enumerate()
        .map(|(idx, &x)| {
            let q = basis.modulus(idx / n).value();
            match mode {
                0 => x % q,
                1 => x,
                _ => [0, q - 1, q / 2, q / 2 + 1][(x % 4) as usize],
            }
        })
        .collect()
}

/// Lift and unlift of `src` columns `cols` through both tables; panics
/// with context on the first mismatch.
fn assert_extend_identical(
    scalar: &Kernels,
    avx2: &Kernels,
    ext: &Extender,
    src: &[u64],
    n: usize,
    cols: std::ops::Range<usize>,
) {
    let len = ext.to_basis().len() * cols.len();
    let (mut a, mut b) = (vec![0u64; len], vec![1u64; len]);
    scalar.extend_hps_cols(ext, src, n, cols.clone(), &mut a);
    avx2.extend_hps_cols(ext, src, n, cols.clone(), &mut b);
    assert_eq!(a, b, "extend n={n} cols={cols:?}");
}

fn assert_scale_identical(
    scalar: &Kernels,
    avx2: &Kernels,
    sc: &ScaleContext,
    ctx: &RnsContext,
    src: &[u64],
    n: usize,
    cols: std::ops::Range<usize>,
) {
    let len = ctx.base_q().len() * cols.len();
    let (mut a, mut b) = (vec![0u64; len], vec![1u64; len]);
    scalar.scale_hps_cols(sc, ctx, src, n, cols.clone(), &mut a);
    avx2.scale_hps_cols(sc, ctx, src, n, cols.clone(), &mut b);
    assert_eq!(a, b, "scale n={n} cols={cols:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn extend_hps_bit_identical(
        which in 0usize..3,
        mode in 0u8..3,
        lo in any::<u64>(),
        hi in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        let ctx = hps_context(which);
        let n = [64, 256, 4096][which];
        let (a, b) = ((lo % (n as u64 + 1)) as usize, (hi % (n as u64 + 1)) as usize);
        let cols = a.min(b)..a.max(b);
        let src = hps_source(ctx.base_q(), n, mode, seed);
        assert_extend_identical(scalar, avx2, ctx.lift(), &src, n, cols.clone());
        let src = hps_source(ctx.base_p(), n, mode, seed ^ 0xF00D);
        assert_extend_identical(scalar, avx2, ctx.unlift(), &src, n, cols);
    }

    #[test]
    fn scale_hps_bit_identical(
        which in 0usize..3,
        mode in 0u8..3,
        t_idx in 0usize..3,
        lo in any::<u64>(),
        hi in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        let ctx = hps_context(which);
        let sc = ScaleContext::new(&ctx, [2, 257, 65537][t_idx]);
        let n = [64, 256, 4096][which];
        let (a, b) = ((lo % (n as u64 + 1)) as usize, (hi % (n as u64 + 1)) as usize);
        let cols = a.min(b)..a.max(b);
        let src = hps_source(ctx.base_full(), n, mode, seed);
        assert_scale_identical(scalar, avx2, &sc, &ctx, &src, n, cols);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ntt_bit_identical_across_widths(
        bits in 20u32..=62,
        log_n in 4u32..=12,
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        let n = 1usize << log_n;
        let Some(q) = ntt_prime(bits, n, 0) else { return Ok(()); };
        let table = NttTable::new(Modulus::new(q), n).unwrap();

        // Forward accepts the relaxed Harvey range [0, 4q) — min with
        // 2^64 for the largest moduli where 4q wraps.
        let relaxed = (4u128 * q as u128).min(u128::from(u64::MAX) + 1) as u64;
        let input = fill(seed, n, relaxed.max(1));
        let (mut a, mut b) = (input.clone(), input.clone());
        scalar.ntt_forward(&table, &mut a);
        avx2.ntt_forward(&table, &mut b);
        prop_assert_eq!(&a, &b, "forward q={} n={}", q, n);
        prop_assert!(a.iter().all(|&x| x < q), "forward output not canonical");

        // Inverse keeps values in [0, 2q); feed it the relaxed range too.
        let input = fill(seed ^ 0xDEAD_BEEF, n, 2 * q);
        let (mut a, mut b) = (input.clone(), input);
        scalar.ntt_inverse(&table, &mut a);
        avx2.ntt_inverse(&table, &mut b);
        prop_assert_eq!(&a, &b, "inverse q={} n={}", q, n);
        prop_assert!(a.iter().all(|&x| x < q), "inverse output not canonical");
    }

    #[test]
    fn pointwise_bit_identical_across_widths(
        bits in 20u32..=62,
        len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        // Pointwise operands are canonical [0, q); any odd modulus works.
        let q = ntt_prime(bits, 8, 0).unwrap();
        let m = Modulus::new(q);
        let a = fill(seed, len, q);
        let b = fill(seed ^ 0x5EED, len, q);
        let acc = fill(seed ^ 0xACC, len, q);

        let (mut d0, mut d1) = (vec![0u64; len], vec![0u64; len]);
        scalar.pointwise_mul(&m, &a, &b, &mut d0);
        avx2.pointwise_mul(&m, &a, &b, &mut d1);
        prop_assert_eq!(&d0, &d1, "mul q={} len={}", q, len);

        let (mut d0, mut d1) = (a.clone(), a.clone());
        scalar.pointwise_mul_assign(&m, &mut d0, &b);
        avx2.pointwise_mul_assign(&m, &mut d1, &b);
        prop_assert_eq!(&d0, &d1, "mul_assign q={} len={}", q, len);

        let (mut d0, mut d1) = (acc.clone(), acc);
        scalar.pointwise_mul_acc(&m, &a, &b, &mut d0);
        avx2.pointwise_mul_acc(&m, &a, &b, &mut d1);
        prop_assert_eq!(&d0, &d1, "mul_acc q={} len={}", q, len);
    }

    #[test]
    fn sop_bit_identical_across_digit_counts(
        log_n in 2u32..=8,
        k in 1usize..=9,
        with_seed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        let n = 1usize << log_n;
        // A 30-bit prime keeps k·(q−1)² + (q−1) < 2^64 for k ≤ 9 — the
        // same no-overflow precondition `narrow_sop_ok` enforces upstream.
        let q = ntt_prime(30, n, 0).unwrap();
        let m = Modulus::new(q);
        let digits: Vec<u32> = fill(seed, n * k, q).iter().map(|&v| v as u32).collect();
        let ksk0: Vec<u32> = fill(seed ^ 0xF00D, n * k, q).iter().map(|&v| v as u32).collect();
        let ksk1: Vec<u32> = fill(seed ^ 0xBEEF, n * k, q).iter().map(|&v| v as u32).collect();
        let c0: Vec<u64> = fill(seed ^ 0xC0, n, q);
        let c0_row = with_seed.then_some(c0.as_slice());
        // An arbitrary permutation (index reversal) exercises the gather.
        let perm: Vec<u32> = (0..n as u32).rev().collect();
        let acc_init0 = fill(seed ^ 0xA0, n, q);
        let acc_init1 = fill(seed ^ 0xA1, n, q);

        let (mut s0, mut s1) = (acc_init0.clone(), acc_init1.clone());
        scalar.sop_narrow_row(&m, &perm, &digits, &ksk0, &ksk1, c0_row, &mut s0, &mut s1);
        let (mut v0, mut v1) = (acc_init0, acc_init1);
        avx2.sop_narrow_row(&m, &perm, &digits, &ksk0, &ksk1, c0_row, &mut v0, &mut v1);
        prop_assert_eq!(&s0, &v0, "sop acc0 n={} k={}", n, k);
        prop_assert_eq!(&s1, &v1, "sop acc1 n={} k={}", n, k);
    }
}

/// The `4q ≤ 2^64` invariant is tightest for the largest admissible
/// moduli: pin bit-identity with every coefficient at the extreme ends
/// of the relaxed range for a prime just below `2^62`.
#[test]
fn ntt_extremes_near_62_bit_bound() {
    let Some((scalar, avx2)) = both_tables() else {
        eprintln!("skipping: AVX2 not available on this CPU");
        return;
    };
    for n in [16usize, 256, 4096] {
        let q = ntt_prime(62, n, 0).unwrap();
        assert!(q > (1 << 61), "expected a 62-bit prime");
        let table = NttTable::new(Modulus::new(q), n).unwrap();
        // Alternate the extremes of [0, 4q): 0, 4q−1, q−1, 2q, 2q−1, 3q...
        let four_q_minus_1 = q.wrapping_mul(4).wrapping_sub(1); // 4q − 1 mod 2^64
        let pattern = [0u64, four_q_minus_1, q - 1, 2 * q, 2 * q - 1, 3 * q, 1, q];
        let input: Vec<u64> = (0..n).map(|i| pattern[i % pattern.len()]).collect();
        let (mut a, mut b) = (input.clone(), input);
        scalar.ntt_forward(&table, &mut a);
        avx2.ntt_forward(&table, &mut b);
        assert_eq!(a, b, "forward extremes q={q} n={n}");

        let inv_pattern = [0u64, 2 * q - 1, q, q - 1, 1, 2 * q - 2];
        let input: Vec<u64> = (0..n).map(|i| inv_pattern[i % inv_pattern.len()]).collect();
        let (mut a, mut b) = (input.clone(), input);
        scalar.ntt_inverse(&table, &mut a);
        avx2.ntt_inverse(&table, &mut b);
        assert_eq!(a, b, "inverse extremes q={q} n={n}");
    }
}

/// The narrow/wide NTT boundary (`2^30`) and the narrow/wide pointwise
/// boundary (`2^32`) both dispatch correctly: primes straddling each
/// boundary agree with scalar and with the strict oracle.
#[test]
fn dispatch_width_boundaries() {
    let Some((scalar, avx2)) = both_tables() else {
        eprintln!("skipping: AVX2 not available on this CPU");
        return;
    };
    let n = 64usize;
    for bits in [29u32, 30, 31, 32, 33] {
        let Some(q) = ntt_prime(bits, n, 0) else {
            continue;
        };
        let table = NttTable::new(Modulus::new(q), n).unwrap();
        let m = Modulus::new(q);
        let input = fill(0x1234_5678 + bits as u64, n, q);
        let (mut a, mut b, mut strict) = (input.clone(), input.clone(), input.clone());
        scalar.ntt_forward(&table, &mut a);
        avx2.ntt_forward(&table, &mut b);
        table.forward_strict(&mut strict);
        assert_eq!(a, b, "forward bits={bits}");
        assert_eq!(a, strict, "forward vs strict bits={bits}");

        let x = fill(0x9999 + bits as u64, n, q);
        let (mut d0, mut d1) = (vec![0u64; n], vec![0u64; n]);
        scalar.pointwise_mul(&m, &x, &input, &mut d0);
        avx2.pointwise_mul(&m, &x, &input, &mut d1);
        assert_eq!(d0, d1, "pointwise bits={bits}");
    }
}

/// Every limb at one of `0, q−1, ⌊q/2⌋, ⌊q/2⌋+1` — all limbs equal per
/// column, then staggered across limbs — over full and off-grid ranges.
#[test]
fn hps_edge_values_bit_identical() {
    let Some((scalar, avx2)) = both_tables() else {
        eprintln!("skipping: AVX2 not available on this CPU");
        return;
    };
    let n = 64usize;
    for which in 0..3 {
        let ctx = hps_context(which);
        let sc = ScaleContext::new(&ctx, 2);
        let edges = |basis: &RnsBasis, stagger: usize| -> Vec<u64> {
            (0..basis.len() * n)
                .map(|idx| {
                    let (i, c) = (idx / n, idx % n);
                    let q = basis.modulus(i).value();
                    [0, q - 1, q / 2, q / 2 + 1][(c + i * stagger) % 4]
                })
                .collect()
        };
        for stagger in [0, 1] {
            for cols in [0..n, 1..n - 1, 3..9, 5..6] {
                let src = edges(ctx.base_q(), stagger);
                assert_extend_identical(scalar, avx2, ctx.lift(), &src, n, cols.clone());
                let src = edges(ctx.base_p(), stagger);
                assert_extend_identical(scalar, avx2, ctx.unlift(), &src, n, cols.clone());
                let src = edges(ctx.base_full(), stagger);
                assert_scale_identical(scalar, avx2, &sc, &ctx, &src, n, cols);
            }
        }
    }
}

/// Bases outside the Lift/Scale lane's proven range — a destination
/// modulus at or above 2^31 or below 2^6, 22 source limbs (the output
/// reduction covers `3k ≤ 64`), a step-1 sum that can reach `64·p_m` —
/// take the scalar body through the AVX2 table and still match; 21 limbs
/// stay on the lane and match too.
#[test]
fn hps_lane_range_boundaries() {
    let Some((scalar, avx2)) = both_tables() else {
        eprintln!("skipping: AVX2 not available on this CPU");
        return;
    };
    let n = 64usize;
    let ps30 = ntt_primes(30, n, 29).unwrap();
    let wide: Vec<u64> = [31u32, 32, 40]
        .iter()
        .map(|&bits| ntt_prime(bits, n, 0).unwrap())
        .collect();
    assert!(wide.iter().all(|&q| q >= 1 << 30));
    let from = RnsBasis::new(&ps30[..6]).unwrap();
    let mut to_primes = ps30[6..9].to_vec();
    to_primes.extend(&wide);
    let to = RnsBasis::new(&to_primes).unwrap();
    let ext = Extender::new(&from, &to);
    let src = hps_source(&from, n, 1, 7);
    assert_extend_identical(scalar, avx2, &ext, &src, n, 0..n);
    let tiny = RnsBasis::new(&[31, ps30[6]]).unwrap();
    assert_extend_identical(scalar, avx2, &Extender::new(&from, &tiny), &src, n, 3..n);

    // 31-bit primes push the output sums toward the 64m reduction bound.
    let ps31 = ntt_primes(31, n, 24).unwrap();
    for (ps, k) in [(&ps30, 21usize), (&ps30, 22), (&ps31, 21)] {
        let from = RnsBasis::new(&ps[..k]).unwrap();
        let to = RnsBasis::new(&ps[k..k + 3]).unwrap();
        let ext = Extender::new(&from, &to);
        let src = hps_source(&from, n, 1, k as u64);
        assert_extend_identical(scalar, avx2, &ext, &src, n, 1..n);
    }

    // 20 q limbs: G alone can reach ~20·p_m, and 27 lazy terms add 54·p_m.
    let ctx = RnsContext::new(&ps30[..20], &ps30[20..27]).unwrap();
    let sc = ScaleContext::new(&ctx, 2);
    let src = hps_source(ctx.base_full(), n, 1, 99);
    assert_scale_identical(scalar, avx2, &sc, &ctx, &src, n, 2..n);
}

/// Deterministic pseudo-random bytes from a seed.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    fill_any(seed, len)
        .iter()
        .map(|&w| (w >> 24) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc32_bit_identical(
        len in 0usize..=8192,
        offset in 0usize..=15,
        state in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let Some((scalar, avx2)) = both_tables() else { return Ok(()); };
        let buf = bytes(seed, offset + len);
        let slice = &buf[offset..];
        prop_assert_eq!(
            avx2.crc32_update(state, slice),
            scalar.crc32_update(state, slice),
            "len={} offset={}", len, offset
        );
    }

    #[test]
    fn crc32_chained_split_equals_whole(
        len in 0usize..=8192,
        cut in any::<u64>(),
        state in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let buf = bytes(seed, len);
        let (head, tail) = buf.split_at((cut % (len as u64 + 1)) as usize);
        let tables = [Some(dispatch::scalar_kernels()), dispatch::avx2_kernels()];
        for k in tables.into_iter().flatten() {
            let chained = k.crc32_update(k.crc32_update(state, head), tail);
            prop_assert_eq!(chained, k.crc32_update(state, &buf), "{:?}", k.backend());
        }
    }
}

/// The standard CRC-32 check vector on every table this CPU can run.
#[test]
fn crc32_check_vector_on_both_tables() {
    let tables = [Some(dispatch::scalar_kernels()), dispatch::avx2_kernels()];
    for k in tables.into_iter().flatten() {
        assert_eq!(
            !k.crc32_update(!0, b"123456789"),
            0xCBF4_3926,
            "{:?}",
            k.backend()
        );
        assert_eq!(!k.crc32_update(!0, b""), 0, "{:?}", k.backend());
    }
}

/// Lengths around the fold's 16- and 64-byte block edges, and one
/// `add_stream` request frame (393,283 bytes) at every start offset.
#[test]
fn crc32_fold_boundaries_and_full_frame() {
    let Some((scalar, avx2)) = both_tables() else {
        return;
    };
    let buf = bytes(7, 393_283 + 15);
    for len in [15, 16, 63, 64, 65, 79, 80, 127, 128] {
        for offset in 0..16 {
            let slice = &buf[offset..offset + len];
            for state in [0, !0, 0xDEAD_BEEF] {
                assert_eq!(
                    avx2.crc32_update(state, slice),
                    scalar.crc32_update(state, slice),
                    "len={len} offset={offset} state={state:#x}"
                );
            }
        }
    }
    for offset in [0, 1, 15] {
        let frame = &buf[offset..offset + 393_283];
        assert_eq!(
            avx2.crc32_update(!0, frame),
            scalar.crc32_update(!0, frame),
            "frame offset={offset}"
        );
    }
}

/// The process-wide selection honors the documented env-override order;
/// whichever table is active, its output matches the scalar table.
#[test]
fn active_table_matches_scalar() {
    let n = 256usize;
    let q = ntt_prime(30, n, 0).unwrap();
    let table = NttTable::new(Modulus::new(q), n).unwrap();
    let input = fill(42, n, q);
    let (mut active, mut scalar) = (input.clone(), input);
    dispatch::kernels().ntt_forward(&table, &mut active);
    dispatch::scalar_kernels().ntt_forward(&table, &mut scalar);
    assert_eq!(active, scalar, "backend={}", dispatch::backend_name());

    // The public Fixed-precision entry points route through the active
    // table and agree with the scalar one.
    let ctx = hps_context(1);
    let src = hps_source(ctx.base_q(), n, 0, 5);
    let mut active = vec![0u64; ctx.base_p().len() * n];
    let mut scalar = active.clone();
    ctx.lift()
        .extend_poly_hps_into(&src, n, &mut active, HpsPrecision::Fixed);
    dispatch::scalar_kernels().extend_hps_cols(ctx.lift(), &src, n, 0..n, &mut scalar);
    assert_eq!(active, scalar, "lift backend={}", dispatch::backend_name());
    let sc = ScaleContext::new(&ctx, 2);
    let src = hps_source(ctx.base_full(), n, 0, 6);
    let mut active = vec![0u64; ctx.base_q().len() * n];
    let mut scalar = active.clone();
    sc.scale_poly_hps_into(&ctx, &src, n, &mut active, HpsPrecision::Fixed);
    dispatch::scalar_kernels().scale_hps_cols(&sc, &ctx, &src, n, 0..n, &mut scalar);
    assert_eq!(active, scalar, "scale backend={}", dispatch::backend_name());

    let buf = bytes(8, 4099);
    assert_eq!(
        dispatch::kernels().crc32_update(!0, &buf),
        dispatch::scalar_kernels().crc32_update(!0, &buf),
        "crc32 backend={}",
        dispatch::backend_name()
    );
}
