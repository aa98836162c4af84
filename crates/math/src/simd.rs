//! AVX2 lane implementations of the dominant kernels: the Harvey NTT
//! butterflies, pointwise (Hadamard) multiplication, the hoisted
//! key-switch sum-of-products line, and the HPS basis conversions `Lift
//! q→Q` and `Scale Q→q` with fixed-point quotients.
//!
//! Everything here is selected at runtime by [`crate::dispatch`]; nothing
//! in this module is reachable unless `is_x86_feature_detected!("avx2")`
//! returned true (or a test asked for the AVX2 table explicitly on a
//! machine that has it). All functions are `#[target_feature(enable =
//! "avx2")]` and therefore `unsafe` to call; the dispatch layer owns the
//! one safety obligation (the feature is present).
//!
//! # Lane-range invariants
//!
//! The scalar Harvey transforms already keep every intermediate in a
//! fixed, branch-free range (forward `[0, 4q)`, inverse `[0, 2q)` — see
//! [`crate::ntt`]), which is exactly what packed lanes need. Two widths:
//!
//! * **Narrow** (`q < 2^30`, the paper's 30-bit RNS primes): all relaxed
//!   values satisfy `4q < 2^32`, so a lazy Shoup product is three
//!   `pmuludq` per 4 lanes using the *truncated* Shoup constant
//!   `⌊w·2^32/q⌋ = w_shoup >> 32` — no extra twiddle storage. The
//!   truncated estimate still undershoots `⌊w·v/q⌋` by less than 2 for
//!   any `v < 2^32`, so the product lands in `[0, 2q)` like the scalar
//!   one. Intermediate *representatives* may differ from the scalar
//!   path's, but both transforms end with the same exact reduction to
//!   `[0, q)`, so outputs are **bit-identical** (a proptest pins this).
//! * **Wide** (any `q < 2^62`): a generic 64×64 high/low multiply built
//!   from four `pmuludq` partial products evaluates the *same* formula
//!   as the scalar `ShoupMul::mul_lazy`, so even intermediates match
//!   bit-for-bit. Values can exceed `2^63`, so conditional subtractions
//!   use sign-bias-corrected comparisons.
//!
//! Pointwise multiplication is vectorized for `q < 2^32` (the product
//! fits one `u64` lane; reduction is the same single-word Barrett as
//! [`crate::zq::Modulus::reduce_u64`], giving identical values); wider
//! moduli fall back to the scalar 128-bit path at the dispatch layer.
//!
//! # HPS basis conversion lanes
//!
//! `Lift` and `Scale` run 4 adjacent coefficients per vector, so every
//! limb row is one contiguous `load4(src[i·n + c..])` and no transpose is
//! needed. Each output is congruent to the scalar one and ends with an
//! exact reduction to `[0, m)`, and each HPS quotient is computed exactly,
//! so results are bit-identical to the scalar bodies. The range argument
//! needs every modulus in `[2^6, 2^31)`; the constructors of
//! [`crate::rns::Extender`] and [`crate::rns::ScaleContext`] check it
//! (with the limb-count bounds below) and build the lane constants only
//! where it holds. Any other basis takes the scalar body.
//!
//! * **Premultiply** `y = x·q̃ mod q`: words `≥ 2^32` are first reduced
//!   exactly by the vector Barrett step (the scalar code reduces any
//!   `u64`); then the narrow lazy Shoup product, valid for any 32-bit
//!   operand when `q < 2^31`, lands in `[0, 2q)` and one `csub` makes it
//!   canonical.
//! * **Lift quotient** `v = (Σ y_i·r_i + 2^88) >> 89` with
//!   `r_i = ⌊2^89/q_i⌋ < 2^60`: split `r = r_hi·2^32 + r_lo`, sum
//!   `A = Σ y·r_hi + Σ (y·r_lo) >> 32` and `B = Σ (y·r_lo) mod 2^32`;
//!   then `v = (A + (B >> 32) + 2^56) >> 57` exactly. With `y < 2^31` and
//!   `r_hi < 2^28` every term is below `2^59`, so `A` cannot wrap for
//!   `k ≤ 21`.
//! * **Scale's** `G = (Σ yq_i·f_i + 2^63) >> 64` with Q64 constants
//!   `f_i < 2^64`: the same split, plus one carry limb because
//!   `yq·f_hi` alone reaches `2^63`.
//! * **Outputs**: a sum of lazy Shoup terms, each in `[0, 2m)` (the terms
//!   share one quotient correction, see `lazy_dot`), plus
//!   `v·(m − M mod m)` in place of the scalar `− v·M` (`v ≤ k`). The Lift
//!   sum is therefore `< 3k·m`; Scale's step-1 sum is `G` plus `k + l`
//!   lazy terms, with `G ≤ Σ (q_i − 1)`. The lane requires both below
//!   `64m`, where a quotient estimate and two `csub`s yield the canonical
//!   residue. Values stay below `2^37`, so signed compares are safe.
//!
//! Column ranges whose length is not a multiple of 4 finish on the scalar
//! body.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::ntt::NttTable;
use crate::rns::{
    Extender, HpsPrecision, LiftLane, NarrowShoup, RnsContext, ScaleContext, ScaleLane,
    MAX_STREAM_LIMBS,
};
use crate::zq::Modulus;
use core::arch::x86_64::*;
use std::ops::Range;

/// Moduli below this bound use the narrow (32-bit-operand) NTT kernels:
/// `q < 2^30` keeps the relaxed range `[0, 4q)` inside 32 bits.
pub(crate) const NARROW_NTT_BOUND: u64 = 1 << 30;

/// Moduli below this bound use the vector pointwise kernels: operands in
/// `[0, q)` with `q < 2^32` keep the full product inside one 64-bit lane.
pub(crate) const NARROW_POINTWISE_BOUND: u64 = 1 << 32;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load4(p: *const u64) -> __m256i {
    _mm256_loadu_si256(p as *const __m256i)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store4(p: *mut u64, v: __m256i) {
    _mm256_storeu_si256(p as *mut __m256i, v)
}

/// `x >= m ? x - m : x` per lane, valid when both values are `< 2^63`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn csub(x: __m256i, m: __m256i) -> __m256i {
    let keep = _mm256_cmpgt_epi64(m, x);
    _mm256_sub_epi64(x, _mm256_andnot_si256(keep, m))
}

/// `x >= m ? x - m : x` per lane for full-range `u64` values: the signed
/// comparison is bias-corrected by flipping the sign bit of both sides.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn csub_u(x: __m256i, m: __m256i) -> __m256i {
    let bias = _mm256_set1_epi64x(i64::MIN);
    let keep = _mm256_cmpgt_epi64(_mm256_xor_si256(m, bias), _mm256_xor_si256(x, bias));
    _mm256_sub_epi64(x, _mm256_andnot_si256(keep, m))
}

/// High 64 bits of the unsigned 64×64 product, per lane, from four
/// `pmuludq` partial products with exact carry propagation.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mulhi64(a: __m256i, b: __m256i) -> __m256i {
    let lomask = _mm256_set1_epi64x(0xFFFF_FFFF);
    let ah = _mm256_srli_epi64(a, 32);
    let bh = _mm256_srli_epi64(b, 32);
    let ll = _mm256_mul_epu32(a, b);
    let lh = _mm256_mul_epu32(a, bh);
    let hl = _mm256_mul_epu32(ah, b);
    let hh = _mm256_mul_epu32(ah, bh);
    // mid < 3·2^32 fits a lane; the final sum is the exact high word.
    let mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, lomask)),
        _mm256_and_si256(hl, lomask),
    );
    _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)),
    )
}

/// Low 64 bits of the unsigned 64×64 product (wrapping), per lane.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
    let cross = _mm256_add_epi64(
        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
    );
    _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32))
}

/// Narrow lazy Shoup product: `w·v mod q` relaxed to `[0, 2q)`, for
/// `v < 2^32`, `q < 2^30`, using the truncated constant `⌊w·2^32/q⌋`
/// (the high half of the stored 64-bit Shoup constant). Three `pmuludq`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_lazy_narrow(v: __m256i, w: __m256i, w_shoup32: __m256i, q: __m256i) -> __m256i {
    let q_hat = _mm256_srli_epi64(_mm256_mul_epu32(w_shoup32, v), 32);
    _mm256_sub_epi64(_mm256_mul_epu32(w, v), _mm256_mul_epu32(q_hat, q))
}

/// Wide lazy Shoup product — the exact vector transcription of
/// [`crate::zq::ShoupMul::mul_lazy`]: valid for any 64-bit `v`, result
/// in `[0, 2q)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_lazy_wide(v: __m256i, w: __m256i, w_shoup: __m256i, q: __m256i) -> __m256i {
    let q_hat = mulhi64(w_shoup, v);
    _mm256_sub_epi64(mullo64(w, v), mullo64(q_hat, q))
}

// ---------------------------------------------------------------------------
// NTT kernels
// ---------------------------------------------------------------------------

/// Exact `[0, 4q) → [0, q)` reduction of one narrow vector (values are
/// `< 2^32`, so plain signed compares suffice).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce4q(x: __m256i, qv: __m256i, two_qv: __m256i) -> __m256i {
    csub(csub(x, two_qv), qv)
}

/// Forward Harvey NTT, narrow path (`q < 2^30`). Same stage structure as
/// [`NttTable::forward_scalar`]; butterflies run 4 lanes wide at every
/// stage — spans `t ≥ 4` directly, `t = 2` via 128-bit-lane shuffles
/// (two groups per vector), `t = 1` via 64-bit interleaves (four groups
/// per vector) with the final exact-reduction pass **fused into the last
/// stage's outputs**, so no separate sweep over the array is needed.
/// Tail-stage twiddles are loaded pairwise straight out of the
/// `repr(C)` [`crate::zq::ShoupMul`] table.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_forward_narrow(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    debug_assert!(q < NARROW_NTT_BOUND);
    let two_q = q << 1;
    let n = table.n();
    let psi = table.psi_brev_table();
    let psi_ptr = psi.as_ptr();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        if t >= 4 {
            for i in 0..m {
                let s = psi[m + i];
                let w = _mm256_set1_epi64x(s.w as i64);
                let ws32 = _mm256_set1_epi64x((s.w_shoup >> 32) as i64);
                let j1 = 2 * i * t;
                let mut j = j1;
                // Two independent butterfly vectors per iteration hide
                // the pmuludq latency.
                while j + 8 <= j1 + t {
                    let u0 = csub(load4(base.add(j)), two_qv);
                    let u1 = csub(load4(base.add(j + 4)), two_qv);
                    let v0 = mul_lazy_narrow(load4(base.add(j + t)), w, ws32, qv);
                    let v1 = mul_lazy_narrow(load4(base.add(j + t + 4)), w, ws32, qv);
                    store4(base.add(j), _mm256_add_epi64(u0, v0));
                    store4(base.add(j + 4), _mm256_add_epi64(u1, v1));
                    store4(
                        base.add(j + t),
                        _mm256_add_epi64(u0, _mm256_sub_epi64(two_qv, v0)),
                    );
                    store4(
                        base.add(j + t + 4),
                        _mm256_add_epi64(u1, _mm256_sub_epi64(two_qv, v1)),
                    );
                    j += 8;
                }
                while j < j1 + t {
                    let u = csub(load4(base.add(j)), two_qv);
                    let v = mul_lazy_narrow(load4(base.add(j + t)), w, ws32, qv);
                    store4(base.add(j), _mm256_add_epi64(u, v));
                    store4(
                        base.add(j + t),
                        _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)),
                    );
                    j += 4;
                }
            }
        } else if t == 2 {
            // Groups are 4 contiguous values [u0, u1, v0, v1]; two groups
            // ride one vector pair via 128-bit-lane permutes, and their
            // twiddle pair loads as one vector from the repr(C) table.
            let pairs = m / 2;
            for p in 0..pairs {
                let g = 2 * p;
                let ptr = base.add(4 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                let us = _mm256_permute2x128_si256(x, y, 0x20);
                let vs = _mm256_permute2x128_si256(x, y, 0x31);
                let tw = load4(psi_ptr.add(m + g) as *const u64);
                let w = _mm256_permute4x64_epi64(tw, 0b10_10_00_00);
                let ws32 = _mm256_srli_epi64(_mm256_permute4x64_epi64(tw, 0b11_11_01_01), 32);
                let u = csub(us, two_qv);
                let v = mul_lazy_narrow(vs, w, ws32, qv);
                let lo = _mm256_add_epi64(u, v);
                let hi = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                store4(ptr, _mm256_permute2x128_si256(lo, hi, 0x20));
                store4(ptr.add(4), _mm256_permute2x128_si256(lo, hi, 0x31));
            }
            for i in (2 * pairs)..m {
                let s = psi[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = s.mul_lazy(a[j + t], q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
        } else {
            // Final stage (t = 1): groups are adjacent pairs [u, v]; four
            // groups per vector pair via 64-bit interleaves. The exact
            // reduction to [0, q) is fused into the outputs, replacing
            // the scalar path's separate final pass.
            let quads = m / 4;
            for p in 0..quads {
                let g = 4 * p;
                let ptr = base.add(2 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                // us = [u0, u2, u1, u3], vs = [v0, v2, v1, v3] — the
                // twiddle loads interleave into the identical order.
                let us = _mm256_unpacklo_epi64(x, y);
                let vs = _mm256_unpackhi_epi64(x, y);
                let t0 = load4(psi_ptr.add(m + g) as *const u64);
                let t1 = load4(psi_ptr.add(m + g + 2) as *const u64);
                let w = _mm256_unpacklo_epi64(t0, t1);
                let ws32 = _mm256_srli_epi64(_mm256_unpackhi_epi64(t0, t1), 32);
                let u = csub(us, two_qv);
                let v = mul_lazy_narrow(vs, w, ws32, qv);
                let lo = reduce4q(_mm256_add_epi64(u, v), qv, two_qv);
                let hi = reduce4q(_mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)), qv, two_qv);
                store4(ptr, _mm256_unpacklo_epi64(lo, hi));
                store4(ptr.add(4), _mm256_unpackhi_epi64(lo, hi));
            }
            for i in (4 * quads)..m {
                let s = psi[m + i];
                let j = 2 * i;
                let mut u = a[j];
                if u >= two_q {
                    u -= two_q;
                }
                let v = s.mul_lazy(a[j + 1], q);
                let mut x0 = u + v;
                let mut x1 = u + two_q - v;
                if x0 >= two_q {
                    x0 -= two_q;
                }
                if x0 >= q {
                    x0 -= q;
                }
                if x1 >= two_q {
                    x1 -= two_q;
                }
                if x1 >= q {
                    x1 -= q;
                }
                a[j] = x0;
                a[j + 1] = x1;
            }
        }
        m <<= 1;
    }
}

/// Forward Harvey NTT, wide path (any `q < 2^62`) — bit-identical
/// intermediates to the scalar transform, with bias-corrected compares
/// because relaxed values can cross `2^63`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_forward_wide(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    let two_q = q << 1;
    let n = table.n();
    let psi = table.psi_brev_table();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        if t >= 4 {
            for i in 0..m {
                let s = psi[m + i];
                let w = _mm256_set1_epi64x(s.w as i64);
                let ws = _mm256_set1_epi64x(s.w_shoup as i64);
                let j1 = 2 * i * t;
                let mut j = j1;
                while j < j1 + t {
                    let u = csub_u(load4(base.add(j)), two_qv);
                    let v = mul_lazy_wide(load4(base.add(j + t)), w, ws, qv);
                    store4(base.add(j), _mm256_add_epi64(u, v));
                    store4(
                        base.add(j + t),
                        _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)),
                    );
                    j += 4;
                }
            }
        } else {
            for i in 0..m {
                let s = psi[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = s.mul_lazy(a[j + t], q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
        }
        m <<= 1;
    }
    final_reduce_u(a, q, two_q);
}

/// Inverse Harvey NTT, narrow path (`q < 2^30`). The first two stages
/// (`t ∈ {1,2}`) run 4 lanes wide via interleave/permute shuffles with
/// pairwise twiddle loads; for `n ≥ 8` the closing `n^{-1}` scaling pass
/// is **fused into the last GS stage** (single twiddle, composed with
/// `n^{-1}` into one exact Shoup product), so the array is swept once
/// less. Outputs stay canonical `[0, q)` exactly like the scalar path.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_inverse_narrow(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    debug_assert!(q < NARROW_NTT_BOUND);
    let two_q = q << 1;
    let n = table.n();
    let inv_psi = table.inv_psi_brev_table();
    let inv_ptr = inv_psi.as_ptr();
    let n_inv = table.n_inv_shoup();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut scaled = false;
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let h = m >> 1;
        if t >= 4 {
            if h == 1 {
                // Last stage: one group, one twiddle. Fold the n^{-1}
                // scaling in — sum branch scaled by n^{-1}, product
                // branch by the composed constant n^{-1}·w — and emit
                // exact [0, q) values (lazy product + one csub).
                let s = inv_psi[1];
                let comp = crate::zq::ShoupMul::new(table.modulus().mul(n_inv.w, s.w), q);
                let ws = _mm256_set1_epi64x(n_inv.w as i64);
                let wss32 = _mm256_set1_epi64x((n_inv.w_shoup >> 32) as i64);
                let wc = _mm256_set1_epi64x(comp.w as i64);
                let wcs32 = _mm256_set1_epi64x((comp.w_shoup >> 32) as i64);
                let mut j = 0usize;
                while j < t {
                    let u = load4(base.add(j));
                    let v = load4(base.add(j + t));
                    let sum = csub(_mm256_add_epi64(u, v), two_qv);
                    let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                    store4(base.add(j), csub(mul_lazy_narrow(sum, ws, wss32, qv), qv));
                    store4(
                        base.add(j + t),
                        csub(mul_lazy_narrow(diff, wc, wcs32, qv), qv),
                    );
                    j += 4;
                }
                scaled = true;
            } else {
                let mut j1 = 0usize;
                for i in 0..h {
                    let s = inv_psi[h + i];
                    let w = _mm256_set1_epi64x(s.w as i64);
                    let ws32 = _mm256_set1_epi64x((s.w_shoup >> 32) as i64);
                    let mut j = j1;
                    while j + 8 <= j1 + t {
                        let u0 = load4(base.add(j));
                        let u1 = load4(base.add(j + 4));
                        let v0 = load4(base.add(j + t));
                        let v1 = load4(base.add(j + t + 4));
                        store4(base.add(j), csub(_mm256_add_epi64(u0, v0), two_qv));
                        store4(base.add(j + 4), csub(_mm256_add_epi64(u1, v1), two_qv));
                        let d0 = _mm256_add_epi64(u0, _mm256_sub_epi64(two_qv, v0));
                        let d1 = _mm256_add_epi64(u1, _mm256_sub_epi64(two_qv, v1));
                        store4(base.add(j + t), mul_lazy_narrow(d0, w, ws32, qv));
                        store4(base.add(j + t + 4), mul_lazy_narrow(d1, w, ws32, qv));
                        j += 8;
                    }
                    while j < j1 + t {
                        let u = load4(base.add(j));
                        let v = load4(base.add(j + t));
                        store4(base.add(j), csub(_mm256_add_epi64(u, v), two_qv));
                        let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                        store4(base.add(j + t), mul_lazy_narrow(diff, w, ws32, qv));
                        j += 4;
                    }
                    j1 += 2 * t;
                }
            }
        } else if t == 2 {
            // Mirror of the forward t = 2 stage: two groups of
            // [u0, u1, v0, v1] per vector pair via 128-bit permutes.
            let pairs = h / 2;
            for p in 0..pairs {
                let g = 2 * p;
                let ptr = base.add(4 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                let us = _mm256_permute2x128_si256(x, y, 0x20);
                let vs = _mm256_permute2x128_si256(x, y, 0x31);
                let tw = load4(inv_ptr.add(h + g) as *const u64);
                let w = _mm256_permute4x64_epi64(tw, 0b10_10_00_00);
                let ws32 = _mm256_srli_epi64(_mm256_permute4x64_epi64(tw, 0b11_11_01_01), 32);
                let sum = csub(_mm256_add_epi64(us, vs), two_qv);
                let diff = _mm256_add_epi64(us, _mm256_sub_epi64(two_qv, vs));
                let prod = mul_lazy_narrow(diff, w, ws32, qv);
                store4(ptr, _mm256_permute2x128_si256(sum, prod, 0x20));
                store4(ptr.add(4), _mm256_permute2x128_si256(sum, prod, 0x31));
            }
            for i in (2 * pairs)..h {
                let s = inv_psi[h + i];
                let j1 = 4 * i;
                for j in j1..j1 + 2 {
                    let u = a[j];
                    let v = a[j + 2];
                    let mut sum = u + v;
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    a[j] = sum;
                    a[j + 2] = s.mul_lazy(u + two_q - v, q);
                }
            }
        } else {
            // First stage (t = 1): four adjacent [u, v] groups per
            // vector pair via 64-bit interleaves; the twiddle pair loads
            // interleave into the same scrambled lane order as the data.
            let quads = h / 4;
            for p in 0..quads {
                let g = 4 * p;
                let ptr = base.add(2 * g);
                let x = load4(ptr);
                let y = load4(ptr.add(4));
                let us = _mm256_unpacklo_epi64(x, y);
                let vs = _mm256_unpackhi_epi64(x, y);
                let t0 = load4(inv_ptr.add(h + g) as *const u64);
                let t1 = load4(inv_ptr.add(h + g + 2) as *const u64);
                let w = _mm256_unpacklo_epi64(t0, t1);
                let ws32 = _mm256_srli_epi64(_mm256_unpackhi_epi64(t0, t1), 32);
                let sum = csub(_mm256_add_epi64(us, vs), two_qv);
                let diff = _mm256_add_epi64(us, _mm256_sub_epi64(two_qv, vs));
                let prod = mul_lazy_narrow(diff, w, ws32, qv);
                store4(ptr, _mm256_unpacklo_epi64(sum, prod));
                store4(ptr.add(4), _mm256_unpackhi_epi64(sum, prod));
            }
            for i in (4 * quads)..h {
                let s = inv_psi[h + i];
                let j = 2 * i;
                let u = a[j];
                let v = a[j + 1];
                let mut sum = u + v;
                if sum >= two_q {
                    sum -= two_q;
                }
                a[j] = sum;
                a[j + 1] = s.mul_lazy(u + two_q - v, q);
            }
        }
        t <<= 1;
        m = h;
    }
    if !scaled {
        // Tiny n (< 8) never reached a fuseable vector stage: close with
        // the strict n^{-1} scaling sweep.
        for x in a.iter_mut() {
            *x = n_inv.mul(*x, q);
        }
    }
}

/// Inverse Harvey NTT, wide path (any `q < 2^62`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ntt_inverse_wide(table: &NttTable, a: &mut [u64]) {
    let q = table.modulus().value();
    let two_q = q << 1;
    let n = table.n();
    let inv_psi = table.inv_psi_brev_table();
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let h = m >> 1;
        if t >= 4 {
            let mut j1 = 0usize;
            for i in 0..h {
                let s = inv_psi[h + i];
                let w = _mm256_set1_epi64x(s.w as i64);
                let ws = _mm256_set1_epi64x(s.w_shoup as i64);
                let mut j = j1;
                while j < j1 + t {
                    let u = load4(base.add(j));
                    let v = load4(base.add(j + t));
                    store4(base.add(j), csub_u(_mm256_add_epi64(u, v), two_qv));
                    let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                    store4(base.add(j + t), mul_lazy_wide(diff, w, ws, qv));
                    j += 4;
                }
                j1 += 2 * t;
            }
        } else {
            let mut j1 = 0usize;
            for i in 0..h {
                let s = inv_psi[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    let mut sum = u + v;
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    a[j] = sum;
                    a[j + t] = s.mul_lazy(u + two_q - v, q);
                }
                j1 += 2 * t;
            }
        }
        t <<= 1;
        m = h;
    }
    let s = table.n_inv_shoup();
    let w = _mm256_set1_epi64x(s.w as i64);
    let ws = _mm256_set1_epi64x(s.w_shoup as i64);
    let mut i = 0usize;
    while i + 4 <= n {
        let r = mul_lazy_wide(load4(base.add(i)), w, ws, qv);
        store4(base.add(i), csub_u(r, qv));
        i += 4;
    }
    for x in &mut a[i..] {
        *x = s.mul(*x, q);
    }
}

/// Exact final reduction `[0, 4q) → [0, q)` for full-range values.
#[target_feature(enable = "avx2")]
unsafe fn final_reduce_u(a: &mut [u64], q: u64, two_q: u64) {
    let qv = _mm256_set1_epi64x(q as i64);
    let two_qv = _mm256_set1_epi64x(two_q as i64);
    let base = a.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= a.len() {
        let r = csub(csub_u(load4(base.add(i)), two_qv), qv);
        store4(base.add(i), r);
        i += 4;
    }
    for x in &mut a[i..] {
        let mut r = *x;
        if r >= two_q {
            r -= two_q;
        }
        if r >= q {
            r -= q;
        }
        *x = r;
    }
}

// ---------------------------------------------------------------------------
// Pointwise kernels (q < 2^32)
// ---------------------------------------------------------------------------

/// Vector single-word Barrett reduction of a full 64-bit lane value —
/// the exact transcription of [`Modulus::reduce_u64`] (same quotient
/// estimate, at most three corrective subtractions).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_u64_vec(x: __m256i, b64: __m256i, qv: __m256i) -> __m256i {
    let q_hat = mulhi64(x, b64);
    let r = _mm256_sub_epi64(x, mullo64(q_hat, qv));
    // r < 4q < 2^34: plain signed compares are safe.
    csub(csub(csub(r, qv), qv), qv)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pointwise_mul_narrow(m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
    let qv = _mm256_set1_epi64x(m.value() as i64);
    let b64 = _mm256_set1_epi64x(m.barrett_64() as i64);
    let n = dst.len();
    let (pa, pb, pd) = (a.as_ptr(), b.as_ptr(), dst.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        let prod = _mm256_mul_epu32(load4(pa.add(i)), load4(pb.add(i)));
        store4(pd.add(i), reduce_u64_vec(prod, b64, qv));
        i += 4;
    }
    for j in i..n {
        dst[j] = m.mul(a[j], b[j]);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pointwise_mul_assign_narrow(m: &Modulus, dst: &mut [u64], b: &[u64]) {
    let qv = _mm256_set1_epi64x(m.value() as i64);
    let b64 = _mm256_set1_epi64x(m.barrett_64() as i64);
    let n = dst.len();
    let (pb, pd) = (b.as_ptr(), dst.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        let prod = _mm256_mul_epu32(load4(pd.add(i)), load4(pb.add(i)));
        store4(pd.add(i), reduce_u64_vec(prod, b64, qv));
        i += 4;
    }
    for j in i..n {
        dst[j] = m.mul(dst[j], b[j]);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pointwise_mul_acc_narrow(m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
    let qv = _mm256_set1_epi64x(m.value() as i64);
    let b64 = _mm256_set1_epi64x(m.barrett_64() as i64);
    let n = acc.len();
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), acc.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        // a·b < q² ≤ (2^32−1)², so adding the accumulator (< q) cannot wrap.
        let prod = _mm256_mul_epu32(load4(pa.add(i)), load4(pb.add(i)));
        let sum = _mm256_add_epi64(prod, load4(pc.add(i)));
        store4(pc.add(i), reduce_u64_vec(sum, b64, qv));
        i += 4;
    }
    for j in i..n {
        acc[j] = m.mul_add(a[j], b[j], acc[j]);
    }
}

// ---------------------------------------------------------------------------
// Hoisted key-switch sum-of-products (narrow layout)
// ---------------------------------------------------------------------------

/// One residue row of the narrow SoP: for each slot `t`, accumulate
/// `Σ_i digits[π(t)·k + i] · ksk{0,1}[t·k + i]` (plus the optional hoisted
/// `c0` seed on the first accumulator), reduce once, and fold into
/// `acc0`/`acc1`. The digit lanes ride 4-wide in `u64` lanes via
/// `pmuludq`; the caller guarantees no-overflow (`narrow_sop_ok`), so any
/// summation order — including lane partials — yields the same exact sum.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn sop_narrow_row(
    m: &Modulus,
    perm: &[u32],
    digits: &[u32],
    ksk0: &[u32],
    ksk1: &[u32],
    c0_row: Option<&[u64]>,
    acc0: &mut [u64],
    acc1: &mut [u64],
) {
    let n = perm.len();
    let k = digits.len() / n;
    debug_assert!(k >= 4);
    for t in 0..n {
        let p = perm[t] as usize;
        let dl = digits.as_ptr().add(p * k);
        let x0 = ksk0.as_ptr().add(t * k);
        let x1 = ksk1.as_ptr().add(t * k);
        let mut v0 = _mm256_setzero_si256();
        let mut v1 = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= k {
            let d = _mm256_cvtepu32_epi64(_mm_loadu_si128(dl.add(i) as *const __m128i));
            let w0 = _mm256_cvtepu32_epi64(_mm_loadu_si128(x0.add(i) as *const __m128i));
            let w1 = _mm256_cvtepu32_epi64(_mm_loadu_si128(x1.add(i) as *const __m128i));
            v0 = _mm256_add_epi64(v0, _mm256_mul_epu32(d, w0));
            v1 = _mm256_add_epi64(v1, _mm256_mul_epu32(d, w1));
            i += 4;
        }
        if i + 2 <= k {
            // Two-digit tail (the paper's k = 6 lands here): a 64-bit
            // partial load leaves the upper lanes zero, which contribute
            // nothing to the lane sums.
            let d = _mm256_cvtepu32_epi64(_mm_loadl_epi64(dl.add(i) as *const __m128i));
            let w0 = _mm256_cvtepu32_epi64(_mm_loadl_epi64(x0.add(i) as *const __m128i));
            let w1 = _mm256_cvtepu32_epi64(_mm_loadl_epi64(x1.add(i) as *const __m128i));
            v0 = _mm256_add_epi64(v0, _mm256_mul_epu32(d, w0));
            v1 = _mm256_add_epi64(v1, _mm256_mul_epu32(d, w1));
            i += 2;
        }
        let mut s0 = match c0_row {
            Some(row) => row[p],
            None => 0,
        };
        let mut s1 = 0u64;
        let (h0, h1) = hsum_pair(v0, v1);
        s0 = s0.wrapping_add(h0);
        s1 = s1.wrapping_add(h1);
        while i < k {
            let d = *dl.add(i) as u64;
            s0 = s0.wrapping_add(d * *x0.add(i) as u64);
            s1 = s1.wrapping_add(d * *x1.add(i) as u64);
            i += 1;
        }
        acc0[t] = m.add(acc0[t], m.reduce_u64(s0));
        acc1[t] = m.add(acc1[t], m.reduce_u64(s1));
    }
}

/// Horizontal wrapping sums of two accumulators at once, sharing the
/// cross-lane shuffles.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_pair(v0: __m256i, v1: __m256i) -> (u64, u64) {
    let s0 = _mm_add_epi64(_mm256_castsi256_si128(v0), _mm256_extracti128_si256(v0, 1));
    let s1 = _mm_add_epi64(_mm256_castsi256_si128(v1), _mm256_extracti128_si256(v1, 1));
    let t = _mm_add_epi64(_mm_unpacklo_epi64(s0, s1), _mm_unpackhi_epi64(s0, s1));
    (_mm_cvtsi128_si64(t) as u64, _mm_extract_epi64(t, 1) as u64)
}

// ---------------------------------------------------------------------------
// HPS basis conversion: Lift q→Q and Scale Q→q (fixed-point quotients)
// ---------------------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn splat(x: u64) -> __m256i {
    _mm256_set1_epi64x(x as i64)
}

/// Exact `x·w mod q` for lanes `x < 2^32`, `q < 2^31`: the narrow lazy
/// Shoup product in `[0, 2q)` and one `csub`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_narrow(x: __m256i, t: NarrowShoup, qv: __m256i) -> __m256i {
    csub(mul_lazy_narrow(x, splat(t.w), splat(t.w32), qv), qv)
}

/// `y = x·w mod q` for any 64-bit lane `x`, exactly as the scalar
/// `m.mul(m.reduce(x), w)`. Canonical input (every lane `< 2^32`) skips
/// the Barrett pre-reduction.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn premultiply(x: __m256i, m: &Modulus, t: NarrowShoup) -> __m256i {
    let qv = splat(m.value());
    let x = if _mm256_testz_si256(x, splat(!0xFFFF_FFFF)) == 1 {
        x
    } else {
        reduce_u64_vec(x, splat(m.barrett_64()), qv)
    };
    mul_narrow(x, t, qv)
}

/// `⌊2^37/m⌋` for each modulus — the quotient-estimate constants of
/// [`reduce_below_64m`], computed once per call on the stack.
fn mu_table(moduli: &[Modulus]) -> [u64; MAX_STREAM_LIMBS] {
    let mut mu = [0u64; MAX_STREAM_LIMBS];
    for (mu, m) in mu.iter_mut().zip(moduli) {
        *mu = (1 << 37) / m.value();
    }
    mu
}

/// Exact `[0, 64m) → [0, m)` reduction for `32 < m < 2^31`: with
/// `μ = ⌊2^37/m⌋ < 2^32`, the estimate `q̂ = ⌊⌊x/32⌋·μ/2^32⌋` undershoots
/// `⌊x/m⌋` by less than `1 + x/2^37 + 32/m < 3`, so `x − q̂·m` is in
/// `[0, 3m)` and two `csub`s finish.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_below_64m(x: __m256i, qv: __m256i, mu: u64) -> __m256i {
    let q_hat = _mm256_srli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 5), splat(mu)), 32);
    let r = _mm256_sub_epi64(x, _mm256_mul_epu32(q_hat, qv));
    csub(csub(r, _mm256_slli_epi64(qv, 1)), qv)
}

/// `base + Σ y_i·c_i` relaxed modulo `q`: each lazy Shoup term
/// `w·y − q̂·q` lies in `[0, 2q)`, and the terms share one correction
/// `Σ w·y − q·Σ q̂` in wrapping arithmetic — exact, because the true sum
/// is below `2^64` (`Σ q̂ < len·2^32` needs the two-`pmuludq` product).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lazy_dot(base: __m256i, ys: &[__m256i], row: &[NarrowShoup], qv: __m256i) -> __m256i {
    let mut prod = base;
    let mut q_hat = _mm256_setzero_si256();
    for (&y, c) in ys.iter().zip(row) {
        prod = _mm256_add_epi64(prod, _mm256_mul_epu32(y, splat(c.w)));
        q_hat = _mm256_add_epi64(
            q_hat,
            _mm256_srli_epi64(_mm256_mul_epu32(y, splat(c.w32)), 32),
        );
    }
    let q_hat_q = _mm256_add_epi64(
        _mm256_mul_epu32(q_hat, qv),
        _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(q_hat, 32), qv), 32),
    );
    _mm256_sub_epi64(prod, q_hat_q)
}

/// Fig. 6 Blocks 2–4 on 4 adjacent coefficients: `ys` holds the
/// premultiplied residues over the source basis; output row `j` of the
/// destination basis is stored at `out + j·w`.
///
/// # Safety
///
/// The CPU supports AVX2, `lane` is `ext`'s lane, and the four words at
/// `out + j·w` are writable for every destination row `j`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn extend_block(
    ext: &Extender,
    lane: &LiftLane,
    mu: &[u64],
    ys: &[__m256i],
    out: *mut u64,
    w: usize,
) {
    let k = ys.len();
    let mask = splat(0xFFFF_FFFF);
    let mut a = splat(1 << 56);
    let mut b = _mm256_setzero_si256();
    for ((&y, &hi), &lo) in ys.iter().zip(&lane.recip_hi).zip(&lane.recip_lo) {
        let p = _mm256_mul_epu32(y, splat(lo));
        a = _mm256_add_epi64(
            a,
            _mm256_add_epi64(_mm256_mul_epu32(y, splat(hi)), _mm256_srli_epi64(p, 32)),
        );
        b = _mm256_add_epi64(b, _mm256_and_si256(p, mask));
    }
    let v = _mm256_srli_epi64(_mm256_add_epi64(a, _mm256_srli_epi64(b, 32)), 57);
    let rows = lane.cross_t.chunks_exact(k).zip(&lane.neg_product);
    for (j, ((row, &neg), (m, &mu))) in rows.zip(ext.to_basis().moduli().iter().zip(mu)).enumerate()
    {
        let qv = splat(m.value());
        let acc = lazy_dot(_mm256_mul_epu32(v, splat(neg)), ys, row, qv);
        store4(out.add(j * w), reduce_below_64m(acc, qv, mu));
    }
}

/// HPS `Lift` of columns `cols`, 4 per vector.
///
/// # Safety
///
/// The CPU supports AVX2, and the layout holds as
/// [`Extender::check_cols_shape`] checks it: `src.len() = k·n`,
/// `cols.end ≤ n` and `out.len() = l·cols.len()`. Loads and stores are
/// unchecked pointer offsets within those bounds.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn extend_hps_cols(
    ext: &Extender,
    lane: &LiftLane,
    src: &[u64],
    n: usize,
    cols: Range<usize>,
    out: &mut [u64],
) {
    let from = ext.from_basis();
    let w = cols.len();
    let w4 = w & !3;
    let mu = mu_table(ext.to_basis().moduli());
    let mut ys_buf = [_mm256_setzero_si256(); MAX_STREAM_LIMBS];
    let ys = &mut ys_buf[..from.len()];
    let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
    for o in (0..w4).step_by(4) {
        let c = cols.start + o;
        for ((i, y), m) in ys.iter_mut().enumerate().zip(from.moduli()) {
            *y = premultiply(load4(sp.add(i * n + c)), m, lane.tilde[i]);
        }
        extend_block(ext, lane, &mu, ys, op.add(o), w);
    }
    ext.extend_cols_hps_at(
        src,
        n,
        cols.start + w4..cols.end,
        out,
        w,
        w4,
        HpsPrecision::Fixed,
    );
}

/// HPS `Scale Q→q` of columns `cols`, 4 per vector: step 1 computes
/// `d = ⌈t·a/q⌋` in the p basis, step 2 premultiplies it for the `p → q`
/// extender and runs [`extend_block`].
///
/// # Safety
///
/// The CPU supports AVX2, `unlift` is `ctx.unlift()`'s lane, and the
/// layout holds as [`ScaleContext::check_cols_shape`] checks it:
/// `src.len() = (k + l)·n`, `cols.end ≤ n` and `out.len() = k·cols.len()`.
/// Loads and stores are unchecked pointer offsets within those bounds.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn scale_hps_cols(
    sc: &ScaleContext,
    lane: &ScaleLane,
    ctx: &RnsContext,
    unlift: &LiftLane,
    src: &[u64],
    n: usize,
    cols: Range<usize>,
    out: &mut [u64],
) {
    let full = ctx.base_full();
    let pb = ctx.base_p();
    let k = ctx.base_q().len();
    let kl = full.len();
    let w = cols.len();
    let w4 = w & !3;
    let mask = splat(0xFFFF_FFFF);
    let mu_p = mu_table(pb.moduli());
    let mu_q = mu_table(ctx.base_q().moduli());
    let mut ys_buf = [_mm256_setzero_si256(); MAX_STREAM_LIMBS];
    let mut ds_buf = [_mm256_setzero_si256(); MAX_STREAM_LIMBS];
    let ys = &mut ys_buf[..kl];
    let ds = &mut ds_buf[..pb.len()];
    let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
    for o in (0..w4).step_by(4) {
        let c = cols.start + o;
        for ((r, y), m) in ys.iter_mut().enumerate().zip(full.moduli()) {
            *y = premultiply(load4(sp.add(r * n + c)), m, lane.tilde[r]);
        }
        // G = (Σ yq·f + 2^63) >> 64 over the q limbs, f = f_hi·2^32 + f_lo.
        let (mut a_hi, mut a_lo, mut b) = (
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
        );
        for ((&y, &hi), &lo) in ys[..k].iter().zip(&lane.frac_hi).zip(&lane.frac_lo) {
            let p = _mm256_mul_epu32(y, splat(lo));
            let t = _mm256_add_epi64(_mm256_mul_epu32(y, splat(hi)), _mm256_srli_epi64(p, 32));
            a_hi = _mm256_add_epi64(a_hi, _mm256_srli_epi64(t, 32));
            a_lo = _mm256_add_epi64(a_lo, _mm256_and_si256(t, mask));
            b = _mm256_add_epi64(b, _mm256_and_si256(p, mask));
        }
        let carry = _mm256_add_epi64(
            _mm256_add_epi64(a_lo, _mm256_srli_epi64(b, 32)),
            splat(1 << 31),
        );
        let g = _mm256_add_epi64(a_hi, _mm256_srli_epi64(carry, 32));
        for ((((d, row), m), &t), &mu) in ds
            .iter_mut()
            .zip(lane.mix.chunks_exact(kl))
            .zip(pb.moduli())
            .zip(&unlift.tilde)
            .zip(&mu_p)
        {
            let pv = splat(m.value());
            let acc = lazy_dot(g, ys, row, pv);
            *d = mul_narrow(reduce_below_64m(acc, pv, mu), t, pv);
        }
        extend_block(ctx.unlift(), unlift, &mu_q, ds, op.add(o), w);
    }
    sc.scale_cols_hps_at(
        ctx,
        src,
        n,
        cols.start + w4..cols.end,
        out,
        w,
        w4,
        HpsPrecision::Fixed,
    );
}
