//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) update
//! kernels behind [`crate::dispatch::Kernels::crc32_update`].
//!
//! Both bodies advance the raw register state of the reflected
//! algorithm; the conventional checksum is `!update(!0, bytes)`.
//!
//! * [`update_table`] — byte-at-a-time lookup over a table built at
//!   compile time. It is the portable lane and the oracle the folded
//!   lane is proptest-pinned against.
//! * `update_clmul` (x86-64 only) — carry-less-multiply folding as in
//!   Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction" and Linux `crc32-pclmul`: four 128-bit
//!   accumulators fold 64-byte blocks, collapse to one 128-bit value,
//!   then to 64 and 32 bits, and a Barrett reduction yields the state.
//!   Inputs under 64 bytes, and the final tail under 16 bytes, run the
//!   table body. Needs `pclmulqdq` and `sse4.1`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time lookup table, built in a `const` context.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Advances the reflected CRC-32 register `crc` over `bytes`, one byte
/// per table lookup.
pub(crate) fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(target_arch = "x86_64")]
pub(crate) use clmul::update_clmul;

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Fold constants for the reflected polynomial, each a power of `x`
    /// modulo `P(x)`, bit-reflected and shifted left by one (Linux
    /// `crc32-pclmul_asm.S`): `(k2 << 64) | k1` folds across 64 bytes,
    /// `(k4 << 64) | k3` across 16 bytes, `k5` folds 64 → 32 bits.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// Barrett constants: the reflected polynomial `P'` (33 bits) and
    /// `μ' = ⌊x^64 / P⌋` reflected.
    const P_REFL: i64 = 0x1_DB71_0641;
    const MU_REFL: i64 = 0x1_F701_1641;

    /// One 128-bit fold step: `x.lo·k.lo ⊕ x.hi·k.hi ⊕ next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn load(bytes: &[u8], at: usize) -> __m128i {
        debug_assert!(at + 16 <= bytes.len());
        _mm_loadu_si128(bytes.as_ptr().add(at).cast())
    }

    /// Advances the reflected CRC-32 register `crc` over `bytes` by
    /// PCLMULQDQ folding; bit-identical to [`super::update_table`].
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(crate) unsafe fn update_clmul(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::update_table(crc, bytes);
        }
        let body = bytes.len() & !15;
        // Four accumulators over the first 64 bytes, the state folded
        // into the first 32 bits.
        let mut x0 = _mm_xor_si128(load(bytes, 0), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(bytes, 16);
        let mut x2 = load(bytes, 32);
        let mut x3 = load(bytes, 48);
        let mut at = 64;
        let k21 = _mm_set_epi64x(K2, K1);
        while at + 64 <= body {
            x0 = fold(x0, k21, load(bytes, at));
            x1 = fold(x1, k21, load(bytes, at + 16));
            x2 = fold(x2, k21, load(bytes, at + 32));
            x3 = fold(x3, k21, load(bytes, at + 48));
            at += 64;
        }
        // Collapse to one accumulator, then fold the remaining 16-byte
        // blocks.
        let k43 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, k43, x1);
        x = fold(x, k43, x2);
        x = fold(x, k43, x3);
        while at < body {
            x = fold(x, k43, load(bytes, at));
            at += 16;
        }
        // 128 → 64 bits (this also appends 32 zero bits to the message).
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x01>(k43, x));
        // 64 → 32 bits.
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5)),
        );
        // Barrett reduction 64 → 32 bits.
        let pu = _mm_set_epi64x(MU_REFL, P_REFL);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), pu);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, mask32), pu);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(t, x)) as u32;
        super::update_table(state, &bytes[body..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_matches_table_across_fold_boundaries() {
        if !(std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1"))
        {
            return;
        }
        let data: Vec<u8> = (0..1200u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            for state in [0, !0, 0x1234_5678] {
                // SAFETY: both features were detected above.
                let got = unsafe { update_clmul(state, &data[..len]) };
                assert_eq!(got, update_table(state, &data[..len]), "len {len}");
            }
        }
    }
}
