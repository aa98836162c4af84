//! Residue Number System contexts: CRT, base extension and scaling.
//!
//! This module implements both algorithm families the paper evaluates:
//!
//! * **Traditional CRT** (§IV-C "Using traditional CRT", Fig. 5/8): exact
//!   reconstruction with long-integer arithmetic ([`Extender::extend_exact`],
//!   [`ScaleContext::scale_exact`]), built on [`crate::bigint`].
//! * **HPS approximate CRT** (§IV-C/D "Using approximate CRT", Fig. 6/9,
//!   after Halevi-Polyakov-Shoup 2018): all arithmetic on 30-bit words, with
//!   the quotient `v' = ⌈Σ (a_i·q̃_i mod q_i)/q_i⌋` computed either in
//!   `f64` (the HPS paper) or in the paper's 89-bit fixed point
//!   ([`crate::fixed::SmallReciprocal`]).
//!
//! Because the quotient uses *rounding* (not floor), the extension produces
//! the residues of the **centered** representative — exactly what FV's
//! multiplication needs. Mis-rounding probability is ≈ 2^-47 per coefficient
//! for `f64` and ≈ 2^-53 for the fixed-point variant, and a mis-round only
//! perturbs the result by one multiple of the source modulus, which FV
//! absorbs as noise (§IV-C: "This negligible error has in practice no impact
//! on the correctness of HE").

use crate::bigint::{center, IBig, UBig};
use crate::fixed::SmallReciprocal;
use crate::zq::Modulus;
use serde::{Deserialize, Serialize};

/// Upper bound on RNS limbs per basis supported by the allocation-free
/// column-streaming kernels (their per-coefficient scratch rows live on the
/// stack at this size, so the hot loops perform zero heap allocation). Far
/// above any realistic parameter set — the paper's largest shape uses
/// 12 + 13 limbs.
pub const MAX_STREAM_LIMBS: usize = 64;

/// A constant `w < m` with its narrow Shoup companion `⌊w·2^32/m⌋`, the
/// operand pair of the AVX2 lanes' three-`pmuludq` lazy product.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct NarrowShoup {
    pub(crate) w: u64,
    pub(crate) w32: u64,
}

impl NarrowShoup {
    fn new(w: u64, m: u64) -> Self {
        debug_assert!(w < m);
        NarrowShoup {
            w,
            w32: (w << 32) / m,
        }
    }
}

/// Moduli the vector Lift/Scale lanes accept: below 2^31 every operand
/// and constant fits one 32-bit `pmuludq` input, and above 2^6 the
/// output reduction's quotient estimate `⌊2^37/m⌋` does too.
const LANE_MODULI: std::ops::Range<u64> = (1 << 6)..(1 << 31);

/// Constants of the vector `Lift` lane, built once by [`Extender::new`]
/// when the bases satisfy the lane's range argument (see the `simd`
/// module): every modulus in `[2^6, 2^31)` and `3k ≤ 64`, so the output
/// sum of `k` lazy products `< 2m` plus `v·(m − M mod m) ≤ k·m` stays
/// below the `64m` the final reduction covers.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone)]
pub(crate) struct LiftLane {
    /// `q̃_i` per source limb.
    pub(crate) tilde: Vec<NarrowShoup>,
    /// High and low 32-bit halves of the Q89 reciprocal `⌊2^89/q_i⌋`.
    pub(crate) recip_hi: Vec<u64>,
    pub(crate) recip_lo: Vec<u64>,
    /// `(M/m_i) mod t_j`, transposed to rows `[j·k + i]`.
    pub(crate) cross_t: Vec<NarrowShoup>,
    /// `t_j − (M mod t_j)`: adding `v` of these subtracts `v·M`.
    pub(crate) neg_product: Vec<u64>,
}

impl LiftLane {
    fn new(from: &RnsBasis, to: &RnsBasis, ext_cross: &[Vec<u64>], pmt: &[u64]) -> Option<Self> {
        let k = from.len();
        let narrow = |b: &RnsBasis| b.moduli().iter().all(|m| LANE_MODULI.contains(&m.value()));
        if 3 * k > 64 || !narrow(from) || !narrow(to) {
            return None;
        }
        let recip: Vec<u64> = from
            .moduli()
            .iter()
            .map(|m| SmallReciprocal::new(m.value()).stored_word())
            .collect();
        Some(LiftLane {
            tilde: (0..k)
                .map(|i| NarrowShoup::new(from.tilde(i), from.modulus(i).value()))
                .collect(),
            recip_hi: recip.iter().map(|r| r >> 32).collect(),
            recip_lo: recip.iter().map(|r| r & 0xFFFF_FFFF).collect(),
            cross_t: (0..to.len())
                .flat_map(|j| {
                    let m = to.modulus(j).value();
                    ext_cross.iter().map(move |row| NarrowShoup::new(row[j], m))
                })
                .collect(),
            neg_product: to
                .moduli()
                .iter()
                .zip(pmt)
                .map(|(m, &r)| m.value() - r)
                .collect(),
        })
    }
}

/// Constants of the vector `Scale` lane's step 1 (Fig. 9 Blocks 1–3),
/// built once by [`ScaleContext::new`] when the range argument holds:
/// every modulus in `[2^6, 2^31)`, the `p → q` extender has its own
/// [`LiftLane`], and for every `p_m` the unreduced sum
/// `G + Σ (k + l lazy products < 2p_m)` stays below `64·p_m`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone)]
pub(crate) struct ScaleLane {
    /// `Q̃` per modulus of the full basis (q limbs first).
    pub(crate) tilde: Vec<NarrowShoup>,
    /// High and low 32-bit halves of the Q64 constants `frac(t·p/q_i)`.
    pub(crate) frac_hi: Vec<u64>,
    pub(crate) frac_lo: Vec<u64>,
    /// Row `m` (stride `k + l`): `I_i mod p_m` for the q limbs, then
    /// `t·(p/p_j) mod p_m` for the p limbs — the full basis order.
    pub(crate) mix: Vec<NarrowShoup>,
}

/// Which arithmetic computes the HPS approximate quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HpsPrecision {
    /// IEEE-754 double precision, as in the original HPS paper (error 2^-53).
    F64,
    /// The paper's 89-bit fixed-point reciprocals stored in ROM (§V-B2).
    Fixed,
}

/// An RNS basis: pairwise-coprime moduli `m_0, …, m_{k-1}` with the CRT
/// constants for exact reconstruction.
///
/// # Example
///
/// ```
/// use hefv_math::{bigint::UBig, rns::RnsBasis};
/// let basis = RnsBasis::new(&[1_073_479_681, 1_073_184_769]).unwrap();
/// let x = UBig::from(123_456_789_012_345u64);
/// let residues = basis.encode(&x);
/// assert_eq!(basis.decode(&residues), x);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    product: UBig,
    /// `M / m_i` for each i.
    m_over_mi: Vec<UBig>,
    /// `(M/m_i)^{-1} mod m_i` — the paper's `q̃_i`.
    mi_tilde: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from distinct primes.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or contains duplicates.
    pub fn new(primes: &[u64]) -> Result<Self, String> {
        if primes.is_empty() {
            return Err("RNS basis needs at least one modulus".into());
        }
        for (i, &a) in primes.iter().enumerate() {
            if !crate::primes::is_prime(a) {
                return Err(format!("modulus {a} is not prime"));
            }
            for &b in &primes[i + 1..] {
                if a == b {
                    return Err(format!("duplicate modulus {a}"));
                }
            }
        }
        let moduli: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p)).collect();
        let mut product = UBig::one();
        for &p in primes {
            product = product.mul_u64(p);
        }
        let m_over_mi: Vec<UBig> = primes
            .iter()
            .map(|&p| product.div_rem(&UBig::from(p)).0)
            .collect();
        let mi_tilde: Vec<u64> = moduli
            .iter()
            .zip(&m_over_mi)
            .map(|(m, moi)| m.inv(moi.rem_u64(m.value())))
            .collect();
        Ok(RnsBasis {
            moduli,
            product,
            m_over_mi,
            mi_tilde,
        })
    }

    /// Number of moduli in the basis.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True iff the basis has no moduli (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The i-th modulus.
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// All moduli.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The basis product `M`.
    pub fn product(&self) -> &UBig {
        &self.product
    }

    /// The CRT constant `q̃_i = (M/m_i)^{-1} mod m_i`.
    pub fn tilde(&self, i: usize) -> u64 {
        self.mi_tilde[i]
    }

    /// `M / m_i`.
    pub fn m_over(&self, i: usize) -> &UBig {
        &self.m_over_mi[i]
    }

    /// Residues of `x mod M`.
    pub fn encode(&self, x: &UBig) -> Vec<u64> {
        self.moduli.iter().map(|m| x.rem_u64(m.value())).collect()
    }

    /// Residues of a signed value.
    pub fn encode_signed(&self, x: &IBig) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|m| x.rem_euclid(&UBig::from(m.value())).to_u64().unwrap())
            .collect()
    }

    /// Exact CRT reconstruction into `[0, M)` (Theorem 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn decode(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let mut acc = UBig::zero();
        for (i, &r) in residues.iter().enumerate() {
            // y_i = a_i * tilde_i mod m_i ; acc += y_i * (M/m_i)
            let y = self.moduli[i].mul(self.moduli[i].reduce(r), self.mi_tilde[i]);
            acc += &self.m_over_mi[i].mul_u64(y);
        }
        acc.div_rem(&self.product).1
    }

    /// CRT reconstruction to the centered representative in `(-M/2, M/2]`.
    pub fn decode_centered(&self, residues: &[u64]) -> IBig {
        let v = self.decode(residues);
        center(&v, &self.product)
    }
}

/// Base extension from one RNS basis to another — the paper's `Lift q→Q`
/// computational kernel (and, in the reverse direction, the second half of
/// `Scale Q→q`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Extender {
    from: RnsBasis,
    to: RnsBasis,
    /// `(M_from/m_i) mod t_j`, indexed `[i][j]`.
    cross: Vec<Vec<u64>>,
    /// `M_from mod t_j`.
    product_mod_to: Vec<u64>,
    /// Fixed-point reciprocals `1/m_i`.
    recips: Vec<SmallReciprocal>,
    /// `1.0 / m_i` as doubles.
    recips_f64: Vec<f64>,
    /// Vector-lane constants, `None` outside the lane's proven range.
    lane: Option<LiftLane>,
}

impl Extender {
    /// Precomputes the extension tables between two bases.
    pub fn new(from: &RnsBasis, to: &RnsBasis) -> Self {
        let cross: Vec<Vec<u64>> = (0..from.len())
            .map(|i| {
                (0..to.len())
                    .map(|j| from.m_over(i).rem_u64(to.modulus(j).value()))
                    .collect()
            })
            .collect();
        let product_mod_to: Vec<u64> = (0..to.len())
            .map(|j| from.product().rem_u64(to.modulus(j).value()))
            .collect();
        let recips = from
            .moduli()
            .iter()
            .map(|m| SmallReciprocal::new(m.value()))
            .collect();
        let recips_f64 = from
            .moduli()
            .iter()
            .map(|m| 1.0 / m.value() as f64)
            .collect();
        let lane = LiftLane::new(from, to, &cross, &product_mod_to);
        Extender {
            from: from.clone(),
            to: to.clone(),
            cross,
            product_mod_to,
            recips,
            recips_f64,
            lane,
        }
    }

    /// The vector-lane constants, if this basis pair is inside the lane's
    /// proven range.
    pub(crate) fn lane(&self) -> Option<&LiftLane> {
        self.lane.as_ref()
    }

    /// The source basis.
    pub fn from_basis(&self) -> &RnsBasis {
        &self.from
    }

    /// The destination basis.
    pub fn to_basis(&self) -> &RnsBasis {
        &self.to
    }

    /// ROM constants `(M_from/m_i) mod t_j`, indexed `[i][j]` — the
    /// contents of the hardware's Block-2 constant memory (Fig. 6).
    pub fn cross_table(&self) -> &[Vec<u64>] {
        &self.cross
    }

    /// ROM constants `M_from mod t_j` (Block 4 of Fig. 6).
    pub fn product_mod_to_table(&self) -> &[u64] {
        &self.product_mod_to
    }

    /// The stored fixed-point reciprocals `1/m_i` (Block 3 of Fig. 6).
    pub fn reciprocal_roms(&self) -> &[SmallReciprocal] {
        &self.recips
    }

    /// The `y_i = a_i · q̃_i mod q_i` premultiplication (Fig. 6 "Block 1"),
    /// written into a caller-provided scratch row (the hot path calls this
    /// once per coefficient and must not allocate).
    fn premultiply_into(&self, residues: &[u64], ys: &mut [u64]) {
        assert_eq!(residues.len(), self.from.len(), "residue count mismatch");
        for (i, y) in ys.iter_mut().enumerate() {
            let m = self.from.modulus(i);
            *y = m.mul(m.reduce(residues[i]), self.from.tilde(i));
        }
    }

    /// The HPS quotient `v' = ⌈Σ y_i/q_i⌋` (Fig. 6 "Block 3").
    fn quotient(&self, ys: &[u64], precision: HpsPrecision) -> u64 {
        match precision {
            HpsPrecision::F64 => {
                let s: f64 = ys
                    .iter()
                    .zip(&self.recips_f64)
                    .map(|(&y, r)| y as f64 * r)
                    .sum();
                s.round() as u64
            }
            HpsPrecision::Fixed => {
                // Exact u128 accumulation (each term < 2^91, k ≤ a few
                // dozen), equivalent to `SmallReciprocal::round_sum` but
                // without materializing the term list.
                let s: u128 = ys.iter().zip(&self.recips).map(|(&y, r)| r.mul(y)).sum();
                ((s + (1u128 << (SmallReciprocal::FRAC_BITS - 1))) >> SmallReciprocal::FRAC_BITS)
                    as u64
            }
        }
    }

    /// Shared HPS extension kernel: premultiplied `ys` in, one output
    /// residue per destination modulus out through `put(j, value)`.
    #[inline]
    fn extend_core_hps(
        &self,
        ys: &[u64],
        precision: HpsPrecision,
        mut put: impl FnMut(usize, u64),
    ) {
        let v = self.quotient(ys, precision);
        for j in 0..self.to.len() {
            let m = self.to.modulus(j);
            let mut acc = 0u128;
            for (&y, row) in ys.iter().zip(&self.cross) {
                acc += y as u128 * row[j] as u128;
            }
            let pos = m.reduce_u128(acc);
            let neg = m.reduce_u128(v as u128 * self.product_mod_to[j] as u128);
            put(j, m.sub(pos, neg));
        }
    }

    /// Exact base extension of the **centered** representative, via long
    /// integers — the traditional-CRT datapath (Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the source basis size.
    pub fn extend_exact(&self, residues: &[u64]) -> Vec<u64> {
        let centered = self.from.decode_centered(residues);
        self.to.encode_signed(&centered)
    }

    /// HPS approximate base extension (Eq. 2 of the paper): all arithmetic
    /// on 30-bit words. Because the quotient rounds, the result is the
    /// extension of the centered representative (with mis-round probability
    /// ≤ 2^-47, in which case the result is off by one multiple of the
    /// source product — absorbed by FV as noise).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the source basis size.
    pub fn extend_hps(&self, residues: &[u64], precision: HpsPrecision) -> Vec<u64> {
        let mut ys = vec![0u64; self.from.len()];
        self.premultiply_into(residues, &mut ys);
        let mut out = vec![0u64; self.to.len()];
        self.extend_core_hps(&ys, precision, |j, v| out[j] = v);
        out
    }

    /// HPS extension of a column range of a flat residue-major polynomial.
    ///
    /// `src` holds the source polynomial as one contiguous
    /// `from.len() × n` buffer (limb-major: coefficient `c` of residue `i`
    /// at `src[i·n + c]`). The destination residues of columns `cols` are
    /// written into `out`, laid out `to.len() × cols.len()` with stride
    /// `cols.len()`. No allocation happens per coefficient — this is the
    /// software analogue of the paper's block-pipelined Lift datapath
    /// streaming one coefficient per initiation interval.
    ///
    /// With [`HpsPrecision::Fixed`] the call routes through the
    /// [`crate::dispatch`] kernel seam ([`crate::dispatch::Kernels::extend_hps_cols`]):
    /// the AVX2 lane where the CPU and the basis allow it, the scalar
    /// body otherwise, bit-identical either way. [`HpsPrecision::F64`]
    /// (the paper ablation) always runs scalar.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn extend_poly_hps_cols_into(
        &self,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        match precision {
            HpsPrecision::Fixed => {
                crate::dispatch::kernels().extend_hps_cols(self, src, n, cols, out)
            }
            HpsPrecision::F64 => {
                let w = self.check_cols_shape(src, n, &cols, out);
                self.extend_cols_hps_at(src, n, cols, out, w, 0, precision)
            }
        }
    }

    /// Checks the flat layout of a column-range extension and returns the
    /// output stride `cols.len()`.
    pub(crate) fn check_cols_shape(
        &self,
        src: &[u64],
        n: usize,
        cols: &std::ops::Range<usize>,
        out: &[u64],
    ) -> usize {
        let k = self.from.len();
        let l = self.to.len();
        assert_eq!(src.len(), k * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), l * w, "flat destination length mismatch");
        assert!(k <= MAX_STREAM_LIMBS, "basis exceeds MAX_STREAM_LIMBS");
        w
    }

    /// The portable body of [`Extender::extend_poly_hps_cols_into`] (the
    /// scalar kernel-table entry and the `F64` path): column
    /// `cols.start + o` lands in output slot `o0 + o` of rows with stride
    /// `w`. The vector lane finishes its non-multiple-of-4 tails here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn extend_cols_hps_at(
        &self,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        w: usize,
        o0: usize,
        precision: HpsPrecision,
    ) {
        let k = self.from.len();
        let mut ys_buf = [0u64; MAX_STREAM_LIMBS];
        let ys = &mut ys_buf[..k];
        for (o, c) in (o0..).zip(cols) {
            for (i, y) in ys.iter_mut().enumerate() {
                let m = self.from.modulus(i);
                *y = m.mul(m.reduce(src[i * n + c]), self.from.tilde(i));
            }
            self.extend_core_hps(ys, precision, |j, v| out[j * w + o] = v);
        }
    }

    /// HPS extension of a whole flat residue-major polynomial into a
    /// caller-provided `to.len() × n` buffer. See
    /// [`Extender::extend_poly_hps_cols_into`] for the layout.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn extend_poly_hps_into(
        &self,
        src: &[u64],
        n: usize,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        self.extend_poly_hps_cols_into(src, n, 0..n, out, precision);
    }

    /// Exact (long-integer) extension of a column range; the oracle and
    /// the traditional architecture's behaviour. Layout as in
    /// [`Extender::extend_poly_hps_cols_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn extend_poly_exact_cols_into(
        &self,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
    ) {
        let k = self.from.len();
        let l = self.to.len();
        assert_eq!(src.len(), k * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), l * w, "flat destination length mismatch");
        let mut buf = vec![0u64; k];
        for (o, c) in cols.enumerate() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = src[i * n + c];
            }
            let centered = self.from.decode_centered(&buf);
            for j in 0..l {
                let m = self.to.modulus(j);
                out[j * w + o] = centered
                    .rem_euclid(&UBig::from(m.value()))
                    .to_u64()
                    .expect("residue fits u64");
            }
        }
    }

    /// Exact extension of a whole flat polynomial into a caller-provided
    /// `to.len() × n` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn extend_poly_exact_into(&self, src: &[u64], n: usize, out: &mut [u64]) {
        self.extend_poly_exact_cols_into(src, n, 0..n, out);
    }
}

/// A paired RNS context: the ciphertext basis `q` and the extension basis
/// `p` with `Q = q·p`, plus both direction extenders.
///
/// This mirrors the paper's setup: `q` is six 30-bit primes (180 bits), `p`
/// seven more (`Q` is 390 bits).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RnsContext {
    base_q: RnsBasis,
    base_p: RnsBasis,
    /// Basis for all of `Q = q·p` (q primes then p primes).
    base_full: RnsBasis,
    big_q: UBig,
    ext_q_to_p: Extender,
    ext_p_to_q: Extender,
}

impl RnsContext {
    /// Builds a context from the `q`-basis primes and `p`-basis primes.
    ///
    /// # Errors
    ///
    /// Returns an error if any basis is invalid or the primes overlap.
    pub fn new(q_primes: &[u64], p_primes: &[u64]) -> Result<Self, String> {
        let base_q = RnsBasis::new(q_primes)?;
        let base_p = RnsBasis::new(p_primes)?;
        let all: Vec<u64> = q_primes.iter().chain(p_primes).copied().collect();
        let base_full = RnsBasis::new(&all)?; // rejects overlaps
        let big_q = &base_q.product().clone() * base_p.product();
        let ext_q_to_p = Extender::new(&base_q, &base_p);
        let ext_p_to_q = Extender::new(&base_p, &base_q);
        Ok(RnsContext {
            base_q,
            base_p,
            base_full,
            big_q,
            ext_q_to_p,
            ext_p_to_q,
        })
    }

    /// The ciphertext basis `q`.
    pub fn base_q(&self) -> &RnsBasis {
        &self.base_q
    }

    /// The extension basis `p`.
    pub fn base_p(&self) -> &RnsBasis {
        &self.base_p
    }

    /// The combined basis of `Q = q·p` (q moduli first).
    pub fn base_full(&self) -> &RnsBasis {
        &self.base_full
    }

    /// `Q = q · p`.
    pub fn big_q(&self) -> &UBig {
        &self.big_q
    }

    /// The `q → p` extender (the `Lift q→Q` kernel).
    pub fn lift(&self) -> &Extender {
        &self.ext_q_to_p
    }

    /// The `p → q` extender (second half of `Scale Q→q`).
    pub fn unlift(&self) -> &Extender {
        &self.ext_p_to_q
    }
}

/// Precomputed constants for `Scale Q→q` with plaintext modulus `t`:
/// `d = ⌈t·a/q⌋ mod q`, for `a` given in the full basis of `Q`.
///
/// Follows §IV-D: step 1 computes `d` in the RNS of `p` with 30-bit
/// arithmetic; step 2 switches basis `p → q` using the lift machinery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleContext {
    t: u64,
    /// `Q̃_i = (Q/q_i)^{-1} mod q_i` for the q-basis part.
    big_q_tilde_q: Vec<u64>,
    /// `Q̃_j = (Q/p_j)^{-1} mod p_j` for the p-basis part.
    big_q_tilde_p: Vec<u64>,
    /// `t·(p/p_j) mod p_m`, indexed `[j][m]`.
    c_jm: Vec<Vec<u64>>,
    /// `floor(t·p/q_i) mod p_m`, indexed `[i][m]` (the constants `I_i`).
    int_im: Vec<Vec<u64>>,
    /// `frac(t·p/q_i)` in Q64 fixed point (the constants `R_i`, §V-C).
    frac_fixed: Vec<u64>,
    /// `frac(t·p/q_i)` as doubles.
    frac_f64: Vec<f64>,
    /// Vector-lane constants, `None` outside the lane's proven range.
    lane: Option<ScaleLane>,
}

impl ScaleContext {
    /// Precomputes the scaling constants for plaintext modulus `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or not far smaller than every prime.
    pub fn new(ctx: &RnsContext, t: u64) -> Self {
        assert!(t >= 1, "plaintext modulus must be positive");
        let qb = ctx.base_q();
        let pb = ctx.base_p();
        assert!(
            t < pb.modulus(0).value() / 2,
            "plaintext modulus too large for this basis"
        );
        let big_q = ctx.big_q();

        let big_q_tilde_q = (0..qb.len())
            .map(|i| {
                let m = qb.modulus(i);
                let q_over = big_q.div_rem(&UBig::from(m.value())).0;
                m.inv(q_over.rem_u64(m.value()))
            })
            .collect();
        let big_q_tilde_p = (0..pb.len())
            .map(|j| {
                let m = pb.modulus(j);
                let q_over = big_q.div_rem(&UBig::from(m.value())).0;
                m.inv(q_over.rem_u64(m.value()))
            })
            .collect();

        let p_prod = pb.product();
        let c_jm = (0..pb.len())
            .map(|j| {
                let tp_over_pj = pb.m_over(j).mul_u64(t);
                (0..pb.len())
                    .map(|m| tp_over_pj.rem_u64(pb.modulus(m).value()))
                    .collect()
            })
            .collect();

        let mut int_im = Vec::with_capacity(qb.len());
        let mut frac_fixed = Vec::with_capacity(qb.len());
        let mut frac_f64 = Vec::with_capacity(qb.len());
        for i in 0..qb.len() {
            let qi = qb.modulus(i).value();
            let tp = p_prod.mul_u64(t);
            let (ipart, rem) = tp.div_rem(&UBig::from(qi));
            int_im.push(
                (0..pb.len())
                    .map(|m| ipart.rem_u64(pb.modulus(m).value()))
                    .collect(),
            );
            let r = rem.to_u64().unwrap();
            frac_fixed.push((((r as u128) << 64) / qi as u128) as u64);
            frac_f64.push(r as f64 / qi as f64);
        }
        let mut sc = ScaleContext {
            t,
            big_q_tilde_q,
            big_q_tilde_p,
            c_jm,
            int_im,
            frac_fixed,
            frac_f64,
            lane: None,
        };
        sc.lane = sc.build_lane(ctx);
        sc
    }

    /// The step-1 vector-lane constants, if `ctx` is inside the lane's
    /// proven range (see [`ScaleLane`]).
    fn build_lane(&self, ctx: &RnsContext) -> Option<ScaleLane> {
        let full = ctx.base_full();
        let (qb, pb) = (ctx.base_q(), ctx.base_p());
        let (k, l) = (qb.len(), pb.len());
        if ctx.unlift().lane().is_none()
            || !full
                .moduli()
                .iter()
                .all(|m| LANE_MODULI.contains(&m.value()))
        {
            return None;
        }
        // G ≤ Σ (q_i − 1), and each of the k + l lazy products is < 2p_m.
        let g_max: u64 = qb.moduli().iter().map(|m| m.value() - 1).sum();
        let fits = pb.moduli().iter().all(|m| {
            let p = m.value();
            g_max + (k + l) as u64 * (2 * p - 1) < 64 * p
        });
        if !fits {
            return None;
        }
        let tilde = self
            .big_q_tilde_q
            .iter()
            .chain(&self.big_q_tilde_p)
            .zip(full.moduli())
            .map(|(&w, m)| NarrowShoup::new(w, m.value()))
            .collect();
        let mix = (0..l)
            .flat_map(|m| {
                let p = pb.modulus(m).value();
                let ints = self.int_im.iter().map(move |row| row[m]);
                let cs = self.c_jm.iter().map(move |row| row[m]);
                ints.chain(cs).map(move |w| NarrowShoup::new(w, p))
            })
            .collect();
        Some(ScaleLane {
            tilde,
            frac_hi: self.frac_fixed.iter().map(|f| f >> 32).collect(),
            frac_lo: self.frac_fixed.iter().map(|f| f & 0xFFFF_FFFF).collect(),
            mix,
        })
    }

    /// The vector-lane constants, if the context is inside the lane's
    /// proven range.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn lane(&self) -> Option<&ScaleLane> {
        self.lane.as_ref()
    }

    /// The plaintext modulus `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// ROM constants `Q̃_i mod q_i` over the q basis (Fig. 9 Block 3).
    pub fn big_q_tilde_q_table(&self) -> &[u64] {
        &self.big_q_tilde_q
    }

    /// ROM constants `Q̃_j mod p_j` over the p basis.
    pub fn big_q_tilde_p_table(&self) -> &[u64] {
        &self.big_q_tilde_p
    }

    /// ROM constants `t·(p/p_j) mod p_m`, indexed `[j][m]`.
    pub fn c_jm_table(&self) -> &[Vec<u64>] {
        &self.c_jm
    }

    /// ROM constants `floor(t·p/q_i) mod p_m` (the integer parts `I_i`).
    pub fn int_table(&self) -> &[Vec<u64>] {
        &self.int_im
    }

    /// ROM constants `frac(t·p/q_i)` in Q64 (the real parts `R_i`).
    pub fn frac_fixed_table(&self) -> &[u64] {
        &self.frac_fixed
    }

    /// Step 1 of HPS `Scale Q→q`: computes `d = ⌈t·a/q⌋ mod p_m` for every
    /// `p`-basis modulus, using only small-number arithmetic (Fig. 9,
    /// Blocks 1–3).
    ///
    /// `a_q` are the residues of `a` in the q basis, `a_p` in the p basis.
    ///
    /// # Panics
    ///
    /// Panics if residue counts mismatch the context bases.
    pub fn scale_to_p(
        &self,
        ctx: &RnsContext,
        a_q: &[u64],
        a_p: &[u64],
        precision: HpsPrecision,
    ) -> Vec<u64> {
        let qb = ctx.base_q();
        let pb = ctx.base_p();
        assert_eq!(a_q.len(), qb.len(), "q-basis residue count mismatch");
        assert_eq!(a_p.len(), pb.len(), "p-basis residue count mismatch");
        let mut yq = vec![0u64; qb.len()];
        let mut yp = vec![0u64; pb.len()];
        let mut d_p = vec![0u64; pb.len()];
        self.scale_to_p_core(
            qb,
            pb,
            |i| a_q[i],
            |j| a_p[j],
            &mut yq,
            &mut yp,
            &mut d_p,
            precision,
        );
        d_p
    }

    /// Fig. 9 Blocks 1–3 on one coefficient, running entirely on
    /// caller-provided scratch rows (`yq`/`yp`) — the single source of the
    /// step-1 arithmetic shared by the scalar [`ScaleContext::scale_to_p`]
    /// and the polynomial column-streaming path. `a(i)` / `b(j)` yield the
    /// q- and p-basis residues of the coefficient; `d_p` receives
    /// `⌈t·a/q⌋ mod p_m`.
    #[allow(clippy::too_many_arguments)]
    fn scale_to_p_core(
        &self,
        qb: &RnsBasis,
        pb: &RnsBasis,
        a: impl Fn(usize) -> u64,
        b: impl Fn(usize) -> u64,
        yq: &mut [u64],
        yp: &mut [u64],
        d_p: &mut [u64],
        precision: HpsPrecision,
    ) {
        // y_k = a_k * Q̃_k mod m_k for every modulus of Q.
        for (i, y) in yq.iter_mut().enumerate() {
            let m = qb.modulus(i);
            *y = m.mul(m.reduce(a(i)), self.big_q_tilde_q[i]);
        }
        for (j, y) in yp.iter_mut().enumerate() {
            let m = pb.modulus(j);
            *y = m.mul(m.reduce(b(j)), self.big_q_tilde_p[j]);
        }

        // Rounded fractional contribution G = ⌈Σ_i y_i · frac(t·p/q_i)⌋.
        let g: u64 = match precision {
            HpsPrecision::F64 => {
                let s: f64 = yq
                    .iter()
                    .zip(&self.frac_f64)
                    .map(|(&y, &f)| y as f64 * f)
                    .sum();
                s.round() as u64
            }
            HpsPrecision::Fixed => {
                let s: u128 = yq
                    .iter()
                    .zip(&self.frac_fixed)
                    .map(|(&y, &f)| y as u128 * f as u128)
                    .sum();
                ((s + (1u128 << 63)) >> 64) as u64
            }
        };

        for (m_idx, d) in d_p.iter_mut().enumerate() {
            let modulus = pb.modulus(m_idx);
            let mut acc = g as u128;
            for (j, &y) in yp.iter().enumerate() {
                acc += y as u128 * self.c_jm[j][m_idx] as u128;
            }
            for (i, &y) in yq.iter().enumerate() {
                acc += y as u128 * self.int_im[i][m_idx] as u128;
            }
            *d = modulus.reduce_u128(acc);
        }
    }

    /// Full HPS `Scale Q→q` on one coefficient: step 1 then the `p → q`
    /// basis switch (which the paper implements by reusing the `Lift`
    /// datapath).
    pub fn scale_hps(
        &self,
        ctx: &RnsContext,
        a_q: &[u64],
        a_p: &[u64],
        precision: HpsPrecision,
    ) -> Vec<u64> {
        let d_p = self.scale_to_p(ctx, a_q, a_p, precision);
        ctx.unlift().extend_hps(&d_p, precision)
    }

    /// Exact `Scale Q→q` via long integers (the traditional architecture
    /// and the property-test oracle): reconstruct `a mod Q`, center,
    /// compute `⌈t·a/q⌋`, reduce into the q basis.
    pub fn scale_exact(&self, ctx: &RnsContext, a_full: &[u64]) -> Vec<u64> {
        let a = ctx.base_full().decode_centered(a_full);
        let d = a.scale_round(&UBig::from(self.t), ctx.base_q().product());
        ctx.base_q().encode_signed(&d)
    }

    /// HPS `Scale Q→q` of a column range of a flat residue-major
    /// polynomial over the full `Q` basis (q residues first: coefficient
    /// `c` of residue `i` at `src[i·n + c]`, `i < k + l`). Output columns
    /// land in `out`, laid out `k × cols.len()` with stride `cols.len()`.
    /// Per-coefficient work runs entirely on hoisted scratch rows — no
    /// allocation inside the loop.
    ///
    /// With [`HpsPrecision::Fixed`] the call routes through the
    /// [`crate::dispatch`] kernel seam ([`crate::dispatch::Kernels::scale_hps_cols`]):
    /// the AVX2 lane where the CPU and the bases allow it, the scalar
    /// body otherwise, bit-identical either way. [`HpsPrecision::F64`]
    /// (the paper ablation) always runs scalar.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn scale_poly_hps_cols_into(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        match precision {
            HpsPrecision::Fixed => {
                crate::dispatch::kernels().scale_hps_cols(self, ctx, src, n, cols, out)
            }
            HpsPrecision::F64 => {
                let w = Self::check_cols_shape(ctx, src, n, &cols, out);
                self.scale_cols_hps_at(ctx, src, n, cols, out, w, 0, precision)
            }
        }
    }

    /// Checks the flat layout of a column-range scale and returns the
    /// output stride `cols.len()`.
    pub(crate) fn check_cols_shape(
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: &std::ops::Range<usize>,
        out: &[u64],
    ) -> usize {
        let (k, l) = (ctx.base_q().len(), ctx.base_p().len());
        assert_eq!(src.len(), (k + l) * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), k * w, "flat destination length mismatch");
        assert!(
            k <= MAX_STREAM_LIMBS && l <= MAX_STREAM_LIMBS,
            "basis exceeds MAX_STREAM_LIMBS"
        );
        w
    }

    /// The portable body of [`ScaleContext::scale_poly_hps_cols_into`]
    /// (the scalar kernel-table entry and the `F64` path): column
    /// `cols.start + o` lands in output slot `o0 + o` of rows with stride
    /// `w`. The vector lane finishes its non-multiple-of-4 tails here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scale_cols_hps_at(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
        w: usize,
        o0: usize,
        precision: HpsPrecision,
    ) {
        let qb = ctx.base_q();
        let pb = ctx.base_p();
        let (k, l) = (qb.len(), pb.len());
        let unlift = ctx.unlift();
        let mut yq_buf = [0u64; MAX_STREAM_LIMBS];
        let mut yp_buf = [0u64; MAX_STREAM_LIMBS];
        let mut d_p_buf = [0u64; MAX_STREAM_LIMBS];
        let mut ys_buf = [0u64; MAX_STREAM_LIMBS];
        let yq = &mut yq_buf[..k];
        let yp = &mut yp_buf[..l];
        let d_p = &mut d_p_buf[..l];
        let ys = &mut ys_buf[..l];
        for (o, c) in (o0..).zip(cols) {
            // Step 1 (Fig. 9 Blocks 1–3): d = ⌈t·a/q⌋ in the p basis —
            // the same core the scalar path runs, fed by strided reads.
            self.scale_to_p_core(
                qb,
                pb,
                |i| src[i * n + c],
                |j| src[(k + j) * n + c],
                yq,
                yp,
                d_p,
                precision,
            );
            // Step 2: basis switch p → q through the Lift datapath.
            unlift.premultiply_into(d_p, ys);
            unlift.extend_core_hps(ys, precision, |i, v| out[i * w + o] = v);
        }
    }

    /// HPS `Scale Q→q` of a whole flat polynomial into a caller-provided
    /// `k × n` buffer. See [`ScaleContext::scale_poly_hps_cols_into`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn scale_poly_hps_into(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        out: &mut [u64],
        precision: HpsPrecision,
    ) {
        self.scale_poly_hps_cols_into(ctx, src, n, 0..n, out, precision);
    }

    /// Exact `Scale Q→q` of a column range (oracle / traditional
    /// architecture); layout as in
    /// [`ScaleContext::scale_poly_hps_cols_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn scale_poly_exact_cols_into(
        &self,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: std::ops::Range<usize>,
        out: &mut [u64],
    ) {
        let k = ctx.base_q().len();
        let l = ctx.base_p().len();
        assert_eq!(src.len(), (k + l) * n, "flat source length mismatch");
        assert!(cols.end <= n, "column range out of bounds");
        let w = cols.len();
        assert_eq!(out.len(), k * w, "flat destination length mismatch");
        let mut buf = vec![0u64; k + l];
        for (o, c) in cols.enumerate() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = src[i * n + c];
            }
            let d = self.scale_exact(ctx, &buf);
            for (i, &v) in d.iter().enumerate() {
                out[i * w + o] = v;
            }
        }
    }

    /// Exact `Scale Q→q` of a whole flat polynomial into a caller-provided
    /// `k × n` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    pub fn scale_poly_exact_into(&self, ctx: &RnsContext, src: &[u64], n: usize, out: &mut [u64]) {
        self.scale_poly_exact_cols_into(ctx, src, n, 0..n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_primes;

    fn paper_context() -> RnsContext {
        let ps = ntt_primes(30, 4096, 13).unwrap();
        RnsContext::new(&ps[..6], &ps[6..]).unwrap()
    }

    #[test]
    fn basis_rejects_bad_input() {
        assert!(RnsBasis::new(&[]).is_err());
        assert!(RnsBasis::new(&[97, 97]).is_err());
        assert!(RnsContext::new(&[1_073_479_681], &[1_073_479_681]).is_err());
    }

    #[test]
    fn basis_rejects_composite() {
        assert!(RnsBasis::new(&[1_073_086_465]).is_err()); // divisible by 5
    }

    #[test]
    fn encode_decode_roundtrip() {
        let basis = RnsBasis::new(&ntt_primes(30, 64, 3).unwrap()).unwrap();
        let vals = [
            UBig::zero(),
            UBig::one(),
            UBig::from(u64::MAX),
            basis.product() - &UBig::one(),
        ];
        for v in vals {
            assert_eq!(basis.decode(&basis.encode(&v)), v);
        }
    }

    #[test]
    fn decode_centered_signs() {
        let basis = RnsBasis::new(&[97, 101]).unwrap();
        // -5 mod 9797
        let neg5 = basis.encode(&UBig::from(9797u64 - 5));
        let c = basis.decode_centered(&neg5);
        assert!(c.is_negative());
        assert_eq!(c.magnitude(), &UBig::from(5u64));
    }

    #[test]
    fn paper_bases_have_paper_sizes() {
        let ctx = paper_context();
        assert_eq!(ctx.base_q().len(), 6);
        assert_eq!(ctx.base_p().len(), 7);
        assert_eq!(ctx.base_q().product().bits(), 180, "q is 180-bit");
        assert_eq!(ctx.big_q().bits(), 390, "Q is 390-bit");
    }

    #[test]
    fn exact_extension_is_centered() {
        let ctx = paper_context();
        let q = ctx.base_q().product().clone();
        // a = q - 3 represents -3; extension must give -3 mod p_j.
        let a = &q - &UBig::from(3u64);
        let res = ctx.base_q().encode(&a);
        let ext = ctx.lift().extend_exact(&res);
        for (j, &e) in ext.iter().enumerate() {
            let pj = ctx.base_p().modulus(j).value();
            assert_eq!(e, pj - 3, "j={j}");
        }
    }

    #[test]
    fn hps_extension_matches_exact_small_values() {
        let ctx = paper_context();
        for v in [0u64, 1, 2, 12345, 1 << 29] {
            let res = ctx.base_q().encode(&UBig::from(v));
            for prec in [HpsPrecision::F64, HpsPrecision::Fixed] {
                assert_eq!(
                    ctx.lift().extend_hps(&res, prec),
                    ctx.lift().extend_exact(&res),
                    "v={v} prec={prec:?}"
                );
            }
        }
    }

    #[test]
    fn hps_extension_matches_exact_random() {
        let ctx = paper_context();
        let mut state = 0xDEAD_BEEF_1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..500 {
            let res: Vec<u64> = (0..6)
                .map(|i| next() % ctx.base_q().modulus(i).value())
                .collect();
            let exact = ctx.lift().extend_exact(&res);
            assert_eq!(ctx.lift().extend_hps(&res, HpsPrecision::F64), exact);
            assert_eq!(ctx.lift().extend_hps(&res, HpsPrecision::Fixed), exact);
        }
    }

    #[test]
    fn poly_extension_layouts() {
        let ctx = paper_context();
        let n = 8;
        let mut src = vec![0u64; 6 * n];
        for i in 0..6 {
            for c in 0..n {
                src[i * n + c] =
                    (c as u64 * 7919 + i as u64 * 104729) % ctx.base_q().modulus(i).value();
            }
        }
        let mut hps = vec![0u64; 7 * n];
        let mut exact = vec![0u64; 7 * n];
        ctx.lift()
            .extend_poly_hps_into(&src, n, &mut hps, HpsPrecision::Fixed);
        ctx.lift().extend_poly_exact_into(&src, n, &mut exact);
        assert_eq!(hps, exact);
        // Column-range calls must agree with the full-width call.
        let mut cols = vec![0u64; 7 * 3];
        ctx.lift()
            .extend_poly_hps_cols_into(&src, n, 2..5, &mut cols, HpsPrecision::Fixed);
        for j in 0..7 {
            assert_eq!(&cols[j * 3..(j + 1) * 3], &hps[j * n + 2..j * n + 5]);
        }
        // And with the scalar per-coefficient path.
        let buf: Vec<u64> = (0..6).map(|i| src[i * n + 3]).collect();
        let scalar = ctx.lift().extend_hps(&buf, HpsPrecision::Fixed);
        for j in 0..7 {
            assert_eq!(scalar[j], hps[j * n + 3]);
        }
    }

    #[test]
    fn scale_exact_basic() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        // a = 3q → t·a/q = 6 exactly.
        let a = &ctx.base_q().product().clone() * &UBig::from(3u64);
        let res = ctx.base_full().encode(&a);
        let d = sc.scale_exact(&ctx, &res);
        let got = ctx.base_q().decode(&d);
        assert_eq!(got, UBig::from(6u64));
    }

    #[test]
    fn scale_hps_matches_exact_random() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        // Values bounded like FV tensor coefficients: |a| < n·(q)^2·t ≪ Q/2.
        let bound = {
            let q = ctx.base_q().product().clone();
            (&(&q * &q) << 12).mul_u64(2)
        };
        assert!(bound < (ctx.big_q() >> 1), "tensor bound below Q/2");
        for trial in 0..200 {
            // random value in [0, bound), possibly representing a negative
            let mut v = UBig::zero();
            for _ in 0..7 {
                v = &(&v << 64) + &UBig::from(next());
            }
            let v = v.div_rem(&bound).1;
            let signed = trial % 2 == 1;
            let rep = if signed { ctx.big_q() - &v } else { v.clone() };
            let res = ctx.base_full().encode(&rep);
            let exact = sc.scale_exact(&ctx, &res);
            let hps_f = sc.scale_hps(&ctx, &res[..6], &res[6..], HpsPrecision::F64);
            let hps_x = sc.scale_hps(&ctx, &res[..6], &res[6..], HpsPrecision::Fixed);
            assert_eq!(hps_f, exact, "trial={trial} f64");
            assert_eq!(hps_x, exact, "trial={trial} fixed");
        }
    }

    #[test]
    fn scale_to_p_consistent_with_exact() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        let a = UBig::from_decimal("123456789012345678901234567890123456789").unwrap();
        let res = ctx.base_full().encode(&a);
        let d_p = sc.scale_to_p(&ctx, &res[..6], &res[6..], HpsPrecision::Fixed);
        // oracle: round(t*a/q) mod p_j
        let d = center(&a, ctx.big_q()).scale_round(&UBig::from(2u64), ctx.base_q().product());
        for (j, &got) in d_p.iter().enumerate() {
            let pj = UBig::from(ctx.base_p().modulus(j).value());
            assert_eq!(UBig::from(got), d.rem_euclid(&pj), "j={j}");
        }
    }

    #[test]
    fn scale_poly_layouts() {
        let ctx = paper_context();
        let sc = ScaleContext::new(&ctx, 2);
        let n = 4;
        // Encode bounded values (like FV tensor coefficients, far below
        // Q/2) — HPS scaling is only specified for such inputs.
        let q = ctx.base_q().product().clone();
        let vals: Vec<UBig> = (0..n as u64)
            .map(|c| (&(&q * &q) >> 3).mul_u64(c + 1))
            .collect();
        let mut src = vec![0u64; 13 * n];
        for i in 0..13 {
            for (c, v) in vals.iter().enumerate() {
                src[i * n + c] = v.rem_u64(ctx.base_full().modulus(i).value());
            }
        }
        let mut hps = vec![0u64; 6 * n];
        let mut exact = vec![0u64; 6 * n];
        sc.scale_poly_hps_into(&ctx, &src, n, &mut hps, HpsPrecision::Fixed);
        sc.scale_poly_exact_into(&ctx, &src, n, &mut exact);
        assert_eq!(hps, exact);
        // Column-range call agrees with the full-width call.
        let mut cols = vec![0u64; 6 * 2];
        sc.scale_poly_hps_cols_into(&ctx, &src, n, 1..3, &mut cols, HpsPrecision::Fixed);
        for i in 0..6 {
            assert_eq!(&cols[i * 2..(i + 1) * 2], &hps[i * n + 1..i * n + 3]);
        }
    }

    #[test]
    fn vector_lanes_only_inside_proven_range() {
        let ctx = paper_context();
        assert!(ctx.lift().lane().is_some() && ctx.unlift().lane().is_some());
        assert!(ScaleContext::new(&ctx, 65537).lane().is_some());

        let ps = ntt_primes(30, 64, 29).unwrap();
        let basis = |r: std::ops::Range<usize>| RnsBasis::new(&ps[r]).unwrap();
        let wide = RnsBasis::new(&[crate::primes::ntt_prime(32, 64, 0).unwrap()]).unwrap();
        let tiny = RnsBasis::new(&[31]).unwrap();
        assert!(Extender::new(&basis(0..6), &wide).lane().is_none());
        assert!(Extender::new(&basis(0..6), &tiny).lane().is_none());
        // The output reduction covers 3k ≤ 64.
        assert!(Extender::new(&basis(0..21), &basis(22..25))
            .lane()
            .is_some());
        assert!(Extender::new(&basis(0..22), &basis(22..25))
            .lane()
            .is_none());
        // 20 q limbs: G plus 27 lazy terms can exceed 64·p_m.
        let ctx = RnsContext::new(&ps[..20], &ps[20..27]).unwrap();
        assert!(ctx.lift().lane().is_some());
        assert!(ScaleContext::new(&ctx, 2).lane().is_none());
    }

    #[test]
    #[should_panic(expected = "plaintext modulus too large")]
    fn scale_context_rejects_huge_t() {
        let ctx = paper_context();
        let _ = ScaleContext::new(&ctx, 1 << 40);
    }
}
