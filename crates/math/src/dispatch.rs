//! Runtime-dispatched kernel seam for the dominant kernels.
//!
//! Per-op telemetry shows that NTTs, pointwise (Hadamard) products, the
//! hoisted key-switch sum-of-products and the HPS basis conversions
//! dominate eval time, and the transport trace shows the CRC-32 of every
//! checked envelope dominating the net hop. This module is the single
//! seam those hot paths route through. A [`Kernels`] table holds six
//! dispatched kernels:
//!
//! 1. the forward and inverse negacyclic NTT of one residue row;
//! 2. pointwise product, in-place product and multiply-accumulate;
//! 3. one residue row of the narrow hoisted key-switch sum-of-products;
//! 4. HPS `Lift q→Q` over a column range ([`Kernels::extend_hps_cols`]);
//! 5. HPS `Scale Q→q` over a column range ([`Kernels::scale_hps_cols`]);
//! 6. the CRC-32 register update over a byte slice
//!    ([`Kernels::crc32_update`]).
//!
//! The table is selected **once** per process:
//!
//! 1. `HEFV_KERNEL=scalar|avx2` — explicit choice (an unavailable or
//!    unknown value falls back to auto-detection, never a crash);
//! 2. `HEFV_FORCE_SCALAR` — any value other than empty or `0` pins the
//!    portable scalar fallback (the CI test matrix uses this);
//! 3. otherwise `is_x86_feature_detected!("avx2")` picks the AVX2 lane
//!    implementations in the crate-private `simd` module when the CPU
//!    has them.
//!
//! The scalar implementations are the pre-existing portable code, kept
//! verbatim ([`NttTable::forward_scalar`] and friends); every vector
//! kernel is **bit-identical** to its scalar counterpart because all
//! dispatched kernels end with an exact reduction to the canonical
//! `[0, q)` representative (see the `simd` module source for the lane-range
//! argument, and `tests/simd_equivalence.rs` for the proptest pinning
//! it). The seam is also the intended landing point for a future real
//! accelerator backend: a backend supplies one more `Kernels` table, and
//! every call site upstream is already routed.
//!
//! The AVX2 Lift/Scale lane runs only where its range argument holds:
//! every modulus in `[2^6, 2^31)`, at most 21 source limbs for `Lift`,
//! and for `Scale` a step-1 sum below `64·p_m` for every `p` modulus.
//! The constructors of [`Extender`] and [`ScaleContext`] check this once
//! and precompute the lane constants; any other basis, and every
//! column-range tail that is not a multiple of 4, runs the scalar body.
//! Only [`HpsPrecision::Fixed`] dispatches; the `F64` ablation stays
//! scalar.
//!
//! The AVX2 table's CRC-32 entry is a PCLMULQDQ fold over 64-byte
//! blocks. It needs `pclmulqdq` and `sse4.1` on top of AVX2 and checks
//! both on every call (std caches the detection); without them, and for
//! inputs under 64 bytes, it runs the scalar byte-table body. CRC values
//! are integers, not residues, so bit-identity here is plain equality
//! with the table oracle.
//!
//! Tests can bypass the process-wide selection with [`scalar_kernels`]
//! and [`avx2_kernels`] to compare both paths in one process.

use crate::crc32;
use crate::ntt::NttTable;
use crate::rns::{Extender, HpsPrecision, RnsContext, ScaleContext};
use crate::zq::Modulus;
use std::ops::Range;
use std::sync::OnceLock;

/// Which lane implementation a [`Kernels`] table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar code — the pre-SIMD hot paths, kept verbatim.
    Scalar,
    /// `core::arch::x86_64` AVX2 intrinsics, 4 lanes of `u64` per op.
    Avx2,
}

impl KernelBackend {
    /// Stable lowercase name (used in logs, benches and metrics).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

/// A resolved table of kernel entry points. Obtain the process-wide one
/// with [`kernels`]; all entries of one table agree on the backend.
pub struct Kernels {
    backend: KernelBackend,
    ntt_forward: fn(&NttTable, &mut [u64]),
    ntt_inverse: fn(&NttTable, &mut [u64]),
    pointwise_mul: fn(&Modulus, &[u64], &[u64], &mut [u64]),
    pointwise_mul_assign: fn(&Modulus, &mut [u64], &[u64]),
    pointwise_mul_acc: fn(&Modulus, &[u64], &[u64], &mut [u64]),
    #[allow(clippy::type_complexity)]
    sop_narrow_row:
        fn(&Modulus, &[u32], &[u32], &[u32], &[u32], Option<&[u64]>, &mut [u64], &mut [u64]),
    extend_hps_cols: fn(&Extender, &[u64], usize, Range<usize>, &mut [u64]),
    #[allow(clippy::type_complexity)]
    scale_hps_cols: fn(&ScaleContext, &RnsContext, &[u64], usize, Range<usize>, &mut [u64]),
    crc32_update: fn(u32, &[u8]) -> u32,
}

impl Kernels {
    /// The backend this table dispatches to.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Forward negacyclic NTT of one residue row (see
    /// [`NttTable::forward`] for the contract).
    #[inline]
    pub fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
        (self.ntt_forward)(table, a)
    }

    /// Inverse negacyclic NTT of one residue row (see
    /// [`NttTable::inverse`] for the contract).
    #[inline]
    pub fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
        (self.ntt_inverse)(table, a)
    }

    /// Forward NTT of a contiguous batch of same-degree residue rows —
    /// row `r` of `flat` transforms under `tables[r]`. Batching keeps
    /// the lanes full across the limb dimension under the existing
    /// per-limb thread parallelism (each worker hands its whole
    /// contiguous row range to one call).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != tables.len() * n`.
    pub fn ntt_forward_batch(&self, tables: &[NttTable], flat: &mut [u64]) {
        let n = tables.first().map_or(0, |t| t.n());
        assert_eq!(flat.len(), tables.len() * n, "batch length mismatch");
        for (table, row) in tables.iter().zip(flat.chunks_exact_mut(n)) {
            (self.ntt_forward)(table, row);
        }
    }

    /// Inverse counterpart of [`Kernels::ntt_forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != tables.len() * n`.
    pub fn ntt_inverse_batch(&self, tables: &[NttTable], flat: &mut [u64]) {
        let n = tables.first().map_or(0, |t| t.n());
        assert_eq!(flat.len(), tables.len() * n, "batch length mismatch");
        for (table, row) in tables.iter().zip(flat.chunks_exact_mut(n)) {
            (self.ntt_inverse)(table, row);
        }
    }

    /// `dst[i] = a[i]·b[i] mod q`, all operands in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn pointwise_mul(&self, m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
        assert!(
            a.len() == b.len() && a.len() == dst.len(),
            "length mismatch"
        );
        (self.pointwise_mul)(m, a, b, dst)
    }

    /// `dst[i] = dst[i]·b[i] mod q`, all operands in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn pointwise_mul_assign(&self, m: &Modulus, dst: &mut [u64], b: &[u64]) {
        assert_eq!(dst.len(), b.len(), "length mismatch");
        (self.pointwise_mul_assign)(m, dst, b)
    }

    /// `acc[i] = (a[i]·b[i] + acc[i]) mod q`, all operands in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn pointwise_mul_acc(&self, m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
        assert!(
            a.len() == b.len() && a.len() == acc.len(),
            "length mismatch"
        );
        (self.pointwise_mul_acc)(m, a, b, acc)
    }

    /// One residue row of the narrow hoisted key-switch sum-of-products:
    /// for each slot `t` with gather index `p = perm[t]`,
    ///
    /// ```text
    /// s0 = c0_row[p] (or 0) + Σ_i digits[p·k + i] · ksk0[t·k + i]
    /// s1 =                    Σ_i digits[p·k + i] · ksk1[t·k + i]
    /// acc0[t] += s0 mod q;    acc1[t] += s1 mod q
    /// ```
    ///
    /// The caller guarantees the no-overflow precondition of the narrow
    /// layout (`(k(q−1)+1)(q−1) < 2^64`, see `narrow_sop_ok` in
    /// `hefv-core`), which also makes the summation order immaterial —
    /// lane-partial sums reduce to the identical value.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths are inconsistent with `n = perm.len()`
    /// and `k = digits.len() / n`.
    #[allow(clippy::too_many_arguments)]
    pub fn sop_narrow_row(
        &self,
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
        assert!(
            n > 0 && digits.len().is_multiple_of(n),
            "digit layout mismatch"
        );
        let k = digits.len() / n;
        assert!(k > 0, "empty digit lines");
        assert_eq!(ksk0.len(), n * k, "ksk0 length mismatch");
        assert_eq!(ksk1.len(), n * k, "ksk1 length mismatch");
        assert_eq!(acc0.len(), n, "acc0 length mismatch");
        assert_eq!(acc1.len(), n, "acc1 length mismatch");
        if let Some(row) = c0_row {
            assert_eq!(row.len(), n, "c0 row length mismatch");
        }
        (self.sop_narrow_row)(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1)
    }

    /// HPS `Lift` with fixed-point quotients over a column range (see
    /// [`Extender::extend_poly_hps_cols_into`] for the layout): columns
    /// `cols` of the flat `from.len() × n` source `src` go to `out`,
    /// laid out `to.len() × cols.len()`. Source words may be any `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn extend_hps_cols(
        &self,
        ext: &Extender,
        src: &[u64],
        n: usize,
        cols: Range<usize>,
        out: &mut [u64],
    ) {
        ext.check_cols_shape(src, n, &cols, out);
        (self.extend_hps_cols)(ext, src, n, cols, out)
    }

    /// HPS `Scale Q→q` with fixed-point quotients over a column range
    /// (see [`ScaleContext::scale_poly_hps_cols_into`] for the layout):
    /// columns `cols` of the flat `(k + l) × n` source go to the
    /// `k × cols.len()` output. Source words may be any `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` sizes or the column range are inconsistent.
    pub fn scale_hps_cols(
        &self,
        sc: &ScaleContext,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: Range<usize>,
        out: &mut [u64],
    ) {
        ScaleContext::check_cols_shape(ctx, src, n, &cols, out);
        (self.scale_hps_cols)(sc, ctx, src, n, cols, out)
    }

    /// Advances the reflected CRC-32 (IEEE 802.3, polynomial
    /// `0xEDB88320`) register `state` over `bytes`. The conventional
    /// checksum is `!crc32_update(!0, bytes)`; chaining updates over
    /// consecutive slices equals one update over their concatenation.
    #[inline]
    pub fn crc32_update(&self, state: u32, bytes: &[u8]) -> u32 {
        (self.crc32_update)(state, bytes)
    }
}

// ---------------------------------------------------------------------------
// Scalar table — the portable fallback, routing to the verbatim code.
// ---------------------------------------------------------------------------

fn ntt_forward_scalar(table: &NttTable, a: &mut [u64]) {
    table.forward_scalar(a)
}

fn ntt_inverse_scalar(table: &NttTable, a: &mut [u64]) {
    table.inverse_scalar(a)
}

fn pointwise_mul_scalar(m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = m.mul(x, y);
    }
}

fn pointwise_mul_assign_scalar(m: &Modulus, dst: &mut [u64], b: &[u64]) {
    for (d, &y) in dst.iter_mut().zip(b) {
        *d = m.mul(*d, y);
    }
}

fn pointwise_mul_acc_scalar(m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
    for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *d = m.mul_add(x, y, *d);
    }
}

#[allow(clippy::too_many_arguments)]
fn sop_narrow_row_scalar(
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
    for t in 0..n {
        let p = perm[t] as usize;
        let dl = &digits[p * k..p * k + k];
        let w0 = &ksk0[t * k..t * k + k];
        let w1 = &ksk1[t * k..t * k + k];
        let mut s0 = match c0_row {
            Some(row) => row[p],
            None => 0,
        };
        let mut s1 = 0u64;
        for ((&d, &x0), &x1) in dl.iter().zip(w0).zip(w1) {
            let d = d as u64;
            s0 += d * x0 as u64;
            s1 += d * x1 as u64;
        }
        acc0[t] = m.add(acc0[t], m.reduce_u64(s0));
        acc1[t] = m.add(acc1[t], m.reduce_u64(s1));
    }
}

fn extend_hps_cols_scalar(
    ext: &Extender,
    src: &[u64],
    n: usize,
    cols: Range<usize>,
    out: &mut [u64],
) {
    let w = cols.len();
    ext.extend_cols_hps_at(src, n, cols, out, w, 0, HpsPrecision::Fixed)
}

fn scale_hps_cols_scalar(
    sc: &ScaleContext,
    ctx: &RnsContext,
    src: &[u64],
    n: usize,
    cols: Range<usize>,
    out: &mut [u64],
) {
    let w = cols.len();
    sc.scale_cols_hps_at(ctx, src, n, cols, out, w, 0, HpsPrecision::Fixed)
}

static SCALAR: Kernels = Kernels {
    backend: KernelBackend::Scalar,
    ntt_forward: ntt_forward_scalar,
    ntt_inverse: ntt_inverse_scalar,
    pointwise_mul: pointwise_mul_scalar,
    pointwise_mul_assign: pointwise_mul_assign_scalar,
    pointwise_mul_acc: pointwise_mul_acc_scalar,
    sop_narrow_row: sop_narrow_row_scalar,
    extend_hps_cols: extend_hps_cols_scalar,
    scale_hps_cols: scale_hps_cols_scalar,
    crc32_update: crc32::update_table,
};

// ---------------------------------------------------------------------------
// AVX2 table — per-call width selection, scalar fallback where a vector
// path does not apply (wide pointwise moduli, short SoP digit lines, CPUs
// without PCLMULQDQ).
// ---------------------------------------------------------------------------

// Safety of every `unsafe` call below: these functions are only reachable
// through the `AVX2` table, which is only ever handed out after
// `is_x86_feature_detected!("avx2")` returned true.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use crate::simd;

    fn ntt_forward(table: &NttTable, a: &mut [u64]) {
        if table.modulus().value() < simd::NARROW_NTT_BOUND {
            unsafe { simd::ntt_forward_narrow(table, a) }
        } else {
            unsafe { simd::ntt_forward_wide(table, a) }
        }
    }

    fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
        if table.modulus().value() < simd::NARROW_NTT_BOUND {
            unsafe { simd::ntt_inverse_narrow(table, a) }
        } else {
            unsafe { simd::ntt_inverse_wide(table, a) }
        }
    }

    fn pointwise_mul(m: &Modulus, a: &[u64], b: &[u64], dst: &mut [u64]) {
        if m.value() < simd::NARROW_POINTWISE_BOUND {
            unsafe { simd::pointwise_mul_narrow(m, a, b, dst) }
        } else {
            super::pointwise_mul_scalar(m, a, b, dst)
        }
    }

    fn pointwise_mul_assign(m: &Modulus, dst: &mut [u64], b: &[u64]) {
        if m.value() < simd::NARROW_POINTWISE_BOUND {
            unsafe { simd::pointwise_mul_assign_narrow(m, dst, b) }
        } else {
            super::pointwise_mul_assign_scalar(m, dst, b)
        }
    }

    fn pointwise_mul_acc(m: &Modulus, a: &[u64], b: &[u64], acc: &mut [u64]) {
        if m.value() < simd::NARROW_POINTWISE_BOUND {
            unsafe { simd::pointwise_mul_acc_narrow(m, a, b, acc) }
        } else {
            super::pointwise_mul_acc_scalar(m, a, b, acc)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sop_narrow_row(
        m: &Modulus,
        perm: &[u32],
        digits: &[u32],
        ksk0: &[u32],
        ksk1: &[u32],
        c0_row: Option<&[u64]>,
        acc0: &mut [u64],
        acc1: &mut [u64],
    ) {
        let k = digits.len() / perm.len();
        if k >= 4 {
            unsafe { simd::sop_narrow_row(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1) }
        } else {
            super::sop_narrow_row_scalar(m, perm, digits, ksk0, ksk1, c0_row, acc0, acc1)
        }
    }

    fn extend_hps_cols(ext: &Extender, src: &[u64], n: usize, cols: Range<usize>, out: &mut [u64]) {
        match ext.lane() {
            // SAFETY: AVX2 is present (this table exists only then), and
            // `Kernels::extend_hps_cols`, the only caller, has checked the
            // flat layout with `Extender::check_cols_shape`.
            Some(lane) => unsafe { simd::extend_hps_cols(ext, lane, src, n, cols, out) },
            None => super::extend_hps_cols_scalar(ext, src, n, cols, out),
        }
    }

    fn scale_hps_cols(
        sc: &ScaleContext,
        ctx: &RnsContext,
        src: &[u64],
        n: usize,
        cols: Range<usize>,
        out: &mut [u64],
    ) {
        match (sc.lane(), ctx.unlift().lane()) {
            // SAFETY: AVX2 is present (this table exists only then), and
            // `Kernels::scale_hps_cols`, the only caller, has checked the
            // flat layout with `ScaleContext::check_cols_shape`.
            (Some(lane), Some(unlift)) => unsafe {
                simd::scale_hps_cols(sc, lane, ctx, unlift, src, n, cols, out)
            },
            _ => super::scale_hps_cols_scalar(sc, ctx, src, n, cols, out),
        }
    }

    fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both features the fold needs were detected above.
            unsafe { crc32::update_clmul(state, bytes) }
        } else {
            crc32::update_table(state, bytes)
        }
    }

    pub(super) static TABLE: Kernels = Kernels {
        backend: KernelBackend::Avx2,
        ntt_forward,
        ntt_inverse,
        pointwise_mul,
        pointwise_mul_assign,
        pointwise_mul_acc,
        sop_narrow_row,
        extend_hps_cols,
        scale_hps_cols,
        crc32_update,
    };
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

/// The always-available portable table (test escape hatch; production
/// code should call [`kernels`]).
pub fn scalar_kernels() -> &'static Kernels {
    &SCALAR
}

/// The AVX2 table, if and only if this CPU supports AVX2 — independent
/// of the `HEFV_*` overrides, so equivalence tests can compare both
/// paths in one process.
pub fn avx2_kernels() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(&avx2::TABLE);
        }
    }
    None
}

fn env_nonempty(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn select() -> &'static Kernels {
    if let Ok(choice) = std::env::var("HEFV_KERNEL") {
        match choice.as_str() {
            "scalar" => return &SCALAR,
            "avx2" => return avx2_kernels().unwrap_or(&SCALAR),
            _ => {} // unknown value: fall through to auto-detection
        }
    }
    if env_nonempty("HEFV_FORCE_SCALAR") {
        return &SCALAR;
    }
    avx2_kernels().unwrap_or(&SCALAR)
}

/// The process-wide kernel table. Detection and the `HEFV_KERNEL` /
/// `HEFV_FORCE_SCALAR` overrides are evaluated once, on first use.
pub fn kernels() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(select)
}

/// The backend of the process-wide table.
pub fn backend() -> KernelBackend {
    kernels().backend()
}

/// Stable name of the active backend (`"scalar"` or `"avx2"`).
pub fn backend_name() -> &'static str {
    backend().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_prime;

    #[test]
    fn scalar_table_reports_scalar() {
        assert_eq!(scalar_kernels().backend(), KernelBackend::Scalar);
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2.name(), "avx2");
    }

    #[test]
    fn active_table_is_consistent() {
        let k = kernels();
        match k.backend() {
            KernelBackend::Scalar => {}
            KernelBackend::Avx2 => assert!(avx2_kernels().is_some()),
        }
        assert_eq!(backend_name(), k.backend().name());
    }

    #[test]
    fn batch_matches_per_row() {
        let n = 64;
        let tables: Vec<NttTable> = (0..3)
            .map(|i| {
                let q = ntt_prime(30, n, i).unwrap();
                NttTable::new(Modulus::new(q), n).unwrap()
            })
            .collect();
        let mut flat: Vec<u64> = (0..3 * n as u64).map(|i| i * 0x9E37 % 1000).collect();
        let mut rows = flat.clone();
        kernels().ntt_forward_batch(&tables, &mut flat);
        for (t, row) in tables.iter().zip(rows.chunks_exact_mut(n)) {
            t.forward(row);
        }
        assert_eq!(flat, rows);
        kernels().ntt_inverse_batch(&tables, &mut flat);
        for (t, row) in tables.iter().zip(rows.chunks_exact_mut(n)) {
            t.inverse(row);
        }
        assert_eq!(flat, rows);
    }

    #[test]
    #[should_panic(expected = "batch length mismatch")]
    fn batch_rejects_wrong_length() {
        let n = 16;
        let q = ntt_prime(30, n, 0).unwrap();
        let tables = vec![NttTable::new(Modulus::new(q), n).unwrap()];
        let mut flat = vec![0u64; n + 1];
        kernels().ntt_forward_batch(&tables, &mut flat);
    }
}
