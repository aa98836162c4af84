//! Before/after bench for the PR-4 hot-path overhaul: Harvey lazy-reduction
//! NTT vs the strict reference path, plus the end-to-end `Mult` and
//! `relinearize` kernels, emitted as machine-readable JSON.
//!
//! The strict transforms (`forward_strict`/`inverse_strict`) are the exact
//! pre-overhaul implementation, kept in-tree as the oracle — so the
//! speedup this bench reports is a live before/after measurement, not a
//! stale number. The lazy column times the scalar lazy transforms
//! (`forward_scalar`/`inverse_scalar`), not the dispatched
//! `forward`/`inverse`: those run the AVX2 lane where the CPU has it, and
//! the vector speedup would hide a lazy-reduction regression. The SIMD
//! lane has its own comparison below. Results are printed as a table and written to
//! `$BENCH_PR4_OUT` (default `BENCH_PR4.json` in the crate directory; CI
//! uploads it as an artifact).
//!
//! Since PR 7 the same binary also measures the **SIMD lane comparison**:
//! each dispatched kernel (forward/inverse NTT, pointwise product, hoisted
//! key-switch SoP line) timed through the scalar table vs the AVX2 table,
//! written to `$BENCH_PR7_OUT` (default `BENCH_PR7.json`). On hardware
//! without AVX2 the comparison is skipped and the report says so — CI
//! gates the SIMD ratio only when the fresh report ran on AVX2.
//!
//! Environment knobs:
//! * `BENCH_PR4_OUT` / `BENCH_PR7_OUT` — output paths for the JSON reports.
//! * `BENCH_PR4_QUICK` / `BENCH_PR7_QUICK` — any value shrinks the
//!   iteration budget for CI smoke runs (either one enables quick mode).

use hefv_bench::min_time;
use hefv_core::eval::{self, Backend};
use hefv_core::prelude::*;
use hefv_math::dispatch::{self, Kernels};
use hefv_math::ntt::NttTable;
use hefv_math::primes::ntt_prime;
use hefv_math::rns::HpsPrecision;
use hefv_math::zq::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Times the four dispatched kernels through one kernel table; returns
/// `[forward_us, inverse_us, pointwise_us, sop_us]`.
fn lane_times(k: &'static Kernels, table: &NttTable, input: &[u64], quick: bool) -> [f64; 4] {
    let n = table.n();
    let q = table.modulus().value();
    let m = *table.modulus();
    // Transform in place: the canonical [0, q) output is a valid input
    // for either direction, so the loop measures the kernel alone
    // rather than a 32 KB clone per iteration.
    let mut x = input.to_vec();
    let fwd = min_time(
        || {
            k.ntt_forward(table, black_box(&mut x));
        },
        quick,
    ) * 1e6;
    let mut x = input.to_vec();
    k.ntt_forward(table, &mut x);
    let inv = min_time(
        || {
            k.ntt_inverse(table, black_box(&mut x));
        },
        quick,
    ) * 1e6;
    let b: Vec<u64> = (0..n as u64).map(|i| (i * 69621 + 11) % q).collect();
    let mut dst = vec![0u64; n];
    let pw = min_time(
        || {
            k.pointwise_mul(&m, input, &b, &mut dst);
            black_box(&mut dst);
        },
        quick,
    ) * 1e6;
    // One SoP residue row at the paper's digit count (k = 6 primes in Q).
    let digits = 6usize;
    let line = |seed: u64| -> Vec<u32> {
        (0..n as u64 * digits as u64)
            .map(|i| ((i * 2654435761 + seed) % q) as u32)
            .collect()
    };
    let (d32, k0, k1) = (line(1), line(2), line(3));
    let perm: Vec<u32> = (0..n as u32).rev().collect();
    let (mut a0, mut a1) = (vec![0u64; n], vec![0u64; n]);
    let sop = min_time(
        || {
            k.sop_narrow_row(&m, &perm, &d32, &k0, &k1, Some(input), &mut a0, &mut a1);
            black_box((&mut a0, &mut a1));
        },
        quick,
    ) * 1e6;
    [fwd, inv, pw, sop]
}

fn main() {
    let quick = std::env::var_os("BENCH_PR4_QUICK").is_some()
        || std::env::var_os("BENCH_PR7_QUICK").is_some();
    let n = 4096usize;
    let q = ntt_prime(30, n, 0).unwrap();
    let table = NttTable::new(Modulus::new(q), n).unwrap();
    let input: Vec<u64> = (0..n as u64).map(|i| (i * 48271 + 3) % q).collect();

    let strict_fwd = min_time(
        || {
            let mut x = input.clone();
            table.forward_strict(&mut x);
            black_box(x);
        },
        quick,
    ) * 1e6;
    let lazy_fwd = min_time(
        || {
            let mut x = input.clone();
            table.forward_scalar(&mut x);
            black_box(x);
        },
        quick,
    ) * 1e6;
    let mut frev = input.clone();
    table.forward(&mut frev);
    let strict_inv = min_time(
        || {
            let mut x = frev.clone();
            table.inverse_strict(&mut x);
            black_box(x);
        },
        quick,
    ) * 1e6;
    let lazy_inv = min_time(
        || {
            let mut x = frev.clone();
            table.inverse_scalar(&mut x);
            black_box(x);
        },
        quick,
    ) * 1e6;

    // End-to-end Mult + relinearize at the paper's full parameter size.
    let ctx = FvContext::new(FvParams::hpca19()).unwrap();
    let mut rng = StdRng::seed_from_u64(2019);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let pa = Plaintext::new(vec![1, 1], 2, ctx.params().n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pa, &mut rng);
    let backend = Backend::Hps(HpsPrecision::Fixed);
    let mult_ms = min_time(
        || {
            black_box(eval::mul(&ctx, &ca, &cb, &rlk, backend));
        },
        quick,
    ) * 1e3;
    let tensor = eval::tensor(&ctx, &ca, &cb, backend);
    let relin_ms = min_time(
        || {
            black_box(eval::relinearize(&ctx, &tensor, &rlk));
        },
        quick,
    ) * 1e3;

    let fwd_speedup = strict_fwd / lazy_fwd;
    let inv_speedup = strict_inv / lazy_inv;
    let combined = (strict_fwd + strict_inv) / (lazy_fwd + lazy_inv);
    println!("NTT n={n}, 30-bit prime (times are per-transform minima):");
    println!("  forward  strict {strict_fwd:9.2} µs   lazy {lazy_fwd:9.2} µs   ×{fwd_speedup:.2}");
    println!("  inverse  strict {strict_inv:9.2} µs   lazy {lazy_inv:9.2} µs   ×{inv_speedup:.2}");
    println!("  forward+inverse speedup ×{combined:.2}");
    println!("End-to-end (n=4096, 6+7 primes, HPS fixed-point):");
    println!("  Mult        {mult_ms:8.2} ms");
    println!("  relinearize {relin_ms:8.2} ms");

    let json = format!(
        concat!(
            "{{\n",
            "  \"n\": {n},\n",
            "  \"ntt\": {{\n",
            "    \"strict_forward_us\": {sf:.3},\n",
            "    \"lazy_forward_us\": {lf:.3},\n",
            "    \"strict_inverse_us\": {si:.3},\n",
            "    \"lazy_inverse_us\": {li:.3},\n",
            "    \"forward_speedup\": {fs:.3},\n",
            "    \"inverse_speedup\": {is:.3},\n",
            "    \"forward_plus_inverse_speedup\": {cs:.3}\n",
            "  }},\n",
            "  \"kernels\": {{\n",
            "    \"mult_hps_fixed_ms\": {mm:.3},\n",
            "    \"relinearize_ms\": {rm:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        sf = strict_fwd,
        lf = lazy_fwd,
        si = strict_inv,
        li = lazy_inv,
        fs = fwd_speedup,
        is = inv_speedup,
        cs = combined,
        mm = mult_ms,
        rm = relin_ms,
    );
    let out = std::env::var("BENCH_PR4_OUT").unwrap_or_else(|_| "BENCH_PR4.json".into());
    std::fs::write(&out, json).expect("write bench report");
    println!("report written to {out}");

    // ---- PR 7: SIMD lane comparison (scalar table vs AVX2 table) ----
    let scalar = dispatch::scalar_kernels();
    let avx2 = dispatch::avx2_kernels();
    let s = lane_times(scalar, &table, &input, quick);
    // Without AVX2 hardware there is nothing to compare against: report
    // the scalar numbers for both columns with unit speedups, and mark
    // the report so the CI gate knows to skip the ratio check.
    let v = match avx2 {
        Some(k) => lane_times(k, &table, &input, quick),
        None => s,
    };
    let cpu_avx2 = avx2.is_some();
    let names = ["forward ", "inverse ", "pointwise", "sop line "];
    println!(
        "SIMD lane comparison n={n} (backend under test: {}):",
        if cpu_avx2 {
            "avx2"
        } else {
            "scalar only — no AVX2 on this CPU"
        }
    );
    for i in 0..4 {
        println!(
            "  {} scalar {:9.2} µs   simd {:9.2} µs   ×{:.2}",
            names[i],
            s[i],
            v[i],
            s[i] / v[i]
        );
    }
    let ntt_speedup = (s[0] + s[1]) / (v[0] + v[1]);
    println!("  forward+inverse NTT simd-vs-scalar speedup ×{ntt_speedup:.2}");
    let json7 = format!(
        concat!(
            "{{\n",
            "  \"n\": {n},\n",
            "  \"cpu_avx2\": {avx},\n",
            "  \"active_backend\": \"{backend}\",\n",
            "  \"ntt\": {{\n",
            "    \"scalar_forward_us\": {sf:.3},\n",
            "    \"simd_forward_us\": {vf:.3},\n",
            "    \"scalar_inverse_us\": {si:.3},\n",
            "    \"simd_inverse_us\": {vi:.3},\n",
            "    \"forward_speedup\": {fs:.3},\n",
            "    \"inverse_speedup\": {is:.3},\n",
            "    \"forward_plus_inverse_speedup\": {cs:.3}\n",
            "  }},\n",
            "  \"pointwise\": {{\n",
            "    \"scalar_us\": {sp:.3},\n",
            "    \"simd_us\": {vp:.3},\n",
            "    \"speedup\": {ps:.3}\n",
            "  }},\n",
            "  \"sop_row\": {{\n",
            "    \"digits\": 6,\n",
            "    \"scalar_us\": {ss:.3},\n",
            "    \"simd_us\": {vs:.3},\n",
            "    \"speedup\": {os:.3}\n",
            "  }},\n",
            "  \"acceptance\": {{\n",
            "    \"ntt_forward_plus_inverse_speedup_simd_vs_scalar\": {cs:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        avx = cpu_avx2,
        backend = dispatch::backend_name(),
        sf = s[0],
        vf = v[0],
        si = s[1],
        vi = v[1],
        fs = s[0] / v[0],
        is = s[1] / v[1],
        cs = ntt_speedup,
        sp = s[2],
        vp = v[2],
        ps = s[2] / v[2],
        ss = s[3],
        vs = v[3],
        os = s[3] / v[3],
    );
    let out7 = std::env::var("BENCH_PR7_OUT").unwrap_or_else(|_| "BENCH_PR7.json".into());
    std::fs::write(&out7, json7).expect("write lane-comparison report");
    println!("lane-comparison report written to {out7}");
}
