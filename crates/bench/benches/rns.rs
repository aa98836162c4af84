//! Criterion benches of the RNS machinery: `Lift q→Q` and `Scale Q→q` in
//! all three arithmetic variants — the software-side counterpart of the
//! paper's Fig. 5/6 and Fig. 8/9 comparison. Inputs and outputs use the
//! flat limb-major layout the hot path runs on; output buffers are
//! allocated once outside the timed loop.
//!
//! The same binary then measures the **HPS lane comparison**: the
//! fixed-point `Lift` and `Scale` kernels at n = 4096 on the paper's
//! 6+7 × 30-bit primes, timed through the scalar kernel table and the
//! AVX2 table, written to `$BENCH_PR14_OUT` (default `BENCH_PR14.json`).
//! Without AVX2 the report says so (`cpu_avx2: false`) and CI skips its
//! ratio gate.
//!
//! Environment knobs:
//! * `BENCH_PR14_OUT` — output path of the JSON report.
//! * `BENCH_PR14_QUICK` — any value skips the criterion groups and
//!   shrinks the lane-comparison budget for CI smoke runs.

use criterion::{criterion_group, Criterion};
use hefv_bench::min_time;
use hefv_math::dispatch::{self, Kernels};
use hefv_math::primes::ntt_primes;
use hefv_math::rns::{HpsPrecision, RnsContext, ScaleContext};
use std::hint::black_box;

const N: usize = 512; // coefficients per bench iteration

fn setup() -> (RnsContext, ScaleContext, Vec<u64>, Vec<u64>) {
    let ps = ntt_primes(30, 4096, 13).unwrap();
    let ctx = RnsContext::new(&ps[..6], &ps[6..]).unwrap();
    let sc = ScaleContext::new(&ctx, 2);
    let mut lift_in = vec![0u64; 6 * N];
    for i in 0..6 {
        let q = ctx.base_q().modulus(i).value();
        for c in 0..N {
            lift_in[i * N + c] = (c as u64 * 2654435761 + i as u64) % q;
        }
    }
    let mut scale_in = vec![0u64; 13 * N];
    for i in 0..13 {
        let q = ctx.base_full().modulus(i).value();
        for c in 0..N {
            scale_in[i * N + c] = (c as u64 * 40503 + i as u64 * 11) % q;
        }
    }
    (ctx, sc, lift_in, scale_in)
}

fn bench_lift(c: &mut Criterion) {
    let (ctx, _, lift_in, _) = setup();
    let mut out = vec![0u64; 7 * N];
    let mut g = c.benchmark_group("lift_512_coeffs");
    g.bench_function("traditional CRT (Fig. 5)", |b| {
        b.iter(|| {
            ctx.lift().extend_poly_exact_into(&lift_in, N, &mut out);
            black_box(&out);
        })
    });
    g.bench_function("HPS f64", |b| {
        b.iter(|| {
            ctx.lift()
                .extend_poly_hps_into(&lift_in, N, &mut out, HpsPrecision::F64);
            black_box(&out);
        })
    });
    g.bench_function("HPS fixed-point (Fig. 6)", |b| {
        b.iter(|| {
            ctx.lift()
                .extend_poly_hps_into(&lift_in, N, &mut out, HpsPrecision::Fixed);
            black_box(&out);
        })
    });
    g.finish();
}

fn bench_scale(c: &mut Criterion) {
    let (ctx, sc, _, scale_in) = setup();
    let mut out = vec![0u64; 6 * N];
    let mut g = c.benchmark_group("scale_512_coeffs");
    g.sample_size(20);
    g.bench_function("traditional CRT (Fig. 8)", |b| {
        b.iter(|| {
            sc.scale_poly_exact_into(&ctx, &scale_in, N, &mut out);
            black_box(&out);
        })
    });
    g.bench_function("HPS f64", |b| {
        b.iter(|| {
            sc.scale_poly_hps_into(&ctx, &scale_in, N, &mut out, HpsPrecision::F64);
            black_box(&out);
        })
    });
    g.bench_function("HPS fixed-point (Fig. 9)", |b| {
        b.iter(|| {
            sc.scale_poly_hps_into(&ctx, &scale_in, N, &mut out, HpsPrecision::Fixed);
            black_box(&out);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_lift, bench_scale);

/// Whole-polynomial fixed-point `Lift` and `Scale` at n = 4096 through
/// one kernel table; returns `[lift_us, scale_us]`.
fn lane_times(k: &Kernels, quick: bool) -> [f64; 2] {
    let n = 4096usize;
    let ps = ntt_primes(30, n, 13).unwrap();
    let ctx = RnsContext::new(&ps[..6], &ps[6..]).unwrap();
    let sc = ScaleContext::new(&ctx, 2);
    let residues = |basis: &hefv_math::RnsBasis, seed: u64| -> Vec<u64> {
        (0..basis.len() * n)
            .map(|idx| {
                let q = basis.modulus(idx / n).value();
                (idx as u64).wrapping_mul(2654435761).wrapping_add(seed) % q
            })
            .collect()
    };
    let lift_in = residues(ctx.base_q(), 1);
    let scale_in = residues(ctx.base_full(), 2);
    let mut lift_out = vec![0u64; ctx.base_p().len() * n];
    let mut scale_out = vec![0u64; ctx.base_q().len() * n];
    let lift = min_time(
        || {
            k.extend_hps_cols(ctx.lift(), &lift_in, n, 0..n, &mut lift_out);
            black_box(&mut lift_out);
        },
        quick,
    ) * 1e6;
    let scale = min_time(
        || {
            k.scale_hps_cols(&sc, &ctx, &scale_in, n, 0..n, &mut scale_out);
            black_box(&mut scale_out);
        },
        quick,
    ) * 1e6;
    [lift, scale]
}

fn main() {
    let quick = std::env::var_os("BENCH_PR14_QUICK").is_some();
    if !quick {
        benches();
    }
    // Without AVX2 hardware both columns are the scalar table, and the
    // report is marked so the CI gate skips the ratio check.
    let avx2 = dispatch::avx2_kernels();
    let cpu_avx2 = avx2.is_some();
    let simd = avx2.unwrap_or(dispatch::scalar_kernels());
    // Alternate rounds of both tables and keep each kernel's minimum, so
    // a load change on a shared host shifts both columns alike.
    let (mut s, mut v) = ([f64::INFINITY; 2], [f64::INFINITY; 2]);
    for _ in 0..3 {
        let (rs, rv) = (
            lane_times(dispatch::scalar_kernels(), quick),
            lane_times(simd, quick),
        );
        for i in 0..2 {
            s[i] = s[i].min(rs[i]);
            v[i] = v[i].min(rv[i]);
        }
    }
    let (lift_x, scale_x) = (s[0] / v[0], s[1] / v[1]);
    println!("HPS lane comparison n=4096, 6+7 x 30-bit primes (avx2 on CPU: {cpu_avx2}):");
    println!(
        "  Lift q->Q   scalar {:9.2} us   simd {:9.2} us   x{lift_x:.2}",
        s[0], v[0]
    );
    println!(
        "  Scale Q->q  scalar {:9.2} us   simd {:9.2} us   x{scale_x:.2}",
        s[1], v[1]
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"n\": 4096,\n",
            "  \"primes\": \"6+7 x 30-bit\",\n",
            "  \"cpu_avx2\": {avx},\n",
            "  \"active_backend\": \"{backend}\",\n",
            "  \"lift\": {{\n",
            "    \"scalar_us\": {sl:.3},\n",
            "    \"simd_us\": {vl:.3},\n",
            "    \"speedup\": {lx:.3}\n",
            "  }},\n",
            "  \"scale\": {{\n",
            "    \"scalar_us\": {ss:.3},\n",
            "    \"simd_us\": {vs:.3},\n",
            "    \"speedup\": {sx:.3}\n",
            "  }},\n",
            "  \"acceptance\": {{\n",
            "    \"lift_speedup_simd_vs_scalar\": {lx:.3},\n",
            "    \"scale_speedup_simd_vs_scalar\": {sx:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        avx = cpu_avx2,
        backend = dispatch::backend_name(),
        sl = s[0],
        vl = v[0],
        lx = lift_x,
        ss = s[1],
        vs = v[1],
        sx = scale_x,
    );
    let out = std::env::var("BENCH_PR14_OUT").unwrap_or_else(|_| "BENCH_PR14.json".into());
    std::fs::write(&out, json).expect("write HPS lane report");
    println!("HPS lane report written to {out}");
}
