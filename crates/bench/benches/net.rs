//! Loopback TCP front-end throughput: pipelined frames through
//! `hefv_net::NetServer` vs calling the router in-process.
//!
//! The interesting number is the transport tax — framing, the poll
//! loop, per-connection queues — on top of the same engine work.
//!
//! The same binary then measures the **CRC-32 lane comparison**: the
//! checksum every checked envelope carries, over one 393,283-byte buffer
//! (the size of an `add_stream` request frame at the paper's n = 4096,
//! 6 × 30-bit primes), timed through the scalar kernel table's byte
//! table and the AVX2 table's PCLMULQDQ fold, written to
//! `$BENCH_PR15_OUT` (default `BENCH_PR15.json`). The report records
//! `cpu_avx2` and `cpu_pclmulqdq`; CI skips its ratio gate unless both
//! are true, since otherwise both columns run the byte table.
//!
//! Environment knobs:
//! * `BENCH_PR15_OUT` — output path of the JSON report.
//! * `BENCH_PR15_QUICK` — any value skips the criterion group and
//!   shrinks the lane-comparison budget for CI smoke runs.

use criterion::{criterion_group, Criterion, Throughput};
use hefv_bench::min_time;
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_engine::wire;
use hefv_math::dispatch::{self, Kernels};
use hefv_net::{Client, NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

const TENANT: u64 = 9;
const FRAMES_PER_ITER: u64 = 32;

struct Fixture {
    router: Arc<ShardRouter>,
    /// A pre-encoded Add frame (the workload is transport-bound).
    frame: Vec<u8>,
}

fn fixture() -> Fixture {
    let ctx = Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap());
    let router = Arc::new(ShardRouter::new());
    for i in 0..2 {
        router
            .add_shard(ShardSpec {
                name: format!("net-{i}"),
                ctx: Arc::clone(&ctx),
                config: EngineConfig {
                    workers: 2,
                    threads_per_job: 1,
                    queue_capacity: 256,
                    ..EngineConfig::default()
                },
            })
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(7);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    router
        .register_tenant(TENANT, TenantKeys::compute(pk.clone(), rlk))
        .unwrap();
    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = |v, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
    let req = EvalRequest::binary(TENANT, EvalOp::Add, enc(2, &mut rng), enc(3, &mut rng));
    Fixture {
        router,
        frame: wire::encode_request(&req),
    }
}

/// Pipelined loopback round trips vs the in-process dispatch ceiling.
fn bench_loopback(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("net_loopback");
    g.sample_size(10)
        .throughput(Throughput::Elements(FRAMES_PER_ITER));

    g.bench_function("in_process_dispatch", |b| {
        b.iter(|| {
            for _ in 0..FRAMES_PER_ITER {
                let reply = f.router.dispatch_frame(&f.frame);
                assert!(wire::peek_response_job_id(&reply).is_ok());
            }
        })
    });

    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&f.router),
        ServerConfig {
            max_inflight: FRAMES_PER_ITER as usize,
            poll_interval: std::time::Duration::from_micros(50),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    g.bench_function("tcp_pipelined", |b| {
        b.iter(|| {
            for _ in 0..FRAMES_PER_ITER {
                client.send_frame(&f.frame).unwrap();
            }
            for _ in 0..FRAMES_PER_ITER {
                client.recv_reply().unwrap();
            }
        })
    });
    let mut client2 = Client::connect(server.local_addr()).unwrap();
    g.bench_function("tcp_serial_round_trips", |b| {
        b.iter(|| {
            for _ in 0..FRAMES_PER_ITER {
                client2.call(&f.frame).unwrap();
            }
        })
    });
    g.finish();
    drop(client);
    drop(client2);
    server.shutdown();
    f.router.shutdown();
}

criterion_group!(benches, bench_loopback);

/// Bytes in one `add_stream` request frame at the paper's parameters.
const CRC_BYTES: usize = 393_283;

/// Minimum time in µs of one CRC-32 over `buf` through one kernel table.
fn crc_time(k: &Kernels, buf: &[u8], quick: bool) -> f64 {
    min_time(
        || {
            black_box(k.crc32_update(!0, black_box(buf)));
        },
        quick,
    ) * 1e6
}

fn main() {
    let quick = std::env::var_os("BENCH_PR15_QUICK").is_some();
    if !quick {
        benches();
    }
    let cpu_avx2 = dispatch::avx2_kernels().is_some();
    #[cfg(target_arch = "x86_64")]
    let cpu_pclmulqdq = std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    let cpu_pclmulqdq = false;
    let scalar = dispatch::scalar_kernels();
    let lane = dispatch::avx2_kernels().unwrap_or(scalar);
    let buf: Vec<u8> = (0..CRC_BYTES as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
        .collect();
    assert_eq!(
        scalar.crc32_update(!0, &buf),
        lane.crc32_update(!0, &buf),
        "lanes disagree"
    );
    // Alternate rounds of both tables and keep each one's minimum, so a
    // load change on a shared host shifts both columns alike.
    let (mut s, mut v) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        s = s.min(crc_time(scalar, &buf, quick));
        v = v.min(crc_time(lane, &buf, quick));
    }
    let speedup = s / v;
    let gbps = |us: f64| CRC_BYTES as f64 / us / 1e3;
    println!(
        "CRC-32 lane comparison, {CRC_BYTES} bytes (avx2: {cpu_avx2}, pclmulqdq: {cpu_pclmulqdq}):"
    );
    println!(
        "  scalar {s:9.2} us ({:.2} GB/s)   lane {v:9.2} us ({:.2} GB/s)   x{speedup:.2}",
        gbps(s),
        gbps(v)
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bytes\": {bytes},\n",
            "  \"cpu_avx2\": {avx},\n",
            "  \"cpu_pclmulqdq\": {clmul},\n",
            "  \"active_backend\": \"{backend}\",\n",
            "  \"crc32\": {{\n",
            "    \"scalar_us\": {s:.3},\n",
            "    \"lane_us\": {v:.3},\n",
            "    \"scalar_gb_per_s\": {sg:.3},\n",
            "    \"lane_gb_per_s\": {vg:.3},\n",
            "    \"speedup\": {x:.3}\n",
            "  }},\n",
            "  \"acceptance\": {{\n",
            "    \"crc32_speedup_lane_vs_scalar\": {x:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        bytes = CRC_BYTES,
        avx = cpu_avx2,
        clmul = cpu_pclmulqdq,
        backend = dispatch::backend_name(),
        s = s,
        v = v,
        sg = gbps(s),
        vg = gbps(v),
        x = speedup,
    );
    let out = std::env::var("BENCH_PR15_OUT").unwrap_or_else(|_| "BENCH_PR15.json".into());
    std::fs::write(&out, json).expect("write CRC lane report");
    println!("CRC lane report written to {out}");
}
