//! End-to-end serving benchmark for HEAT-rs at the paper's parameters.
//!
//! One process stands up a `NetServer` over a one-shard `ShardRouter`
//! and drives one of four workloads at it over loopback TCP (or, for
//! `scalar_batch`, through the router's scalar batcher), checking every
//! reply against a cleartext model. An untraced run prints the
//! end-to-end metrics; a traced run peels a sample of requests layer by
//! layer and prints the per-layer metrics. See `BENCHMARK.json` at the
//! repository root for what each workload and metric means.

pub mod alloc;
pub mod cpu;
pub mod drive;
pub mod peel;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_req", "ms"),
    ("ok_rate", "ratio"),
    ("alloc_kib_per_req", "KiB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.rtt_us", "us"),
    ("net.tax_us", "us"),
    ("net.tax_share", "ratio"),
    ("net.send_us", "us"),
    ("net.bytes_in_per_req", "B"),
    ("net.bytes_out_per_req", "B"),
    ("wire.encode_request_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("wire.decode_response_us", "us"),
    ("router.dispatch_frame_us", "us"),
    ("engine.call_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_wait_p95_us", "us"),
    ("engine.jobs_rejected", "count"),
    ("engine.jobs_failed", "count"),
    ("engine.cost_model_error_ratio", "ratio"),
    ("batch.size_mean", "count"),
    ("batch.fill_ratio", "ratio"),
    ("batch.encode_us", "us"),
    ("batch.encrypt_us", "us"),
    ("batch.decode_us", "us"),
    ("eval.mul_us", "us"),
    ("eval.tensor_us", "us"),
    ("eval.lift_us", "us"),
    ("eval.scale_us", "us"),
    ("eval.relin_us", "us"),
    ("eval.tensor_residual_us", "us"),
    ("eval.ntt_forward_full_us", "us"),
    ("eval.ntt_inverse_full_us", "us"),
    ("eval.mul_plain_us", "us"),
    ("eval.add_us", "us"),
    ("galois.hoist_us", "us"),
    ("galois.rotate_hoisted_us", "us"),
    ("galois.sum_slots_us", "us"),
    ("math.ntt_forward_us", "us"),
    ("math.ntt_inverse_us", "us"),
    ("math.pointwise_mul_us", "us"),
    ("math.limb_bytes", "B"),
    ("bench.gen_lag_p95_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.peel_residual_share", "ratio"),
];
