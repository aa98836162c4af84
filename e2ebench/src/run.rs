//! One benchmark run: set-up, input pool, warm-up, the closed- and
//! open-loop phases, and the end-of-run cross-check — untraced for the
//! end-to-end metrics, or traced for the layer peel.

use crate::alloc::allocated_bytes;
use crate::cpu::process_cpu;
use crate::drive::{self, Tally};
use crate::peel;
use crate::stack::{Stack, TENANT};
use crate::stats::{self, highest_supported_percentile, median, phase_rate, quantile, DueRecord};
use crate::workload::{self, Item, Oracle, Workload, POOL};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parameter set served.
    pub params: FvParams,
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (closed + open phases).
    pub seconds: f64,
    /// Engine workers, load connections in flight and closed-loop depth.
    pub workers: usize,
}

/// A finished run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The benchmark's own counts.
    pub tally: Tally,
    /// Measured metrics by name (units live in [`crate::END_TO_END`] and
    /// [`crate::PER_LAYER`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Everything that failed the run: wrong results, counter mismatches.
    pub errors: Vec<String>,
    /// Spans (traced runs only), one JSON object per line.
    pub spans: String,
    /// Context printed with the result: latency samples, tail rule.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every reply was correct and every counter agreed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.tally.wrong == 0
    }
}

/// Set-ups timed per untraced run; `setup_s` is the median of their CPU
/// times and the last one serves the run.
const SETUP_REPS: usize = 7;

/// Phase steal share above which a run's env line marks the host noisy.
const STEAL_MARK: f64 = 0.05;

/// Closed loop before timing starts: long enough for the lazy caches, the
/// arenas and the allocator (under the batcher's per-member result copies)
/// to reach their steady state; a shorter one left the first timed second
/// up to 40% slow.
const WARM_UP: Duration = Duration::from_millis(1500);

/// Share of `--seconds` spent in the closed-loop phase; the open-loop
/// phase takes the rest.
const CLOSED_SHARE: f64 = 0.6;

/// Requests the traced run peels.
const PEEL_SAMPLES: usize = 16;

/// Jiffies `(steal, total)` over all CPUs from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs `f` and returns the share of all CPU time the hypervisor gave to
/// other guests (steal) while it ran.
fn steal_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_jiffies();
    let out = f();
    let share = match (before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    };
    (out, share)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
}

/// A seeded open-loop schedule at `rate` per second for `duration`:
/// arrival `k` falls uniformly within the `k`-th slot of width `1/rate`.
/// Every seed yields the same number of requests, so every run has the
/// same latency sample count, and no seed packs arrivals into bursts far
/// beyond the offered rate.
pub fn arrivals(rng: &mut StdRng, rate: f64, duration: Duration) -> Vec<Duration> {
    let count = (rate * duration.as_secs_f64()).round() as usize;
    (0..count)
        .map(|k| Duration::from_secs_f64((k as f64 + rng.gen::<f64>()) / rate))
        .collect()
}

/// Slots per batch for the parameter set.
fn slots(stack: &Stack) -> usize {
    stack.ctx.params().n
}

/// Scalar requests the closed loop keeps outstanding: two batches' worth,
/// so the next batch fills from the submitter while the previous one is
/// delivered rather than only as fast as its predecessor drains. Batches
/// then fill before the linger timer fires unless the host slows the
/// submitter itself; the env line's `closed_batch_size_mean` shows it.
fn closed_window(stack: &Stack) -> usize {
    2 * slots(stack)
}

fn mean(v: &[usize]) -> f64 {
    v.iter().sum::<usize>() as f64 / v.len().max(1) as f64
}

/// The inputs and warm state shared by both run modes.
struct Prepared {
    stack: Stack,
    oracle: Oracle,
    items: Vec<Item>,
    rng: StdRng,
    tally: Tally,
}

/// Builds the pool (verified serially, off the timed path) and warms the
/// lazy caches and both workers' arenas.
fn prepare(cfg: &RunConfig, stack: Stack, tally: Tally) -> Result<Prepared, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let oracle = Oracle::new(&stack);
    let mut tally = tally;
    let mut items = workload::build_pool(cfg.workload, &stack, &mut rng, POOL);
    drive::verify_serially(stack.addr(), &mut items, &oracle, &mut tally)?;
    if cfg.workload.is_tcp() {
        drive::tcp_closed(
            stack.addr(),
            &items,
            &oracle,
            &mut rng,
            cfg.workers,
            WARM_UP,
            &mut tally,
        )?;
    } else {
        let t = stack.ctx.params().t;
        drive::scalar_closed(
            &stack.router,
            TENANT,
            t,
            &oracle,
            &mut rng,
            closed_window(&stack),
            WARM_UP,
            &mut tally,
        );
    }
    Ok(Prepared {
        stack,
        oracle,
        items,
        rng,
        tally,
    })
}

/// The open-loop phase; returns its due-time record and batch sizes.
fn open_phase(
    p: &mut Prepared,
    cfg: &RunConfig,
    duration: Duration,
) -> Result<(DueRecord, Vec<usize>), String> {
    let due = arrivals(&mut p.rng, cfg.workload.open_rate(), duration);
    if cfg.workload.is_tcp() {
        let sched: Vec<(Duration, usize)> = due
            .into_iter()
            .map(|d| (d, p.rng.gen_range(0..p.items.len())))
            .collect();
        Ok((
            drive::tcp_open(p.stack.addr(), &p.items, &p.oracle, &sched, &mut p.tally)?,
            Vec::new(),
        ))
    } else {
        let t = p.stack.ctx.params().t;
        let (rec, phase) = drive::scalar_open(
            &p.stack.router,
            TENANT,
            t,
            &p.oracle,
            &mut p.rng,
            &due,
            &mut p.tally,
        );
        Ok((rec, phase.sizes))
    }
}

/// Compares the server's and engine's counters with the benchmark's own,
/// allowing a moment for counters updated after the reply was sent.
pub fn cross_check(stack: &Stack, tally: &Tally) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let net = stack.server.stats();
        let eng = stack.router.stats().total;
        let mut errs = Vec::new();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                errs.push(format!(
                    "{what}: program counted {got}, benchmark counted {want}"
                ));
            }
        };
        expect("net frames_in", net.frames_in, tally.frames_sent);
        expect("net replies_out", net.replies_out, tally.replies);
        expect("engine jobs_completed", eng.jobs_completed, tally.jobs_ok);
        expect("engine batches_formed", eng.batches_formed, tally.batches);
        expect(
            "engine batched_requests",
            eng.batched_requests,
            tally.batched,
        );
        let refused = tally.refused_total();
        if eng.jobs_failed + eng.jobs_rejected > refused {
            errs.push(format!(
                "engine jobs_failed + jobs_rejected = {} exceeds the {refused} refusals the benchmark saw",
                eng.jobs_failed + eng.jobs_rejected
            ));
        }
        if errs.is_empty() || Instant::now() > deadline {
            return errs;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn failures(tally: &Tally) -> Vec<String> {
    let mut out = Vec::new();
    if tally.wrong > 0 {
        out.push(format!(
            "{} wrong replies (first: {})",
            tally.wrong,
            tally.first_wrong.as_deref().unwrap_or("?")
        ));
    }
    if tally.missing > 0 {
        out.push(format!("{} requests got no reply", tally.missing));
    }
    out
}

/// The untraced run: every end-to-end metric.
///
/// # Errors
///
/// Set-up or transport failures that stop the run.
pub fn run_e2e(cfg: &RunConfig) -> Result<Report, String> {
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = stack.take() {
            Stack::stop(old);
        }
        let (t0, c0) = (Instant::now(), process_cpu());
        stack = Some(Stack::start(cfg.params.clone(), cfg.seed, cfg.workers)?);
        setup_cpu.push((process_cpu() - c0).as_secs_f64());
        setup_wall.push(t0.elapsed().as_secs_f64());
    }
    let mut p = prepare(cfg, stack.expect("at least one set-up"), Tally::default())?;
    let closed = Duration::from_secs_f64(cfg.seconds * CLOSED_SHARE);
    let (alloc0, ok0, cpu0) = (allocated_bytes(), p.tally.ok, process_cpu());
    let mut closed_batch = f64::NAN;
    let (ok_at, closed_steal) = steal_during(|| -> Result<_, String> {
        Ok(if cfg.workload.is_tcp() {
            drive::tcp_closed(
                p.stack.addr(),
                &p.items,
                &p.oracle,
                &mut p.rng,
                cfg.workers,
                closed,
                &mut p.tally,
            )?
        } else {
            let t = p.stack.ctx.params().t;
            let phase = drive::scalar_closed(
                &p.stack.router,
                TENANT,
                t,
                &p.oracle,
                &mut p.rng,
                closed_window(&p.stack),
                closed,
                &mut p.tally,
            );
            closed_batch = mean(&phase.sizes);
            phase.completions
        })
    });
    let ok_at = ok_at?;
    let cpu_ms_per_req =
        (process_cpu() - cpu0).as_secs_f64() * 1e3 / (p.tally.ok - ok0).max(1) as f64;
    let (rec, open_steal) =
        steal_during(|| open_phase(&mut p, cfg, Duration::from_secs_f64(cfg.seconds) - closed));
    let rec = rec?.0;
    let alloc_kib = (allocated_bytes() - alloc0) as f64 / 1024.0 / (p.tally.ok - ok0).max(1) as f64;
    let lat = rec.latencies_ms();

    let mut r = Report::default();
    r.set("setup_s", median(&setup_cpu));
    r.set("cpu_ms_per_req", cpu_ms_per_req);
    r.set(
        "ok_rate",
        p.tally.ok as f64 / p.tally.attempted.max(1) as f64,
    );
    r.set("alloc_kib_per_req", alloc_kib);
    let tail = highest_supported_percentile(lat.len(), &[50.0, 90.0, 95.0, 99.0, 99.9]);
    if tail.is_none_or(|p| p < 95.0) {
        r.errors.push(format!(
            "{} latency samples cannot support a p95",
            lat.len()
        ));
    }
    // Wall-clock figures are printed with every run but not gated: on a
    // shared host they stretch with the CPU other guests take (steal,
    // recorded next to them), beyond any bound the benchmark may set.
    r.notes.push((
        "throughput_rps",
        format!("{:.3}", phase_rate(&ok_at, closed)),
    ));
    r.notes
        .push(("latency_p50_ms", format!("{:.3}", quantile(&lat, 0.50))));
    r.notes
        .push(("latency_p95_ms", format!("{:.3}", quantile(&lat, 0.95))));
    r.notes.push((
        "slo_attainment",
        format!("{:.4}", rec.attainment(cfg.workload.slo_ms())),
    ));
    r.notes.push(("latency_samples", lat.len().to_string()));
    if !cfg.workload.is_tcp() {
        r.notes
            .push(("closed_batch_size_mean", format!("{closed_batch:.1}")));
    }
    r.notes
        .push(("setup_wall_s", format!("{:.4}", median(&setup_wall))));
    r.notes.push((
        "peak_rss_mib",
        format!("{:.1}", peak_rss_mib().unwrap_or(f64::NAN)),
    ));
    r.notes
        .push(("steal_share_closed", format!("{closed_steal:.3}")));
    r.notes
        .push(("steal_share_open", format!("{open_steal:.3}")));
    r.notes.push((
        "noisy_host",
        (closed_steal.max(open_steal) > STEAL_MARK).to_string(),
    ));
    r.notes.push((
        "tail_percentile_supported",
        tail.map_or("none".into(), |p| p.to_string()),
    ));
    r.notes.push((
        "gen_lag_p95_ms",
        format!("{:.3}", quantile(&rec.gen_lag_ms(), 0.95)),
    ));
    r.errors.extend(failures(&p.tally));
    r.errors.extend(cross_check(&p.stack, &p.tally));
    p.stack.stop();
    r.tally = p.tally;
    Ok(r)
}

/// The traced run: the layer peel and engine-side counters.
///
/// # Errors
///
/// Set-up or transport failures that stop the run.
pub fn run_traced(cfg: &RunConfig) -> Result<Report, String> {
    let stack = Stack::start(cfg.params.clone(), cfg.seed, cfg.workers)?;
    let mut p = prepare(cfg, stack, Tally::default())?;
    let before = p.stack.router.stats().total;
    let (rec, sizes) = open_phase(&mut p, cfg, Duration::from_secs_f64(cfg.seconds * 0.4))?;
    let after = p.stack.router.stats().total;
    let mut r = Report::default();
    let peeled = peel::peel(
        &p.stack,
        &p.items,
        &p.oracle,
        &mut p.rng,
        PEEL_SAMPLES,
        &mut p.tally,
    )?;

    let wait = queue_wait_delta(&before, &after);
    let slots = slots(&p.stack) as f64;
    let size_mean = mean(&sizes);
    r.values.extend(peeled.metrics);
    r.set("engine.queue_wait_p50_us", wait.quantile(0.50) as f64 / 1e3);
    r.set("engine.queue_wait_p95_us", wait.quantile(0.95) as f64 / 1e3);
    r.set("engine.jobs_rejected", after.jobs_rejected as f64);
    r.set("engine.jobs_failed", after.jobs_failed as f64);
    r.set("batch.size_mean", size_mean);
    r.set("batch.fill_ratio", size_mean / slots);
    r.set("bench.gen_lag_p95_ms", quantile(&rec.gen_lag_ms(), 0.95));
    r.set("bench.trace_overhead_ratio", peeled.trace_overhead_ratio);
    r.set("bench.peel_residual_share", peeled.residual_share);
    r.notes.push((
        "open_latency_p50_ms",
        format!("{:.3}", stats::median(&rec.latencies_ms())),
    ));
    r.spans = peeled.spans;
    r.errors = failures(&p.tally);
    r.errors.extend(peeled.errors);
    r.errors.extend(cross_check(&p.stack, &p.tally));
    p.stack.stop();
    r.tally = p.tally;
    Ok(r)
}

/// Queue-wait histogram (all scheduler levels) of the jobs dequeued
/// between two snapshots, ns.
fn queue_wait_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> HistogramSnapshot {
    let fold = |s: &StatsSnapshot| {
        let mut h = HistogramSnapshot::default();
        for (_, level) in &s.queue_wait_by_level {
            h.merge(level);
        }
        h
    };
    let (b, mut a) = (fold(before), fold(after));
    for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
        *x -= y;
    }
    a.count -= b.count;
    a.sum -= b.sum;
    a
}
