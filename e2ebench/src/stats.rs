//! Sample statistics: nearest-rank quantiles, the tail-percentile rule,
//! and due-time latency bookkeeping for open-loop phases.

use std::time::Duration;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile (`0 ≤ q ≤ 1`) of `samples`; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it, or `None`.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
        .max_by(f64::total_cmp)
}

/// One open-loop phase, as offsets from the phase start. Latency is
/// measured from each request's **due** time, so a generator that falls
/// behind its schedule shows up as latency instead of silently thinning
/// the offered load.
#[derive(Debug, Clone, Default)]
pub struct DueRecord {
    /// When each request was due.
    pub due: Vec<Duration>,
    /// When the generator actually issued it (`None`: never issued).
    pub sent: Vec<Option<Duration>>,
    /// When its verified OK reply arrived (`None`: failed, refused or
    /// missing).
    pub done: Vec<Option<Duration>>,
}

impl DueRecord {
    /// A record for `due`, with nothing sent or answered yet.
    pub fn new(due: Vec<Duration>) -> Self {
        let n = due.len();
        DueRecord {
            due,
            sent: vec![None; n],
            done: vec![None; n],
        }
    }

    /// Due → verified-reply latencies of the answered requests, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(&due, done)| done.map(|d| ms(d.saturating_sub(due))))
            .collect()
    }

    /// How late the generator issued each request, ms.
    pub fn gen_lag_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .filter_map(|(&due, sent)| sent.map(|s| ms(s.saturating_sub(due))))
            .collect()
    }

    /// Share of *all* scheduled requests answered OK within `limit_ms`;
    /// failed, refused and missing requests count as misses.
    pub fn attainment(&self, limit_ms: f64) -> f64 {
        if self.due.is_empty() {
            return 0.0;
        }
        let met = self
            .latencies_ms()
            .iter()
            .filter(|&&l| l <= limit_ms)
            .count();
        met as f64 / self.due.len() as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Rate of a closed-loop phase from its completions `(offset, requests
/// completed)`: the requests completed after the phase's first completion,
/// divided by the time from that completion to its last, so batched
/// completions do not quantize the rate. Every stall inside the phase
/// counts; completions after the phase (the drain) do not.
pub fn phase_rate(done: &[(Duration, u64)], phase: Duration) -> f64 {
    let mut inside: Vec<(Duration, u64)> =
        done.iter().copied().filter(|&(at, _)| at < phase).collect();
    inside.sort_by_key(|&(at, _)| at);
    match (inside.first(), inside.last()) {
        (Some(&(first, _)), Some(&(last, _))) if last > first => {
            inside[1..].iter().map(|&(_, n)| n).sum::<u64>() as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    }
}
