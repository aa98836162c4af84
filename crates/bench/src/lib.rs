//! # hefv-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section. Each table has a binary (`cargo run --release -p
//! hefv-bench --bin tableN`) that prints the paper's rows next to the
//! modeled/measured values; criterion benches time the software kernels.

/// Prints a formatted comparison row: label, modeled value, paper value,
/// ratio.
pub fn row(label: &str, modeled: f64, paper: f64, unit: &str) {
    let ratio = if paper != 0.0 {
        modeled / paper
    } else {
        f64::NAN
    };
    println!("{label:<44} {modeled:>14.3} {paper:>14.3} {unit:<6} {ratio:>7.3}");
}

/// Prints the standard comparison header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<44} {:>14} {:>14} {:<6} {:>7}",
        "row", "modeled", "paper", "unit", "ratio"
    );
    println!("{}", "-".repeat(92));
}

/// Minimum per-call time in seconds of `f` over several timed batches,
/// with the batch sized from one warm-up call. `quick` shrinks the budget
/// for CI smoke runs.
pub fn min_time<F: FnMut()>(mut f: F, quick: bool) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let target = if quick { 0.02 } else { 0.2 };
    let batch = ((target / 8.0 / once) as u64).clamp(1, 1 << 20);
    let samples = if quick { 3 } else { 8 };
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = std::time::Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
    }
    best
}
