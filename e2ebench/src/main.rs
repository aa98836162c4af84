//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a loopback `NetServer` at
//! `FvParams::hpca19_batching()` and prints, as its last stdout line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`).
//! The line before it records the environment the numbers came from.
//! Exits non-zero on any wrong reply or counter mismatch.

use e2ebench::run::{self, Report, RunConfig};
use e2ebench::workload::Workload;
use e2ebench::{END_TO_END, PER_LAYER};
use hefv_core::params::FvParams;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Environment variables that inject faults; their effects would land in
/// the numbers.
const FAULT_VARS: [&str; 2] = ["HEFV_CHAOS", "HEFV_NET_FAULT"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment line: what the numbers were measured on.
fn env_line(args: &Args, params: &FvParams, workers: usize, report: &Report) -> String {
    let var = |k: &str| std::env::var(k).map_or("null".to_string(), |v| json_str(&v));
    let mut out = format!(
        "{{\"env\":{{\"workload\":{},\"seed\":{},\"params\":{},\"nproc\":{workers},\"kernel_lane\":{},\"HEFV_KERNEL\":{},\"HEFV_FORCE_SCALAR\":{},\"trace\":{}}}",
        json_str(args.workload.name()),
        args.seed,
        json_str(&params.name),
        json_str(hefv_math::dispatch::backend_name()),
        var("HEFV_KERNEL"),
        var("HEFV_FORCE_SCALAR"),
        args.trace,
    );
    let t = &report.tally;
    let _ = write!(
        out,
        ",\"tally\":{{\"attempted\":{},\"ok\":{},\"wrong\":{},\"missing\":{},\"refused\":{{{}}}}}",
        t.attempted,
        t.ok,
        t.wrong,
        t.missing,
        t.refused
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (k, v) in &report.notes {
        let _ = write!(out, ",{}:{}", json_str(k), json_str(v));
    }
    let errors: Vec<String> = report.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(out, ",\"errors\":[{}]}}", errors.join(","));
    out
}

/// The result line, with every metric of `names` in order.
fn result_line(report: &mut Report, names: &[(&'static str, &'static str)]) -> String {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        match report.values.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )),
            _ => report
                .errors
                .push(format!("metric {name} was not measured")),
        }
    }
    let t = &report.tally;
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        t.attempted.max(1),
        t.failed(),
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let set: Vec<&str> = FAULT_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("refusing to run with fault injection enabled ({}): injected faults would land in the numbers", set.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        params: FvParams::hpca19_batching(),
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        workers,
    };
    let outcome = if args.trace {
        run::run_traced(&cfg)
    } else {
        run::run_e2e(&cfg)
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &report.spans))
        {
            report
                .errors
                .push(format!("writing {}: {e}", path.display()));
        } else {
            report
                .notes
                .push(("spans_file", path.display().to_string()));
        }
    }
    let result = result_line(&mut report, if args.trace { PER_LAYER } else { END_TO_END });
    println!("{}", env_line(&args, &cfg.params, workers, &report));
    println!("{result}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for e in &report.errors {
            eprintln!("e2ebench: {e}");
        }
        ExitCode::from(1)
    }
}
