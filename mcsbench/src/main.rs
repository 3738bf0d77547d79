//! `mcs-bench`: the end-to-end benchmark of the partitioning, admission
//! and simulation layers.
//!
//! ```text
//! mcs-bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--quick]
//! ```
//!
//! `--trace 0` (the default) sets the workload up several times, measures
//! it untraced for `--seconds`, checks its outputs and prints the
//! end-to-end metrics. `--trace 1` replays the same inputs on one thread
//! with a span around each layer call and prints the per-layer metrics;
//! `--out` writes those spans as Chrome trace-event JSON. Both print a
//! digest of the results on a fixed input prefix, which must agree for
//! the same seed. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See README.md for the workloads and metrics.

mod admit;
mod common;
mod hist;
mod layers;
mod sim;
mod spans;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{median, RunReport, Size, TraceReport};

const USAGE: &str = "usage: mcs-bench --workload W [--seed N] [--seconds S] [--trace 0|1] \
                     [--out PATH] [--quick]\n       workloads: sweep_paper sweep_wide \
                     admit_churn admit_overload simulate_paper soundness_paper";

/// A workload and its sizes.
enum Workload {
    Sweep(sweep::Spec),
    Admit(admit::Spec),
    Sim(sim::Spec),
}

impl Workload {
    fn named(name: &str, size: Size) -> Option<Self> {
        Some(match name {
            "sweep_paper" => Workload::Sweep(sweep::Spec::paper(size)),
            "sweep_wide" => Workload::Sweep(sweep::Spec::wide(size)),
            "admit_churn" => Workload::Admit(admit::Spec::churn(size)),
            "admit_overload" => Workload::Admit(admit::Spec::overload(size)),
            "simulate_paper" => Workload::Sim(sim::Spec::simulate(size)),
            "soundness_paper" => Workload::Sim(sim::Spec::soundness(size)),
            _ => return None,
        })
    }

    fn run(&self, seed: u64, seconds: f64, setup_reps: usize) -> RunReport {
        match self {
            Workload::Sweep(s) => sweep::run(s, seed, seconds, setup_reps),
            Workload::Admit(s) => admit::run(s, seed, seconds, setup_reps),
            Workload::Sim(s) => sim::run(s, seed, seconds, setup_reps),
        }
    }

    fn trace(&self, seed: u64, seconds: f64) -> TraceReport {
        match self {
            Workload::Sweep(s) => sweep::trace(s, seed, seconds),
            Workload::Admit(s) => admit::trace(s, seed, seconds),
            Workload::Sim(s) => sim::trace(s, seed, seconds),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    size: Size,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        size: Size::Full,
    };
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.size = Size::Quick;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.out.is_some() && !args.trace {
        return Err("--out needs --trace 1".into());
    }
    Ok(args)
}

/// The last line of stdout.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn report_run(r: &RunReport) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let m = &r.measured;
    let setup = median(&r.setup_s);
    let rss = m.peak_rss_mb.clone()?;
    let rate = |items: u64, ns: u64| items as f64 / (ns.max(1) as f64 / 1e9);
    let throughput = rate(m.best_items, m.best_ns);
    let setups: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("{} {} in {:.3} s timed, {} windows", m.items, r.item, m.ns as f64 / 1e9, m.windows);
    println!("setup_s          {setup:>14.6} s    median of set-ups {}", setups.join(" "));
    println!("peak_rss_mb      {rss:>14.3} MB");
    println!(
        "throughput_per_s {throughput:>14.3} 1/s  {} per s in the fastest {} windows; whole run {:.3}",
        r.item,
        m.best_windows,
        rate(m.items, m.ns)
    );
    let us = |q: f64| m.latency.quantile_ns(q) / 1e3;
    print!(
        "latency          p50 {:.3} us  p90 {:.3} us  over {} samples, one per {}",
        us(0.5),
        us(0.9),
        m.latency.count(),
        r.request
    );
    match m.latency.tail() {
        Some((p, ns)) if p > 90.0 => println!("; p{p} {:.3} us", ns / 1e3),
        _ => println!(),
    }
    Ok(vec![
        ("setup_s", "s", setup),
        ("peak_rss_mb", "MB", rss),
        ("throughput_per_s", "1/s", throughput),
    ])
}

fn report_trace(r: &TraceReport) -> Vec<(&'static str, &'static str, f64)> {
    print!("{}", r.tracer.summary());
    let values = layers::values(r);
    layers::PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            println!("{name:<40} {value:>16.4} {unit}");
            (name, unit, value)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcs-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload, args.size) else {
        eprintln!("mcs-bench: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "mcs-bench {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (metrics, checks, digest) = if args.trace {
        let r = workload.trace(args.seed, args.seconds);
        if let Some(path) = &args.out {
            if let Err(e) = std::fs::write(path, r.tracer.to_chrome_json(&args.workload, args.seed))
            {
                eprintln!("mcs-bench: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
        }
        (report_trace(&r), r.checks, r.digest)
    } else {
        let r = workload.run(args.seed, args.seconds, args.size.setup_reps());
        match report_run(&r) {
            Ok(m) => (m, r.checks, r.digest),
            Err(e) => {
                eprintln!("mcs-bench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let finite = metrics.iter().all(|m| m.2.is_finite());
    println!("checks             {} attempted, {} failed", checks.attempted, checks.failed);
    println!("digest             {:016x}", digest.0);
    let correct = finite && checks.failed == 0 && checks.attempted > 0;
    let metrics: Vec<_> =
        metrics.into_iter().map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 })).collect();
    println!("{}", result_json(correct, checks.attempted, checks.failed, &metrics));
    ExitCode::SUCCESS
}
