//! `mcs-exp` — command-line experiment runner.
//!
//! ```text
//! mcs-exp <command> [--trials N] [--threads N] [--seed S] [--csv]
//!         [--horizon-periods H] [--jsonl PATH] [--resume]
//!
//! commands:
//!   fig1 | fig2 | fig3 | fig4 | fig5   reproduce one figure (4 panels each)
//!   figs                               all five figures
//!   table1 | table2 | table3 | table4  the paper's tables
//!   tables                             all four tables
//!   sweep                              one default-point paired sweep
//!   admit                              online admission-control streams
//!                                      (per-shard engines, rebuild gate)
//!   soundness                          simulation-backed validation
//!   simulate                           runtime behaviour: weakly-hard
//!                                      (m,k) windows, drop outages, mode
//!                                      switches (tick-vs-event gate)
//!   ablation                           CA-TPA variant battery
//!   dualcmp                            EDF-VD vs FP-AMC vs DBF (K = 2)
//!   gap | optgap                       heuristics vs exact branch-and-bound
//!   partition --file F [--cores N] [--scheme S] [--validate]
//!                                      partition a task-set file
//!   audit [--json]                     invariant audit over all schemes
//!   perf [--json] [--check]            probe-path throughput benchmark
//!                                      (records BENCH_partition.json, or
//!                                      with --check gates against it)
//!   profile                            phase-time breakdown + top counters
//!                                      for a default-point sweep
//!   trace                              flight-recorder replay: span tree on
//!                                      stdout, Chrome JSON via --json
//!   all                                everything above
//! ```
//!
//! `--cores M`, `--levels K`, and `--tasks N` (or `--tasks LO:HI`)
//! override the generator shape for `sweep` and the figure commands —
//! large-scale runs (128–1024 cores, `K` up to 8, task sets in the tens of
//! thousands) ride the same SoA batch probe kernel as the defaults, and
//! stdout stays byte-identical across `--threads` settings. The swept
//! parameter of a figure always wins over its own override (`fig4` ignores
//! `--cores`; `fig5` ignores `--levels`).
//!
//! `--jsonl PATH` streams every trial record to a checkpointed JSONL file;
//! a later identical invocation with `--resume` picks up where an
//! interrupted sweep stopped. With an aggregate command (`figs`, `all`) or
//! several commands, each sub-command writes `PATH-<cmd>.jsonl` siblings.
//!
//! `--telemetry PATH` enables span timing and, after the run, writes the
//! `mcs-obs` JSONL sidecar (provenance header, counters, phase timings,
//! per-worker stats) to PATH (`-` = stderr) plus a human summary to
//! stderr. Telemetry never writes to stdout: published tables are
//! byte-identical with or without it.
//!
//! `--trace PATH` enables the flight recorder and, after the run, writes
//! the merged event stream of the trace-aware commands (`sweep`, `admit`,
//! `simulate`, `audit`, `trace`) as Chrome trace-event / Perfetto JSON to
//! PATH. Like telemetry it never writes to stdout, the stream is
//! byte-identical at any `--threads` setting, and all published tables
//! stay byte-identical with or without it (`DESIGN.md#flight-recorder`).

#![forbid(unsafe_code)]

use std::env;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use mcs_exp::ablation::ablation_session;
use mcs_exp::audit_cmd;
use mcs_exp::describe;
use mcs_exp::elastic_exp::elastic_experiment_session;
use mcs_exp::extension::dual_comparison_session;
use mcs_exp::figures::{figure_session, Baselines, FigureId, FigureOptions};
use mcs_exp::globalcmp::global_comparison_session;
use mcs_exp::optgap::optimality_gap_session;
use mcs_exp::overhead::overhead_sweep_session;
use mcs_exp::partition_cmd;
use mcs_exp::report::{fmt3, render_csv, render_table, Table};
use mcs_exp::soundness::soundness_session;
use mcs_exp::sweep::{run_point_in, SweepConfig};
use mcs_exp::tables;
use mcs_gen::GenParams;
use mcs_gen::TraceParams;
use mcs_gen::WcetGrowth;
use mcs_harness::{RunSession, SchemeFlags, SchemeRegistry, PAPER_SET};
use mcs_obs::TraceLog;
use mcs_partition::AdmissionPolicy;

struct Options {
    commands: Vec<String>,
    /// `partition` subcommand inputs: file, cores, scheme, validate.
    partition_file: Option<String>,
    partition_cores: usize,
    partition_scheme: String,
    partition_validate: bool,
    config: SweepConfig,
    csv: bool,
    json: bool,
    chart: bool,
    horizon_periods: u32,
    baselines: Baselines,
    growth: WcetGrowth,
    random_k: bool,
    /// Generator-shape overrides for sweeps and figures (`--cores`,
    /// `--levels`, `--tasks`): core counts up to 1024, `K` up to 8, task
    /// sets into the tens of thousands.
    gen_cores: Option<usize>,
    gen_levels: Option<u8>,
    gen_tasks: Option<(usize, usize)>,
    /// Stream trial records to this JSONL checkpoint file.
    jsonl: Option<String>,
    /// Resume from an existing compatible checkpoint instead of truncating.
    resume: bool,
    /// Write the telemetry JSONL sidecar here after the run (`-` = stderr).
    telemetry: Option<String>,
    /// Write the merged flight-recorder stream (Chrome trace-event JSON)
    /// here after the run; also turns the tracing gate on.
    trace: Option<String>,
    /// `perf`: gate against the checked-in baseline instead of recording.
    check: bool,
    /// `simulate`: explicit horizon in ticks (overrides the derived one).
    sim_horizon: Option<u64>,
    /// `simulate`: number of seeds (trials) to run, overriding `--trials`.
    sim_seeds: Option<usize>,
}

impl Options {
    /// Whether more than one leaf command will run (each then gets its own
    /// derived checkpoint file so streams don't clobber each other).
    fn multi_command(&self) -> bool {
        self.commands.len() > 1
            || self.commands.iter().any(|c| matches!(c.as_str(), "figs" | "all"))
    }

    /// Build the run session for one leaf command. `params` is the
    /// command's parameter fingerprint, checked on `--resume`.
    fn session(&self, cmd: &str, params: &str) -> Result<RunSession, String> {
        let Some(base) = &self.jsonl else {
            return Ok(RunSession::new(self.config.clone()));
        };
        let path = if self.multi_command() { derive_jsonl_path(base, cmd) } else { base.clone() };
        RunSession::with_checkpoint(self.config.clone(), Path::new(&path), self.resume, cmd, params)
    }
}

impl Options {
    /// Apply the generator-shape overrides to one parameter set.
    fn apply_shape(&self, mut params: GenParams) -> GenParams {
        if let Some(m) = self.gen_cores {
            params = params.with_cores(m);
        }
        if let Some(k) = self.gen_levels {
            params = params.with_levels(k);
        }
        if let Some((lo, hi)) = self.gen_tasks {
            params = params.with_n_range(lo, hi);
        }
        params
    }

    /// Checkpoint-fingerprint suffix for the overrides — empty when none
    /// are set, so default invocations keep their historical fingerprints.
    fn shape_fingerprint(&self) -> String {
        let mut s = String::new();
        if let Some(m) = self.gen_cores {
            let _ = write!(s, " cores={m}");
        }
        if let Some(k) = self.gen_levels {
            let _ = write!(s, " levels={k}");
        }
        if let Some((lo, hi)) = self.gen_tasks {
            let _ = write!(s, " tasks={lo}:{hi}");
        }
        s
    }
}

/// `results/run.jsonl` + `fig2` → `results/run-fig2.jsonl`.
fn derive_jsonl_path(base: &str, cmd: &str) -> String {
    match base.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}-{cmd}.jsonl"),
        None => format!("{base}-{cmd}"),
    }
}

fn usage() -> &'static str {
    "usage: mcs-exp <fig1|fig2|fig3|fig4|fig5|figs|table1|table2|table3|table4|tables|sweep|admit|soundness|simulate|ablation|dualcmp|gap|optgap|overhead|elastic|globalcmp|partition|describe|audit|perf|profile|trace|all>\n       [--trials N] [--threads N] [--seed S] [--csv] [--json] [--horizon-periods H] [--weak-baselines] [--geometric] [--random-k] [--chart] [--jsonl PATH] [--resume] [--telemetry PATH] [--trace PATH]\n       [--cores M] [--levels K] [--tasks N|LO:HI]   generator-shape overrides for sweep/figures (M up to 1024, K up to 8, N into the tens of thousands)\n       [--horizon T] [--seeds N]                    simulate: explicit tick horizon / seed count\n       [--check]                                    perf: gate against BENCH_partition.json instead of recording"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        commands: Vec::new(),
        partition_file: None,
        partition_cores: 4,
        partition_scheme: "catpa".to_string(),
        partition_validate: false,
        config: SweepConfig::default(),
        csv: false,
        json: false,
        chart: false,
        horizon_periods: 8,
        baselines: Baselines::Strong,
        growth: WcetGrowth::default(),
        random_k: false,
        gen_cores: None,
        gen_levels: None,
        gen_tasks: None,
        jsonl: None,
        resume: false,
        telemetry: None,
        trace: None,
        check: false,
        sim_horizon: None,
        sim_seeds: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                let v = args.next().ok_or("--trials needs a value")?;
                opts.config.trials = v.parse().map_err(|_| format!("bad --trials: {v}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.config.threads = v.parse().map_err(|_| format!("bad --threads: {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.config.seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
            }
            "--horizon-periods" => {
                let v = args.next().ok_or("--horizon-periods needs a value")?;
                opts.horizon_periods =
                    v.parse().map_err(|_| format!("bad --horizon-periods: {v}"))?;
            }
            "--horizon" => {
                let v = args.next().ok_or("--horizon needs a tick count")?;
                let h: u64 = v.parse().map_err(|_| format!("bad --horizon: {v}"))?;
                if h == 0 {
                    return Err("--horizon must be >= 1".into());
                }
                opts.sim_horizon = Some(h);
            }
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --seeds: {v}"))?;
                if n == 0 {
                    return Err("--seeds must be >= 1".into());
                }
                opts.sim_seeds = Some(n);
            }
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--chart" => opts.chart = true,
            "--weak-baselines" => opts.baselines = Baselines::Weak,
            "--geometric" => opts.growth = WcetGrowth::Geometric,
            "--random-k" => opts.random_k = true,
            "--jsonl" => opts.jsonl = Some(args.next().ok_or("--jsonl needs a path")?),
            "--resume" => opts.resume = true,
            "--telemetry" => {
                opts.telemetry = Some(args.next().ok_or("--telemetry needs a path (or -)")?);
            }
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs a path")?),
            "--check" => opts.check = true,
            "--file" => opts.partition_file = Some(args.next().ok_or("--file needs a path")?),
            "--cores" => {
                let v = args.next().ok_or("--cores needs a value")?;
                let m: usize = v.parse().map_err(|_| format!("bad --cores: {v}"))?;
                if m == 0 {
                    return Err("--cores must be >= 1".into());
                }
                opts.partition_cores = m;
                opts.gen_cores = Some(m);
            }
            "--levels" => {
                let v = args.next().ok_or("--levels needs a value")?;
                let k: u8 = v.parse().map_err(|_| format!("bad --levels: {v}"))?;
                if !(1..=8).contains(&k) {
                    return Err("--levels must be in 1..=8".into());
                }
                opts.gen_levels = Some(k);
            }
            "--tasks" => {
                let v = args.next().ok_or("--tasks needs N or LO:HI")?;
                let (lo, hi) = match v.split_once(':') {
                    Some((a, b)) => (
                        a.parse().map_err(|_| format!("bad --tasks: {v}"))?,
                        b.parse().map_err(|_| format!("bad --tasks: {v}"))?,
                    ),
                    None => {
                        let n: usize = v.parse().map_err(|_| format!("bad --tasks: {v}"))?;
                        (n, n)
                    }
                };
                if lo == 0 || lo > hi {
                    return Err("--tasks must satisfy 1 <= LO <= HI".into());
                }
                opts.gen_tasks = Some((lo, hi));
            }
            "--scheme" => {
                opts.partition_scheme = args.next().ok_or("--scheme needs a name")?;
            }
            "--validate" => opts.partition_validate = true,
            "--help" | "-h" => return Err(usage().to_string()),
            cmd if !cmd.starts_with('-') => opts.commands.push(cmd.to_string()),
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    if opts.commands.is_empty() {
        return Err(usage().to_string());
    }
    if opts.resume && opts.jsonl.is_none() {
        return Err(format!("--resume requires --jsonl PATH\n{}", usage()));
    }
    Ok(opts)
}

fn print_table(title: &str, table: &Table, csv: bool) {
    if csv {
        print!("# {title}\n{}", render_csv(table));
    } else {
        println!("== {title} ==");
        println!("{}", render_table(table));
    }
}

fn run_figure(id: FigureId, opts: &Options) -> Result<(), String> {
    eprintln!(
        "[mcs-exp] figure {}: {} trials/point, {} threads",
        id.number(),
        opts.config.trials,
        opts.config.effective_threads()
    );
    let options = FigureOptions {
        baselines: opts.baselines,
        growth: opts.growth,
        random_k: opts.random_k,
        cores: opts.gen_cores,
        levels: opts.gen_levels,
        n_range: opts.gen_tasks,
    };
    let params = format!(
        "baselines={:?} growth={:?} random_k={}{}",
        opts.baselines,
        opts.growth,
        opts.random_k,
        opts.shape_fingerprint()
    );
    let mut session = opts.session(&format!("fig{}", id.number()), &params)?;
    let result = figure_session(id, &mut session, options);
    if opts.chart {
        for chart in result.chart_panels() {
            println!("{chart}");
        }
    } else {
        for (title, table) in result.panels() {
            print_table(&title, &table, opts.csv);
        }
    }
    Ok(())
}

/// The `sweep` command: the paper's scheme line-up at the default
/// generator point — the smallest full pass through the harness (used by
/// the CI resume/determinism smoke tests).
fn run_sweep(opts: &Options, trace_acc: &mut TraceLog) -> Result<(), String> {
    eprintln!(
        "[mcs-exp] sweep: {} trials at the default point, {} threads",
        opts.config.trials,
        opts.config.effective_threads()
    );
    let params = opts.apply_shape(GenParams::default().with_growth(opts.growth));
    params.validate()?;
    let schemes = SchemeRegistry::standard().build_set(&PAPER_SET, &SchemeFlags::default());
    let mut session =
        opts.session("sweep", &format!("growth={:?}{}", opts.growth, opts.shape_fingerprint()))?;
    let points = run_point_in(&mut session, "default", &params, &schemes);
    trace_acc.absorb(session.take_trace());
    let mut t = Table::new(["scheme", "schedulable", "ratio", "U_sys", "U_avg", "imbalance"]);
    for p in &points {
        t.push_row([
            p.scheme.to_string(),
            format!("{}/{}", p.schedulable, p.trials),
            fmt3(p.ratio()),
            fmt3(p.u_sys),
            fmt3(p.u_avg),
            fmt3(p.imbalance),
        ]);
    }
    print_table("Sweep — paper line-up at the default generator point", &t, opts.csv);
    Ok(())
}

/// The `admit` command: the online admission-control service — each trial
/// replays one deterministic arrival/departure trace through a per-shard
/// `AdmissionEngine` per policy, then checks the live state against a
/// from-scratch rebuild of the survivors (bit-exact gate).
fn run_admit(opts: &Options, trace_acc: &mut TraceLog) -> Result<(), String> {
    let trace = TraceParams::default();
    eprintln!(
        "[mcs-exp] admit: {} traces x {} lifecycle ops, {} threads",
        opts.config.trials,
        trace.ops,
        opts.config.effective_threads()
    );
    let params = opts.apply_shape(GenParams::default().with_growth(opts.growth));
    params.validate()?;
    let policies = AdmissionPolicy::all();
    let mut session =
        opts.session("admit", &format!("growth={:?}{}", opts.growth, opts.shape_fingerprint()))?;
    let points = mcs_exp::admit::run_point_in(&mut session, "default", &params, &trace, &policies);
    trace_acc.absorb(session.take_trace());
    let mut t = Table::new([
        "policy", "admitted", "rejected", "accept", "departed", "repairs", "resident", "state",
    ]);
    for p in &points {
        t.push_row([
            p.policy.to_string(),
            p.admits.to_string(),
            p.rejects.to_string(),
            fmt3(p.accept_ratio()),
            p.departs.to_string(),
            p.repair_moves.to_string(),
            fmt3(p.mean_resident()),
            (if p.state_identical { "exact" } else { "DRIFT" }).to_string(),
        ]);
    }
    print_table("Admit — online admission streams (per-shard engines)", &t, opts.csv);
    let all_exact = points.iter().all(|p| p.state_identical);
    println!("admission state identical: {all_exact}");
    if !all_exact {
        return Err("admission engine state drifted from the from-scratch rebuild".into());
    }
    Ok(())
}

fn run_command(cmd: &str, opts: &Options, trace_acc: &mut TraceLog) -> Result<(), String> {
    match cmd {
        "fig1" | "fig2" | "fig3" | "fig4" | "fig5" => {
            let id = FigureId::parse(cmd).expect("validated");
            run_figure(id, opts)?;
        }
        "figs" => {
            for f in ["fig1", "fig2", "fig3", "fig4", "fig5"] {
                run_command(f, opts, trace_acc)?;
            }
        }
        "table1" => print_table(
            "Table I — example task parameters and utilization contributions",
            &tables::table1(),
            opts.csv,
        ),
        "table2" => {
            let (t, ok) = tables::table2();
            print_table("Table II — task allocations under FFD", &t, opts.csv);
            println!("FFD result: {}\n", if ok { "feasible" } else { "FAILURE (as in the paper)" });
        }
        "table3" => {
            let (t, ok) = tables::table3();
            print_table("Table III — task allocations under CA-TPA", &t, opts.csv);
            println!(
                "CA-TPA result: {}\n",
                if ok { "feasible (as in the paper)" } else { "FAILURE" }
            );
        }
        "table4" => print_table("Table IV — system parameters", &tables::table4(), opts.csv),
        "tables" => {
            for t in ["table1", "table2", "table3", "table4"] {
                run_command(t, opts, trace_acc)?;
            }
        }
        "sweep" => run_sweep(opts, trace_acc)?,
        "admit" => run_admit(opts, trace_acc)?,
        "soundness" => {
            eprintln!(
                "[mcs-exp] soundness: {} trials, horizon {} periods",
                opts.config.trials, opts.horizon_periods
            );
            let params = format!("growth={:?} horizon={}", opts.growth, opts.horizon_periods);
            let mut session = opts.session("soundness", &params)?;
            let r = soundness_session(
                &GenParams::default().with_growth(opts.growth),
                &mut session,
                opts.horizon_periods,
            );
            print_table(
                "Soundness — mandatory misses under worst-case behaviours",
                &r.table(),
                opts.csv,
            );
            println!(
                "partitioned {}/{} sets; {} mode switches observed; sound: {}",
                r.partitioned,
                r.trials,
                r.mode_switches,
                r.sound()
            );
            if !r.sound() {
                return Err("soundness violation detected".into());
            }
        }
        "simulate" => {
            let mut config = opts.config.clone();
            if let Some(n) = opts.sim_seeds {
                config.trials = n;
            }
            eprintln!(
                "[mcs-exp] simulate: {} seeds, horizon {}, {} threads",
                config.trials,
                match opts.sim_horizon {
                    Some(h) => format!("{h} ticks"),
                    None => format!("{} periods", opts.horizon_periods),
                },
                config.effective_threads()
            );
            let params = opts.apply_shape(GenParams::default().with_growth(opts.growth));
            params.validate()?;
            let fingerprint = format!(
                "growth={:?} horizon={:?} periods={} seeds={}{}",
                opts.growth,
                opts.sim_horizon,
                opts.horizon_periods,
                config.trials,
                opts.shape_fingerprint()
            );
            let mut session = if let Some(base) = &opts.jsonl {
                let path = if opts.multi_command() {
                    derive_jsonl_path(base, "simulate")
                } else {
                    base.clone()
                };
                RunSession::with_checkpoint(
                    config,
                    Path::new(&path),
                    opts.resume,
                    "simulate",
                    &fingerprint,
                )?
            } else {
                RunSession::new(config)
            };
            let r = mcs_exp::simulate::simulate_session(
                &params,
                &mut session,
                opts.sim_horizon,
                opts.horizon_periods,
            );
            trace_acc.absorb(session.take_trace());
            print_table(
                "Simulate — weakly-hard runtime behaviour (event engine, tick-checked)",
                &r.table(),
                opts.csv,
            );
            println!(
                "partitioned {}/{} sets; tick-vs-event traces identical: {}",
                r.partitioned, r.trials, r.identical
            );
            if !r.identical {
                return Err("event engine diverged from the tick oracle".into());
            }
        }
        "ablation" => {
            eprintln!("[mcs-exp] ablation: {} trials/point", opts.config.trials);
            let mut session = opts.session("ablation", &format!("growth={:?}", opts.growth))?;
            let r = ablation_session(&mut session, opts.growth);
            print_table("Ablation — CA-TPA variant schedulability ratio", &r.table(), opts.csv);
        }
        "gap" | "optgap" => {
            eprintln!("[mcs-exp] optimality gap: {} small instances", opts.config.trials);
            let mut session = opts.session("optgap", "default")?;
            let r = optimality_gap_session(&mut session);
            print_table(
                "Optimality gap — heuristic acceptance vs exact branch-and-bound",
                &r.table(),
                opts.csv,
            );
            println!(
                "{} of {} instances feasible (exact); coverage = accepted/feasible",
                r.feasible, r.trials
            );
        }
        "globalcmp" => {
            eprintln!(
                "[mcs-exp] partitioned vs global: {} trials/point, horizon {} periods",
                opts.config.trials, opts.horizon_periods
            );
            let mut session =
                opts.session("globalcmp", &format!("horizon={}", opts.horizon_periods))?;
            let r = global_comparison_session(&mut session, opts.horizon_periods);
            print_table(
                "Partitioned (CA-TPA, analytical) vs global EDF+AMC (empirical)",
                &r.table(),
                opts.csv,
            );
        }
        "elastic" => {
            eprintln!(
                "[mcs-exp] elastic degradation: {} trials, horizon {} periods",
                opts.config.trials, opts.horizon_periods
            );
            let mut session =
                opts.session("elastic", &format!("horizon={}", opts.horizon_periods))?;
            let r = elastic_experiment_session(&mut session, opts.horizon_periods);
            print_table(
                "Elastic degradation — LO service retained vs AMC dropping",
                &r.table(),
                opts.csv,
            );
            println!(
                "{} partitions, {} elastic kills, guarantee violations: {}",
                r.runs, r.elastic_killed, r.violations
            );
            if r.violations > 0 {
                return Err("elastic policy broke the mandatory guarantee".into());
            }
        }
        "overhead" => {
            eprintln!(
                "[mcs-exp] overhead sensitivity: {} trials, horizon {} periods",
                opts.config.trials, opts.horizon_periods
            );
            let mut session =
                opts.session("overhead", &format!("horizon={}", opts.horizon_periods))?;
            let r = overhead_sweep_session(&mut session, opts.horizon_periods);
            print_table(
                "Overhead sensitivity — guarantee violations vs kernel cost",
                &r.table(),
                opts.csv,
            );
        }
        "describe" => {
            let path =
                opts.partition_file.as_ref().ok_or("describe requires --file <task-set.csv>")?;
            let input =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            println!("{}", describe::run(&input)?);
        }
        "partition" => {
            let path =
                opts.partition_file.as_ref().ok_or("partition requires --file <task-set.csv>")?;
            let input =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let report = partition_cmd::run(
                &input,
                opts.partition_cores,
                &opts.partition_scheme,
                opts.partition_validate,
            )?;
            println!("{report}");
        }
        "audit" => {
            eprintln!(
                "[mcs-exp] audit: {} task sets x all schemes, all invariant rules, {} threads",
                opts.config.trials,
                opts.config.effective_threads()
            );
            // The trace-consistency cross-check needs both sides observed
            // over the same window: force the recorder on for the sweep
            // (restored afterwards) whenever telemetry is compiled in.
            let was_tracing = mcs_obs::tracing_enabled();
            let cross_check = mcs_obs::compiled();
            if cross_check {
                mcs_obs::set_tracing(true);
            }
            let before = mcs_obs::Snapshot::capture();
            let mut session = opts.session("audit", "default")?;
            let outcome = audit_cmd::run_session(&mut session);
            // All workers have joined: the counter delta over the sweep is
            // quiescent, so the telemetry-consistency algebra applies.
            let delta = mcs_obs::Snapshot::capture().delta_since(&before);
            let trace_log = session.take_trace();
            mcs_obs::set_tracing(was_tracing);
            println!("{}", audit_cmd::render(&outcome, opts.json).trim_end());
            if outcome.errors() > 0 {
                return Err(format!("audit found {} invariant violation(s)", outcome.errors()));
            }
            let expected = mcs_obs::compiled().then(|| opts.config.trials as u64);
            let findings = mcs_exp::telemetry::quiescent_check(&delta, expected);
            if findings.is_empty() {
                eprintln!(
                    "[mcs-exp] telemetry-consistency: counter algebra holds over the audit sweep"
                );
            } else {
                for d in &findings {
                    eprintln!("[mcs-exp] telemetry-consistency: {}", d.message);
                }
                return Err(format!("telemetry-consistency found {} violation(s)", findings.len()));
            }
            if cross_check {
                let findings = mcs_exp::telemetry::quiescent_trace_check(&trace_log, &delta);
                if findings.is_empty() {
                    eprintln!(
                        "[mcs-exp] trace-consistency: event stream matches the counters \
                         ({} events)",
                        trace_log.events.len()
                    );
                } else {
                    for d in &findings {
                        eprintln!("[mcs-exp] trace-consistency: {}", d.message);
                    }
                    return Err(format!("trace-consistency found {} violation(s)", findings.len()));
                }
            }
            trace_acc.absorb(trace_log);
        }
        "perf" => {
            eprintln!(
                "[mcs-exp] perf: {} task sets (timed batch capped at 256), {} threads{}",
                opts.config.trials,
                opts.config.effective_threads(),
                if opts.check { ", checking against BENCH_partition.json" } else { "" }
            );
            let r = mcs_exp::perf::run(&opts.config);
            let json = r.to_json();
            if opts.json {
                print!("{json}");
            } else {
                print_table(
                    "Perf — probe-path throughput (reference vs engine)",
                    &r.table(),
                    opts.csv,
                );
                println!(
                    "partitions identical: {}; sweep: {:.0} trials/s ({} trials, {} threads)",
                    r.identical, r.sweep_trials_per_sec, r.sweep_trials, r.sweep_threads
                );
            }
            if opts.check {
                // Gate mode: never overwrites the recorded baseline.
                let baseline = std::fs::read_to_string("BENCH_partition.json")
                    .map_err(|e| format!("cannot read BENCH_partition.json: {e}"))?;
                let outcome = mcs_exp::perf::check_against_baseline(&baseline, &r)?;
                for f in &outcome.failures {
                    eprintln!("[mcs-exp] perf regression: {f}");
                }
                if !outcome.failures.is_empty() {
                    return Err(format!(
                        "perf check failed: {} regression(s) vs BENCH_partition.json",
                        outcome.failures.len()
                    ));
                }
                eprintln!(
                    "[mcs-exp] perf check passed: {} baseline gates hold \
                     (throughput tolerance {:.0}%)",
                    outcome.compared,
                    100.0 * (1.0 - mcs_exp::perf::CHECK_TOLERANCE)
                );
            } else {
                std::fs::write("BENCH_partition.json", &json)
                    .map_err(|e| format!("cannot write BENCH_partition.json: {e}"))?;
                let line = mcs_exp::perf::history_line(&r);
                let mut history = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open("BENCH_history.jsonl")
                    .map_err(|e| format!("cannot open BENCH_history.jsonl: {e}"))?;
                use std::io::Write as _;
                writeln!(history, "{line}")
                    .map_err(|e| format!("cannot append BENCH_history.jsonl: {e}"))?;
                eprintln!(
                    "[mcs-exp] wrote BENCH_partition.json (probe path {:.2}x, schemes {:.2}x) \
                     and appended BENCH_history.jsonl",
                    r.probe.speedup(),
                    r.speedup()
                );
            }
            if !r.identical {
                return Err("reference and engine paths disagreed on some partition".into());
            }
            if !r.probe.batch_matches_scalar {
                return Err("batch kernel and scalar probe verdicts disagreed".into());
            }
            if !r.admission.state_identical {
                return Err("admission engine state drifted from the from-scratch rebuild".into());
            }
            if !r.sim.trace_identical {
                return Err("event-engine simulator trace diverged from the tick oracle".into());
            }
            if mcs_obs::compiled() && r.recorder.overhead_pct() >= 2.0 {
                return Err(format!(
                    "flight-recorder overhead {:.2}% on the admission hot path breaches \
                     the 2% budget",
                    r.recorder.overhead_pct()
                ));
            }
        }
        "profile" => {
            mcs_obs::set_timing(true);
            eprintln!(
                "[mcs-exp] profile: {} trials at the default point, {} threads, span timing on",
                opts.config.trials,
                opts.config.effective_threads()
            );
            let before = mcs_obs::Snapshot::capture();
            let params = GenParams::default().with_growth(opts.growth);
            let schemes = SchemeRegistry::standard().build_set(&PAPER_SET, &SchemeFlags::default());
            let mut session = opts.session("profile", &format!("growth={:?}", opts.growth))?;
            let _points = run_point_in(&mut session, "default", &params, &schemes);
            let snap = mcs_obs::Snapshot::capture().delta_since(&before);
            print_table(
                "Profile — phase timing (default-point sweep)",
                &mcs_exp::telemetry::phase_table(&snap),
                opts.csv,
            );
            print_table(
                "Profile — top counters",
                &mcs_exp::telemetry::counter_table(&snap, 15),
                opts.csv,
            );
            // Without --telemetry the sidecar goes to stderr; with it, the
            // end-of-run writer in main() emits the file.
            if opts.telemetry.is_none() {
                let prov = mcs_exp::telemetry::provenance(
                    "profile",
                    &opts.config,
                    &format!("growth={:?}", opts.growth),
                );
                mcs_exp::telemetry::write_sidecar("-", &prov, &snap)?;
            }
        }
        "trace" => {
            eprintln!(
                "[mcs-exp] trace: {} replay trials (admission + top-level sim), {} threads",
                opts.config.trials,
                opts.config.effective_threads()
            );
            if !mcs_obs::compiled() {
                eprintln!(
                    "[mcs-exp] warning: built with the telemetry-off feature — \
                     the stream will be empty"
                );
            }
            let params = opts.apply_shape(GenParams::default().with_growth(opts.growth));
            params.validate()?;
            let fingerprint = format!(
                "growth={:?} horizon={:?} periods={}{}",
                opts.growth,
                opts.sim_horizon,
                opts.horizon_periods,
                opts.shape_fingerprint()
            );
            let mut session = opts.session("trace", &fingerprint)?;
            let was_tracing = mcs_obs::tracing_enabled();
            mcs_obs::set_tracing(true);
            let r = mcs_exp::trace_cmd::run_session(
                &mut session,
                &params,
                opts.sim_horizon,
                opts.horizon_periods,
            );
            mcs_obs::set_tracing(was_tracing);
            if opts.json {
                print!("{}", r.log.to_chrome_json());
            } else {
                print!("{}", r.log.span_tree());
                println!(
                    "trace: {} trials ({} partitioned+simulated), {} admits, {} rejects; \
                     {} events ({} dropped)",
                    r.trials,
                    r.partitioned,
                    r.admits,
                    r.rejects,
                    r.log.events.len(),
                    r.log.dropped
                );
            }
            trace_acc.absorb(r.log);
        }
        "dualcmp" => {
            eprintln!(
                "[mcs-exp] dual-criticality family comparison: {} trials/point",
                opts.config.trials
            );
            let mut session = opts.session("dualcmp", "default")?;
            let r = dual_comparison_session(&mut session);
            print_table(
                "Extension — EDF-VD vs FP-AMC vs DBF partitioning (K = 2)",
                &r.table(),
                opts.csv,
            );
        }
        "all" => {
            for c in [
                "tables",
                "figs",
                "sweep",
                "soundness",
                "ablation",
                "dualcmp",
                "gap",
                "overhead",
                "elastic",
                "globalcmp",
                "audit",
            ] {
                run_command(c, opts, trace_acc)?;
            }
        }
        other => return Err(format!("unknown command: {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.telemetry.is_some() {
        mcs_obs::set_timing(true);
    }
    if opts.trace.is_some() {
        if !mcs_obs::compiled() {
            eprintln!(
                "[mcs-exp] warning: built with the telemetry-off feature — \
                 --trace will record nothing"
            );
        }
        mcs_obs::set_tracing(true);
    }
    let mut trace_acc = TraceLog::default();
    for cmd in opts.commands.clone() {
        if let Err(e) = run_command(&cmd, &opts, &mut trace_acc) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.trace {
        if let Err(e) = std::fs::write(path, trace_acc.to_chrome_json()) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[mcs-exp] wrote Chrome trace-event JSON to {path} ({} events, {} dropped)",
            trace_acc.events.len(),
            trace_acc.dropped
        );
    }
    if let Some(path) = &opts.telemetry {
        let snap = mcs_obs::Snapshot::capture();
        let prov = mcs_exp::telemetry::provenance(
            &opts.commands.join("+"),
            &opts.config,
            &format!("growth={:?} horizon={}", opts.growth, opts.horizon_periods),
        );
        if let Err(e) = mcs_exp::telemetry::write_sidecar(path, &prov, &snap) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
