//! The `simulate` experiment: runtime behaviour of accepted partitions,
//! with the tick-vs-event differential checked at every release-index
//! question.
//!
//! For each trial we generate a task set, partition it with CA-TPA, and —
//! when a feasible partition exists — execute it under the worst-case
//! behaviour of every level `b = 1..=K`, once per core, with both release
//! indexes answering every question ([`simulate_partition_checked`]): the
//! scan oracle's answers drive the run and the per-level heaps must give
//! the same ones. The run depends only on those answers, so agreement
//! means a [`mcs_sim::SimEngine::Tick`] and a [`mcs_sim::SimEngine::Event`]
//! run would produce bit-identical reports and event traces
//! (`DESIGN.md#tick-oracle-differential-contract`); the command fails hard
//! otherwise. From the traces we derive the weakly-hard runtime metrics
//! the schedulability tables cannot show:
//!
//! * **worst observed (m,k) window** — the largest number of deadline
//!   misses any task suffered inside a sliding window of
//!   [`WINDOW_K`] consecutive jobs ([`WeaklyHardAnalysis`]);
//! * **LO-task drop outages** — spans from a LO→HI mode switch to the
//!   idle reset that re-admits dropped tasks (count, mean and max
//!   duration in ticks);
//! * **mode-switch frequency** — switches per 1000 simulated ticks.
//!
//! Stdout is byte-identical across `--threads` settings (the harness
//! orders records by trial index), and `--jsonl`/`--resume` stream
//! per-trial records through the usual checkpoint layer.

use mcs_gen::{generate_task_set, GenParams};
use mcs_harness::{JsonValue, RunSession, TrialRecord};
use mcs_model::Tick;
use mcs_partition::{Catpa, Partitioner};
use mcs_sim::{
    simulate_partition_checked, LevelCap, SimConfig, SystemScheduler, WeaklyHardAnalysis,
};

use crate::report::{fmt3, Table};

/// Window length `k` of the weakly-hard (m,k) analysis: the per-task
/// metric is the worst number of misses observed in any `k` consecutive
/// jobs (see `WeaklyHardAnalysis::from_trace` for the exact formula).
pub const WINDOW_K: u32 = 10;

/// Trace capacity per core. Generous so short-horizon runs never truncate;
/// the differential gate compares index answers, not traces, so it is
/// unaffected by the cap.
const TRACE_CAP: usize = 200_000;

/// What one behaviour level observed in one trial (summed over cores).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LevelObs {
    /// Jobs released / deadlines missed (weakly-hard denominator).
    jobs: u64,
    misses: u64,
    /// Worst (m, [`WINDOW_K`]) window over all tasks and cores.
    worst_m: u32,
    /// Drop-outage count / total duration / longest duration (ticks).
    outages: u64,
    outage_total: u64,
    outage_max: u64,
    /// Mode switches over all cores.
    mode_switches: u64,
}

/// Per-trial record: `None` when CA-TPA rejected the set; otherwise one
/// [`LevelObs`] per behaviour level plus the trial's horizon and whether
/// both release indexes agreed at every question.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SimulateTrial {
    levels: Option<Vec<LevelObs>>,
    identical: bool,
    horizon: Tick,
}

impl TrialRecord for SimulateTrial {
    fn to_json(&self) -> String {
        let Some(levels) = &self.levels else {
            return "\"ok\":false".to_string();
        };
        let items: Vec<String> = levels
            .iter()
            .map(|l| {
                format!(
                    "{{\"j\":{},\"mi\":{},\"wm\":{},\"o\":{},\"ot\":{},\"om\":{},\"ms\":{}}}",
                    l.jobs,
                    l.misses,
                    l.worst_m,
                    l.outages,
                    l.outage_total,
                    l.outage_max,
                    l.mode_switches
                )
            })
            .collect();
        format!(
            "\"ok\":true,\"ident\":{},\"h\":{},\"lv\":[{}]",
            self.identical,
            self.horizon,
            items.join(",")
        )
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        if !v.get("ok")?.as_bool()? {
            return Some(Self { levels: None, identical: true, horizon: 0 });
        }
        let levels = v
            .get("lv")?
            .as_arr()?
            .iter()
            .map(|l| {
                Some(LevelObs {
                    jobs: l.get("j")?.as_u64()?,
                    misses: l.get("mi")?.as_u64()?,
                    worst_m: u32::try_from(l.get("wm")?.as_u64()?).ok()?,
                    outages: l.get("o")?.as_u64()?,
                    outage_total: l.get("ot")?.as_u64()?,
                    outage_max: l.get("om")?.as_u64()?,
                    mode_switches: l.get("ms")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            levels: Some(levels),
            identical: v.get("ident")?.as_bool()?,
            horizon: v.get("h")?.as_u64()?,
        })
    }
}

/// Aggregated outcome of the `simulate` experiment.
#[derive(Clone, Debug, Default)]
pub struct SimulateResult {
    /// Trials attempted / trials with a feasible CA-TPA partition.
    pub trials: usize,
    /// Trials that produced a partition (only those are simulated).
    pub partitioned: usize,
    /// Whether both release indexes agreed at *every* question, so that
    /// the tick and event engines would give bit-identical traces.
    pub identical: bool,
    /// Cores per system (for the switches/kilotick normalisation).
    pub cores: usize,
    /// Per behaviour level `b = 1..=K`, summed over trials.
    pub per_level: Vec<LevelAggregate>,
}

/// Per-level aggregate across all partitioned trials.
#[derive(Clone, Debug, Default)]
pub struct LevelAggregate {
    /// Simulated systems at this behaviour level.
    pub runs: usize,
    /// Released jobs / missed deadlines over all runs.
    pub jobs: u64,
    /// Missed deadlines over all runs.
    pub misses: u64,
    /// Worst (m, [`WINDOW_K`]) window over all runs.
    pub worst_m: u32,
    /// Drop-outage count over all runs.
    pub outages: u64,
    /// Total / longest drop-outage duration (ticks).
    pub outage_total: u64,
    /// Longest single drop outage (ticks).
    pub outage_max: u64,
    /// Mode switches over all runs.
    pub mode_switches: u64,
    /// Total per-core simulated ticks (horizon × cores, summed).
    pub core_ticks: u128,
}

impl LevelAggregate {
    /// Deadline-miss ratio (misses / released jobs).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.misses as f64 / self.jobs as f64
            }
        }
    }

    /// Mean drop-outage duration in ticks (0 when none occurred).
    #[must_use]
    pub fn outage_mean(&self) -> f64 {
        if self.outages == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.outage_total as f64 / self.outages as f64
            }
        }
    }

    /// Mode switches per 1000 simulated core-ticks.
    #[must_use]
    pub fn switches_per_kilotick(&self) -> f64 {
        if self.core_ticks == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.mode_switches as f64 * 1000.0 / self.core_ticks as f64
            }
        }
    }
}

impl SimulateResult {
    /// Render the per-level weakly-hard table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "behaviour b",
            "runs",
            "worst (m,k)",
            "miss ratio",
            "outages",
            "mean outage",
            "max outage",
            "switches/kt",
        ]);
        for (i, l) in self.per_level.iter().enumerate() {
            t.push_row([
                (i + 1).to_string(),
                l.runs.to_string(),
                format!("{}/{WINDOW_K}", l.worst_m),
                fmt3(l.miss_ratio()),
                l.outages.to_string(),
                fmt3(l.outage_mean()),
                l.outage_max.to_string(),
                fmt3(l.switches_per_kilotick()),
            ]);
        }
        t
    }
}

/// The horizon a trial simulates: the explicit override when given, else
/// `min(hyperperiod, horizon_periods × max period)` over the *whole* task
/// set (one global horizon keeps the switches/kilotick normalisation and
/// the checkpoint records engine-independent).
pub(crate) fn trial_horizon(
    ts: &mcs_model::TaskSet,
    horizon: Option<Tick>,
    horizon_periods: u32,
) -> Tick {
    if let Some(h) = horizon {
        return h;
    }
    let hyper = mcs_model::hyperperiod(ts.tasks().iter().map(mcs_model::McTask::period));
    let max_p = ts.tasks().iter().map(mcs_model::McTask::period).max().unwrap_or(0);
    hyper.min(max_p.saturating_mul(Tick::from(horizon_periods))).max(1)
}

/// Run the `simulate` experiment on an existing session.
///
/// `horizon` overrides the derived per-trial horizon; `horizon_periods`
/// bounds the derived one.
#[must_use]
pub fn simulate_session(
    params: &GenParams,
    session: &mut RunSession,
    horizon: Option<Tick>,
    horizon_periods: u32,
) -> SimulateResult {
    let records = session.point("simulate").run(Catpa::default, |catpa, trial| {
        let ts = generate_task_set(params, trial.seed);
        let Ok(partition) = catpa.partition(&ts, params.cores) else {
            return SimulateTrial { levels: None, identical: true, horizon: 0 };
        };
        let h = trial_horizon(&ts, horizon, horizon_periods);
        let config = SimConfig { horizon: Some(h), horizon_periods, trace_cap: TRACE_CAP };
        let mut identical = true;
        let levels = (1..=params.levels)
            .map(|b| {
                let (report, traces, agreed) = simulate_partition_checked(
                    &ts,
                    &partition,
                    SystemScheduler::EdfVd,
                    &config,
                    |_| LevelCap::new(b),
                )
                .expect("CA-TPA partitions are feasible on every core");
                identical &= agreed;

                let mut obs =
                    LevelObs { mode_switches: report.total().mode_switches, ..LevelObs::default() };
                for trace in &traces {
                    let wh = WeaklyHardAnalysis::from_trace(trace, WINDOW_K, h);
                    for stats in wh.per_task.values() {
                        obs.jobs += stats.jobs;
                        obs.misses += stats.misses;
                        obs.worst_m = obs.worst_m.max(stats.worst_m);
                    }
                    obs.outages += wh.outages;
                    obs.outage_total += wh.outage_total;
                    obs.outage_max = obs.outage_max.max(wh.outage_max);
                }
                obs
            })
            .collect();
        SimulateTrial { levels: Some(levels), identical, horizon: h }
    });

    let mut result = SimulateResult {
        trials: records.len(),
        identical: true,
        cores: params.cores,
        per_level: vec![LevelAggregate::default(); usize::from(params.levels)],
        ..Default::default()
    };
    for rec in &records {
        result.identical &= rec.identical;
        let Some(levels) = &rec.levels else { continue };
        result.partitioned += 1;
        assert_eq!(levels.len(), result.per_level.len(), "checkpoint shape mismatch");
        for (agg, obs) in result.per_level.iter_mut().zip(levels) {
            agg.runs += 1;
            agg.jobs += obs.jobs;
            agg.misses += obs.misses;
            agg.worst_m = agg.worst_m.max(obs.worst_m);
            agg.outages += obs.outages;
            agg.outage_total += obs.outage_total;
            agg.outage_max = agg.outage_max.max(obs.outage_max);
            agg.mode_switches += obs.mode_switches;
            agg.core_ticks += u128::from(rec.horizon) * params.cores as u128;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepConfig;

    fn run(config: &SweepConfig, horizon: Option<Tick>) -> SimulateResult {
        let params = GenParams::default().with_n_range(8, 16).with_cores(4);
        simulate_session(&params, &mut RunSession::new(config.clone()), horizon, 4)
    }

    #[test]
    fn engines_agree_and_metrics_populate() {
        let config = SweepConfig { trials: 6, threads: 1, seed: 7 };
        let r = run(&config, None);
        assert!(r.partitioned > 0, "no partitions formed — test is vacuous");
        assert!(r.identical, "tick and event engines diverged");
        assert_eq!(r.per_level.len(), usize::from(GenParams::default().levels));
        // Level-1 (nominal) behaviour: accepted partitions miss nothing.
        assert_eq!(r.per_level[0].misses, 0);
        assert_eq!(r.per_level[0].worst_m, 0);
        // Worst-case behaviours above level 1 must switch modes.
        assert!(r.per_level[1..].iter().any(|l| l.mode_switches > 0));
        assert!(r.per_level.iter().all(|l| l.jobs > 0));
    }

    #[test]
    fn stdout_is_thread_invariant() {
        let horizon = Some(400);
        let a = {
            let config = SweepConfig { trials: 5, threads: 1, seed: 11 };
            run(&config, horizon).table()
        };
        let b = {
            let config = SweepConfig { trials: 5, threads: 4, seed: 11 };
            run(&config, horizon).table()
        };
        assert_eq!(crate::report::render_table(&a), crate::report::render_table(&b));
    }

    #[test]
    fn records_roundtrip_through_json() {
        let trial = SimulateTrial {
            levels: Some(vec![
                LevelObs {
                    jobs: 10,
                    misses: 2,
                    worst_m: 1,
                    outages: 1,
                    outage_total: 30,
                    outage_max: 30,
                    mode_switches: 3,
                },
                LevelObs::default(),
            ]),
            identical: true,
            horizon: 400,
        };
        let json = format!("{{{}}}", trial.to_json());
        let v = mcs_harness::json::parse(&json).unwrap();
        assert_eq!(SimulateTrial::from_json(&v).unwrap(), trial);

        let rejected = SimulateTrial { levels: None, identical: true, horizon: 0 };
        let json = format!("{{{}}}", rejected.to_json());
        let v = mcs_harness::json::parse(&json).unwrap();
        assert_eq!(SimulateTrial::from_json(&v).unwrap(), rejected);
    }
}
