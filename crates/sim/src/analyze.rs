//! Post-hoc trace analysis: turn a recorded [`Trace`] into
//! per-task response statistics, mode-residency accounting and event
//! counts — the numbers a systems paper's "runtime behaviour" section
//! reports.

use std::collections::BTreeMap;

use mcs_model::{CritLevel, TaskId, Tick};

use crate::trace::{Trace, TraceEvent};

/// Response-time statistics of one task, computed from matched
/// release/complete pairs in a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResponseStats {
    /// Completed jobs observed.
    pub completed: u64,
    /// Minimum response (ticks).
    pub min: Tick,
    /// Maximum response (ticks).
    pub max: Tick,
    /// Mean response (ticks).
    pub mean: f64,
    /// Late completions.
    pub late: u64,
}

/// Full trace analysis.
#[derive(Clone, Debug, Default)]
pub struct TraceAnalysis {
    /// Per-task response statistics, in task-id order.
    pub responses: BTreeMap<TaskId, ResponseStats>,
    /// Ticks spent in each operation mode (`residency[l-1]`), measured
    /// between the first and last event.
    pub mode_residency: Vec<Tick>,
    /// Mode switches observed.
    pub mode_switches: u64,
    /// Jobs dropped.
    pub dropped: u64,
    /// Deadline misses.
    pub misses: u64,
    /// Jobs released but neither completed nor dropped by the end of the
    /// trace — *censored* observations in the survival-analysis sense.
    /// Response statistics above cover completed jobs only, so a run that
    /// ends mid-overload under-reports tail latency; this count makes the
    /// truncation explicit instead of silent.
    pub censored: u64,
}

impl TraceAnalysis {
    /// Analyse a trace recorded by a core with `levels` criticality levels.
    ///
    /// The trace must not have hit its capacity cap mid-run for the
    /// residency numbers to be exact; statistics are computed over whatever
    /// events are present.
    #[must_use]
    pub fn from_trace(trace: &Trace, levels: u8) -> Self {
        let mut out =
            TraceAnalysis { mode_residency: vec![0; usize::from(levels)], ..Default::default() };
        let events = trace.events();
        let mut releases: BTreeMap<(TaskId, u64), Tick> = BTreeMap::new();
        let mut mode: usize = 0; // level-1 == index 0
        let mut mode_since: Option<Tick> = events.first().map(TraceEvent::time);

        for e in events {
            match e {
                TraceEvent::Release { time, task, job, .. } => {
                    releases.insert((*task, *job), *time);
                }
                TraceEvent::Complete { time, task, job, late } => {
                    if let Some(rel) = releases.remove(&(*task, *job)) {
                        let resp = time - rel;
                        let s = out
                            .responses
                            .entry(*task)
                            .or_insert(ResponseStats { min: Tick::MAX, ..Default::default() });
                        s.completed += 1;
                        s.min = s.min.min(resp);
                        s.max = s.max.max(resp);
                        // Incremental mean.
                        s.mean += (resp as f64 - s.mean) / s.completed as f64;
                        if *late {
                            s.late += 1;
                        }
                    }
                }
                TraceEvent::ModeSwitch { time, to, .. } => {
                    if let Some(since) = mode_since {
                        out.mode_residency[mode] += time - since;
                    }
                    mode = to.index();
                    mode_since = Some(*time);
                    out.mode_switches += 1;
                }
                TraceEvent::IdleReset { time } => {
                    if let Some(since) = mode_since {
                        out.mode_residency[mode] += time - since;
                    }
                    mode = 0;
                    mode_since = Some(*time);
                }
                TraceEvent::Drop { task, job, .. } => {
                    // A dropped job will never complete: retire its open
                    // release so it is not miscounted as censored below.
                    releases.remove(&(*task, *job));
                    out.dropped += 1;
                }
                TraceEvent::DeadlineMiss { .. } => out.misses += 1,
            }
        }
        if let (Some(since), Some(last)) = (mode_since, events.last()) {
            out.mode_residency[mode] += last.time().saturating_sub(since);
        }
        // Whatever is still open was cut off by the horizon (or the trace
        // cap): censored, not absent.
        out.censored = releases.len() as u64;
        out
    }

    /// Fraction of traced time spent at or above `level` (0 when the trace
    /// is empty).
    #[must_use]
    pub fn residency_at_or_above(&self, level: CritLevel) -> f64 {
        let total: Tick = self.mode_residency.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let high: Tick = self.mode_residency[level.index()..].iter().sum();
        high as f64 / total as f64
    }
}

/// Weakly-hard accounting for one task: the worst observed (m, k)
/// deadline-miss window.
///
/// With `miss_j ∈ {0, 1}` the miss indicator of the task's `j`-th
/// *released* job (release order, `J` jobs observed, window width
/// `w = min(k, J)`):
///
/// ```text
/// worst_m = max_{0 ≤ j ≤ J − w} Σ_{i=j}^{j+w−1} miss_i
/// ```
///
/// i.e. the task observably satisfied the weakly-hard constraint
/// (`worst_m`, k) — no window of `k` consecutive jobs missed more than
/// `worst_m` deadlines — and no tighter one. Suppressed releases (AMC
/// drops) never enter the sequence; dropped-but-released jobs count as
/// misses only if a miss event was recorded for them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeaklyHardStats {
    /// Released jobs observed for this task.
    pub jobs: u64,
    /// Total deadline misses of this task.
    pub misses: u64,
    /// Worst miss count in any window of `k` consecutive jobs (window =
    /// the whole sequence when fewer than `k` jobs were released).
    pub worst_m: u32,
}

/// Weakly-hard metrics of a whole trace: per-task worst (m, k) windows,
/// LO-service outage accounting, and mode-switch frequency — the runtime
/// numbers `mcs-exp simulate` reports (EXPERIMENTS.md "Runtime
/// behavior").
#[derive(Clone, Debug, Default)]
pub struct WeaklyHardAnalysis {
    /// The window width `k` the per-task stats were computed against.
    pub k: u32,
    /// Per-task weakly-hard stats, in task-id order.
    pub per_task: BTreeMap<TaskId, WeaklyHardStats>,
    /// LO-service outages observed: windows from a mode switch *out of*
    /// level-1 operation to the idle reset that restores it. During an
    /// outage, dropped-level tasks receive no service — this is the
    /// "LO-task drop latency" after a mode switch.
    pub outages: u64,
    /// Total ticks spent in outage (an outage still open at the horizon is
    /// clamped there).
    pub outage_total: Tick,
    /// Longest single outage in ticks.
    pub outage_max: Tick,
    /// Mode switches observed.
    pub mode_switches: u64,
    /// Mode-switch frequency: `mode_switches × 1000 / horizon` (0 for a
    /// zero horizon).
    pub switches_per_kilotick: f64,
}

impl WeaklyHardAnalysis {
    /// Compute weakly-hard metrics from a trace over a `horizon`-tick run,
    /// with miss windows of width `k` (`k ≥ 1`).
    ///
    /// The trace must not have hit its capacity cap for the numbers to be
    /// exact (same caveat as [`TraceAnalysis::from_trace`]). Working memory
    /// is linear in the trace length plus the largest task id in it (task
    /// ids are dense in a [`mcs_model::TaskSet`]).
    #[must_use]
    pub fn from_trace(trace: &Trace, k: u32, horizon: Tick) -> Self {
        assert!(k >= 1, "window width must be at least 1");
        let mut out = WeaklyHardAnalysis { k, ..Default::default() };

        // One pass: per-task released and missed job indices (indexed by
        // task id, which is dense in a task set), plus outage and
        // mode-switch accounting.
        let mut tasks: Vec<JobLog> = Vec::new();
        let log_of = |tasks: &mut Vec<JobLog>, task: TaskId| -> usize {
            let i = task.index();
            if i >= tasks.len() {
                tasks.resize_with(i + 1, JobLog::default);
            }
            i
        };
        let mut outage_since: Option<Tick> = None;
        for e in trace.events() {
            match e {
                TraceEvent::Release { task, job, .. } => {
                    let i = log_of(&mut tasks, *task);
                    tasks[i].released.push(*job);
                }
                TraceEvent::DeadlineMiss { task, job, .. } => {
                    let i = log_of(&mut tasks, *task);
                    tasks[i].missed.push(*job);
                }
                TraceEvent::ModeSwitch { time, from, .. } => {
                    out.mode_switches += 1;
                    if *from == CritLevel::LO && outage_since.is_none() {
                        outage_since = Some(*time);
                    }
                }
                TraceEvent::IdleReset { time } => {
                    if let Some(since) = outage_since.take() {
                        out.close_outage(time.saturating_sub(since));
                    }
                }
                _ => {}
            }
        }
        if let Some(since) = outage_since {
            out.close_outage(horizon.saturating_sub(since));
        }

        // Per task, the miss indicator sequence in release order and its
        // sliding-window maximum.
        let mut seq: Vec<bool> = Vec::new();
        for (id, log) in (0u32..).zip(&mut tasks) {
            if log.released.is_empty() {
                continue;
            }
            log.missed.sort_unstable();
            seq.clear();
            seq.extend(log.released.iter().map(|job| log.missed.binary_search(job).is_ok()));
            let misses = seq.iter().filter(|&&m| m).count() as u64;
            let w = (k as usize).min(seq.len());
            let mut in_window: u32 = seq[..w].iter().filter(|&&m| m).count() as u32;
            let mut worst = in_window;
            for j in w..seq.len() {
                in_window += u32::from(seq[j]);
                in_window -= u32::from(seq[j - w]);
                worst = worst.max(in_window);
            }
            let stats = WeaklyHardStats { jobs: seq.len() as u64, misses, worst_m: worst };
            out.per_task.insert(TaskId(id), stats);
        }

        out.switches_per_kilotick =
            if horizon == 0 { 0.0 } else { out.mode_switches as f64 * 1000.0 / horizon as f64 };
        out
    }

    fn close_outage(&mut self, len: Tick) {
        self.outages += 1;
        self.outage_total += len;
        self.outage_max = self.outage_max.max(len);
    }

    /// The worst (m, k) window across all tasks whose criticality is below
    /// `level` — the degradation the weakly-hard literature quantifies for
    /// the tasks AMC sacrifices. Returns 0 for an empty selection.
    #[must_use]
    pub fn worst_m_below(&self, level: CritLevel, task_level: impl Fn(TaskId) -> CritLevel) -> u32 {
        self.per_task
            .iter()
            .filter(|(t, _)| task_level(**t) < level)
            .map(|(_, s)| s.worst_m)
            .max()
            .unwrap_or(0)
    }
}

/// One task's job indices in a trace, in trace order.
#[derive(Default)]
struct JobLog {
    released: Vec<u64>,
    missed: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{CoreSim, SchedulerKind};
    use crate::scenario::{LevelCap, SingleOverrun};
    use crate::trace::Trace;
    use mcs_analysis::{Theorem1, VdAssignment};
    use mcs_model::{McTask, TaskBuilder, UtilTable};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    #[test]
    fn nominal_trace_analysis() {
        let t = task(0, 10, 1, &[3]);
        let sim = CoreSim::new(vec![&t], SchedulerKind::PlainEdf);
        let mut trace = Trace::enabled(10_000);
        let report = sim.run(&mut LevelCap::lo(), 100, &mut trace);
        let a = TraceAnalysis::from_trace(&trace, 1);
        let s = &a.responses[&TaskId(0)];
        assert_eq!(s.completed, report.completed);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 3);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.late, 0);
        assert_eq!(a.mode_switches, 0);
        assert_eq!(a.misses, 0);
        assert!((a.residency_at_or_above(CritLevel::LO) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mode_residency_reflects_switches() {
        let lo = task(0, 10, 1, &[3]);
        let hi = task(1, 10, 2, &[2, 6]);
        let tasks = vec![&lo, &hi];
        let table = UtilTable::from_tasks(2, tasks.iter().copied());
        let analysis = Theorem1::compute(&table);
        let vd = VdAssignment::compute(&table, &analysis).unwrap();
        let sim = CoreSim::new(tasks, SchedulerKind::EdfVd(vd));
        let mut trace = Trace::enabled(10_000);
        let _ = sim.run(&mut SingleOverrun::new(TaskId(1), 1, 2), 100, &mut trace);
        let a = TraceAnalysis::from_trace(&trace, 2);
        assert_eq!(a.mode_switches, 1);
        let high_share = a.residency_at_or_above(CritLevel::new(2));
        assert!(high_share > 0.0 && high_share < 0.5, "share = {high_share}");
        assert!(a.dropped >= 1 || a.misses == 0);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let a = TraceAnalysis::from_trace(&Trace::disabled(), 3);
        assert!(a.responses.is_empty());
        assert_eq!(a.mode_switches, 0);
        assert_eq!(a.censored, 0);
        assert_eq!(a.residency_at_or_above(CritLevel::LO), 0.0);
    }

    #[test]
    fn horizon_truncated_jobs_are_counted_as_censored() {
        // Regression: a job released but not completed at the horizon used
        // to vanish from the analysis entirely. τ0's last job releases at
        // 90 with 30 ticks of demand and a 95-tick horizon: it cannot
        // finish and must surface as censored, not disappear.
        let t = task(0, 30, 1, &[30]);
        let sim = CoreSim::new(vec![&t], SchedulerKind::PlainEdf);
        let mut trace = Trace::enabled(10_000);
        let report = sim.run(&mut LevelCap::lo(), 95, &mut trace);
        let a = TraceAnalysis::from_trace(&trace, 1);
        assert_eq!(report.released, 4);
        assert_eq!(report.completed, 3);
        assert_eq!(a.responses[&TaskId(0)].completed, 3);
        assert_eq!(a.censored, 1, "the in-flight job at the horizon must be censored");
    }

    #[test]
    fn dropped_jobs_are_not_censored() {
        // A job discarded by a mode switch is accounted under `dropped`
        // and must not leak into `censored`; the still-open release of τ2
        // is the only censored observation.
        let mut trace = Trace::enabled(100);
        trace.push(TraceEvent::Release { time: 0, task: TaskId(0), job: 0, deadline: 10 });
        trace.push(TraceEvent::Release { time: 0, task: TaskId(1), job: 0, deadline: 20 });
        trace.push(TraceEvent::Release { time: 0, task: TaskId(2), job: 0, deadline: 30 });
        trace.push(TraceEvent::ModeSwitch {
            time: 2,
            task: TaskId(1),
            from: CritLevel::new(1),
            to: CritLevel::new(2),
        });
        trace.push(TraceEvent::Drop { time: 2, task: TaskId(0), job: 0 });
        trace.push(TraceEvent::Complete { time: 8, task: TaskId(1), job: 0, late: false });
        let a = TraceAnalysis::from_trace(&trace, 2);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.censored, 1, "only τ2's open release is censored, not the dropped job");
        assert_eq!(a.responses[&TaskId(1)].completed, 1);
    }
}

#[cfg(test)]
mod weakly_hard_tests {
    use super::*;
    use crate::core::{CoreSim, SchedulerKind};
    use crate::scenario::LevelCap;
    use crate::trace::Trace;
    use mcs_model::{McTask, TaskBuilder};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    /// Hand-built trace: 6 releases of τ0, misses at job indices 1, 2, 4.
    fn synthetic_trace() -> Trace {
        let mut t = Trace::enabled(100);
        for j in 0..6u64 {
            t.push(TraceEvent::Release {
                time: j * 10,
                task: TaskId(0),
                job: j,
                deadline: j * 10 + 10,
            });
        }
        for j in [1u64, 2, 4] {
            t.push(TraceEvent::DeadlineMiss { time: j * 10 + 10, task: TaskId(0), job: j });
        }
        t
    }

    #[test]
    fn sliding_window_finds_the_worst_m() {
        let trace = synthetic_trace();
        // k = 3: windows (0,1,2)=2, (1,2,3)=2, (2,3,4)=2, (3,4,5)=1 → 2.
        let a = WeaklyHardAnalysis::from_trace(&trace, 3, 60);
        let s = &a.per_task[&TaskId(0)];
        assert_eq!(s.jobs, 6);
        assert_eq!(s.misses, 3);
        assert_eq!(s.worst_m, 2);
        // k = 4: window (1..=4) holds all three misses.
        let a4 = WeaklyHardAnalysis::from_trace(&trace, 4, 60);
        assert_eq!(a4.per_task[&TaskId(0)].worst_m, 3);
        // k larger than the sequence: whole-sequence window.
        let a99 = WeaklyHardAnalysis::from_trace(&trace, 99, 60);
        assert_eq!(a99.per_task[&TaskId(0)].worst_m, 3);
    }

    #[test]
    fn outages_span_switch_to_idle_reset() {
        let mut t = Trace::enabled(100);
        t.push(TraceEvent::ModeSwitch {
            time: 10,
            task: TaskId(0),
            from: CritLevel::new(1),
            to: CritLevel::new(2),
        });
        t.push(TraceEvent::IdleReset { time: 25 });
        t.push(TraceEvent::ModeSwitch {
            time: 40,
            task: TaskId(0),
            from: CritLevel::new(1),
            to: CritLevel::new(2),
        });
        // Second outage never closes: clamped at the horizon (50).
        let a = WeaklyHardAnalysis::from_trace(&t, 10, 50);
        assert_eq!(a.outages, 2);
        assert_eq!(a.outage_total, 15 + 10);
        assert_eq!(a.outage_max, 15);
        assert_eq!(a.mode_switches, 2);
        assert!((a.switches_per_kilotick - 40.0).abs() < 1e-12);
    }

    #[test]
    fn nested_escalations_extend_one_outage() {
        // LO→2 then 2→3 is a single LO-service outage, not two.
        let mut t = Trace::enabled(100);
        t.push(TraceEvent::ModeSwitch {
            time: 10,
            task: TaskId(0),
            from: CritLevel::new(1),
            to: CritLevel::new(2),
        });
        t.push(TraceEvent::ModeSwitch {
            time: 20,
            task: TaskId(1),
            from: CritLevel::new(2),
            to: CritLevel::new(3),
        });
        t.push(TraceEvent::IdleReset { time: 30 });
        let a = WeaklyHardAnalysis::from_trace(&t, 10, 100);
        assert_eq!(a.outages, 1);
        assert_eq!(a.outage_total, 20);
        assert_eq!(a.mode_switches, 2);
    }

    #[test]
    fn clean_run_has_zero_worst_m_and_no_outages() {
        let t = task(0, 10, 1, &[3]);
        let sim = CoreSim::new(vec![&t], SchedulerKind::PlainEdf);
        let mut trace = Trace::enabled(10_000);
        let _ = sim.run(&mut LevelCap::lo(), 200, &mut trace);
        let a = WeaklyHardAnalysis::from_trace(&trace, 10, 200);
        assert_eq!(a.per_task[&TaskId(0)].worst_m, 0);
        assert_eq!(a.outages, 0);
        assert_eq!(a.switches_per_kilotick, 0.0);
    }

    #[test]
    fn worst_m_below_filters_by_criticality() {
        let trace = synthetic_trace();
        let a = WeaklyHardAnalysis::from_trace(&trace, 3, 60);
        let lvl = |_t: TaskId| CritLevel::new(1);
        assert_eq!(a.worst_m_below(CritLevel::new(2), lvl), 2);
        assert_eq!(a.worst_m_below(CritLevel::new(1), lvl), 0);
    }
}

#[cfg(test)]
mod weakly_hard_oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    /// The set-and-map formulation of [`WeaklyHardAnalysis::from_trace`]'s
    /// per-task statistics: a miss set keyed by `(task, job)`, then one
    /// miss indicator per release, looked up in that set.
    fn oracle_per_task(trace: &Trace, k: u32) -> BTreeMap<TaskId, WeaklyHardStats> {
        let events = trace.events();
        let mut missed: BTreeSet<(TaskId, u64)> = BTreeSet::new();
        for e in events {
            if let TraceEvent::DeadlineMiss { task, job, .. } = e {
                missed.insert((*task, *job));
            }
        }
        let mut seqs: BTreeMap<TaskId, Vec<bool>> = BTreeMap::new();
        for e in events {
            if let TraceEvent::Release { task, job, .. } = e {
                seqs.entry(*task).or_default().push(missed.contains(&(*task, *job)));
            }
        }
        seqs.into_iter()
            .map(|(task, seq)| {
                let w = (k as usize).min(seq.len());
                let worst = (0..=seq.len() - w)
                    .map(|j| seq[j..j + w].iter().filter(|&&m| m).count() as u32)
                    .max()
                    .unwrap_or(0);
                let misses = seq.iter().filter(|&&m| m).count() as u64;
                (task, WeaklyHardStats { jobs: seq.len() as u64, misses, worst_m: worst })
            })
            .collect()
    }

    /// Any event over few tasks and few job indices, so that releases
    /// repeat, misses precede or lack their release, and outages nest.
    fn event() -> impl Strategy<Value = TraceEvent> {
        (0u8..6, 0u64..200, 0u32..6, 0u64..12, 1u8..4).prop_map(|(pick, time, task, job, level)| {
            let task = TaskId(task);
            match pick {
                0 | 1 => TraceEvent::Release { time, task, job, deadline: time + 10 },
                2 => TraceEvent::DeadlineMiss { time, task, job },
                3 => TraceEvent::ModeSwitch {
                    time,
                    task,
                    from: CritLevel::new(level),
                    to: CritLevel::new(level + 1),
                },
                4 => TraceEvent::IdleReset { time },
                _ => TraceEvent::Complete { time, task, job, late: false },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn per_task_stats_match_the_set_and_map_oracle(
            events in prop::collection::vec(event(), 0..120),
            k in 1u32..8,
            horizon in 0u64..250,
        ) {
            let mut trace = Trace::enabled(events.len());
            for e in &events {
                trace.push(e.clone());
            }
            let a = WeaklyHardAnalysis::from_trace(&trace, k, horizon);
            prop_assert_eq!(&a.per_task, &oracle_per_task(&trace, k));
            let switches =
                events.iter().filter(|e| matches!(e, TraceEvent::ModeSwitch { .. })).count();
            prop_assert_eq!(a.mode_switches, switches as u64);
        }
    }
}
