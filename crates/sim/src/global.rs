//! Global multicore EDF + AMC simulation — the scheduling family the paper
//! *argues against* (§I cites Bastoni et al. \[9\]: partitioned generally
//! outperforms global). This simulator lets the repository check that
//! argument empirically: a single system-wide ready queue, the `m`
//! earliest-deadline jobs run in parallel (full migration, zero cost — the
//! most charitable possible setting for global scheduling), one system-wide
//! operation mode with AMC budget monitoring, dropping and idle reset.
//!
//! With `m = 1` this coincides with [`CoreSim`](crate::CoreSim) under the
//! same scheduler — a differential test pins that down.

use mcs_model::{CritLevel, McTask, Tick};

use crate::core::SchedulerKind;
use crate::report::{CoreReport, ResponseSlots};
use crate::scenario::Scenario;
use crate::trace::{Trace, TraceEvent};

/// An in-flight job (global variant).
#[derive(Clone, Debug)]
struct GJob {
    slot: usize,
    index: u64,
    release: Tick,
    abs_deadline: Tick,
    eff_deadline: Tick,
    demand: Tick,
    executed: Tick,
    missed: bool,
}

/// Global m-core simulator.
pub struct GlobalSim<'a> {
    tasks: Vec<&'a McTask>,
    scheduler: SchedulerKind,
    cores: usize,
}

impl<'a> GlobalSim<'a> {
    /// Build a global simulator over all tasks and `cores` processors.
    ///
    /// `scheduler` supplies the per-mode deadline factors exactly as for
    /// [`CoreSim`](crate::CoreSim); use [`SchedulerKind::PlainEdf`] for
    /// classic global EDF.
    #[must_use]
    pub fn new(tasks: Vec<&'a McTask>, cores: usize, scheduler: SchedulerKind) -> Self {
        assert!(cores >= 1, "need at least one core");
        Self { tasks, scheduler, cores }
    }

    fn eff_deadline(&self, task: &McTask, release: Tick, mode: CritLevel) -> Tick {
        let f = match &self.scheduler {
            SchedulerKind::PlainEdf | SchedulerKind::FixedPriority(_) => 1.0,
            SchedulerKind::EdfVd(vd) => vd.factor(mode, task.level()),
        };
        let rel = ((task.period() as f64) * f).round().max(1.0) as Tick;
        release + rel.min(task.period())
    }

    /// Run until `horizon`; a single aggregated report (the global queue
    /// has no per-core attribution).
    pub fn run<S: Scenario>(
        &self,
        scenario: &mut S,
        horizon: Tick,
        trace: &mut Trace,
    ) -> CoreReport {
        let mut report = CoreReport { max_mode: 1, ..Default::default() };
        if self.tasks.is_empty() || horizon == 0 {
            return report;
        }
        let mut mode = CritLevel::LO;
        let mut time: Tick = 0;
        let mut next_release: Vec<Tick> = vec![0; self.tasks.len()];
        let mut next_index: Vec<u64> = vec![0; self.tasks.len()];
        let mut ready: Vec<GJob> = Vec::new();
        let mut responses = ResponseSlots::new(self.tasks.len());

        loop {
            // Releases due now (suppressed below the mode, as in AMC).
            for (slot, task) in self.tasks.iter().enumerate() {
                while next_release[slot] <= time && next_release[slot] < horizon {
                    let release = next_release[slot];
                    let index = next_index[slot];
                    next_release[slot] += task.period();
                    next_index[slot] += 1;
                    if task.level() < mode {
                        continue;
                    }
                    let demand = scenario.demand(task, index);
                    let job = GJob {
                        slot,
                        index,
                        release,
                        abs_deadline: release + task.period(),
                        eff_deadline: self.eff_deadline(task, release, mode),
                        demand,
                        executed: 0,
                        missed: false,
                    };
                    trace.push(TraceEvent::Release {
                        time,
                        task: task.id(),
                        job: index,
                        deadline: job.abs_deadline,
                    });
                    report.released += 1;
                    ready.push(job);
                }
            }

            // Miss detection.
            for job in &mut ready {
                if !job.missed && time >= job.abs_deadline && job.executed < job.demand {
                    job.missed = true;
                    let task = self.tasks[job.slot];
                    report.misses_by_level[task.level().index()] += 1;
                    trace.push(TraceEvent::DeadlineMiss {
                        time: job.abs_deadline,
                        task: task.id(),
                        job: job.index,
                    });
                }
            }

            let upcoming: Option<Tick> = self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.level() >= mode)
                .map(|(s, _)| next_release[s])
                .filter(|&r| r < horizon)
                .min();

            if ready.is_empty() {
                if mode > CritLevel::LO {
                    mode = CritLevel::LO;
                    report.idle_resets += 1;
                    trace.push(TraceEvent::IdleReset { time });
                    continue;
                }
                match upcoming {
                    Some(r) => {
                        time = r;
                        continue;
                    }
                    None => break,
                }
            }

            // Pick the m earliest effective deadlines to run.
            let mut order: Vec<usize> = (0..ready.len()).collect();
            order.sort_by_key(|&i| (ready[i].eff_deadline, ready[i].slot, ready[i].index));
            let running: Vec<usize> = order.into_iter().take(self.cores).collect();

            // Next event: earliest of upcoming release, any running job's
            // target point, or the horizon.
            let mut next_event = upcoming.unwrap_or(horizon).min(horizon);
            for &i in &running {
                let job = &ready[i];
                let task = self.tasks[job.slot];
                let budget = task.wcet(mode.min(task.level()));
                let target = job.demand.min(budget);
                // A job already at its target is a zero-length event (its
                // completion/overrun must be processed *now*).
                next_event = next_event.min(time + target.saturating_sub(job.executed));
            }
            debug_assert!(next_event >= time, "time went backwards");
            let delta = next_event - time;
            time = next_event;
            for &i in &running {
                // Advance, capped at the job's own target: a job already at
                // its target (zero-length dispatch, e.g. equal consecutive
                // WCETs awaiting a mode switch) must not absorb idle time.
                let job = &ready[i];
                let task = self.tasks[job.slot];
                let budget = task.wcet(mode.min(task.level()));
                let target = job.demand.min(budget);
                let job = &mut ready[i];
                job.executed = (job.executed + delta).min(target);
            }
            // Events landing exactly on the horizon are still processed
            // (matching CoreSim); only break early when no running job
            // reached its target point.
            let any_at_target = running.iter().any(|&i| {
                let job = &ready[i];
                let task = self.tasks[job.slot];
                let budget = task.wcet(mode.min(task.level()));
                job.executed >= job.demand.min(budget)
            });
            if time >= horizon && !any_at_target {
                break;
            }

            // Handle completions and overruns among the running set,
            // highest index first so swap_remove stays valid.
            let mut finished: Vec<usize> = Vec::new();
            let mut overrun: Option<usize> = None;
            for &i in &running {
                let job = &ready[i];
                let task = self.tasks[job.slot];
                let budget = task.wcet(mode.min(task.level()));
                if job.executed == job.demand {
                    finished.push(i);
                } else if job.executed == budget && job.demand > budget && overrun.is_none() {
                    overrun = Some(i);
                }
            }
            finished.sort_unstable_by(|a, b| b.cmp(a));
            for i in finished {
                let job = &mut ready[i];
                let task = self.tasks[job.slot];
                let late = job.missed || time > job.abs_deadline;
                if !job.missed && late {
                    report.misses_by_level[task.level().index()] += 1;
                    trace.push(TraceEvent::DeadlineMiss {
                        time: job.abs_deadline,
                        task: task.id(),
                        job: job.index,
                    });
                }
                trace.push(TraceEvent::Complete { time, task: task.id(), job: job.index, late });
                report.completed += 1;
                responses.record(&mut report, job.slot, task.id(), time - job.release);
                if let Some(o) = overrun.as_mut() {
                    // Keep the overrun index valid across swap_remove.
                    if *o == ready.len() - 1 {
                        *o = i;
                    }
                }
                ready.swap_remove(i);
            }

            if let Some(i) = overrun {
                // The job may have completed-and-been-removed above; verify.
                if let Some(job) = ready.get(i) {
                    let task = self.tasks[job.slot];
                    let budget = task.wcet(mode.min(task.level()));
                    if job.executed == budget && job.demand > budget {
                        let old = mode;
                        mode = mode.next().expect("demand > budget implies mode < level");
                        report.mode_switches += 1;
                        report.max_mode = report.max_mode.max(mode.get());
                        trace.push(TraceEvent::ModeSwitch {
                            time,
                            task: task.id(),
                            from: old,
                            to: mode,
                        });
                        let mut j = 0;
                        while j < ready.len() {
                            let t = self.tasks[ready[j].slot];
                            if t.level() < mode {
                                trace.push(TraceEvent::Drop {
                                    time,
                                    task: t.id(),
                                    job: ready[j].index,
                                });
                                report.dropped += 1;
                                ready.swap_remove(j);
                            } else {
                                j += 1;
                            }
                        }
                        for j in &mut ready {
                            let t = self.tasks[j.slot];
                            j.eff_deadline =
                                j.eff_deadline.max(self.eff_deadline(t, j.release, mode));
                        }
                    }
                }
            }
            if time >= horizon {
                break;
            }
        }

        for job in &mut ready {
            if !job.missed && job.abs_deadline <= horizon && job.executed < job.demand {
                let task = self.tasks[job.slot];
                report.misses_by_level[task.level().index()] += 1;
                trace.push(TraceEvent::DeadlineMiss {
                    time: job.abs_deadline,
                    task: task.id(),
                    job: job.index,
                });
            }
        }
        trace.flush_counts();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSim;
    use crate::scenario::{LevelCap, SingleOverrun};
    use mcs_analysis::{Theorem1, VdAssignment};
    use mcs_model::{TaskBuilder, TaskId, UtilTable};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    #[test]
    fn single_core_global_matches_coresim() {
        let a = task(0, 10, 1, &[3]);
        let b = task(1, 20, 2, &[4, 8]);
        let tasks = vec![&a, &b];
        let table = UtilTable::from_tasks(2, tasks.iter().copied());
        let analysis = Theorem1::compute(&table);
        let vd = VdAssignment::compute(&table, &analysis).unwrap();
        for horizon in [100u64, 400] {
            let mut s1 = SingleOverrun::new(TaskId(1), 1, 2);
            let partitioned = CoreSim::new(tasks.clone(), SchedulerKind::EdfVd(vd.clone())).run(
                &mut s1,
                horizon,
                &mut Trace::disabled(),
            );
            let mut s2 = SingleOverrun::new(TaskId(1), 1, 2);
            let global = GlobalSim::new(tasks.clone(), 1, SchedulerKind::EdfVd(vd.clone())).run(
                &mut s2,
                horizon,
                &mut Trace::disabled(),
            );
            assert_eq!(partitioned, global, "horizon {horizon}");
        }
    }

    #[test]
    fn two_cores_run_in_parallel() {
        // Two 0.8-utilization tasks: impossible on one core, trivial on two.
        let a = task(0, 10, 1, &[8]);
        let b = task(1, 10, 1, &[8]);
        let tasks = vec![&a, &b];
        let one = GlobalSim::new(tasks.clone(), 1, SchedulerKind::PlainEdf).run(
            &mut LevelCap::lo(),
            100,
            &mut Trace::disabled(),
        );
        assert!(one.total_misses() > 0);
        let two = GlobalSim::new(tasks, 2, SchedulerKind::PlainEdf).run(
            &mut LevelCap::lo(),
            100,
            &mut Trace::disabled(),
        );
        assert_eq!(two.total_misses(), 0);
        assert_eq!(two.completed, 20);
    }

    #[test]
    fn dhall_effect_reproduces() {
        // The classic global-EDF pathology: m light tasks + one heavy task
        // with utilization ≈ 1 misses on m cores under global EDF, while
        // any partitioned scheme trivially isolates the heavy task.
        let light1 = task(0, 10, 1, &[1]);
        let light2 = task(1, 10, 1, &[1]);
        let heavy = task(2, 100, 1, &[95]);
        let tasks = vec![&light1, &light2, &heavy];
        let global = GlobalSim::new(tasks, 2, SchedulerKind::PlainEdf).run(
            &mut LevelCap::lo(),
            1000,
            &mut Trace::disabled(),
        );
        assert!(
            global.worst_response_of(TaskId(2)).unwrap_or(0) > 95,
            "the heavy task should be delayed by the light ones: {global:?}"
        );
        // (With these numbers it stays schedulable — 95+2·1 ≤ 100 — the
        // *delay* is the Dhall signature; tightening c to 99 breaks it.)
        let heavy99 = task(2, 100, 1, &[99]);
        let light1 = task(0, 10, 1, &[1]);
        let light2 = task(1, 10, 1, &[1]);
        let tasks = vec![&light1, &light2, &heavy99];
        let global = GlobalSim::new(tasks, 2, SchedulerKind::PlainEdf).run(
            &mut LevelCap::lo(),
            1000,
            &mut Trace::disabled(),
        );
        assert!(global.total_misses() > 0, "Dhall effect must bite: {global:?}");
    }

    #[test]
    fn global_amc_mode_switch_protects_hi() {
        let lo = task(0, 10, 1, &[4]);
        let hi1 = task(1, 50, 2, &[5, 25]);
        let hi2 = task(2, 50, 2, &[5, 25]);
        let tasks = vec![&lo, &hi1, &hi2];
        let r = GlobalSim::new(tasks, 2, SchedulerKind::PlainEdf).run(
            &mut LevelCap::new(2),
            2_000,
            &mut Trace::disabled(),
        );
        assert!(r.mode_switches >= 1);
        assert_eq!(
            r.mandatory_misses(CritLevel::new(2)),
            0,
            "plenty of capacity for the HI tasks on 2 cores: {r:?}"
        );
    }

    #[test]
    fn empty_and_zero_horizon() {
        let r = GlobalSim::new(vec![], 2, SchedulerKind::PlainEdf).run(
            &mut LevelCap::lo(),
            100,
            &mut Trace::disabled(),
        );
        assert_eq!(r.released, 0);
        let t = task(0, 10, 1, &[1]);
        let r = GlobalSim::new(vec![&t], 2, SchedulerKind::PlainEdf).run(
            &mut LevelCap::lo(),
            0,
            &mut Trace::disabled(),
        );
        assert_eq!(r.released, 0);
    }
}
