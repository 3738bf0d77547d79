//! Rule `sim-event-consistency`: the simulator's run loop
//! ([`mcs_sim::CoreSim`]) must produce *bit-identical* reports and event
//! traces on its per-level release heaps ([`mcs_sim::SimEngine::Event`])
//! and on the scan oracle ([`mcs_sim::SimEngine::Tick`]) for the
//! partition under audit. The two share every line of the loop but the
//! release index, so this rule checks the index: it re-derives a
//! short-horizon worst-case run on **both** indexes and compares every
//! observable, so a divergence in release ordering, mode-switch timing, or
//! drop accounting cannot silently skew published figures.

use mcs_sim::{simulate_partition_with, LevelCap, SimConfig, SimEngine, SystemScheduler};

use crate::diagnostic::{Diagnostic, Subject};
use crate::invariant::{AuditContext, Invariant};
use crate::rules::shapes_match;

/// Stable id of this rule.
pub const ID: &str = "sim-event-consistency";

/// Runs the audited `(task set, partition)` on the scan-oracle and the
/// per-level-heap release index under the worst-case scenario
/// ([`LevelCap`] at the top behaviour level) over a short derived
/// horizon, with tracing enabled, and demands bit equality of both the
/// aggregated reports and every per-core event trace
/// (`DESIGN.md#tick-oracle-differential-contract`).
///
/// The scheduler mirrors the audited claim: EDF-VD when the context
/// claims Theorem 1 feasibility, plain EDF otherwise (plain EDF never
/// fails setup, so the differential check still runs on infeasible or
/// baseline partitions). Skips silently when the partition is
/// incomplete or shapes disagree — other rules own those complaints.
pub struct SimEventConsistency;

impl Invariant for SimEventConsistency {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "discrete-event engine traces are bit-identical to the tick oracle"
    }

    fn check(&self, ctx: &AuditContext<'_>, out: &mut Vec<Diagnostic>) {
        if !shapes_match(ctx) {
            return;
        }
        if ctx.partition.num_cores() == 0 || ctx.ts.is_empty() {
            return;
        }

        // Short horizon: the differential claim is per-stop, so a few
        // periods already cross releases, mode switches, and idle resets.
        // The proptest in mcs-sim carries the exhaustive version.
        let config = SimConfig { horizon: None, horizon_periods: 4, trace_cap: 4096 };
        let scheduler =
            if ctx.claims_theorem1 { SystemScheduler::EdfVd } else { SystemScheduler::PlainEdf };
        let cap = ctx.ts.num_levels();
        let run = |engine: SimEngine| {
            simulate_partition_with(ctx.ts, ctx.partition, scheduler, &config, engine, |_| {
                LevelCap::new(cap)
            })
        };

        // Incomplete partitions and EDF-VD-infeasible cores are not this
        // rule's concern; claim rules report them.
        let (Ok(tick), Ok(event)) = (run(SimEngine::Tick), run(SimEngine::Event)) else {
            return;
        };

        let (tick_report, tick_traces) = tick;
        let (event_report, event_traces) = event;

        for (m, (tr, er)) in tick_report.cores.iter().zip(event_report.cores.iter()).enumerate() {
            let core = core_id(m);
            if tr != er {
                out.push(Diagnostic::error(
                    ID,
                    Subject::Core(core),
                    format!(
                        "event-engine core report diverges from the tick oracle: \
                         tick {tr:?} vs event {er:?}"
                    ),
                ));
            }
        }

        for (m, (tt, et)) in tick_traces.iter().zip(event_traces.iter()).enumerate() {
            let core = core_id(m);
            let (a, b) = (tt.events(), et.events());
            if a.len() != b.len() {
                out.push(Diagnostic::error(
                    ID,
                    Subject::Core(core),
                    format!(
                        "event-engine trace has {} events, tick oracle has {}",
                        b.len(),
                        a.len()
                    ),
                ));
                continue;
            }
            if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
                out.push(Diagnostic::error(
                    ID,
                    Subject::Core(core),
                    format!("traces diverge at event {i}: tick {:?} vs event {:?}", a[i], b[i]),
                ));
            }
        }
    }
}

fn core_id(index: usize) -> mcs_model::CoreId {
    mcs_model::CoreId(u16::try_from(index).expect("core index fits u16"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{CoreId, Partition, TaskBuilder, TaskId, TaskSet};

    fn ts() -> TaskSet {
        let t = |id: u32, p: u64, l: u8, w: &[u64]| {
            TaskBuilder::new(TaskId(id)).period(p).level(l).wcet(w).build().unwrap()
        };
        TaskSet::new(
            2,
            vec![t(0, 10, 1, &[2]), t(1, 20, 2, &[3, 6]), t(2, 25, 1, &[4]), t(3, 40, 2, &[5, 10])],
        )
        .unwrap()
    }

    #[test]
    fn feasible_partition_is_clean() {
        let ts = ts();
        let mut p = Partition::empty(2, 4);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        p.assign(TaskId(2), CoreId(1));
        p.assign(TaskId(3), CoreId(1));
        let mut out = Vec::new();
        SimEventConsistency.check(&AuditContext::new(&ts, &p, "t"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn baseline_claim_uses_plain_edf_and_is_clean() {
        // Overloaded single core: EDF-VD setup would fail, but with the
        // Theorem-1 claim withdrawn the rule runs plain EDF and the
        // differential check still executes (misses and all).
        let ts = ts();
        let mut p = Partition::empty(1, 4);
        for i in 0..4u32 {
            p.assign(TaskId(i), CoreId(0));
        }
        let ctx = AuditContext::new(&ts, &p, "t").with_theorem1_claim(false);
        let mut out = Vec::new();
        SimEventConsistency.check(&ctx, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn incomplete_partition_is_skipped() {
        let ts = ts();
        let mut p = Partition::empty(2, 4);
        p.assign(TaskId(0), CoreId(0));
        let mut out = Vec::new();
        SimEventConsistency.check(&AuditContext::new(&ts, &p, "t"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
