//! The per-layer metrics of the traced run, and the one table that names
//! them. Every traced run reports every metric; a layer the workload does
//! not use reads 0.

use mcs_obs::Counter;

use crate::common::{ratio, TraceReport};
use crate::spans::Span;

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("trace.overhead_pct", "%"),
    ("trace.layer_share", "ratio"),
    ("harness.self_share", "ratio"),
    ("harness.scaling_efficiency", "ratio"),
    ("gen.task_set_us", "us"),
    ("gen.trace_us", "us"),
    ("partition.wfd_us", "us"),
    ("partition.ffd_us", "us"),
    ("partition.bfd_us", "us"),
    ("partition.hybrid_us", "us"),
    ("partition.catpa_us", "us"),
    ("partition.quality_us", "us"),
    ("partition.placement_attempts_per_trial", "count"),
    ("partition.alpha_fallbacks_per_trial", "count"),
    ("analysis.probes_per_trial", "count"),
    ("analysis.batch_calls_per_trial", "count"),
    ("analysis.feasible_probe_ratio", "ratio"),
    ("admission.direct_p50_ns", "ns"),
    ("admission.direct_p99_ns", "ns"),
    ("admission.reject_p50_us", "us"),
    ("admission.repair_accept_p50_us", "us"),
    ("admission.repair_time_share", "ratio"),
    ("admission.repair_success_ratio", "ratio"),
    ("admission.depart_p50_ns", "ns"),
    ("admission.reset_us", "us"),
    ("admission.rebuild_check_us", "us"),
    ("admission.probes_per_admit", "count"),
    ("sim.tick_ms_per_trial", "ms"),
    ("sim.event_ms_per_trial", "ms"),
    ("sim.weaklyhard_ms_per_trial", "ms"),
    ("sim.soundness_ms_per_trial", "ms"),
    ("sim.tick_ns_per_release", "ns"),
    ("sim.event_ns_per_release", "ns"),
    ("sim.soundness_ns_per_release", "ns"),
    ("sim.events_popped_per_release", "count"),
    ("sim.heap_pushes_per_release", "count"),
];

/// Every per-layer metric's value, in [`PER_LAYER`] order.
pub fn values(r: &TraceReport) -> Vec<f64> {
    let t = &r.tracer;
    let total = |s: Span| t.stat(s).total_ns as f64;
    let count = |s: Span| t.stat(s).count as f64;
    let mean_us = |s: Span| ratio(total(s) / 1e3, count(s));
    let p50 = |s: Span| t.stat(s).hist.quantile_ns(0.5);
    let trials = count(Span::Trial);
    let per_trial_ms = |s: Span| ratio(total(s) / 1e6, trials);
    let counter = |c: Counter| r.counts.get(c) as f64;
    let admits = count(Span::AdmitDirect) + count(Span::AdmitRepaired) + count(Span::AdmitRejected);
    let repair_ns = total(Span::AdmitRepaired) + total(Span::AdmitRejected);
    let admission_ns = repair_ns
        + total(Span::AdmitDirect)
        + total(Span::Depart)
        + total(Span::Reset)
        + total(Span::RebuildCheck);
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "trace.overhead_pct" => 100.0 * (ratio(r.traced_ns as f64, r.untraced_ns as f64) - 1.0),
            "trace.layer_share" => ratio(t.layer_ns() as f64, total(Span::Request)),
            "gen.task_set_us" => mean_us(Span::GenTaskSet),
            "gen.trace_us" => mean_us(Span::GenTrace),
            "partition.wfd_us" => mean_us(Span::Wfd),
            "partition.ffd_us" => mean_us(Span::Ffd),
            "partition.bfd_us" => mean_us(Span::Bfd),
            "partition.hybrid_us" => mean_us(Span::Hybrid),
            "partition.catpa_us" => mean_us(Span::Catpa),
            "partition.quality_us" => mean_us(Span::Quality),
            "partition.placement_attempts_per_trial" => {
                ratio(counter(Counter::PlacementAttempts), trials)
            }
            "partition.alpha_fallbacks_per_trial" => {
                ratio(counter(Counter::AlphaFallbacks), trials)
            }
            "analysis.probes_per_trial" => ratio(counter(Counter::EngineProbesIssued), trials),
            "analysis.batch_calls_per_trial" => ratio(counter(Counter::EngineBatchCalls), trials),
            "analysis.feasible_probe_ratio" => {
                ratio(counter(Counter::EngineProbesFeasible), counter(Counter::EngineProbesIssued))
            }
            "admission.direct_p50_ns" => p50(Span::AdmitDirect),
            "admission.direct_p99_ns" => t.stat(Span::AdmitDirect).hist.quantile_ns(0.99),
            "admission.reject_p50_us" => p50(Span::AdmitRejected) / 1e3,
            "admission.repair_accept_p50_us" => p50(Span::AdmitRepaired) / 1e3,
            "admission.repair_time_share" => ratio(repair_ns, admission_ns),
            "admission.repair_success_ratio" => ratio(
                count(Span::AdmitRepaired),
                count(Span::AdmitRepaired) + count(Span::AdmitRejected),
            ),
            "admission.depart_p50_ns" => p50(Span::Depart),
            "admission.reset_us" => mean_us(Span::Reset),
            "admission.rebuild_check_us" => mean_us(Span::RebuildCheck),
            "admission.probes_per_admit" => ratio(counter(Counter::EngineProbesIssued), admits),
            "sim.tick_ms_per_trial" => per_trial_ms(Span::SimTick),
            "sim.event_ms_per_trial" => per_trial_ms(Span::SimEvent),
            "sim.weaklyhard_ms_per_trial" => per_trial_ms(Span::WeaklyHard),
            "sim.soundness_ms_per_trial" => per_trial_ms(Span::Soundness),
            other => r.extra.get(other).copied().unwrap_or(0.0),
        })
        .collect()
}
