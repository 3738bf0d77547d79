//! # mcs-exp
//!
//! Experiment harness reproducing every table and figure of the ICPP'16
//! CA-TPA paper, plus soundness and ablation experiments.
//!
//! * [`sweep`] — parallel Monte-Carlo engine: generate task sets, run every
//!   partitioning scheme on each (paired comparison), aggregate the paper's
//!   four metrics (schedulability ratio, `U_sys`, `U_avg`, `Λ`);
//! * [`figures`] — the five parameter sweeps (Fig. 1: NSU, Fig. 2: IFC,
//!   Fig. 3: α, Fig. 4: M, Fig. 5: K);
//! * [`tables`] — the §III worked example (Tables I–III) and the parameter
//!   table (Table IV);
//! * [`soundness`] — simulation-backed validation: partitions accepted by
//!   the analysis must exhibit zero mandatory deadline misses;
//! * [`ablation`] — CA-TPA variant comparison;
//! * [`admit`] — online admission-control streams: deterministic
//!   arrival/departure traces replayed through per-shard [`mcs_partition`]
//!   `AdmissionEngine`s, with the bit-exact rebuild-identity gate;
//! * [`audit_cmd`] — invariant-audit sweep over every scheme (`mcs-audit`);
//! * [`perf`] — probe-path throughput benchmark (reference loops vs the
//!   incremental `ProbeEngine`), recorded to `BENCH_partition.json`;
//! * [`simulate`] — runtime-behaviour experiment: one simulator run per
//!   core with both release indexes answering every question (the
//!   tick-vs-event identity gate) plus weakly-hard (m,k) windows,
//!   drop-outage spans, and mode-switch frequency from the traces;
//! * [`telemetry`] — `--telemetry` sidecar plumbing and the quiescent
//!   counter-algebra check (`mcs-obs` ↔ `mcs-audit` bridge);
//! * [`trace_cmd`] — the `trace` command: a deterministic admission +
//!   simulation replay exporting the flight-recorder stream (span tree /
//!   Chrome trace-event JSON);
//! * [`report`] — plain-text/CSV rendering.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod admit;
pub mod audit_cmd;
pub mod chart;
pub mod describe;
pub mod elastic_exp;
pub mod example;
pub mod extension;
pub mod figures;
pub mod globalcmp;
pub mod optgap;
pub mod overhead;
pub mod partition_cmd;
pub mod perf;
pub mod report;
pub mod simulate;
pub mod soundness;
pub mod stats;
pub mod sweep;
pub mod tables;
pub mod telemetry;
pub mod trace_cmd;

pub use example::paper_example_task_set;
pub use figures::{figure, FigureId, FigureResult};
pub use report::{render_csv, render_table};
pub use sweep::{run_point, PointResult, SweepConfig};
