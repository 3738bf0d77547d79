//! Differential tests for the incremental probe engine: the optimized
//! placement paths must be *bit-identical* to the pre-optimization
//! reference loops — same probe values, same partitions, same failures —
//! on randomized task sets and under every interpretation flag the
//! experiment harness exposes (strong/weak baselines, linear/geometric
//! WCET growth, fixed/random system criticality level).

mod common;

use common::arb_task_set;
use proptest::prelude::*;

use mcs::analysis::{batch_probe_verdicts, CoreBank, CoreSums, TaskRow, Theorem1, Verdict};
use mcs::gen::{generate_task_set, GenParams, WcetGrowth};
use mcs::model::{
    LevelUtils, McTask, Partition, TaskBuilder, TaskId, TaskSet, UtilTable, WithTask,
};
use mcs::partition::{
    paper_schemes, paper_schemes_weak, reference_paper_schemes, BinPacker, FitTest, Hybrid,
    PartitionFailure, Partitioner, ProbeEngine, ReferenceBinPacker, ReferenceCatpa,
    ReferenceHybrid,
};

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Identical observable outcome: equal assignment maps, or the same first
/// stuck task.
fn same_outcome(
    ts: &TaskSet,
    a: &Result<Partition, PartitionFailure>,
    b: &Result<Partition, PartitionFailure>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(pa), Ok(pb)) => {
            for t in ts.tasks() {
                prop_assert_eq!(
                    pa.core_of(t.id()),
                    pb.core_of(t.id()),
                    "task {} placed differently",
                    t.id()
                );
            }
        }
        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
        (a, b) => prop_assert!(false, "outcomes diverge: {a:?} vs {b:?}"),
    }
    Ok(())
}

/// The optimized/reference scheme pairs, in plot order, for one fit test.
type DynScheme = Box<dyn Partitioner + Send + Sync>;

fn scheme_pairs(fit: FitTest) -> Vec<(DynScheme, DynScheme)> {
    use mcs::partition::Catpa;
    vec![
        (
            Box::new(ReferenceBinPacker::wfd().with_fit(fit)) as DynScheme,
            Box::new(BinPacker::wfd().with_fit(fit)) as DynScheme,
        ),
        (
            Box::new(ReferenceBinPacker::ffd().with_fit(fit)),
            Box::new(BinPacker::ffd().with_fit(fit)),
        ),
        (
            Box::new(ReferenceBinPacker::bfd().with_fit(fit)),
            Box::new(BinPacker::bfd().with_fit(fit)),
        ),
        (
            Box::new(ReferenceBinPacker::nfd().with_fit(fit)),
            Box::new(BinPacker::nfd().with_fit(fit)),
        ),
        (
            Box::new(ReferenceHybrid::default().with_fit(fit)),
            Box::new(Hybrid::default().with_fit(fit)),
        ),
        (Box::new(ReferenceCatpa::default()), Box::new(Catpa::default())),
    ]
}

/// Batch lane vs scalar verdict, bit-for-bit on every observable: the
/// Eq. (4) own-level total (the weak-baseline gate), the Theorem-1
/// utilization (the strong gate), and the monotone slack reading.
fn assert_lane_bits(lane: &Verdict, scalar: &Verdict, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        lane.own_level_total.to_bits(),
        scalar.own_level_total.to_bits(),
        "own_level_total diverges {}",
        ctx
    );
    prop_assert_eq!(
        bits(lane.core_utilization),
        bits(scalar.core_utilization),
        "core_utilization diverges {}",
        ctx
    );
    prop_assert_eq!(
        bits(lane.core_utilization_slack),
        bits(scalar.core_utilization_slack),
        "core_utilization_slack diverges {}",
        ctx
    );
    Ok(())
}

/// Probe every task against every core through both paths and compare
/// lanes bitwise.
fn assert_batch_matches_scalar(
    bank: &CoreBank,
    sums: &[CoreSums],
    rows: &[TaskRow],
    ctx: &str,
) -> Result<(), TestCaseError> {
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        batch_probe_verdicts(bank, row, &mut out);
        prop_assert_eq!(out.len(), sums.len());
        for (m, lane) in out.iter().enumerate() {
            assert_lane_bits(
                lane,
                &sums[m].probe_verdict(row),
                &format!("{ctx} task {i} core {m}"),
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The probe kernel's evaluation of a core is bit-equal to
    /// `Theorem1::compute` over the `UtilTable` for the same members, and
    /// every hypothetical probe is bit-equal to the `WithTask` composite.
    #[test]
    fn kernel_is_bit_equal_to_theorem1(ts in arb_task_set(14, 4), split in 0usize..=14) {
        let tasks = ts.tasks();
        let cut = split.min(tasks.len());
        let (resident, probed) = tasks.split_at(cut);

        let table = UtilTable::from_tasks(ts.num_levels(), resident);
        let mut sums = CoreSums::new(ts.num_levels());
        for t in resident {
            sums.add(&TaskRow::new(t));
        }

        let reference = Theorem1::compute(&table);
        let probe = sums.evaluate();
        prop_assert_eq!(probe.feasible(), reference.feasible());
        prop_assert_eq!(bits(probe.core_utilization()), bits(reference.core_utilization()));
        prop_assert_eq!(
            bits(probe.core_utilization_slack()),
            bits(reference.core_utilization_slack())
        );
        prop_assert_eq!(
            probe.own_level_total().to_bits(),
            table.own_level_total().to_bits()
        );

        for t in probed {
            let composite = WithTask::new(&table, t);
            let hypothesis = Theorem1::compute(&composite);
            let row = TaskRow::new(t);
            let probed = sums.probe(&row);
            prop_assert_eq!(probed.feasible(), hypothesis.feasible());
            prop_assert_eq!(
                bits(probed.core_utilization()),
                bits(hypothesis.core_utilization())
            );
            prop_assert_eq!(
                bits(probed.core_utilization_slack()),
                bits(hypothesis.core_utilization_slack())
            );
            prop_assert_eq!(
                probed.own_level_total().to_bits(),
                composite.own_level_total().to_bits()
            );
            // The fused single-sweep verdict — the placement loops' actual
            // hot path — must match the same reference bitwise.
            let verdict = sums.probe_verdict(&row);
            prop_assert_eq!(verdict.feasible(), hypothesis.feasible());
            prop_assert_eq!(
                bits(verdict.core_utilization),
                bits(hypothesis.core_utilization())
            );
            prop_assert_eq!(
                bits(verdict.core_utilization_slack),
                bits(hypothesis.core_utilization_slack())
            );
            prop_assert_eq!(
                verdict.own_level_total.to_bits(),
                composite.own_level_total().to_bits()
            );
        }
    }

    /// On arbitrary (not generator-shaped) task sets, every optimized
    /// scheme emits exactly the partition its reference loop emits, under
    /// both the strong (Theorem-1) and weak (Eq. (4)) fit readings.
    ///
    /// Up to 20 cores cross the `LANES = 8` chunk boundaries of the batch
    /// kernel (first fit stops after a chunk; a last chunk has padding
    /// lanes), and up to 32 tasks fill whole chunks before the next opens.
    #[test]
    fn optimized_schemes_match_references(ts in arb_task_set(32, 4), cores in 1usize..=20) {
        for fit in [FitTest::default(), FitTest::Simple, FitTest::Improved] {
            for (reference, optimized) in scheme_pairs(fit) {
                same_outcome(
                    &ts,
                    &reference.partition(&ts, cores),
                    &optimized.partition(&ts, cores),
                )?;
            }
        }
    }

    /// On generator-shaped workloads across the four interpretation flags
    /// (strong/weak baselines × linear/geometric growth × fixed/random K),
    /// the paper-scheme families agree pairwise with their references.
    #[test]
    fn paper_scheme_families_match_references_under_all_flags(seed in any::<u64>()) {
        for growth in [WcetGrowth::Linear, WcetGrowth::Geometric] {
            for random_k in [false, true] {
                let mut params = GenParams::default()
                    .with_n_range(20, 40)
                    .with_cores(4)
                    .with_nsu(0.62)
                    .with_growth(growth);
                if random_k {
                    params = params.with_level_range(2, 6);
                }
                let ts = generate_task_set(&params, seed);
                for (schemes, references) in [
                    (paper_schemes(), reference_paper_schemes()),
                ] {
                    prop_assert_eq!(schemes.len(), references.len());
                    for (optimized, reference) in schemes.iter().zip(&references) {
                        same_outcome(
                            &ts,
                            &reference.partition(&ts, params.cores),
                            &optimized.partition(&ts, params.cores),
                        )?;
                    }
                }
                // The weak-baseline reading: references get the same
                // Eq. (4)-only fit test the optimized weak family uses.
                let weak = paper_schemes_weak();
                let weak_refs: Vec<Box<dyn Partitioner + Send + Sync>> = vec![
                    Box::new(ReferenceBinPacker::wfd().with_fit(FitTest::Simple)),
                    Box::new(ReferenceBinPacker::ffd().with_fit(FitTest::Simple)),
                    Box::new(ReferenceBinPacker::bfd().with_fit(FitTest::Simple)),
                    Box::new(ReferenceHybrid::default().with_fit(FitTest::Simple)),
                    Box::new(ReferenceCatpa::default()),
                ];
                for (optimized, reference) in weak.iter().zip(&weak_refs) {
                    same_outcome(
                        &ts,
                        &reference.partition(&ts, params.cores),
                        &optimized.partition(&ts, params.cores),
                    )?;
                }
            }
        }
    }

    /// The SoA batch kernel is bit-equal to the scalar `probe_verdict` on
    /// generator-shaped workloads across K ∈ {2..8} × cores ∈ {2, 8, 128},
    /// and stays bit-equal through the mutation paths the placement loops
    /// exercise: evictions (`remove`) and cross-core swaps. Both the weak
    /// Eq. (4) observable and the strong Theorem-1 observables are compared.
    #[test]
    fn batch_kernel_matches_scalar_across_grid(seed in any::<u64>()) {
        for k in 2u8..=8 {
            for cores in [2usize, 8, 128] {
                // Two tasks per core keeps the grid fast while still
                // filling every lane of every chunk.
                let n = 2 * cores;
                let params = GenParams::default()
                    .with_n_range(n, n)
                    .with_cores(cores)
                    .with_levels(k)
                    .with_nsu(0.6);
                let ts = generate_task_set(&params, seed);
                let rows: Vec<TaskRow> = ts.tasks().iter().map(TaskRow::new).collect();

                let mut bank = CoreBank::new();
                bank.reset(k, cores);
                let mut sums = vec![CoreSums::new(k); cores];
                let mut home: Vec<usize> = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    bank.add(i % cores, row);
                    sums[i % cores].add(row);
                    home.push(i % cores);
                }
                let ctx = format!("K={k} cores={cores}");
                assert_batch_matches_scalar(&bank, &sums, &rows, &format!("{ctx} dealt"))?;

                // Evict every third task from its core.
                for (i, row) in rows.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
                    bank.remove(home[i], row);
                    sums[home[i]].remove(row);
                }
                assert_batch_matches_scalar(&bank, &sums, &rows, &format!("{ctx} evicted"))?;

                // Swap the remaining tasks one core over (remove + add on
                // both sides — the repair/swap path's exact operations).
                for (i, row) in rows.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
                    let from = home[i];
                    let to = (from + 1) % cores;
                    bank.remove(from, row);
                    sums[from].remove(row);
                    bank.add(to, row);
                    sums[to].add(row);
                    home[i] = to;
                }
                assert_batch_matches_scalar(&bank, &sums, &rows, &format!("{ctx} swapped"))?;

                // First-class O(K) swap deltas: replace every resident task
                // with its evicted neighbour on the same core in one
                // operation (the admission engine's `swap_committed` path).
                let resident: Vec<usize> = (0..rows.len()).filter(|i| i % 3 != 0).collect();
                let evicted: Vec<usize> = (0..rows.len()).filter(|i| i % 3 == 0).collect();
                for (&out_i, &in_i) in resident.iter().zip(&evicted) {
                    let m = home[out_i];
                    bank.swap(m, &rows[out_i], &rows[in_i]);
                    sums[m].swap(&rows[out_i], &rows[in_i]);
                    home[in_i] = m;
                }
                assert_batch_matches_scalar(&bank, &sums, &rows, &format!("{ctx} delta-swapped"))?;

                // Departure refold: clear core 0 and re-fold a survivor
                // list in arrival order (the admission engine's
                // exact-departure path). Folding the live bank and a fresh
                // scalar oracle in the same order makes bit-identity the
                // correct expectation — the interesting claim is that
                // `clear_core` leaves no residue in any strided plane.
                let survivors: Vec<usize> = (0..rows.len()).step_by(4).collect();
                bank.clear_core(0);
                let mut fresh = CoreSums::new(k);
                for &i in &survivors {
                    bank.add(0, &rows[i]);
                    fresh.add(&rows[i]);
                }
                sums[0] = fresh;
                assert_batch_matches_scalar(&bank, &sums, &rows, &format!("{ctx} refolded"))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Admission-lifecycle churn equivalence: a randomized interleaving of
    /// `admit`/`depart` requests (with repair-on-reject relocations — the
    /// engine's swap path) leaves the engine's live state *bit-identical*
    /// to a from-scratch rebuild of the surviving task set, for every
    /// K ∈ {2..8}. The surviving state is then re-checked through both
    /// probe kernels: the SoA batch sweep and the scalar `CoreSums` oracle
    /// must agree bitwise on every (task, core) probe of the churned state.
    #[test]
    fn admission_churn_is_bit_identical_to_from_scratch_rebuild(seed in any::<u64>()) {
        use mcs::gen::{generate_trace, TraceOp, TraceParams};
        use mcs::partition::{AdmissionEngine, AdmissionPolicy, Decision};

        for k in 2u8..=8 {
            let cores = 3usize;
            let params = GenParams::default()
                .with_n_range(12, 12)
                .with_cores(cores)
                .with_levels(k)
                .with_nsu(0.75); // load high enough that rejects/repairs occur
            let ts = generate_task_set(&params, seed);
            let ops = generate_trace(ts.len(), &TraceParams::default().with_ops(100), seed);

            let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
            engine.reset(&ts, cores);
            // Shadow bookkeeping from the engine's observable decisions
            // only: per-core member lists in arrival order.
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); cores];
            for op in &ops {
                match *op {
                    TraceOp::Arrive(id) => {
                        if let Decision::Admitted { core, .. } = engine.admit(id) {
                            members[core.0 as usize].push(id.index());
                        }
                    }
                    TraceOp::Depart(id) => {
                        if engine.depart(id) {
                            for m in &mut members {
                                m.retain(|i| *i != id.index());
                            }
                        }
                    }
                }
            }
            let ctx = format!("K={k} seed={seed}");

            // The engine's own gate: live sums ≡ fresh rebuild, bitwise.
            prop_assert!(
                engine.state_identical_to_rebuild(),
                "{} drifted from the rebuild",
                &ctx
            );

            // Repair moves relocate tasks, so the shadow lists can diverge
            // from the engine's internal member order — but the *set* per
            // core must match the engine's partition exactly.
            let partition = engine.partition();
            let placed: usize = members.iter().map(Vec::len).sum();
            prop_assert_eq!(placed, engine.resident_count(), "{}", &ctx);
            for (m, list) in members.iter().enumerate() {
                for &i in list {
                    // Repair may have moved the task; check against the
                    // engine's placement, not the admission-time core.
                    let id = ts.tasks()[i].id();
                    prop_assert!(partition.core_of(id).is_some(), "{} lost task {}", &ctx, id);
                }
                let _ = m;
            }

            // From-scratch rebuild of the survivors (partition order per
            // core, task-id order within): both kernels must agree bitwise
            // on every probe of the churned state — and every non-empty
            // core must still certify Theorem 1.
            let rows: Vec<TaskRow> = ts.tasks().iter().map(TaskRow::new).collect();
            let mut bank = CoreBank::new();
            bank.reset(k, cores);
            let mut sums = vec![CoreSums::new(k); cores];
            for (i, t) in ts.tasks().iter().enumerate() {
                if let Some(core) = partition.core_of(t.id()) {
                    bank.add(core.0 as usize, &rows[i]);
                    sums[core.0 as usize].add(&rows[i]);
                }
            }
            for (m, s) in sums.iter().enumerate() {
                if s.task_count() > 0 {
                    prop_assert!(
                        s.evaluate_verdict().feasible(),
                        "{} core {} infeasible after churn",
                        &ctx,
                        m
                    );
                }
            }
            assert_batch_matches_scalar(&bank, &sums, &rows, &format!("{ctx} churned"))?;
        }
    }
}

/// The repair move search as both repair loops ran it before the shared
/// batched search: per core, the residents cloned and sorted by own-level
/// utilization, one scalar swap probe per candidate, then scalar probes of
/// the other cores in index order.
fn scalar_repair_move(
    engine: &ProbeEngine,
    stuck: TaskId,
    members: &[Vec<TaskId>],
) -> Option<(usize, TaskId, usize)> {
    for (m, residents) in members.iter().enumerate() {
        let mut candidates = residents.clone();
        candidates
            .sort_by(|a, b| engine.util_own(*a).partial_cmp(&engine.util_own(*b)).expect("finite"));
        for cand in candidates {
            if !engine.probe_swap_verdict(m, cand, stuck).feasible() {
                continue;
            }
            let target = (0..engine.num_cores())
                .find(|&m2| m2 != m && engine.probe_verdict(m2, cand).feasible());
            if let Some(m2) = target {
                return Some((m, cand, m2));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The shared batched repair search returns exactly the move (or the
    /// `None`) of the scalar reference loop on churned engine states at
    /// K ∈ {2..8}. Arrivals go first-fit and, when no core fits, ask both
    /// searches, then ask both about a second stranded task at the same
    /// state, so the search's cached per-core banks and relocation memo
    /// are read back unchanged; the first move found is then applied so
    /// later states hold relocated tasks. Departures alternate between the
    /// admission engine's refold and the clamped eviction CA-TPA+LS uses,
    /// so both removal paths' bits reach the search. One engine serves
    /// every K, reset each time to another task set and core count.
    #[test]
    fn batched_repair_search_matches_the_scalar_loop(seed in any::<u64>()) {
        use mcs::gen::{generate_trace, TraceOp, TraceParams};

        let mut stuck_total = 0usize;
        let mut engine = ProbeEngine::new();
        for k in 2u8..=8 {
            let cores = 3 + usize::from(k % 3);
            let params = GenParams::default()
                .with_n_range(24, 48)
                .with_cores(cores)
                .with_levels(k)
                .with_nsu(1.0); // overloaded, so arrivals strand
            let ts = generate_task_set(&params, seed);
            let ops = generate_trace(
                ts.len(),
                &TraceParams { ops: 160, depart_ratio: 0.25 },
                seed ^ u64::from(k),
            );
            engine.reset(&ts, cores);
            let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); cores];
            let mut home: Vec<Option<usize>> = vec![None; ts.len()];
            for (step, op) in ops.iter().enumerate() {
                let ctx = format!("K={k} seed={seed} step={step}");
                match *op {
                    TraceOp::Arrive(id) => {
                        let (verdicts, _) = engine.probe_all_cores(id);
                        let direct = verdicts
                            .iter()
                            .enumerate()
                            .find_map(|(m, v)| v.core_utilization.map(|u| (m, u)));
                        if let Some((m, u)) = direct {
                            engine.commit(id, m, u);
                            members[m].push(id);
                            home[id.index()] = Some(m);
                            continue;
                        }
                        stuck_total += 1;
                        let expected = scalar_repair_move(&engine, id, &members);
                        let found = engine.find_repair_move(id, &members);
                        prop_assert_eq!(found, expected, "{}", &ctx);
                        let other = (1..ts.len())
                            .map(|d| TaskId(u32::try_from((id.index() + d) % ts.len()).unwrap()))
                            .find(|t| {
                                home[t.index()].is_none()
                                    && !engine.probe_all_cores(*t).0.iter().any(Verdict::feasible)
                            });
                        if let Some(other) = other {
                            let expected = scalar_repair_move(&engine, other, &members);
                            let found = engine.find_repair_move(other, &members);
                            prop_assert_eq!(found, expected, "{} second task {}", &ctx, other);
                        }
                        let Some((m, cand, m2)) = found else { continue };
                        members[m].retain(|t| *t != cand);
                        engine.refold_core(m, &members[m]);
                        for (id, to) in [(cand, m2), (id, m)] {
                            let u = engine.probe_verdict(to, id).core_utilization.unwrap();
                            engine.commit(id, to, u);
                            members[to].push(id);
                            home[id.index()] = Some(to);
                        }
                    }
                    TraceOp::Depart(id) => {
                        let Some(m) = home[id.index()].take() else { continue };
                        members[m].retain(|t| *t != id);
                        if step % 2 == 0 {
                            engine.refold_core(m, &members[m]);
                        } else {
                            engine.evict(id, m);
                        }
                    }
                }
            }
        }
        prop_assert!(stuck_total > 0, "seed {} stranded no arrival", seed);
    }
}

/// At 128 cores — the fig-1-style acceptance-sweep scale — every optimized
/// scheme (strong and weak families) still emits exactly the partition its
/// pre-optimization reference loop emits.
#[test]
fn scheme_identity_at_128_cores() {
    let params = GenParams::default().with_n_range(1024, 1024).with_cores(128).with_nsu(0.5);
    let ts = generate_task_set(&params, 0xC0FFEE);

    let strong = paper_schemes();
    let strong_refs = reference_paper_schemes();
    assert_eq!(strong.len(), strong_refs.len());
    for (optimized, reference) in strong.iter().zip(&strong_refs) {
        same_outcome(&ts, &reference.partition(&ts, 128), &optimized.partition(&ts, 128))
            .unwrap_or_else(|e| panic!("{} diverges at 128 cores: {e:?}", optimized.name()));
    }

    let weak = paper_schemes_weak();
    let weak_refs: Vec<DynScheme> = vec![
        Box::new(ReferenceBinPacker::wfd().with_fit(FitTest::Simple)),
        Box::new(ReferenceBinPacker::ffd().with_fit(FitTest::Simple)),
        Box::new(ReferenceBinPacker::bfd().with_fit(FitTest::Simple)),
        Box::new(ReferenceHybrid::default().with_fit(FitTest::Simple)),
        Box::new(ReferenceCatpa::default()),
    ];
    for (optimized, reference) in weak.iter().zip(&weak_refs) {
        same_outcome(&ts, &reference.partition(&ts, 128), &optimized.partition(&ts, 128))
            .unwrap_or_else(|e| panic!("weak {} diverges at 128 cores: {e:?}", optimized.name()));
    }
}

/// A generator seed whose 128-core, NSU-0.7 set defeats FFD, BFD and Hybrid.
const SEED_128_FAIL: u64 = 0xC0FFEE;

/// At 128 cores and NSU 0.7 the bin-packers run out of room: FFD, BFD and
/// Hybrid fail, and the first task each cannot place and the count placed
/// before it must be the reference's.
#[test]
fn failures_at_128_cores_match_references() {
    let params = GenParams::default().with_n_range(1024, 1024).with_cores(128).with_nsu(0.7);
    let ts = generate_task_set(&params, SEED_128_FAIL);
    let pairs: Vec<(DynScheme, DynScheme)> = vec![
        (Box::new(ReferenceBinPacker::ffd()), Box::new(BinPacker::ffd())),
        (Box::new(ReferenceBinPacker::bfd()), Box::new(BinPacker::bfd())),
        (Box::new(ReferenceHybrid::default()), Box::new(Hybrid::default())),
    ];
    for (reference, optimized) in pairs {
        let expected = reference.partition(&ts, 128);
        let got = optimized.partition(&ts, 128);
        let Err(failure) = expected else {
            panic!("{} places the whole set; pick another seed", reference.name())
        };
        assert_eq!(got.unwrap_err(), failure, "{} fails elsewhere", optimized.name());
    }
}

fn task(id: u32, level: u8, wcet: &[u64]) -> McTask {
    TaskBuilder::new(TaskId(id)).period(100).level(level).wcet(wcet).build().unwrap()
}

/// Best and worst fit fall back to a full sweep when the extremal-load
/// core rejects; among the passing cores of equal load the smaller index
/// must win, as in the reference's strict index-order fold.
#[test]
fn fallback_ties_take_the_smaller_core() {
    // BFD, K = 1: 0.7 → P0. The fullest core rejects 0.6, so the sweep
    // picks among the empty P1..P3 → P1; for the second 0.6, P0 and P1
    // reject → P2 of the tied P2, P3.
    let ts =
        TaskSet::new(1, vec![task(0, 1, &[70]), task(1, 1, &[60]), task(2, 1, &[60])]).unwrap();
    // WFD, K = 2: the HI tasks (0.05, 0.7) go to P0 and P1, the LO 0.6 to
    // the empty P2. The LO 0.45 fails Theorem 1 on the emptiest P2
    // (1.05 at level 1) but fits P0 and P1 (0.45 + 0.05/0.3 ≤ 1), which
    // tie at load 0.7 → P0.
    let hi_lo = TaskSet::new(
        2,
        vec![task(0, 2, &[5, 70]), task(1, 2, &[5, 70]), task(2, 1, &[60]), task(3, 1, &[45])],
    )
    .unwrap();
    for (ts, cores, reference, optimized, expected) in [
        (&ts, 4, ReferenceBinPacker::bfd(), BinPacker::bfd(), vec![0u16, 1, 2]),
        (&hi_lo, 3, ReferenceBinPacker::wfd(), BinPacker::wfd(), vec![0, 1, 2, 0]),
    ] {
        let p = optimized.partition(ts, cores).unwrap();
        let cores_of: Vec<u16> = ts.tasks().iter().map(|t| p.core_of(t.id()).unwrap().0).collect();
        assert_eq!(cores_of, expected, "{}", optimized.name());
        same_outcome(ts, &reference.partition(ts, cores), &Ok(p)).unwrap();
    }
}

/// Eq. (4) and Theorem 1 agree in exact arithmetic, but not always in
/// floating point: this one-core set sums to 1 + 1e-12 at the own levels,
/// which Eq. (4)'s ascending fold accepts and Theorem 1's descending θ(1)
/// fold rounds just past its bound. The paper's two-stage test must keep
/// its Eq. (4) disjunct to place the set, as the reference does.
#[test]
fn eq4_disjunct_places_a_set_theorem1_rounds_out() {
    const P: u64 = 1_000_000_000_000;
    let wcets = [77_752_400_679u64, 135_900_389, 150_397_660_469, 771_714_038_464];
    let tasks = (1u8..=4)
        .zip(wcets)
        .map(|(l, c)| {
            TaskBuilder::new(TaskId(u32::from(l) - 1))
                .period(P)
                .level(l)
                .wcet(&vec![c; usize::from(l)])
                .build()
                .unwrap()
        })
        .collect();
    let ts = TaskSet::new(4, tasks).unwrap();
    assert!(BinPacker::ffd().with_fit(FitTest::Improved).partition(&ts, 1).is_err());
    // The bin-packers; CA-TPA probes with Theorem 1 alone.
    for (reference, optimized) in scheme_pairs(FitTest::default()).into_iter().take(5) {
        let expected = reference.partition(&ts, 1);
        assert!(expected.is_ok(), "{} rejects the set", reference.name());
        same_outcome(&ts, &expected, &optimized.partition(&ts, 1)).unwrap();
    }
}
