//! Metamorphic properties of the incremental admission engine against its
//! batch ancestor:
//!
//! 1. **Repack equivalence** — after a forced repack, the incremental
//!    assignment over the survivors is byte-identical to a from-scratch
//!    [`first_fit_ordered`] run on the same survivor set (EDF, RMS-LL and
//!    hyperbolic); a repack that comes back infeasible leaves the engine's
//!    observable state and its placements untouched.
//! 2. **Rollback idempotence** — rolling back to a snapshot restores the
//!    engine's full observable state (assignment, per-machine loads,
//!    canonicality, live ids), and rolling back twice changes nothing.
//! 3. **Canonical appends need no repack** — a stream of decreasing-
//!    utilization adds stays canonical with zero divergence, and its
//!    assignment already matches from-scratch without any repack.
//! 4. **Repack counters** — a repack emits exactly the `ff.*`/`engine.*`
//!    counters and histograms [`FirstFitEngine::run_with`] emits on the
//!    same survivors, workspace growth included.
//!
//! The generator is the workspace's fixed-seed [`Rng`].

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_obs::{HistogramSnapshot, MemorySink};
use hetfeas_partition::{
    first_fit_ordered, Assignment, EdfAdmission, FirstFitEngine, IncrementalEngine,
    IndexableAdmission, Outcome, RepackOutcome, RepairPolicy, RmsHyperbolicAdmission,
    RmsLlAdmission, TaskId,
};
use hetfeas_robust::Gas;

/// Dense per-task placement vector for byte-identical comparisons.
fn placements(a: &Assignment, n: usize) -> Vec<Option<usize>> {
    (0..n).map(|i| a.machine_of(i)).collect()
}

fn random_task(rng: &mut Rng) -> Task {
    const PERIODS: [u64; 6] = [10, 20, 25, 40, 50, 100];
    let p = PERIODS[rng.below(PERIODS.len() as u64) as usize];
    Task::implicit(1 + rng.below(p.min(60)), p).expect("valid task")
}

fn random_platform(rng: &mut Rng, max_m: usize) -> Platform {
    let m = 1 + rng.below(max_m as u64) as usize;
    let speeds: Vec<u64> = (0..m).map(|_| 1 + rng.below(6)).collect();
    Platform::from_int_speeds(speeds).expect("valid platform")
}

/// Live `(id, machine)` placements, bit-exact loads, canonicity and
/// divergence.
type Observed = (Vec<(u64, Option<usize>)>, Vec<u64>, bool, u64);

/// The full observable state of an engine, for equality checks.
fn observe<A: IndexableAdmission>(eng: &IncrementalEngine<A>) -> Observed {
    let ids = eng.live_ids();
    let placements = ids
        .iter()
        .map(|&id| (id.raw(), eng.machine_of(id)))
        .collect();
    // Loads compared bit-exactly: rollback must restore them identically.
    let loads = (0..eng.platform().len())
        .map(|m| eng.load_on(m).to_bits())
        .collect();
    (placements, loads, eng.is_canonical(), eng.divergence())
}

/// Churn an engine with interleaved adds/removes, returning the live ids.
fn churn<A: IndexableAdmission>(
    rng: &mut Rng,
    eng: &mut IncrementalEngine<A>,
    ops: usize,
) -> Vec<TaskId> {
    let mut live: Vec<TaskId> = Vec::new();
    for _ in 0..ops {
        if !live.is_empty() && rng.below(3) == 0 {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            assert!(eng.remove(victim).is_some(), "live id removes");
        } else if let Some(id) = eng.add(random_task(rng)).id() {
            live.push(id);
        }
    }
    live
}

/// After an infeasible repack the engine must be exactly as before it,
/// apart from the reset divergence clock: same observation, and the same
/// placement for the next add as the pre-repack snapshot gives.
fn check_infeasible_repack_untouched<A: IndexableAdmission>(
    eng: &mut IncrementalEngine<A>,
    before: Observed,
    probe: Task,
    context: &str,
) {
    let (placements, loads, canonical, _) = before;
    assert_eq!(
        observe(eng),
        (placements, loads, canonical, 0),
        "infeasible repack changed the engine ({context})"
    );
    let snap = eng.snapshot();
    let after = eng.add(probe);
    eng.rollback(&snap);
    assert_eq!(eng.add(probe), after, "next add diverged ({context})");
}

/// Property 1: post-repack assignment equals from-scratch first-fit on the
/// survivors, including the exact per-machine placement.
fn check_repack_equivalence<A: IndexableAdmission>(admission: A, seed: u64) {
    let mut rng = Rng::new(seed);
    let platform = random_platform(&mut rng, 6);
    let alpha = Augmentation::NONE;
    let mut eng = IncrementalEngine::new(admission, &platform, alpha);
    churn(&mut rng, &mut eng, 60);
    let survivors = eng.live_tasks();
    let before = observe(&eng);
    match eng.force_repack() {
        RepackOutcome::Repacked => {}
        RepackOutcome::Infeasible => {
            let probe = random_task(&mut rng);
            check_infeasible_repack_untouched(&mut eng, before, probe, &format!("seed {seed}"));
            return;
        }
    }
    assert!(eng.is_canonical());
    assert_eq!(eng.divergence(), 0);
    let task_order = survivors.order_by_decreasing_utilization();
    let machine_order = platform.order_by_increasing_speed();
    let batch = first_fit_ordered(
        &survivors,
        &platform,
        alpha,
        eng.admission(),
        &task_order,
        &machine_order,
    );
    let Outcome::Feasible(expect) = batch else {
        panic!("repack said feasible but batch disagrees (seed {seed})");
    };
    let got = eng.assignment();
    let n = survivors.len();
    assert_eq!(
        placements(&got, n),
        placements(&expect, n),
        "post-repack placement diverges from first_fit_ordered (seed {seed})"
    );
}

#[test]
fn repack_matches_from_scratch_edf() {
    for seed in 0..40 {
        check_repack_equivalence(EdfAdmission, seed);
    }
}

#[test]
fn repack_matches_from_scratch_rms_ll() {
    for seed in 100..140 {
        check_repack_equivalence(RmsLlAdmission, seed);
    }
}

#[test]
fn repack_matches_from_scratch_hyperbolic() {
    for seed in 140..180 {
        check_repack_equivalence(RmsHyperbolicAdmission, seed);
    }
}

/// Arrival order packs {0.4, 0.3, 0.3} twice onto two unit machines, but
/// FFD puts both 0.4s together and strands a 0.3: the repack is
/// infeasible, and the engine must come out of it untouched.
#[test]
fn infeasible_repack_keeps_the_live_assignment() {
    let platform = Platform::from_int_speeds([1, 1]).expect("valid platform");
    let mut eng = IncrementalEngine::new(EdfAdmission, &platform, Augmentation::NONE);
    for wcet in [4, 3, 3, 4, 3, 3] {
        assert!(eng
            .add(Task::implicit(wcet, 10).expect("valid task"))
            .is_admitted());
    }
    let before = observe(&eng);
    assert_eq!(before.3, 3, "the second 0.4 and its 0.3s diverge");
    assert_eq!(eng.force_repack(), RepackOutcome::Infeasible);
    let probe = Task::implicit(1, 100).expect("valid task");
    check_infeasible_repack_untouched(&mut eng, before, probe, "fixed instance");
}

/// Property 2: rollback restores the observable state the snapshot saw,
/// and a second rollback is a no-op.
fn check_rollback_restores<A: IndexableAdmission>(admission: A, seed: u64) {
    let mut rng = Rng::new(seed);
    let platform = random_platform(&mut rng, 5);
    let mut eng = IncrementalEngine::new(admission, &platform, Augmentation::NONE);
    churn(&mut rng, &mut eng, 30);
    let snap = eng.snapshot();
    let saved = observe(&eng);

    // Speculative phase: more churn, maybe a repack.
    churn(&mut rng, &mut eng, 25);
    if rng.below(2) == 0 {
        let _ = eng.force_repack();
    }

    eng.rollback(&snap);
    assert_eq!(observe(&eng), saved, "rollback drifted (seed {seed})");
    // Idempotent: rolling back again changes nothing.
    eng.rollback(&snap);
    assert_eq!(
        observe(&eng),
        saved,
        "second rollback drifted (seed {seed})"
    );

    // The restored engine still behaves like a fresh engine in that
    // canonical state: adds after rollback work.
    let _ = eng.add(random_task(&mut rng));
}

#[test]
fn rollback_restores_observable_state_edf() {
    for seed in 200..240 {
        check_rollback_restores(EdfAdmission, seed);
    }
}

#[test]
fn rollback_restores_observable_state_rms_ll() {
    for seed in 300..340 {
        check_rollback_restores(RmsLlAdmission, seed);
    }
}

/// Property 3: appending tasks in decreasing-utilization order keeps the
/// engine canonical with zero divergence — no repack ever triggers — and
/// the live assignment equals from-scratch first-fit directly.
#[test]
fn sorted_appends_stay_canonical_and_match_batch() {
    for seed in 400..420u64 {
        let mut rng = Rng::new(seed);
        let platform = random_platform(&mut rng, 6);
        let mut tasks: Vec<Task> = (0..30).map(|_| random_task(&mut rng)).collect();
        tasks.sort_by_key(|t| std::cmp::Reverse(t.utilization_ratio()));
        let mut eng = IncrementalEngine::new(EdfAdmission, &platform, Augmentation::NONE);
        for &t in &tasks {
            let _ = eng.add(t);
        }
        assert!(
            eng.is_canonical(),
            "sorted appends lost canonicality (seed {seed})"
        );
        assert_eq!(eng.divergence(), 0);

        let survivors = eng.live_tasks();
        let task_order = survivors.order_by_decreasing_utilization();
        let machine_order = platform.order_by_increasing_speed();
        if let Outcome::Feasible(expect) = first_fit_ordered(
            &survivors,
            &platform,
            Augmentation::NONE,
            &EdfAdmission,
            &task_order,
            &machine_order,
        ) {
            let n = survivors.len();
            assert_eq!(
                placements(&eng.assignment(), n),
                placements(&expect, n),
                "canonical stream diverges from batch (seed {seed})"
            );
        }
    }
}

/// The `ff.*` and `engine.*` counters, and the histograms, of a sink.
type BatchMetrics = (Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>);

/// Everything in `sink` outside the `incr.*` family.
fn batch_metrics(sink: &MemorySink) -> BatchMetrics {
    let snap = sink.snapshot();
    let counters = snap
        .counters
        .into_iter()
        .filter(|(name, _)| !name.starts_with("incr."))
        .collect();
    (counters, snap.histograms)
}

/// Repack after rounds of churn and compare its metrics with the batch
/// engine's on the same survivors. Returns how many repacks came back
/// infeasible.
fn check_repack_counters<A: IndexableAdmission + Clone>(admission: A, seed: u64) -> u32 {
    let mut rng = Rng::new(seed);
    // Small, slow platforms run full, where first fit in arrival
    // order and in FFD order part ways.
    let m = 2 + rng.below(3) as usize;
    let platform =
        Platform::from_int_speeds((0..m).map(|_| 1 + rng.below(2))).expect("valid platform");
    let mut eng = IncrementalEngine::with_policy(
        admission.clone(),
        &platform,
        Augmentation::NONE,
        RepairPolicy::never(),
    );
    let mut ff = FirstFitEngine::new(admission);
    let mut live = Vec::new();
    let mut infeasible = 0;
    // Several rounds on one engine: the first repack grows the
    // workspaces, later ones reuse them — on both sides.
    for round in 0..8 {
        for _ in 0..12 {
            if !live.is_empty() && rng.below(4) == 0 {
                let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                eng.remove(victim);
            } else {
                let p = [10u64, 20, 25, 40, 50, 100][rng.below(6) as usize];
                let task = Task::implicit(1 + rng.below(p), p).expect("valid task");
                live.extend(eng.add(task).id());
            }
        }
        let survivors = eng.live_tasks();
        let (ours, batch) = (MemorySink::new(), MemorySink::new());
        let out = eng
            .repack_within_with(&mut Gas::unlimited(), &ours)
            .expect("unlimited gas");
        let reference = ff.run_with(&survivors, &platform, Augmentation::NONE, &batch);
        assert_eq!(
            out == RepackOutcome::Repacked,
            reference.is_feasible(),
            "seed {seed} round {round}"
        );
        infeasible += u32::from(out == RepackOutcome::Infeasible);
        assert_eq!(
            batch_metrics(&ours),
            batch_metrics(&batch),
            "seed {seed} round {round}: {survivors} on {platform}"
        );
    }
    infeasible
}

#[test]
fn repack_counters_equal_batch_engine_counters() {
    let mut infeasible = 0;
    for seed in 0..30 {
        infeasible += check_repack_counters(EdfAdmission, seed);
        infeasible += check_repack_counters(RmsLlAdmission, 100 + seed);
        infeasible += check_repack_counters(RmsHyperbolicAdmission, 200 + seed);
    }
    assert!(infeasible > 0, "no infeasible repack exercised");
}
