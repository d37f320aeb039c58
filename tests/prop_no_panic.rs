//! The no-panic battery (`DESIGN.md` §8): every public entry point of the
//! workspace terminates within its budget and never panics — on arbitrary
//! generated instances and on the adversarial [`FaultPlan`] corpus alike.

use hetfeas::analysis::{qpa_schedulable_within, rta_schedulable_within};
use hetfeas::experiments::{replay_durable, replay_instance, trace_events, ReplayMode};
use hetfeas::lp::solve_paper_lp_within;
use hetfeas::model::{parse_op_trace, parse_system, Augmentation, Platform, Ratio, Task, TaskSet};
use hetfeas::partition::{
    exact_partition_edf, exact_partition_edf_degraded, first_fit, first_fit_within,
    lp_feasible_degraded, min_feasible_alpha_within, DurableOptions, EdfAdmission, ExactOutcome,
    ExactSolver, LadderVerdict, Outcome,
};
use hetfeas::robust::{guard, Budget, FaultKind, FaultPlan, MemStorage};
use hetfeas::sim::{validate_assignment_within, validation_horizon, SchedPolicy};
use hetfeas_check::*;

fn menu_task() -> impl Strategy<Value = Task> {
    (1u64..=90, select(vec![10u64, 20, 25, 40, 50, 100, 1000]))
        .prop_map(|(c, p)| Task::implicit(c, p.max(c)).unwrap())
}

fn small_set(max: usize) -> impl Strategy<Value = TaskSet> {
    vec(menu_task(), 0..max).prop_map(TaskSet::new)
}

fn small_platform() -> impl Strategy<Value = Platform> {
    vec(1u64..=6, 1..5).prop_map(|s| Platform::from_int_speeds(s).unwrap())
}

/// Job releases in a validation horizon above which
/// [`budgeted_validation_terminates`] draws its unbudgeted case again:
/// periods up to 90 give hyperperiods near 10⁹ ticks, whose ~10⁸ jobs
/// take minutes and gigabytes to simulate.
const MAX_SIM_RELEASES: u128 = 1 << 21;

/// An ops budget small enough to exhaust mid-computation on many of the
/// generated instances, so both the `Ok` and `Err` paths get exercised.
fn tight_ops() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..200, Just(u64::MAX)]
}

check! {
    // Budgeted first-fit terminates, never panics, and agrees with the
    // unbudgeted run whenever it does not exhaust.
    #[test]
    fn first_fit_within_terminates_and_agrees(
        ts in small_set(14), p in small_platform(), ops in tight_ops()
    ) {
        let mut gas = Budget::ops(ops).gas();
        let budgeted = first_fit_within(&ts, &p, Augmentation::NONE, &EdfAdmission, &mut gas);
        if budgeted.is_decided() {
            let free = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
            prop_assert_eq!(budgeted.is_feasible(), free.is_feasible());
        }
    }

    // The α-bisection under a budget either answers like the unbudgeted
    // search or reports exhaustion — it never panics or loops.
    #[test]
    fn alpha_search_within_terminates(
        ts in small_set(10), p in small_platform(), ops in tight_ops()
    ) {
        let mut gas = Budget::ops(ops).gas();
        let _ = min_feasible_alpha_within(&ts, &p, &EdfAdmission, 8.0, 1e-4, &mut gas);
    }

    // The exact-partition degradation ladder: always returns, and a
    // decided verdict is sound against the exact oracle.
    #[test]
    fn exact_ladder_is_sound_under_any_budget(
        ts in small_set(9), p in small_platform(), ops in tight_ops()
    ) {
        let mut gas = Budget::ops(ops).gas();
        let ladder = exact_partition_edf_degraded(&ts, &p, 100_000, &mut gas, &());
        match exact_partition_edf(&ts, &p, 2_000_000) {
            ExactOutcome::Feasible(_) => {
                prop_assert!(!matches!(ladder.verdict, LadderVerdict::Infeasible));
            }
            ExactOutcome::Infeasible => {
                prop_assert!(!ladder.verdict.is_feasible());
            }
            ExactOutcome::Unknown => {}
        }
    }

    // The LP ladder mirrors the same contract against the LP oracle.
    #[test]
    fn lp_ladder_terminates(
        ts in small_set(10), p in small_platform(), ops in tight_ops()
    ) {
        let mut gas = Budget::ops(ops).gas();
        let _ = lp_feasible_degraded(&ts, &p, &mut gas, &());
    }

    // Budgeted single-machine analyses terminate on any menu instance.
    #[test]
    fn analysis_within_terminates(
        ts in small_set(12), speed in 1u64..=6, ops in tight_ops()
    ) {
        let s = Ratio::from_integer(speed as i128);
        let mut gas = Budget::ops(ops).gas();
        let _ = qpa_schedulable_within(&ts, s, &mut gas);
        let mut gas = Budget::ops(ops).gas();
        let _ = rta_schedulable_within(&ts, s, &mut gas);
    }

    // The budgeted LP solver terminates on any instance.
    #[test]
    fn lp_solver_within_terminates(
        ts in small_set(10), p in small_platform(), ops in tight_ops()
    ) {
        let mut gas = Budget::ops(ops).gas();
        let _ = solve_paper_lp_within(&ts, &p, &mut gas);
    }

    // A budgeted simulation either validates the first-fit witness or
    // reports exhaustion; a witness that simulates to completion is clean.
    // The unbudgeted arm runs every accepted witness to the end; witnesses
    // with more than MAX_SIM_RELEASES jobs are drawn again.
    #[test]
    fn budgeted_validation_terminates(
        ts in small_set(8), p in small_platform(), ops in tight_ops()
    ) {
        if let Outcome::Feasible(a) = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission) {
            let releases = validation_horizon(&ts).map_or(0, |h| {
                ts.iter().map(|t| u128::from(h) / u128::from(t.period())).sum::<u128>()
            });
            prop_assume!(ops != u64::MAX || releases <= MAX_SIM_RELEASES);
            let mut gas = Budget::ops(ops).gas();
            if let Ok(Ok(report)) = validate_assignment_within(
                &ts, &p, &a, Ratio::ONE, SchedPolicy::Edf, &mut gas,
            ) {
                prop_assert_eq!(report.miss_count, 0, "EDF witness missed a deadline");
            }
        }
    }

    // The parser never panics on arbitrary input — it answers Ok or a
    // diagnostic Err for any byte soup.
    #[test]
    fn parser_never_panics(text in printable(0..=200)) {
        let _ = parse_system(&text);
    }

    // The op-trace parser never panics on arbitrary input either.
    #[test]
    fn op_trace_parser_never_panics(text in printable(0..=300)) {
        let _ = parse_op_trace(&text);
    }

    // Line-level corruption of a well-formed op trace — dropped,
    // duplicated (duplicate ids), truncated and junk lines, truncated
    // files — yields a diagnostic Err or a valid parse, never a panic;
    // and whatever still parses replays under a budget, through the
    // in-memory engine, the journaled durability layer and the
    // from-scratch baseline, without panicking.
    #[test]
    fn corrupted_op_traces_never_panic(
        mutations in vec(
            (0usize..64, 0usize..6, printable(0..=24)), 1..5
        )
    ) {
        let mut lines: Vec<String> =
            CORRUPTION_BASE_TRACE.lines().map(str::to_string).collect();
        for (pos, kind, junk) in mutations {
            if lines.is_empty() {
                break;
            }
            let i = pos % lines.len();
            match kind {
                0 => {
                    lines.remove(i);
                }
                1 => {
                    // Duplicate a line — re-adding a live id, re-opening
                    // an instance, doubling an `end`.
                    let line = lines[i].clone();
                    lines.insert(i, line);
                }
                2 => {
                    // Torn line (truncated at an arbitrary byte).
                    let mut cut = junk.len() % (lines[i].len() + 1);
                    while !lines[i].is_char_boundary(cut) {
                        cut -= 1;
                    }
                    lines[i].truncate(cut);
                }
                3 => lines[i] = junk,
                4 => lines.insert(i, junk),
                _ => {
                    // Torn file: drop everything from line i on.
                    lines.truncate(i);
                }
            }
        }
        let text = lines.join("\n");
        if let Ok(trace) = parse_op_trace(&text) {
            for inst in &trace.instances {
                for mode in [ReplayMode::Incremental, ReplayMode::FromScratch] {
                    let mut gas = Budget::ops(10_000).gas();
                    let _ = replay_instance(
                        EdfAdmission, inst, Augmentation::NONE, mode, &mut gas, &(),
                    );
                }
                let mut gas = Budget::ops(10_000).gas();
                let _ = replay_durable(
                    trace_events(std::slice::from_ref(inst)), EdfAdmission,
                    Augmentation::NONE, "edf", DurableOptions::default(),
                    Box::new(MemStorage::new()), &mut gas, &(),
                );
            }
        }
    }
}

/// Base trace for the corruption generator: two instances covering every
/// op kind, so mutations can manufacture duplicate ids, orphan ops,
/// unterminated instances and mid-line garbage.
const CORRUPTION_BASE_TRACE: &str = "\
begin alpha
machine 1
machine 2
add 1 1 2
add 2 1 4
query 1
snapshot
add 3 9 10
rollback
remove 2
repack
end

begin beta
machine 1
add 7 1 5
query 7
remove 7
end
";

/// Every fault-plan case runs through both ladders under a small ops
/// budget without panicking, and decided verdicts are internally
/// consistent (never both feasible and infeasible for the same case).
#[test]
fn fault_corpus_survives_both_ladders() {
    for seed in [0u64, 1, 42] {
        for case in FaultPlan::new(seed).cases() {
            let outcome = guard(|| {
                let mut gas = Budget::ops(200_000).gas();
                let exact = exact_partition_edf_degraded(
                    &case.tasks,
                    &case.platform,
                    50_000,
                    &mut gas,
                    &(),
                );
                let mut gas = Budget::ops(200_000).gas();
                let lp = lp_feasible_degraded(&case.tasks, &case.platform, &mut gas, &());
                (exact, lp)
            });
            let (exact, lp) =
                outcome.unwrap_or_else(|p| panic!("case {} panicked: {}", case.name, p.message));
            // Exact-partitioned feasible implies LP (migrative) feasible,
            // so "exact feasible + lp infeasible" would be unsound.
            if exact.verdict.is_feasible() {
                assert!(
                    !matches!(lp.verdict, LadderVerdict::Infeasible),
                    "case {}: exact feasible but LP refuted",
                    case.name
                );
            }
        }
    }
}

/// Budget conformance on the B&B blowup corpus: these cases are
/// infeasible by counting (2m+1 pairs-only tasks on m machines), so under
/// *any* ops budget the solver may answer `Infeasible` or `Unknown` but
/// never `Feasible`; and once a meter exhausts mid-search, the latch is
/// sticky — every later tick keeps failing, so a caller that checks once
/// after the solve cannot be fooled by a revived meter.
#[test]
fn bnb_blowup_tiny_budgets_never_lie_and_latch_is_sticky() {
    for seed in [0u64, 7] {
        for case in FaultPlan::new(seed).cases() {
            if case.kind != FaultKind::BnbBlowup {
                continue;
            }
            for ops in [0u64, 1, 64, 4096, 100_000] {
                let mut gas = Budget::ops(ops).gas();
                let out = ExactSolver::new(&case.tasks, &case.platform, &EdfAdmission)
                    .workers(2)
                    .solve_within(&mut gas);
                assert!(
                    !matches!(out, ExactOutcome::Feasible(_)),
                    "case {} (ops={ops}): counting-infeasible instance reported feasible",
                    case.name
                );
                if matches!(out, ExactOutcome::Unknown) {
                    assert!(
                        gas.tick().is_err(),
                        "case {} (ops={ops}): Unknown verdict but the meter still ticks",
                        case.name
                    );
                    assert!(
                        gas.tick().is_err(),
                        "case {} (ops={ops}): exhaustion latch is not sticky",
                        case.name
                    );
                }
            }
        }
    }
}

/// Regression for the acceptance scenario: a starved exact search on the
/// blowup instance must fall back to a sound answer, not hang or lie.
#[test]
fn starved_exact_blowup_degrades_soundly() {
    // 21 distinct pairs-only tasks on 10 unit machines — infeasible, but
    // only provably so by exhaustive search (utilization 9.68 < 10).
    let tasks = TaskSet::new(
        (0..21)
            .map(|i| Task::implicit(451 + i, 1000).unwrap())
            .collect::<Vec<_>>(),
    );
    let platform = Platform::from_int_speeds(vec![1u64; 10]).unwrap();
    let mut gas = Budget::ops(10_000).gas();
    let ladder = exact_partition_edf_degraded(&tasks, &platform, u64::MAX, &mut gas, &());
    assert!(
        !ladder.verdict.is_feasible(),
        "infeasible instance reported feasible after degradation"
    );
    assert!(
        ladder.degraded >= 1,
        "starved search must record a downgrade"
    );
}
