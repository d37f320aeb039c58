//! End-to-end tests of the `hetfeas ops` subcommand: op-trace replay
//! through the incremental admission engine and the from-scratch
//! baseline, budget exhaustion (exit 3), and malformed traces (exit 2).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn hetfeas(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetfeas"))
        .args(args)
        .output()
        .expect("spawn hetfeas")
}

/// Self-cleaning temp file (no external tempfile crate needed).
struct TempFile(PathBuf);

impl TempFile {
    fn to_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(ext: &str) -> TempFile {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    TempFile(std::env::temp_dir().join(format!(
        "hetfeas-ops-test-{}-{}.{ext}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )))
}

fn write_trace(content: &str) -> TempFile {
    let path = temp_path("ops");
    std::fs::write(&path.0, content).expect("write temp trace");
    path
}

/// Two instances exercising every op kind the replay engine supports.
const TRACE: &str = "\
# two machines, adds with churn, speculation, and a repack
begin warm
machine 1
machine 2
add 1 1 2
add 2 1 4
query 1
snapshot
add 3 9 10
rollback
remove 2
remove 9
repack
end

begin tiny
machine 1
add 7 1 5
query 7
query 8
end
";

#[test]
fn ops_replays_a_trace_and_writes_a_report() {
    let trace = write_trace(TRACE);
    let report = temp_path("json");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--workers",
        "2",
        "--report",
        report.to_str(),
        "-v",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 instances (12 ops)"), "{stdout}");
    assert!(stdout.contains("ops replayed"), "{stdout}");
    let json = std::fs::read_to_string(&report.0).expect("report written");
    assert!(json.contains("\"verdict\": \"replayed\""), "{json}");
    assert!(json.contains("\"mode\": \"incremental\""), "{json}");
    assert!(json.contains("\"instances\": 2"), "{json}");
    assert!(json.contains("\"snapshots\": 1"), "{json}");
    assert!(json.contains("\"rollbacks\": 1"), "{json}");
}

#[test]
fn ops_incremental_and_from_scratch_agree() {
    let trace = write_trace(TRACE);
    let summary = |mode: &str| -> String {
        let out = hetfeas(&["ops", "--trace", trace.to_str(), "--mode", mode]);
        assert!(out.status.success(), "{mode}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout
            .lines()
            .find(|l| l.contains("ops replayed"))
            .expect("summary line")
            .to_string()
    };
    assert_eq!(summary("incremental"), summary("from-scratch"));
}

#[test]
fn ops_tiny_budget_is_undecided_exit_three() {
    // A trace heavy enough that a 1 ms wall budget always exhausts
    // mid-replay: every `repack` re-sorts and re-places all 1000 live
    // tasks, and each one polls the clock (tick_n), so the deadline is
    // observed promptly no matter how fast the host is.
    let mut heavy = String::from("begin heavy\n");
    for _ in 0..64 {
        heavy.push_str("machine 1\n");
    }
    for id in 0..1000u32 {
        heavy.push_str(&format!("add {id} 1 1000\n"));
    }
    for _ in 0..500 {
        heavy.push_str("repack\n");
    }
    heavy.push_str("end\n");
    let trace = write_trace(&heavy);
    let out = hetfeas(&["ops", "--trace", trace.to_str(), "--budget-ms", "1"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("UNDECIDED"), "{stdout}");
    assert!(stdout.contains("wall-clock"), "{stdout}");
}

#[test]
fn ops_malformed_trace_exits_two() {
    let trace = write_trace("begin broken\nmachine 1\nadd nonsense\nend\n");
    let out = hetfeas(&["ops", "--trace", trace.to_str()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

fn hetfeas_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hetfeas"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn hetfeas")
}

/// Single instance covering every op kind — `--journal` replays exactly
/// one instance.
const SOLO_TRACE: &str = "\
begin solo
machine 1
machine 2
add 1 1 2
add 2 1 4
snapshot
add 3 9 10
rollback
remove 2
repack
end
";

fn digest_line(stdout: &[u8], prefix: &str) -> String {
    let text = String::from_utf8(stdout.to_vec()).unwrap();
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn journaled_ops_then_recover_round_trips_the_digest() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--journal",
        journal.to_str(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = digest_line(&out.stdout, "journal digest ");
    let out = hetfeas(&["recover", journal.to_str(), "-v"]);
    assert!(out.status.success(), "{out:?}");
    let recovered = digest_line(&out.stdout, "state digest ");
    assert_eq!(written, recovered, "recovery must be bit-exact");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("(0 truncated, 0 bytes dropped)"),
        "{stdout}"
    );
}

#[test]
fn injected_crash_exits_two_and_the_journal_recovers() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    // 150 bytes is past the config record (~115 bytes for this platform)
    // but well inside the op stream, so the crash tears a mid-run record.
    let out = hetfeas_env(
        &[
            "ops",
            "--trace",
            trace.to_str(),
            "--journal",
            journal.to_str(),
        ],
        &[("HETFEAS_JOURNAL_CRASH_AT", "150")],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("injected fault"), "{stderr}");
    // The synced prefix recovers cleanly (exit 0), reporting the torn tail.
    let out = hetfeas(&["recover", journal.to_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("state digest "), "{stdout}");
}

#[test]
fn transient_io_errors_are_retried_to_success() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    let out = hetfeas_env(
        &[
            "ops",
            "--trace",
            trace.to_str(),
            "--journal",
            journal.to_str(),
        ],
        &[("HETFEAS_JOURNAL_TRANSIENT", "2")],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 retries"), "{stdout}");
}

#[test]
fn recover_on_garbage_or_missing_journal_exits_two() {
    let garbage = temp_path("journal");
    std::fs::write(&garbage.0, b"not a journal at all").unwrap();
    let out = hetfeas(&["recover", garbage.to_str()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no intact records"), "{stderr}");
    let out = hetfeas(&["recover", "/nonexistent/hetfeas.journal"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn journal_flag_validation_exits_two() {
    // Two instances cannot share one journal.
    let trace = write_trace(TRACE);
    let journal = temp_path("journal");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--journal",
        journal.to_str(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The from-scratch baseline has no journaled form.
    let solo = write_trace(SOLO_TRACE);
    let out = hetfeas(&[
        "ops",
        "--trace",
        solo.to_str(),
        "--journal",
        journal.to_str(),
        "--mode",
        "from-scratch",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // --compact-every is meaningless without a journal.
    let out = hetfeas(&["ops", "--trace", solo.to_str(), "--compact-every", "4"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // recover needs a file argument.
    let out = hetfeas(&["recover"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn compaction_keeps_the_journal_recoverable() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--journal",
        journal.to_str(),
        "--compact-every",
        "3",
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = digest_line(&out.stdout, "journal digest ");
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(!stdout.contains(" 0 compactions"), "{stdout}");
    let out = hetfeas(&["recover", journal.to_str()]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(digest_line(&out.stdout, "state digest "), written);
}

#[test]
fn ops_rejects_rms_rta_and_bad_mode() {
    let trace = write_trace(TRACE);
    let out = hetfeas(&["ops", "--trace", trace.to_str(), "--policy", "rms-rta"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = hetfeas(&["ops", "--trace", trace.to_str(), "--mode", "sideways"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = hetfeas(&["ops"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// The line of `stdout` that contains `needle`.
fn line_with(stdout: &[u8], needle: &str) -> String {
    let text = String::from_utf8(stdout.to_vec()).unwrap();
    text.lines()
        .find(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no {needle:?} line in {text}"))
        .to_string()
}

#[test]
fn text_and_binary_traces_print_the_same_summary_and_digests() {
    let text = write_trace(TRACE);
    let bin = temp_path("hbt");
    let out = hetfeas(&["trace", "convert", text.to_str(), "--out", bin.to_str()]);
    assert!(out.status.success(), "{out:?}");
    let run = |trace: &TempFile| {
        let out = hetfeas(&["ops", "--trace", trace.to_str()]);
        assert!(out.status.success(), "{out:?}");
        (
            line_with(&out.stdout, "ops replayed"),
            digest_line(&out.stdout, "combined digest "),
        )
    };
    assert_eq!(run(&text), run(&bin));

    // The journaled run over either format writes the same engine state.
    let solo = write_trace(SOLO_TRACE);
    let solo_bin = temp_path("hbt");
    let out = hetfeas(&[
        "trace",
        "convert",
        solo.to_str(),
        "--out",
        solo_bin.to_str(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let journaled = |trace: &TempFile| {
        let journal = temp_path("journal");
        let out = hetfeas(&[
            "ops",
            "--trace",
            trace.to_str(),
            "--journal",
            journal.to_str(),
        ]);
        assert!(out.status.success(), "{out:?}");
        (
            line_with(&out.stdout, "ops replayed"),
            digest_line(&out.stdout, "journal digest "),
            digest_line(&out.stdout, "combined digest "),
        )
    };
    let (summary, journal_digest, combined) = journaled(&solo);
    assert_eq!(
        journaled(&solo_bin),
        (summary, journal_digest, combined.clone())
    );
    // Journaling does not change the engine state an in-memory run reaches.
    let out = hetfeas(&["ops", "--trace", solo.to_str()]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(digest_line(&out.stdout, "combined digest "), combined);
}

#[test]
fn from_scratch_replays_a_binary_trace_without_a_digest() {
    let text = write_trace(TRACE);
    let bin = temp_path("hbt");
    let out = hetfeas(&["trace", "convert", text.to_str(), "--out", bin.to_str()]);
    assert!(out.status.success(), "{out:?}");
    let out = hetfeas(&["ops", "--trace", bin.to_str(), "--mode", "from-scratch"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ops replayed"), "{stdout}");
    assert!(!stdout.contains("combined digest"), "{stdout}");
}
