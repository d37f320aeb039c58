//! Checkpointed, panic-firewalled sweep execution.
//!
//! A full evaluation run is hours of compute; losing it to a crashed cell
//! or a killed job means recomputing everything. This module wraps sweep
//! cells (one per experiment id) in the [`hetfeas_robust`] panic firewall
//! and persists finished cells to a JSON checkpoint after each one, so a
//! re-run with `--resume FILE` replays completed cells from disk instead
//! of recomputing them.
//!
//! Semantics:
//! * a cell that panics renders a one-row table with the
//!   [`PanicReport::CELL`] marker (`✗panic`) and bumps `robust.panics` —
//!   the sweep itself keeps going;
//! * panicked cells are **not** written to the checkpoint, so a resumed
//!   run retries them;
//! * `sweep.cells_run` counts cells actually computed this invocation,
//!   `sweep.cells_resumed` counts cells replayed from the checkpoint —
//!   their sum equals the sweep size when nothing panics.

use crate::table::Table;
use hetfeas_obs::{Json, MetricsSink};
use hetfeas_robust::metrics::{SWEEP_CELLS_RESUMED, SWEEP_CELLS_RUN};
use hetfeas_robust::{guard_with, PanicReport};

/// Result of one sweep cell after firewalling/resume.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Cell id (experiment id for the evaluation sweep).
    pub id: String,
    /// The cell's tables — computed, replayed, or the panic marker table.
    pub tables: Vec<Table>,
    /// True when the cell panicked (its table is the `✗panic` marker).
    pub panicked: bool,
    /// True when the cell was replayed from the resume checkpoint.
    pub resumed: bool,
}

/// A persisted sweep state: which cells completed, with their tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    cells: Vec<(String, Vec<Table>)>,
}

impl Checkpoint {
    /// Empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// True when `id` has a completed entry.
    pub fn contains(&self, id: &str) -> bool {
        self.cells.iter().any(|(k, _)| k == id)
    }

    /// The completed tables for `id`, if checkpointed.
    pub fn tables(&self, id: &str) -> Option<&[Table]> {
        self.cells
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, t)| t.as_slice())
    }

    /// Record (or replace) a completed cell.
    pub fn record(&mut self, id: &str, tables: &[Table]) {
        match self.cells.iter_mut().find(|(k, _)| k == id) {
            Some(slot) => slot.1 = tables.to_vec(),
            None => self.cells.push((id.to_string(), tables.to_vec())),
        }
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has completed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn cells_json(&self) -> Json {
        Json::Obj(
            self.cells
                .iter()
                .map(|(id, tables)| {
                    (
                        id.clone(),
                        Json::Arr(tables.iter().map(table_to_json).collect()),
                    )
                })
                .collect(),
        )
    }

    /// Serialize to the checkpoint JSON document. The `crc32` field covers
    /// the rendered `cells` node, so a checkpoint truncated by a kill
    /// mid-write (or bit-flipped at rest) fails [`Checkpoint::parse`]
    /// instead of silently resuming from damaged state.
    pub fn to_json(&self) -> Json {
        let cells = self.cells_json();
        let crc = hetfeas_model::io::bin::crc32(cells.render_pretty(2).as_bytes());
        Json::Obj(vec![
            ("tool".to_string(), Json::str("run-experiments")),
            ("kind".to_string(), Json::str("sweep-checkpoint")),
            ("crc32".to_string(), Json::str(format!("{crc:08x}"))),
            ("cells".to_string(), cells),
        ])
    }

    /// Pretty-printed JSON text (trailing newline, ready for a file).
    pub fn render(&self) -> String {
        let mut text = self.to_json().render_pretty(2);
        text.push('\n');
        text
    }

    /// Parse a checkpoint document. Rejects files that are not
    /// sweep checkpoints (wrong/missing `kind`) so `--resume` on an
    /// arbitrary JSON file fails loudly instead of silently skipping
    /// nothing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = hetfeas_obs::json::parse(text).map_err(|e| format!("bad checkpoint JSON: {e}"))?;
        if v.get("kind").and_then(Json::as_str) != Some("sweep-checkpoint") {
            return Err("not a sweep checkpoint (missing kind=sweep-checkpoint)".to_string());
        }
        let stored = v
            .get("crc32")
            .and_then(Json::as_str)
            .ok_or("checkpoint missing crc32 (truncated write?)")?;
        let stored =
            u32::from_str_radix(stored, 16).map_err(|_| format!("bad crc32 field '{stored}'"))?;
        let cells_node = v.get("cells").ok_or("checkpoint has no cells object")?;
        // The parse→render round trip is canonical (ordered object pairs,
        // string leaves), so re-rendering the parsed node reproduces the
        // exact bytes the writer checksummed.
        let computed = hetfeas_model::io::bin::crc32(cells_node.render_pretty(2).as_bytes());
        if computed != stored {
            return Err(format!(
                "checkpoint checksum mismatch (stored {stored:08x}, computed {computed:08x}) — \
                 file truncated or corrupted"
            ));
        }
        let mut cp = Checkpoint::new();
        let cells = cells_node
            .as_object()
            .ok_or("checkpoint cells is not an object")?;
        for (id, tables) in cells {
            let tables = tables
                .as_array()
                .ok_or_else(|| format!("cell {id}: tables is not an array"))?
                .iter()
                .map(table_from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("cell {id}: {e}"))?;
            cp.cells.push((id.clone(), tables));
        }
        Ok(cp)
    }
}

fn table_to_json(t: &Table) -> Json {
    let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
    Json::Obj(vec![
        ("title".to_string(), Json::str(&t.title)),
        ("headers".to_string(), strings(&t.headers)),
        (
            "rows".to_string(),
            Json::Arr(t.rows.iter().map(|r| strings(r)).collect()),
        ),
        ("notes".to_string(), strings(&t.notes)),
    ])
}

fn table_from_json(v: &Json) -> Result<Table, String> {
    let strings = |key: &str| -> Result<Vec<String>, String> {
        v.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing array {key}"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or("non-string".to_string())
            })
            .collect()
    };
    let rows = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("missing array rows")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("row is not an array".to_string())?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or("non-string".to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Table {
        title: v
            .get("title")
            .and_then(Json::as_str)
            .ok_or("missing title")?
            .to_string(),
        headers: strings("headers")?,
        rows,
        notes: strings("notes")?,
    })
}

/// The `✗panic` marker table for a poisoned cell.
pub fn panic_table(id: &str, report: &PanicReport) -> Table {
    let mut t = Table::new(format!("{id}: cell panicked"), &["cell", "status"]);
    t.push_row(vec![id.to_string(), PanicReport::CELL.to_string()]);
    t.note(format!("panic: {}", report.message));
    t
}

/// Run the sweep cells `ids` through `run_cell`, each behind the panic
/// firewall, resuming completed cells from `resume` and recording progress
/// into `checkpoint` after every finished cell via `persist` (called with
/// the updated checkpoint; pass `|_| Ok(())` to skip persistence).
///
/// Returns one [`CellOutcome`] per id, in order.
pub fn run_checkpointed<S, F, P>(
    ids: &[&str],
    resume: &Checkpoint,
    sink: &S,
    mut run_cell: F,
    mut persist: P,
) -> Vec<CellOutcome>
where
    S: MetricsSink,
    F: FnMut(&str) -> Vec<Table>,
    P: FnMut(&Checkpoint) -> Result<(), String>,
{
    let mut progress = resume.clone();
    let mut outcomes = Vec::with_capacity(ids.len());
    for &id in ids {
        if let Some(tables) = resume.tables(id) {
            sink.counter_add(SWEEP_CELLS_RESUMED, 1);
            outcomes.push(CellOutcome {
                id: id.to_string(),
                tables: tables.to_vec(),
                panicked: false,
                resumed: true,
            });
            continue;
        }
        sink.counter_add(SWEEP_CELLS_RUN, 1);
        match guard_with(sink, || run_cell(id)) {
            Ok(tables) => {
                progress.record(id, &tables);
                if let Err(e) = persist(&progress) {
                    eprintln!("checkpoint write failed after {id}: {e}");
                }
                outcomes.push(CellOutcome {
                    id: id.to_string(),
                    tables,
                    panicked: false,
                    resumed: false,
                });
            }
            Err(report) => {
                // Deliberately NOT checkpointed: a resumed run retries it.
                outcomes.push(CellOutcome {
                    id: id.to_string(),
                    tables: vec![panic_table(id, &report)],
                    panicked: true,
                    resumed: false,
                });
            }
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_obs::MemorySink;
    use hetfeas_robust::metrics::ROBUST_PANICS;

    fn sample_table(id: &str) -> Table {
        let mut t = Table::new(format!("{id} title"), &["a", "b"]);
        t.push_row(vec!["1".to_string(), "x,\"quoted\"".to_string()]);
        t.note("a note with ünïcode");
        t
    }

    #[test]
    fn checkpoint_round_trips_tables_exactly() {
        let mut cp = Checkpoint::new();
        cp.record("e1", &[sample_table("e1"), sample_table("e1b")]);
        cp.record("e2", &[]);
        let text = cp.render();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back, cp);
        assert!(back.contains("e1"));
        assert_eq!(back.tables("e1").unwrap().len(), 2);
        assert_eq!(back.tables("e2").unwrap().len(), 0);
        assert!(!back.contains("e3"));
    }

    #[test]
    fn parse_rejects_non_checkpoints() {
        assert!(Checkpoint::parse("{}").is_err());
        assert!(Checkpoint::parse("not json").is_err());
        assert!(Checkpoint::parse("{\"kind\": \"run-report\"}").is_err());
    }

    #[test]
    fn parse_rejects_a_truncated_checkpoint() {
        // A kill mid-write leaves a prefix of the file. Every proper
        // prefix must fail parse: either the JSON is unterminated, or the
        // (earlier-in-file) crc32 no longer matches the cells that remain.
        let mut cp = Checkpoint::new();
        cp.record("e1", &[sample_table("e1")]);
        cp.record("e2", &[sample_table("e2")]);
        let text = cp.render();
        // Stop before the closing `}\n`: losing only the cosmetic trailing
        // newline still parses, anything shorter must not.
        for cut in 1..text.len() - 1 {
            if !text.is_char_boundary(cut) {
                continue;
            }
            assert!(
                Checkpoint::parse(&text[..cut]).is_err(),
                "truncation at byte {cut} must not parse"
            );
        }
    }

    #[test]
    fn parse_rejects_a_tampered_checkpoint() {
        let mut cp = Checkpoint::new();
        cp.record("e1", &[sample_table("e1")]);
        let text = cp.render();
        // Flip a payload character inside the cells body.
        let tampered = text.replacen("1", "2", 1);
        assert_ne!(tampered, text);
        let err = Checkpoint::parse(&tampered).expect_err("tampering detected");
        assert!(err.contains("checksum"), "{err}");
        // A checkpoint without the crc32 field (pre-hardening format or a
        // torn header) is rejected too.
        let no_crc = "{\"kind\": \"sweep-checkpoint\", \"cells\": {}}";
        assert!(Checkpoint::parse(no_crc).is_err());
    }

    #[test]
    fn panicking_cell_yields_marker_and_keeps_sweep_alive() {
        let sink = MemorySink::new();
        let outcomes = run_checkpointed(
            &["ok1", "boom", "ok2"],
            &Checkpoint::new(),
            &sink,
            |id| {
                if id == "boom" {
                    panic!("cell exploded");
                }
                vec![sample_table(id)]
            },
            |_| Ok(()),
        );
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].panicked && !outcomes[2].panicked);
        assert!(outcomes[1].panicked);
        assert!(outcomes[1].tables[0].rows[0].contains(&PanicReport::CELL.to_string()));
        assert!(outcomes[1].tables[0].notes[0].contains("cell exploded"));
        assert_eq!(sink.counter(ROBUST_PANICS), 1);
        assert_eq!(sink.counter(SWEEP_CELLS_RUN), 3);
        assert_eq!(sink.counter(SWEEP_CELLS_RESUMED), 0);
    }

    #[test]
    fn resume_skips_completed_cells_and_counts_them() {
        let sink = MemorySink::new();
        let mut first = Checkpoint::new();
        let outcomes = run_checkpointed(
            &["e1", "e2"],
            &Checkpoint::new(),
            &sink,
            |id| vec![sample_table(id)],
            |cp| {
                first = cp.clone();
                Ok(())
            },
        );
        assert_eq!(sink.counter(SWEEP_CELLS_RUN), 2);
        assert_eq!(first.len(), 2);

        // Second run resumes from the checkpoint: nothing recomputed.
        let sink2 = MemorySink::new();
        let mut ran = Vec::new();
        let resumed = run_checkpointed(
            &["e1", "e2", "e3"],
            &first,
            &sink2,
            |id| {
                ran.push(id.to_string());
                vec![sample_table(id)]
            },
            |_| Ok(()),
        );
        assert_eq!(ran, vec!["e3"]);
        assert_eq!(sink2.counter(SWEEP_CELLS_RESUMED), 2);
        assert_eq!(sink2.counter(SWEEP_CELLS_RUN), 1);
        assert!(resumed[0].resumed && resumed[1].resumed && !resumed[2].resumed);
        assert_eq!(resumed[0].tables, outcomes[0].tables);
    }

    #[test]
    fn panicked_cells_are_not_checkpointed() {
        let sink = MemorySink::new();
        let mut last = Checkpoint::new();
        run_checkpointed(
            &["ok", "boom"],
            &Checkpoint::new(),
            &sink,
            |id| {
                if id == "boom" {
                    panic!("no");
                }
                vec![sample_table(id)]
            },
            |cp| {
                last = cp.clone();
                Ok(())
            },
        );
        assert!(last.contains("ok"));
        assert!(!last.contains("boom"));
    }
}
