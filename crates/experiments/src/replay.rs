//! Op-trace replay: the batched front end of the online admission engine.
//!
//! An op trace ([`hetfeas_model::parse_op_trace`]) holds *independent*
//! instances. Each replays against the [`IncrementalEngine`]
//! ([`ReplayMode::Incremental`]), the from-scratch baseline that re-runs
//! batch first-fit ([`FirstFitEngine`]) after every mutation
//! ([`ReplayMode::FromScratch`]), or the journaled [`DurableEngine`]
//! ([`replay_durable`]).
//!
//! The trace protocol is written once, in `Replayer::apply`: trace ids map
//! to engine ids, the id map is snapshotted with the engine, removes and
//! queries of unknown ids are counted misses, and an `add` reusing a live
//! id or a `rollback` before any `snapshot` is a [`ReplayError::Trace`].
//! Each engine supplies only its own work and gas ticks, through the
//! private `ReplayEngine` trait. One driver feeds `apply` from
//! [`TraceEvent`]s, which come from a binary [`OpStream`]
//! ([`stream_events`]) or a materialized trace ([`trace_events`]); every
//! entry point is a short call into it, so text and binary replays of one
//! trace land on the same digests by construction. [`replay_sharded`] fans
//! a materialized trace's instances across worker threads.
//!
//! The two modes agree on the protocol but may diverge on individual
//! accept/reject decisions once an incremental assignment drifts from
//! canonical FFD order — that gap is exactly what the divergence-triggered
//! repack bounds, and `tests/prop_incremental.rs` pins the equivalence
//! after a repack.

use hetfeas_model::io::bin::crc32;
use hetfeas_model::{
    Augmentation, IdMap, OpStream, OpTrace, Platform, Task, TaskSet, TraceEvent, TraceInstance,
    TraceOp,
};
use hetfeas_obs::MetricsSink;
use hetfeas_par::{par_map_with, Progress};
use hetfeas_partition::{
    live_state_digest, DurableEngine, DurableError, DurableOptions, FirstFitEngine, IncrSnapshot,
    IncrementalEngine, IndexableAdmission, Outcome, RepackOutcome, TaskId,
};
use hetfeas_robust::journal::Storage;
use hetfeas_robust::{Budget, Exhaustion, Gas};
use std::time::{Duration, Instant};

/// Which engine serves the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// The online [`IncrementalEngine`].
    Incremental,
    /// Full batch first-fit re-run per mutating operation — the
    /// from-scratch baseline the bench compares against.
    FromScratch,
}

impl ReplayMode {
    /// Stable name for reports.
    pub const fn as_str(self) -> &'static str {
        match self {
            ReplayMode::Incremental => "incremental",
            ReplayMode::FromScratch => "from-scratch",
        }
    }
}

/// Per-instance replay outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations executed.
    pub ops: u64,
    /// Adds the engine admitted.
    pub admitted: u64,
    /// Adds the engine rejected (no machine fits).
    pub rejected: u64,
    /// Successful removes.
    pub removed: u64,
    /// Removes naming an id that was not live.
    pub remove_misses: u64,
    /// Queries answered with a machine.
    pub query_hits: u64,
    /// Queries for ids that were not live.
    pub query_misses: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Rollbacks applied.
    pub rollbacks: u64,
    /// Repacks that re-canonicalized the assignment.
    pub repacks: u64,
    /// Repacks whose from-scratch FFD was infeasible (assignment kept).
    pub repacks_infeasible: u64,
    /// Live tasks when the stream ended.
    pub final_live: u64,
}

impl ReplayStats {
    /// Accumulate `other` into `self` (for cross-instance aggregation).
    pub fn merge(&mut self, other: &ReplayStats) {
        self.ops += other.ops;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.removed += other.removed;
        self.remove_misses += other.remove_misses;
        self.query_hits += other.query_hits;
        self.query_misses += other.query_misses;
        self.snapshots += other.snapshots;
        self.rollbacks += other.rollbacks;
        self.repacks += other.repacks;
        self.repacks_infeasible += other.repacks_infeasible;
        self.final_live += other.final_live;
    }
}

/// Why a replay stopped before the end of its stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The gas budget ran out at operation `op_index` (0-based).
    Exhausted {
        /// 0-based index of the operation that could not complete.
        op_index: usize,
        /// Which resource ran out.
        cause: Exhaustion,
    },
    /// The trace is semantically malformed at `op_index` (e.g. an `add`
    /// reusing a trace id that is still live).
    Trace {
        /// 0-based index of the offending operation.
        op_index: usize,
        /// Explanation.
        message: String,
    },
    /// A journaled replay hit an IO error that survived the retry budget
    /// (only [`replay_durable`] produces this).
    Io {
        /// 0-based index of the operation that could not be journaled.
        op_index: usize,
        /// The underlying IO error.
        message: String,
    },
}

impl ReplayError {
    /// An engine step's failure, placed at operation `op_index`.
    fn at(op_index: usize, e: DurableError) -> Self {
        match e {
            DurableError::Io(message) => ReplayError::Io { op_index, message },
            DurableError::Exhausted(cause) => ReplayError::Exhausted { op_index, cause },
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Exhausted { op_index, cause } => {
                write!(f, "budget exhausted ({}) at op {op_index}", cause.as_str())
            }
            ReplayError::Trace { op_index, message } => {
                write!(f, "malformed trace at op {op_index}: {message}")
            }
            ReplayError::Io { op_index, message } => {
                write!(f, "journal IO error at op {op_index}: {message}")
            }
        }
    }
}

/// Why a streaming replay stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The binary stream is torn, corrupt, or hit an IO error — with the
    /// byte offset baked into the message by the decoder.
    Decode(String),
    /// The replay itself failed (gas, trace semantics, journal IO).
    Replay(ReplayError),
}

impl From<ReplayError> for StreamError {
    fn from(e: ReplayError) -> Self {
        StreamError::Replay(e)
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Decode(m) => write!(f, "binary trace: {m}"),
            StreamError::Replay(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

/// One finished instance of a replay. `D` is its digest: the
/// [`live_state_digest`] of the final state (with held snapshot) for the
/// incremental and journaled engines, `Option<u32>` where the mode is
/// chosen at run time and the from-scratch baseline has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary<D = u32> {
    /// Instance name from its begin record.
    pub name: String,
    /// Protocol outcome counts.
    pub stats: ReplayStats,
    /// Digest of the final engine state.
    pub digest: D,
}

/// What an engine step returns: the engine's answer, or why it stopped.
type Step<T> = Result<T, DurableError>;

/// The engine-specific half of the trace protocol. `Replayer::apply` owns
/// the trace-id map, the snapshot slot, the stats and the errors; an
/// engine only does the work and charges its own gas.
trait ReplayEngine<S: MetricsSink> {
    /// How the engine names an admitted task.
    type Id: Copy;
    /// What a snapshot holds outside the engine.
    type Snap;
    /// What the engine reports when its instance ends.
    type Digest;
    /// True while `id` is live (and so placed on a machine).
    fn is_live(&self, id: Self::Id) -> bool;
    /// Offer `task`; `None` when no machine fits.
    fn add(&mut self, task: Task, gas: &mut Gas, sink: &S) -> Step<Option<Self::Id>>;
    /// Remove `id`; `false` when it was not live.
    fn remove(&mut self, id: Self::Id, gas: &mut Gas, sink: &S) -> Step<bool>;
    /// Capture the current state.
    fn snapshot(&mut self, gas: &mut Gas, sink: &S) -> Step<Self::Snap>;
    /// Restore the state `snap` captured.
    fn rollback(&mut self, snap: &Self::Snap, gas: &mut Gas, sink: &S) -> Step<()>;
    /// Re-place the live set in canonical FFD order.
    fn repack(&mut self, gas: &mut Gas, sink: &S) -> Step<RepackOutcome>;
    /// Live tasks, and the digest of the current state with `snap` held.
    fn finish(&self, snap: Option<&Self::Snap>) -> (usize, Self::Digest);
}

/// The in-memory engine; the snapshot slot lives in the `Replayer`.
impl<A: IndexableAdmission, S: MetricsSink> ReplayEngine<S> for IncrementalEngine<A> {
    type Id = TaskId;
    type Snap = IncrSnapshot<A>;
    type Digest = u32;

    fn is_live(&self, id: TaskId) -> bool {
        self.contains(id)
    }

    fn add(&mut self, task: Task, gas: &mut Gas, sink: &S) -> Step<Option<TaskId>> {
        let out = self.add_within_with(task, gas, sink);
        out.map(|o| o.id()).map_err(DurableError::Exhausted)
    }

    fn remove(&mut self, id: TaskId, gas: &mut Gas, sink: &S) -> Step<bool> {
        let removed = self.remove_within_with(id, gas, sink);
        removed
            .map(|t| t.is_some())
            .map_err(DurableError::Exhausted)
    }

    fn snapshot(&mut self, gas: &mut Gas, sink: &S) -> Step<IncrSnapshot<A>> {
        let len = self.len() as u64;
        gas.tick_n(len + 1).map_err(DurableError::Exhausted)?;
        Ok(self.snapshot_with(sink))
    }

    fn rollback(&mut self, snap: &IncrSnapshot<A>, gas: &mut Gas, sink: &S) -> Step<()> {
        let len = self.len() as u64;
        gas.tick_n(len + 1).map_err(DurableError::Exhausted)?;
        self.rollback_with(snap, sink);
        Ok(())
    }

    fn repack(&mut self, gas: &mut Gas, sink: &S) -> Step<RepackOutcome> {
        let out = self.repack_within_with(gas, sink);
        out.map_err(DurableError::Exhausted)
    }

    fn finish(&self, snap: Option<&IncrSnapshot<A>>) -> (usize, u32) {
        (self.len(), live_state_digest(self, snap))
    }
}

/// The journaled engine: every mutating op is appended to the write-ahead
/// journal before it is applied, and the engine holds its own snapshot.
impl<A: IndexableAdmission, S: MetricsSink> ReplayEngine<S> for DurableEngine<A> {
    type Id = TaskId;
    type Snap = ();
    type Digest = u32;

    fn is_live(&self, id: TaskId) -> bool {
        self.engine().contains(id)
    }

    fn add(&mut self, task: Task, gas: &mut Gas, sink: &S) -> Step<Option<TaskId>> {
        DurableEngine::add(self, task, gas, sink).map(|o| o.id())
    }

    fn remove(&mut self, id: TaskId, gas: &mut Gas, sink: &S) -> Step<bool> {
        Ok(DurableEngine::remove(self, id, gas, sink)?.is_some())
    }

    fn snapshot(&mut self, gas: &mut Gas, sink: &S) -> Step<()> {
        DurableEngine::snapshot(self, gas, sink)
    }

    fn rollback(&mut self, _: &(), gas: &mut Gas, sink: &S) -> Step<()> {
        DurableEngine::rollback(self, gas, sink).map(drop)
    }

    fn repack(&mut self, gas: &mut Gas, sink: &S) -> Step<RepackOutcome> {
        DurableEngine::repack(self, gas, sink)
    }

    fn finish(&self, _: Option<&()>) -> (usize, u32) {
        (self.engine().len(), self.state_digest())
    }
}

/// The from-scratch baseline: the live set in admission order, re-placed
/// by a batch first-fit run after every mutation. Ids are handed out in
/// admission order.
struct Scratch<A: IndexableAdmission> {
    ff: FirstFitEngine<A>,
    platform: Platform,
    alpha: Augmentation,
    ids: Vec<u64>,
    tasks: Vec<Task>,
    next_id: u64,
}

impl<A: IndexableAdmission> Scratch<A> {
    fn new(admission: A, platform: &Platform, alpha: Augmentation) -> Self {
        Scratch {
            ff: FirstFitEngine::new(admission),
            platform: platform.clone(),
            alpha,
            ids: Vec::new(),
            tasks: Vec::new(),
            next_id: 0,
        }
    }

    /// Batch first-fit over the live set: `true` when it places every task.
    fn rerun<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Step<bool> {
        let work = (self.tasks.len() + self.platform.len()) as u64 + 1;
        gas.tick_n(work).map_err(DurableError::Exhausted)?;
        let ts: TaskSet = self.tasks.iter().copied().collect();
        let out = self.ff.run_with(&ts, &self.platform, self.alpha, sink);
        Ok(matches!(out, Outcome::Feasible(_)))
    }
}

impl<A: IndexableAdmission, S: MetricsSink> ReplayEngine<S> for Scratch<A> {
    type Id = u64;
    type Snap = (Vec<u64>, Vec<Task>);
    /// The baseline keeps no engine state to digest.
    type Digest = Option<u32>;

    fn is_live(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    fn add(&mut self, task: Task, gas: &mut Gas, sink: &S) -> Step<Option<u64>> {
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.tasks.push(task);
        if self.rerun(gas, sink)? {
            return Ok(Some(id));
        }
        self.ids.pop();
        self.tasks.pop();
        Ok(None)
    }

    fn remove(&mut self, id: u64, gas: &mut Gas, sink: &S) -> Step<bool> {
        let Some(pos) = self.ids.iter().position(|&x| x == id) else {
            return Ok(false);
        };
        self.ids.remove(pos);
        self.tasks.remove(pos);
        // FFD is order-sensitive: a subset of a feasible set can fail the
        // re-run. The survivors' previous placements stay valid (removal
        // only sheds load), so the remove stands either way — same policy
        // as the incremental engine's infeasible repack.
        self.rerun(gas, sink)?;
        Ok(true)
    }

    fn snapshot(&mut self, gas: &mut Gas, _: &S) -> Step<Self::Snap> {
        let len = self.tasks.len() as u64;
        gas.tick_n(len + 1).map_err(DurableError::Exhausted)?;
        Ok((self.ids.clone(), self.tasks.clone()))
    }

    fn rollback(&mut self, (ids, tasks): &Self::Snap, gas: &mut Gas, _: &S) -> Step<()> {
        let len = self.tasks.len() as u64;
        gas.tick_n(len + 1).map_err(DurableError::Exhausted)?;
        self.ids.clone_from(ids);
        self.tasks.clone_from(tasks);
        Ok(())
    }

    fn repack(&mut self, gas: &mut Gas, sink: &S) -> Step<RepackOutcome> {
        // The baseline is always canonical; re-run for cost parity.
        Ok(match self.rerun(gas, sink)? {
            true => RepackOutcome::Repacked,
            false => RepackOutcome::Infeasible,
        })
    }

    fn finish(&self, _: Option<&Self::Snap>) -> (usize, Option<u32>) {
        (self.tasks.len(), None)
    }
}

/// One instance in flight: an engine plus the protocol state around it —
/// the trace-id map and the snapshot slot, which holds the id map too.
struct Replayer<E: ReplayEngine<S>, S: MetricsSink> {
    eng: E,
    ids: IdMap<E::Id>,
    snap: Option<(E::Snap, IdMap<E::Id>)>,
    stats: ReplayStats,
}

impl<E: ReplayEngine<S>, S: MetricsSink> Replayer<E, S> {
    fn new(eng: E) -> Self {
        Replayer {
            eng,
            ids: IdMap::default(),
            snap: None,
            stats: ReplayStats::default(),
        }
    }

    /// Apply the next operation of the instance: the whole trace
    /// protocol, for every engine.
    fn apply(&mut self, op: TraceOp, gas: &mut Gas, sink: &S) -> Result<(), ReplayError> {
        let op_index = self.stats.ops as usize;
        self.stats.ops += 1;
        let fail = |e| ReplayError::at(op_index, e);
        let exhausted = |cause| ReplayError::Exhausted { op_index, cause };
        match op {
            TraceOp::Add { id, task } => {
                if self.ids.get(&id).is_some_and(|&e| self.eng.is_live(e)) {
                    let message = format!("add reuses live id {id}");
                    return Err(ReplayError::Trace { op_index, message });
                }
                match self.eng.add(task, gas, sink).map_err(fail)? {
                    Some(e) => {
                        self.ids.insert(id, e);
                        self.stats.admitted += 1;
                    }
                    None => self.stats.rejected += 1,
                }
            }
            TraceOp::Remove { id } => match self.ids.get(&id).copied() {
                Some(e) => {
                    if self.eng.remove(e, gas, sink).map_err(fail)? {
                        self.ids.remove(&id);
                        self.stats.removed += 1;
                    } else {
                        self.stats.remove_misses += 1;
                    }
                }
                None => {
                    gas.tick().map_err(exhausted)?;
                    self.stats.remove_misses += 1;
                }
            },
            TraceOp::Query { id } => {
                gas.tick().map_err(exhausted)?;
                if self.ids.get(&id).is_some_and(|&e| self.eng.is_live(e)) {
                    self.stats.query_hits += 1;
                } else {
                    self.stats.query_misses += 1;
                }
            }
            TraceOp::Snapshot => {
                let snap = self.eng.snapshot(gas, sink).map_err(fail)?;
                self.snap = Some((snap, self.ids.clone()));
                self.stats.snapshots += 1;
            }
            TraceOp::Rollback => {
                // The text parser and OpStream both reject this
                // structurally; a hand-built instance can still hold it.
                let Some((snap, ids)) = &self.snap else {
                    let message = "rollback before any snapshot".to_string();
                    return Err(ReplayError::Trace { op_index, message });
                };
                self.eng.rollback(snap, gas, sink).map_err(fail)?;
                self.ids.clone_from(ids);
                self.stats.rollbacks += 1;
            }
            TraceOp::Repack => match self.eng.repack(gas, sink).map_err(fail)? {
                RepackOutcome::Repacked => self.stats.repacks += 1,
                RepackOutcome::Infeasible => self.stats.repacks_infeasible += 1,
            },
        }
        Ok(())
    }
}

/// The one replay loop. `open` builds the engine for each `Begin`; each
/// `Op` goes through `Replayer::apply`; each `End` closes the instance
/// into its summary. Stops at the first error, from the source or the
/// replay.
fn drive<E, S, D, Err, I, O>(
    events: I,
    mut open: O,
    gas: &mut Gas,
    sink: &S,
) -> Result<Vec<StreamSummary<D>>, Err>
where
    E: ReplayEngine<S>,
    S: MetricsSink,
    D: From<E::Digest>,
    Err: From<ReplayError>,
    I: IntoIterator<Item = Result<TraceEvent, Err>>,
    O: FnMut(&Platform, &mut Gas, &S) -> Result<E, ReplayError>,
{
    let mut out = Vec::new();
    let mut current: Option<(String, Replayer<E, S>)> = None;
    for event in events {
        match event? {
            TraceEvent::Begin { name, platform } => {
                current = Some((name, Replayer::new(open(&platform, gas, sink)?)));
            }
            TraceEvent::Op(op) => {
                let (_, rep) = current
                    .as_mut()
                    .expect("event sources yield ops only inside an instance");
                rep.apply(op, gas, sink)?;
            }
            TraceEvent::End => {
                let (name, mut rep) = current
                    .take()
                    .expect("event sources yield End only inside an instance");
                let (live, digest) = rep.eng.finish(rep.snap.as_ref().map(|(s, _)| s));
                rep.stats.final_live = live as u64;
                let (stats, digest) = (rep.stats, digest.into());
                out.push(StreamSummary {
                    name,
                    stats,
                    digest,
                });
            }
        }
    }
    Ok(out)
}

/// The event source for a materialized trace: each instance's `Begin`,
/// its ops and its `End`, in order — the events an [`OpStream`] of the
/// trace's binary encoding yields.
pub fn trace_events<'a, E: 'a>(
    instances: &'a [TraceInstance],
) -> impl Iterator<Item = Result<TraceEvent, E>> + 'a {
    instances.iter().flat_map(|inst| {
        let begin = TraceEvent::Begin {
            name: inst.name.clone(),
            platform: inst.platform.clone(),
        };
        std::iter::once(begin)
            .chain(inst.ops.iter().map(|&op| TraceEvent::Op(op)))
            .chain(std::iter::once(TraceEvent::End))
            .map(Ok)
    })
}

/// The event source for a binary trace, decoded one frame at a time.
pub fn stream_events<R: std::io::Read>(
    stream: &mut OpStream<R>,
) -> impl Iterator<Item = Result<TraceEvent, StreamError>> + '_ {
    std::iter::from_fn(move || {
        let event = stream.next_event().transpose()?;
        Some(event.map_err(|e| StreamError::Decode(e.to_string())))
    })
}

/// The summary of a single-instance replay.
fn only<D>(mut done: Vec<StreamSummary<D>>) -> Result<StreamSummary<D>, ReplayError> {
    done.pop().ok_or_else(|| ReplayError::Trace {
        op_index: 0,
        message: "trace holds no instance".to_string(),
    })
}

/// Replay every instance `events` yields in the given mode, one after the
/// other under one `gas`. Incremental summaries carry their
/// [`live_state_digest`]; from-scratch ones carry none.
pub fn replay_events<A, S, Err, I>(
    events: I,
    admission: A,
    alpha: Augmentation,
    mode: ReplayMode,
    gas: &mut Gas,
    sink: &S,
) -> Result<Vec<StreamSummary<Option<u32>>>, Err>
where
    A: IndexableAdmission + Clone,
    S: MetricsSink,
    Err: From<ReplayError>,
    I: IntoIterator<Item = Result<TraceEvent, Err>>,
{
    let a = &admission;
    match mode {
        ReplayMode::Incremental => drive(
            events,
            |p, _, _| Ok(IncrementalEngine::new(a.clone(), p, alpha)),
            gas,
            sink,
        ),
        ReplayMode::FromScratch => drive(
            events,
            |p, _, _| Ok(Scratch::new(a.clone(), p, alpha)),
            gas,
            sink,
        ),
    }
}

/// Replay a streaming binary op trace instance by instance in bounded
/// memory: only the live engine state and one decode frame are ever
/// resident, never the trace. Digests are [`live_state_digest`]s, so a
/// materialized [`replay_instance_digest`] run over the same trace (text
/// or binary) lands on identical values — `tests/prop_stream.rs` pins
/// that on every prefix.
pub fn replay_stream<A, S, R>(
    stream: &mut OpStream<R>,
    admission: A,
    alpha: Augmentation,
    gas: &mut Gas,
    sink: &S,
) -> Result<Vec<StreamSummary>, StreamError>
where
    A: IndexableAdmission + Clone,
    S: MetricsSink,
    R: std::io::Read,
{
    let open =
        |p: &Platform, _: &mut Gas, _: &S| Ok(IncrementalEngine::new(admission.clone(), p, alpha));
    drive(stream_events(stream), open, gas, sink)
}

/// [`replay_instance`] in incremental mode, additionally returning the
/// [`live_state_digest`] of the final state — what the streaming replay
/// and the durable replay report, so all three paths are comparable.
pub fn replay_instance_digest<A, S>(
    admission: A,
    inst: &TraceInstance,
    alpha: Augmentation,
    gas: &mut Gas,
    sink: &S,
) -> Result<(ReplayStats, u32), ReplayError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    // One instance in, so `open` runs once.
    let mut admission = Some(admission);
    let open = |p: &Platform, _: &mut Gas, _: &S| {
        let admission = admission.take().expect("one instance opens once");
        Ok(IncrementalEngine::new(admission, p, alpha))
    };
    let events = trace_events(std::slice::from_ref(inst));
    let s = only(drive(events, open, gas, sink)?)?;
    Ok((s.stats, s.digest))
}

/// Replay one instance in the given mode under `gas`.
pub fn replay_instance<A, S>(
    admission: A,
    inst: &TraceInstance,
    alpha: Augmentation,
    mode: ReplayMode,
    gas: &mut Gas,
    sink: &S,
) -> Result<ReplayStats, ReplayError>
where
    A: IndexableAdmission + Clone,
    S: MetricsSink,
{
    let events = trace_events(std::slice::from_ref(inst));
    let done = replay_events(events, admission, alpha, mode, gas, sink)?;
    Ok(only(done)?.stats)
}

/// Replay one instance on a journaled [`DurableEngine`] over `store`:
/// every mutating op is appended to the write-ahead journal before it is
/// applied, so a kill at any point leaves a journal that
/// [`hetfeas_partition::recover`] replays back to the bit-identical
/// engine. `events` comes from [`trace_events`] or [`stream_events`] and
/// must hold exactly **one** instance — a journal describes a single
/// engine. The summary's digest is the engine's
/// [`DurableEngine::state_digest`]; `hetfeas recover` prints the same
/// digest, which is how `scripts/crash_smoke.sh` compares a recovered
/// state against an uncrashed reference across processes.
#[allow(clippy::too_many_arguments)]
pub fn replay_durable<A, S, I>(
    events: I,
    admission: A,
    alpha: Augmentation,
    policy_key: &str,
    opts: DurableOptions,
    store: Box<dyn Storage>,
    gas: &mut Gas,
    sink: &S,
) -> Result<StreamSummary, StreamError>
where
    A: IndexableAdmission,
    S: MetricsSink,
    I: IntoIterator<Item = Result<TraceEvent, StreamError>>,
{
    let mut parts = Some((admission, store));
    let open = |p: &Platform, gas: &mut Gas, sink: &S| {
        let Some((admission, store)) = parts.take() else {
            let message = "journaled replay needs a single-instance trace".to_string();
            return Err(ReplayError::Trace {
                op_index: 0,
                message,
            });
        };
        DurableEngine::create(admission, p, alpha, policy_key, opts, store, gas, sink)
            .map_err(|e| ReplayError::at(0, e))
    };
    Ok(only(drive(events, open, gas, sink)?)?)
}

/// Fold per-instance digests into one order-sensitive trace digest (the
/// CRC32 of the concatenated little-endian digests), so a streaming run
/// and a materialized run over a multi-instance trace compare with a
/// single number.
pub fn combine_digests<I: IntoIterator<Item = u32>>(digests: I) -> u32 {
    let mut buf = Vec::new();
    for d in digests {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    crc32(&buf)
}

/// Shard a trace's independent instances across `workers` threads.
///
/// Results keep instance order. `budget_ms`, when given, is a *global*
/// wall-clock allowance: each instance replays under the time remaining
/// when its worker picks it up, so the whole call ends near the deadline
/// with per-instance [`ReplayError::Exhausted`] markers instead of
/// overshooting. `progress`, when given, ticks once per finished instance
/// and prints a throttled `done/total` status line to stderr.
#[allow(clippy::too_many_arguments)] // one knob per replay dimension
pub fn replay_sharded<A, S>(
    trace: &OpTrace,
    admission: A,
    alpha: Augmentation,
    mode: ReplayMode,
    workers: usize,
    budget_ms: Option<u64>,
    progress: Option<&Progress>,
    sink: &S,
) -> Vec<Result<StreamSummary<Option<u32>>, ReplayError>>
where
    A: IndexableAdmission + Clone + Sync,
    S: MetricsSink + Sync,
{
    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let total = trace.instances.len() as u64;
    let step = (total / 20).max(1);
    par_map_with(&trace.instances, workers, 1, |inst| {
        let mut gas = match deadline {
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                Budget::unlimited()
                    .with_wall_ms(left.as_millis() as u64)
                    .gas()
            }
            None => Gas::unlimited(),
        };
        let events = trace_events(std::slice::from_ref(inst));
        let out =
            replay_events(events, admission.clone(), alpha, mode, &mut gas, sink).and_then(only);
        if let Some(p) = progress {
            let done = p.tick();
            if done % step == 0 || done == total {
                eprintln!("replay [{}] {}", mode.as_str(), p.status_line());
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_model::parse_op_trace;
    use hetfeas_partition::EdfAdmission;

    const TRACE: &str = "\
begin churn
machine 1
machine 2
add 1 1 2
add 2 1 4
query 1
snapshot
add 3 9 10
rollback
remove 2
remove 7
repack
end
";

    fn one_instance() -> TraceInstance {
        parse_op_trace(TRACE)
            .expect("trace parses")
            .instances
            .remove(0)
    }

    #[test]
    fn incremental_replay_counts_protocol_events() {
        let inst = one_instance();
        let mut gas = Gas::unlimited();
        let stats = replay_instance(
            EdfAdmission,
            &inst,
            Augmentation::NONE,
            ReplayMode::Incremental,
            &mut gas,
            &(),
        )
        .expect("replay completes");
        assert_eq!(stats.ops, 9);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.query_hits, 1);
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.remove_misses, 1);
        assert_eq!(stats.repacks + stats.repacks_infeasible, 1);
        // rollback undid task 3; remove dropped task 2 → task 1 survives.
        assert_eq!(stats.final_live, 1);
    }

    #[test]
    fn both_modes_agree_on_the_small_trace() {
        let inst = one_instance();
        let run = |mode| {
            let mut gas = Gas::unlimited();
            replay_instance(EdfAdmission, &inst, Augmentation::NONE, mode, &mut gas, &())
                .expect("replay completes")
        };
        assert_eq!(run(ReplayMode::Incremental), run(ReplayMode::FromScratch));
    }

    #[test]
    fn duplicate_live_id_is_a_trace_error() {
        let trace =
            parse_op_trace("begin dup\nmachine 1\nadd 1 1 4\nadd 1 1 4\nend\n").expect("parses");
        let mut gas = Gas::unlimited();
        let err = replay_instance(
            EdfAdmission,
            &trace.instances[0],
            Augmentation::NONE,
            ReplayMode::Incremental,
            &mut gas,
            &(),
        )
        .expect_err("duplicate id rejected");
        assert!(
            matches!(err, ReplayError::Trace { op_index: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn early_rollback_is_a_trace_error_for_every_engine() {
        use hetfeas_robust::journal::MemStorage;

        let inst = TraceInstance {
            ops: vec![TraceOp::Rollback],
            ..one_instance()
        };
        let run = |mode| {
            replay_instance(
                EdfAdmission,
                &inst,
                Augmentation::NONE,
                mode,
                &mut Gas::unlimited(),
                &(),
            )
            .expect_err("rollback before any snapshot")
        };
        let journaled = match replay_durable(
            trace_events(std::slice::from_ref(&inst)),
            EdfAdmission,
            Augmentation::NONE,
            "edf",
            DurableOptions::default(),
            Box::new(MemStorage::new()),
            &mut Gas::unlimited(),
            &(),
        ) {
            Err(StreamError::Replay(e)) => e,
            other => panic!("journaled replay gave {other:?}"),
        };
        for err in [
            run(ReplayMode::Incremental),
            journaled,
            run(ReplayMode::FromScratch),
        ] {
            assert!(
                matches!(err, ReplayError::Trace { op_index: 0, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn exhaustion_reports_the_failing_op() {
        let inst = one_instance();
        let mut gas = Budget::ops(2).gas();
        let err = replay_instance(
            EdfAdmission,
            &inst,
            Augmentation::NONE,
            ReplayMode::Incremental,
            &mut gas,
            &(),
        )
        .expect_err("two ops of gas cannot finish");
        match err {
            ReplayError::Exhausted { op_index, cause } => {
                assert!(op_index < inst.ops.len());
                assert_eq!(cause, Exhaustion::Ops);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sharded_replay_preserves_instance_order_and_ticks_progress() {
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!(
                "begin inst{i}\nmachine 1\nadd 1 {} 10\nend\n",
                i + 1
            ));
        }
        let trace = parse_op_trace(&text).expect("parses");
        let progress = Progress::new(trace.instances.len() as u64);
        let results = replay_sharded(
            &trace,
            EdfAdmission,
            Augmentation::NONE,
            ReplayMode::Incremental,
            2,
            None,
            Some(&progress),
            &(),
        );
        assert_eq!(results.len(), 5);
        assert_eq!(progress.done(), 5);
        for r in &results {
            let done = r.as_ref().expect("each instance completes");
            assert_eq!(done.stats.ops, 1);
            assert!(done.digest.is_some(), "incremental runs digest");
        }
    }

    #[test]
    fn durable_replay_matches_incremental_and_recovers_bit_exact() {
        use hetfeas_robust::journal::MemStorage;

        let inst = one_instance();
        let mut gas = Gas::unlimited();
        let plain = replay_instance(
            EdfAdmission,
            &inst,
            Augmentation::NONE,
            ReplayMode::Incremental,
            &mut gas,
            &(),
        )
        .expect("plain replay completes");

        let store = MemStorage::new();
        let durable = replay_durable(
            trace_events(std::slice::from_ref(&inst)),
            EdfAdmission,
            Augmentation::NONE,
            "edf",
            DurableOptions::default(),
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("durable replay completes");
        let (stats, digest) = (durable.stats, durable.digest);
        assert_eq!(stats, plain, "journaling must not change protocol outcomes");

        let (rec, report) =
            hetfeas_partition::recover(EdfAdmission, Box::new(store), "edf", &mut gas, &())
                .expect("recovers");
        assert_eq!(report.truncated_records, 0);
        assert_eq!(rec.state_digest(), digest, "recovery is bit-exact");
    }

    #[test]
    fn streaming_replay_matches_materialized_digests() {
        use hetfeas_model::write_op_trace_bin;

        let trace = parse_op_trace(TRACE).expect("parses");
        let mut bin = Vec::new();
        write_op_trace_bin(&trace, &mut bin).expect("encodes");

        let mut stream = OpStream::new(&bin[..]).expect("valid header");
        let mut gas = Gas::unlimited();
        let summaries = replay_stream(&mut stream, EdfAdmission, Augmentation::NONE, &mut gas, &())
            .expect("streams");
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "churn");

        let (stats, digest) = replay_instance_digest(
            EdfAdmission,
            &trace.instances[0],
            Augmentation::NONE,
            &mut gas,
            &(),
        )
        .expect("materialized replay completes");
        assert_eq!(summaries[0].stats, stats);
        assert_eq!(summaries[0].digest, digest);
        assert_eq!(
            combine_digests(summaries.iter().map(|s| s.digest)),
            combine_digests([digest])
        );
    }

    #[test]
    fn durable_stream_matches_durable_materialized() {
        use hetfeas_model::{write_op_trace_bin, OpStream};
        use hetfeas_robust::journal::MemStorage;

        let trace = parse_op_trace(TRACE).expect("parses");
        let mut bin = Vec::new();
        write_op_trace_bin(&trace, &mut bin).expect("encodes");

        let mut gas = Gas::unlimited();
        let mat = replay_durable(
            trace_events(&trace.instances),
            EdfAdmission,
            Augmentation::NONE,
            "edf",
            DurableOptions::default(),
            Box::new(MemStorage::new()),
            &mut gas,
            &(),
        )
        .expect("materialized durable replay");

        let store = MemStorage::new();
        let mut stream = OpStream::new(&bin[..]).expect("valid header");
        let streamed = replay_durable(
            stream_events(&mut stream),
            EdfAdmission,
            Augmentation::NONE,
            "edf",
            DurableOptions::default(),
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("streamed durable replay");
        assert_eq!(streamed.name, "churn");
        assert_eq!(streamed.stats, mat.stats);
        assert_eq!(streamed.digest, mat.digest);
        let digest = streamed.digest;

        let (rec, _) =
            hetfeas_partition::recover(EdfAdmission, Box::new(store), "edf", &mut gas, &())
                .expect("recovers");
        assert_eq!(rec.state_digest(), digest);
    }

    #[test]
    fn corrupt_stream_is_a_decode_error() {
        use hetfeas_model::write_op_trace_bin;

        let trace = parse_op_trace(TRACE).expect("parses");
        let mut bin = Vec::new();
        write_op_trace_bin(&trace, &mut bin).expect("encodes");
        let cut = bin.len() - 3;
        let mut stream = OpStream::new(&bin[..cut]).expect("valid header");
        let mut gas = Gas::unlimited();
        let err = replay_stream(&mut stream, EdfAdmission, Augmentation::NONE, &mut gas, &())
            .expect_err("torn tail must error");
        assert!(matches!(err, StreamError::Decode(_)), "{err:?}");
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ReplayStats {
            ops: 1,
            admitted: 1,
            ..ReplayStats::default()
        };
        let b = ReplayStats {
            ops: 2,
            rejected: 1,
            final_live: 3,
            ..ReplayStats::default()
        };
        a.merge(&b);
        assert_eq!(a.ops, 3);
        assert_eq!(a.admitted, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.final_live, 3);
    }
}
