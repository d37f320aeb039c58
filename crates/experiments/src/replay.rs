//! Op-trace replay: the batched front end of the online admission engine.
//!
//! An op trace ([`hetfeas_model::parse_op_trace`]) holds *independent*
//! instances; this module replays each instance's operation stream against
//! either
//!
//! * [`ReplayMode::Incremental`] — the
//!   [`hetfeas_partition::IncrementalEngine`] (`O(log m)` adds, local
//!   repairs, snapshot/rollback), or
//! * [`ReplayMode::FromScratch`] — the honest baseline: a full batch
//!   first-fit re-run ([`hetfeas_partition::FirstFitEngine`]) after every
//!   mutating operation,
//!
//! and [`replay_sharded`] fans independent instances out across worker
//! threads with [`hetfeas_par::par_map_with`], ticking a shared
//! [`hetfeas_par::Progress`] counter so long replays report `done/total`
//! live instead of staying silent.
//!
//! The two modes agree on the *protocol* (a rejected add leaves the live
//! set unchanged, removes of unknown ids are counted misses, snapshot/
//! rollback restore observable state) but may diverge on individual
//! accept/reject decisions once an incremental assignment drifts from
//! canonical FFD order — that gap is exactly what the divergence-triggered
//! repack bounds, and `tests/prop_incremental.rs` pins the equivalence
//! after a repack.

use hetfeas_model::{
    Augmentation, IdMap, OpStream, OpTrace, Platform, Task, TraceEvent, TraceInstance, TraceOp,
};
use hetfeas_obs::MetricsSink;
use hetfeas_par::{par_map_with, Progress};
use hetfeas_partition::{
    live_state_digest, AddOutcome, DurableEngine, DurableError, DurableOptions, FirstFitEngine,
    IncrSnapshot, IncrementalEngine, IndexableAdmission, Outcome, RepackOutcome, TaskId,
};
use hetfeas_robust::journal::{crc32, Storage};
use hetfeas_robust::{Budget, Exhaustion, Gas};
use std::collections::HashMap;
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

/// The shared per-instance replay core: an [`IncrementalEngine`], the
/// trace-id → engine-id map, the single snapshot slot, and the protocol
/// stats. Both the materialized replays and the streaming binary replay
/// ([`replay_stream`]) drive every op through [`Self::apply`], which is
/// what makes their final digests structurally comparable — there is one
/// protocol implementation, not two.
pub struct InstanceReplayer<A: IndexableAdmission> {
    eng: IncrementalEngine<A>,
    ids: IdMap<TaskId>,
    snap: Option<(IncrSnapshot<A>, IdMap<TaskId>)>,
    stats: ReplayStats,
    op_index: usize,
}

impl<A: IndexableAdmission> InstanceReplayer<A> {
    /// Fresh replayer over `platform`.
    pub fn new(admission: A, platform: &Platform, alpha: Augmentation) -> Self {
        InstanceReplayer {
            eng: IncrementalEngine::new(admission, platform, alpha),
            ids: IdMap::default(),
            snap: None,
            stats: ReplayStats::default(),
            op_index: 0,
        }
    }

    /// Apply the next operation of the stream.
    pub fn apply<S: MetricsSink>(
        &mut self,
        op: &TraceOp,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), ReplayError> {
        let op_index = self.op_index;
        self.op_index += 1;
        self.stats.ops += 1;
        let exhausted = |cause| ReplayError::Exhausted { op_index, cause };
        match *op {
            TraceOp::Add { id, task } => {
                if let Some(tid) = self.ids.get(&id) {
                    if self.eng.contains(*tid) {
                        return Err(ReplayError::Trace {
                            op_index,
                            message: format!("add reuses live id {id}"),
                        });
                    }
                }
                match self
                    .eng
                    .add_within_with(task, gas, sink)
                    .map_err(exhausted)?
                {
                    AddOutcome::Admitted { id: tid, .. } => {
                        self.ids.insert(id, tid);
                        self.stats.admitted += 1;
                    }
                    AddOutcome::Rejected => self.stats.rejected += 1,
                }
            }
            TraceOp::Remove { id } => {
                let live = self.ids.get(&id).copied();
                match live {
                    Some(tid) => match self
                        .eng
                        .remove_within_with(tid, gas, sink)
                        .map_err(exhausted)?
                    {
                        Some(_) => {
                            self.ids.remove(&id);
                            self.stats.removed += 1;
                        }
                        None => self.stats.remove_misses += 1,
                    },
                    None => {
                        gas.tick().map_err(exhausted)?;
                        self.stats.remove_misses += 1;
                    }
                }
            }
            TraceOp::Query { id } => {
                gas.tick().map_err(exhausted)?;
                let hit = self.ids.get(&id).and_then(|tid| self.eng.machine_of(*tid));
                if hit.is_some() {
                    self.stats.query_hits += 1;
                } else {
                    self.stats.query_misses += 1;
                }
            }
            TraceOp::Snapshot => {
                gas.tick_n(self.eng.len() as u64 + 1).map_err(exhausted)?;
                self.snap = Some((self.eng.snapshot_with(sink), self.ids.clone()));
                self.stats.snapshots += 1;
            }
            TraceOp::Rollback => {
                gas.tick_n(self.eng.len() as u64 + 1).map_err(exhausted)?;
                let Some((s, m)) = self.snap.as_ref() else {
                    // The text parser and OpStream both reject this
                    // structurally; keep the direct API honest anyway.
                    return Err(ReplayError::Trace {
                        op_index,
                        message: "rollback before any snapshot".to_string(),
                    });
                };
                self.eng.rollback_with(s, sink);
                self.ids = m.clone();
                self.stats.rollbacks += 1;
            }
            TraceOp::Repack => match self.eng.repack_within_with(gas, sink).map_err(exhausted)? {
                RepackOutcome::Repacked => self.stats.repacks += 1,
                RepackOutcome::Infeasible => self.stats.repacks_infeasible += 1,
            },
        }
        Ok(())
    }

    /// CRC32 digest of the current engine state plus the held snapshot —
    /// the same bytes [`DurableEngine::state_digest`] hashes, so a
    /// journal-free replay can be compared against a durable run.
    pub fn digest(&self) -> u32 {
        live_state_digest(&self.eng, self.snap.as_ref().map(|(s, _)| s))
    }

    /// Close the instance: fill `final_live` and return stats + digest.
    pub fn finish(mut self) -> (ReplayStats, u32) {
        self.stats.final_live = self.eng.len() as u64;
        let digest = self.digest();
        (self.stats, digest)
    }
}

/// Replay one instance on the [`IncrementalEngine`].
fn replay_incremental<A, S>(
    admission: A,
    inst: &TraceInstance,
    alpha: Augmentation,
    gas: &mut Gas,
    sink: &S,
) -> Result<ReplayStats, ReplayError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    replay_instance_digest(admission, inst, alpha, gas, sink).map(|(stats, _)| stats)
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
    let mut rep = InstanceReplayer::new(admission, &inst.platform, alpha);
    for op in &inst.ops {
        rep.apply(op, gas, sink)?;
    }
    Ok(rep.finish())
}

/// Replay one instance on a journaled [`DurableEngine`] over `store`:
/// every mutating op is appended to the write-ahead journal before it is
/// applied, so a kill at any point leaves a journal that
/// [`hetfeas_partition::recover`] replays back to the bit-identical
/// engine. Returns the protocol stats plus the engine's
/// [`DurableEngine::state_digest`] — `hetfeas recover` prints the same
/// digest, which is how `scripts/crash_smoke.sh` compares a recovered
/// state against an uncrashed reference across processes.
#[allow(clippy::too_many_arguments)]
pub fn replay_durable<A, S>(
    admission: A,
    inst: &TraceInstance,
    alpha: Augmentation,
    policy_key: &str,
    opts: DurableOptions,
    store: Box<dyn Storage>,
    gas: &mut Gas,
    sink: &S,
) -> Result<(ReplayStats, u32), ReplayError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    let durable_err = |op_index: usize| {
        move |e: DurableError| match e {
            DurableError::Io(message) => ReplayError::Io { op_index, message },
            DurableError::Exhausted(cause) => ReplayError::Exhausted { op_index, cause },
        }
    };
    let mut eng = DurableEngine::create(
        admission,
        &inst.platform,
        alpha,
        policy_key,
        opts,
        store,
        gas,
        sink,
    )
    .map_err(durable_err(0))?;
    let mut ids: IdMap<TaskId> = IdMap::default();
    let mut ids_snap: Option<IdMap<TaskId>> = None;
    let mut stats = ReplayStats::default();
    for (op_index, op) in inst.ops.iter().enumerate() {
        apply_durable_op(
            &mut eng,
            &mut ids,
            &mut ids_snap,
            &mut stats,
            op_index,
            op,
            gas,
            sink,
        )?;
    }
    stats.final_live = eng.engine().len() as u64;
    Ok((stats, eng.state_digest()))
}

/// One step of journaled replay — shared by the materialized
/// [`replay_durable`] and the streaming [`replay_durable_stream`].
#[allow(clippy::too_many_arguments)]
fn apply_durable_op<A, S>(
    eng: &mut DurableEngine<A>,
    ids: &mut IdMap<TaskId>,
    ids_snap: &mut Option<IdMap<TaskId>>,
    stats: &mut ReplayStats,
    op_index: usize,
    op: &TraceOp,
    gas: &mut Gas,
    sink: &S,
) -> Result<(), ReplayError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    let durable_err = move |e: DurableError| match e {
        DurableError::Io(message) => ReplayError::Io { op_index, message },
        DurableError::Exhausted(cause) => ReplayError::Exhausted { op_index, cause },
    };
    stats.ops += 1;
    let exhausted = |cause| ReplayError::Exhausted { op_index, cause };
    match *op {
        TraceOp::Add { id, task } => {
            if let Some(tid) = ids.get(&id) {
                if eng.engine().contains(*tid) {
                    return Err(ReplayError::Trace {
                        op_index,
                        message: format!("add reuses live id {id}"),
                    });
                }
            }
            match eng.add(task, gas, sink).map_err(durable_err)? {
                AddOutcome::Admitted { id: tid, .. } => {
                    ids.insert(id, tid);
                    stats.admitted += 1;
                }
                AddOutcome::Rejected => stats.rejected += 1,
            }
        }
        TraceOp::Remove { id } => match ids.get(&id).copied() {
            Some(tid) => match eng.remove(tid, gas, sink).map_err(durable_err)? {
                Some(_) => {
                    ids.remove(&id);
                    stats.removed += 1;
                }
                None => stats.remove_misses += 1,
            },
            None => {
                gas.tick().map_err(exhausted)?;
                stats.remove_misses += 1;
            }
        },
        TraceOp::Query { id } => {
            gas.tick().map_err(exhausted)?;
            let hit = ids.get(&id).and_then(|tid| eng.engine().machine_of(*tid));
            if hit.is_some() {
                stats.query_hits += 1;
            } else {
                stats.query_misses += 1;
            }
        }
        TraceOp::Snapshot => {
            eng.snapshot(gas, sink).map_err(durable_err)?;
            *ids_snap = Some(ids.clone());
            stats.snapshots += 1;
        }
        TraceOp::Rollback => {
            if eng.rollback(gas, sink).map_err(durable_err)? {
                *ids = ids_snap.clone().expect("parser rejects early rollback");
            }
            stats.rollbacks += 1;
        }
        TraceOp::Repack => match eng.repack(gas, sink).map_err(durable_err)? {
            RepackOutcome::Repacked => stats.repacks += 1,
            RepackOutcome::Infeasible => stats.repacks_infeasible += 1,
        },
    }
    Ok(())
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

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Decode(m) => write!(f, "binary trace: {m}"),
            StreamError::Replay(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

/// One finished instance of a streaming replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Instance name from its begin record.
    pub name: String,
    /// Protocol outcome counts.
    pub stats: ReplayStats,
    /// [`live_state_digest`] of the final state (with held snapshot).
    pub digest: u32,
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
    let mut out = Vec::new();
    let mut current: Option<(String, InstanceReplayer<A>)> = None;
    while let Some(ev) = stream
        .next_event()
        .map_err(|e| StreamError::Decode(e.to_string()))?
    {
        match ev {
            TraceEvent::Begin { name, platform } => {
                current = Some((
                    name,
                    InstanceReplayer::new(admission.clone(), &platform, alpha),
                ));
            }
            TraceEvent::Op(op) => {
                let (_, rep) = current
                    .as_mut()
                    .expect("OpStream yields ops only inside an instance");
                rep.apply(&op, gas, sink).map_err(StreamError::Replay)?;
            }
            TraceEvent::End => {
                let (name, rep) = current
                    .take()
                    .expect("OpStream yields End only inside an instance");
                let (stats, digest) = rep.finish();
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

/// Journaled streaming replay: [`replay_durable`] fed from a binary
/// [`OpStream`] instead of a materialized instance. The stream must hold
/// exactly **one** instance — a journal describes a single engine.
/// Returns the instance name with the stats and final
/// [`DurableEngine::state_digest`].
#[allow(clippy::too_many_arguments)]
pub fn replay_durable_stream<A, S, R>(
    stream: &mut OpStream<R>,
    admission: A,
    alpha: Augmentation,
    policy_key: &str,
    opts: DurableOptions,
    store: Box<dyn Storage>,
    gas: &mut Gas,
    sink: &S,
) -> Result<(String, ReplayStats, u32), StreamError>
where
    A: IndexableAdmission,
    S: MetricsSink,
    R: std::io::Read,
{
    let decode = |e: hetfeas_model::BinTraceError| StreamError::Decode(e.to_string());
    let mut store = Some(store);
    let mut admission = Some(admission);
    let mut current: Option<(String, DurableEngine<A>)> = None;
    let mut ids: IdMap<TaskId> = IdMap::default();
    let mut ids_snap: Option<IdMap<TaskId>> = None;
    let mut stats = ReplayStats::default();
    let mut op_index = 0usize;
    let mut finished: Option<(String, ReplayStats, u32)> = None;
    while let Some(ev) = stream.next_event().map_err(decode)? {
        match ev {
            TraceEvent::Begin { name, platform } => {
                if current.is_some() || finished.is_some() {
                    return Err(StreamError::Replay(ReplayError::Trace {
                        op_index,
                        message: "journaled replay needs a single-instance trace".to_string(),
                    }));
                }
                let eng = DurableEngine::create(
                    admission.take().expect("single instance"),
                    &platform,
                    alpha,
                    policy_key,
                    opts,
                    store.take().expect("single instance"),
                    gas,
                    sink,
                )
                .map_err(|e| match e {
                    DurableError::Io(message) => StreamError::Replay(ReplayError::Io {
                        op_index: 0,
                        message,
                    }),
                    DurableError::Exhausted(cause) => {
                        StreamError::Replay(ReplayError::Exhausted { op_index: 0, cause })
                    }
                })?;
                current = Some((name, eng));
            }
            TraceEvent::Op(op) => {
                let (_, eng) = current
                    .as_mut()
                    .expect("OpStream yields ops only inside an instance");
                apply_durable_op(
                    eng,
                    &mut ids,
                    &mut ids_snap,
                    &mut stats,
                    op_index,
                    &op,
                    gas,
                    sink,
                )
                .map_err(StreamError::Replay)?;
                op_index += 1;
            }
            TraceEvent::End => {
                let (name, eng) = current
                    .take()
                    .expect("OpStream yields End only inside an instance");
                stats.final_live = eng.engine().len() as u64;
                finished = Some((name, stats, eng.state_digest()));
                stats = ReplayStats::default();
            }
        }
    }
    finished.ok_or_else(|| {
        StreamError::Replay(ReplayError::Trace {
            op_index: 0,
            message: "trace holds no instance".to_string(),
        })
    })
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

/// From-scratch baseline state: the live set plus a per-trace-id placement
/// map. Placements are keyed by trace id (not positional index) so that a
/// remove whose FFD re-run comes back infeasible can keep the previous —
/// still valid — placements for the survivors without index aliasing.
struct Scratch {
    ids: Vec<u64>,
    tasks: Vec<Task>,
    placed: HashMap<u64, usize>,
}

/// Replay one instance re-running batch first-fit after every mutation.
fn replay_from_scratch<A, S>(
    admission: A,
    inst: &TraceInstance,
    alpha: Augmentation,
    gas: &mut Gas,
    sink: &S,
) -> Result<ReplayStats, ReplayError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    let mut ff = FirstFitEngine::new(admission);
    let m = inst.platform.len();
    let mut live = Scratch {
        ids: Vec::new(),
        tasks: Vec::new(),
        placed: HashMap::new(),
    };
    let mut snap: Option<Scratch> = None;
    let mut stats = ReplayStats::default();
    let mut rerun = |live: &mut Scratch, gas: &mut Gas| -> Result<bool, Exhaustion> {
        gas.tick_n((live.tasks.len() + m) as u64 + 1)?;
        let ts: hetfeas_model::TaskSet = live.tasks.iter().copied().collect();
        match ff.run_with(&ts, &inst.platform, alpha, sink) {
            Outcome::Feasible(a) => {
                live.placed = live
                    .ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, a.machine_of(i).expect("complete assignment")))
                    .collect();
                Ok(true)
            }
            _ => Ok(false),
        }
    };
    for (op_index, op) in inst.ops.iter().enumerate() {
        stats.ops += 1;
        let exhausted = |cause| ReplayError::Exhausted { op_index, cause };
        match *op {
            TraceOp::Add { id, task } => {
                if live.ids.contains(&id) {
                    return Err(ReplayError::Trace {
                        op_index,
                        message: format!("add reuses live id {id}"),
                    });
                }
                live.ids.push(id);
                live.tasks.push(task);
                if rerun(&mut live, gas).map_err(exhausted)? {
                    stats.admitted += 1;
                } else {
                    live.ids.pop();
                    live.tasks.pop();
                    stats.rejected += 1;
                }
            }
            TraceOp::Remove { id } => match live.ids.iter().position(|&x| x == id) {
                Some(pos) => {
                    live.ids.remove(pos);
                    live.tasks.remove(pos);
                    live.placed.remove(&id);
                    // FFD is order-sensitive: a subset of a feasible set
                    // can fail the re-run. The survivors' previous
                    // placements stay valid (removal only sheds load), so
                    // on infeasible keep them — same policy as the
                    // incremental engine's infeasible repack.
                    let _ = rerun(&mut live, gas).map_err(exhausted)?;
                    stats.removed += 1;
                }
                None => {
                    gas.tick().map_err(exhausted)?;
                    stats.remove_misses += 1;
                }
            },
            TraceOp::Query { id } => {
                gas.tick().map_err(exhausted)?;
                if live.placed.contains_key(&id) {
                    stats.query_hits += 1;
                } else {
                    stats.query_misses += 1;
                }
            }
            TraceOp::Snapshot => {
                gas.tick_n(live.tasks.len() as u64 + 1).map_err(exhausted)?;
                snap = Some(Scratch {
                    ids: live.ids.clone(),
                    tasks: live.tasks.clone(),
                    placed: live.placed.clone(),
                });
                stats.snapshots += 1;
            }
            TraceOp::Rollback => {
                gas.tick_n(live.tasks.len() as u64 + 1).map_err(exhausted)?;
                let s = snap.as_ref().expect("parser rejects early rollback");
                live.ids = s.ids.clone();
                live.tasks = s.tasks.clone();
                live.placed = s.placed.clone();
                stats.rollbacks += 1;
            }
            TraceOp::Repack => {
                // The baseline is always canonical; re-run for cost parity.
                if rerun(&mut live, gas).map_err(exhausted)? {
                    stats.repacks += 1;
                } else {
                    stats.repacks_infeasible += 1;
                }
            }
        }
    }
    stats.final_live = live.tasks.len() as u64;
    Ok(stats)
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
    A: IndexableAdmission,
    S: MetricsSink,
{
    match mode {
        ReplayMode::Incremental => replay_incremental(admission, inst, alpha, gas, sink),
        ReplayMode::FromScratch => replay_from_scratch(admission, inst, alpha, gas, sink),
    }
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
) -> Vec<Result<ReplayStats, ReplayError>>
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
        let out = replay_instance(admission.clone(), inst, alpha, mode, &mut gas, sink);
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
            let stats = r.as_ref().expect("each instance completes");
            assert_eq!(stats.ops, 1);
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
        let (stats, digest) = replay_durable(
            EdfAdmission,
            &inst,
            Augmentation::NONE,
            "edf",
            DurableOptions::default(),
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("durable replay completes");
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
        let (mat_stats, mat_digest) = replay_durable(
            EdfAdmission,
            &trace.instances[0],
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
        let (name, stats, digest) = replay_durable_stream(
            &mut stream,
            EdfAdmission,
            Augmentation::NONE,
            "edf",
            DurableOptions::default(),
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("streamed durable replay");
        assert_eq!(name, "churn");
        assert_eq!(stats, mat_stats);
        assert_eq!(digest, mat_digest);

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
