//! Streaming-vs-materialized replay equivalence: the pull-based binary replay path must land on *exactly*
//! the digests and stats of the materialized text-trace path — on every
//! prefix of the op sequence, on multi-instance traces, and through the
//! durable journaled path with incremental compaction slices in flight.
//! One fixed trace's digests and repack counters are also pinned to
//! literals, so a change that moves both paths alike still shows.

use hetfeas_experiments::{
    combine_digests, replay_durable, replay_instance_digest, replay_stream, stream_events,
    trace_events,
};
use hetfeas_model::{write_op_trace_bin, Augmentation, OpStream, OpTrace, TraceInstance};
use hetfeas_partition::{DurableOptions, EdfAdmission, RmsLlAdmission};
use hetfeas_robust::journal::MemStorage;
use hetfeas_robust::{FaultPlan, Gas};
use hetfeas_workload::{synth_platform, SynthSpec, TraceSynth};

/// A small but op-diverse synth spec: snapshots, rollbacks and repacks
/// all fire within a few hundred ops.
fn spec(seed: u64, ops: u64) -> SynthSpec {
    SynthSpec {
        seed,
        ops_per_instance: ops,
        instances: 1,
        machines: 4,
        max_live: 64,
        snapshot_every_ops: 60,
        rollback_per_mille: 40,
        repack_every_ops: 150,
        ..SynthSpec::default()
    }
}

fn materialize(spec: &SynthSpec, instance: usize) -> TraceInstance {
    let platform = synth_platform(spec, instance);
    let mut synth = TraceSynth::new(spec, instance);
    let mut ops = Vec::new();
    while let Some(op) = synth.next_op() {
        ops.push(op);
    }
    TraceInstance {
        name: format!("synth-{instance}"),
        platform,
        ops,
    }
}

fn stream_one(trace: &OpTrace) -> Vec<(String, u32)> {
    let bytes = write_op_trace_bin(trace, Vec::new()).expect("encode");
    let mut stream = OpStream::new(&bytes[..]).expect("header");
    let summaries = replay_stream(
        &mut stream,
        EdfAdmission,
        Augmentation::NONE,
        &mut Gas::unlimited(),
        &(),
    )
    .expect("stream replays");
    summaries.into_iter().map(|s| (s.name, s.digest)).collect()
}

/// Every prefix of the op sequence digests identically whether the trace
/// is materialized in memory or pulled from the binary stream.
#[test]
fn every_prefix_digests_identically() {
    let full = materialize(&spec(11, 240), 0);
    for cut in 0..=full.ops.len() {
        let inst = TraceInstance {
            name: full.name.clone(),
            platform: full.platform.clone(),
            ops: full.ops[..cut].to_vec(),
        };
        let (stats, want) = replay_instance_digest(
            EdfAdmission,
            &inst,
            Augmentation::NONE,
            &mut Gas::unlimited(),
            &(),
        )
        .expect("materialized replays");
        let trace = OpTrace {
            instances: vec![inst],
        };
        let got = stream_one(&trace);
        assert_eq!(got.len(), 1, "prefix {cut}");
        assert_eq!(got[0].1, want, "prefix {cut}: digest diverged");
        assert_eq!(stats.ops, cut as u64, "prefix {cut}: op count");
    }
}

/// Multi-instance traces: per-instance digests match the materialized
/// replay instance by instance, and the combined digest is a pure
/// function of them.
#[test]
fn multi_instance_stream_matches_materialized() {
    let mut s = spec(23, 180);
    s.instances = 4;
    // Mix in adversarial arrivals drawn from the fault corpus so the
    // equivalence also holds on huge-period / degenerate tasks.
    s.adversarial_per_mille = 80;
    for case in FaultPlan::new(23).cases() {
        s.adversarial.extend_from_slice(case.tasks.as_slice());
    }
    let instances: Vec<TraceInstance> = (0..s.instances).map(|i| materialize(&s, i)).collect();
    let mut want = Vec::new();
    for inst in &instances {
        let (_, d) = replay_instance_digest(
            EdfAdmission,
            inst,
            Augmentation::NONE,
            &mut Gas::unlimited(),
            &(),
        )
        .expect("materialized replays");
        want.push((inst.name.clone(), d));
    }
    let trace = OpTrace { instances };
    let got = stream_one(&trace);
    assert_eq!(got, want);
    assert_eq!(
        combine_digests(got.iter().map(|(_, d)| *d)),
        combine_digests(want.iter().map(|(_, d)| *d))
    );
}

/// The journaled paths agree too, with incremental compaction slices
/// interleaving mid-replay: tiny `slice_bytes` forces many partial
/// slices, and the final digest still matches the materialized durable
/// replay byte for byte.
#[test]
fn durable_stream_matches_durable_replay_under_sliced_compaction() {
    let s = spec(37, 200);
    let inst = materialize(&s, 0);
    let opts = DurableOptions {
        compact_every: 16,
        slice_bytes: 96,
        ..DurableOptions::default()
    };
    let want = replay_durable(
        trace_events(std::slice::from_ref(&inst)),
        RmsLlAdmission,
        Augmentation::NONE,
        "rms-ll",
        opts,
        Box::new(MemStorage::new()),
        &mut Gas::unlimited(),
        &(),
    )
    .expect("materialized durable replays");

    let trace = OpTrace {
        instances: vec![inst],
    };
    let bytes = write_op_trace_bin(&trace, Vec::new()).expect("encode");
    let mut stream = OpStream::new(&bytes[..]).expect("header");
    let got = replay_durable(
        stream_events(&mut stream),
        RmsLlAdmission,
        Augmentation::NONE,
        "rms-ll",
        opts,
        Box::new(MemStorage::new()),
        &mut Gas::unlimited(),
        &(),
    )
    .expect("streamed durable replays");
    assert_eq!(got.name, "synth-0");
    assert_eq!(got.digest, want.digest);
    assert_eq!(got.stats.ops, want.stats.ops);
    assert_eq!(got.stats.admitted, want.stats.admitted);
    assert_eq!(got.stats.rollbacks, want.stats.rollbacks);
}

/// Per-instance digests of a streamed replay under `admission`, and the
/// run's repack and placement counters: `incr.repacks`,
/// `incr.repack_infeasible`, then the `ff.placed`, `ff.admission_checks`,
/// `engine.exact_checks` and `ff.workspace_allocs` the repacks emit.
fn pinned_run<A>(trace: &OpTrace, admission: A) -> (Vec<u32>, [u64; 6])
where
    A: hetfeas_partition::IndexableAdmission + Clone,
{
    use hetfeas_partition::metrics as pm;
    let bytes = write_op_trace_bin(trace, Vec::new()).expect("encode");
    let mut stream = OpStream::new(&bytes[..]).expect("header");
    let sink = hetfeas_obs::MemorySink::new();
    let digests = replay_stream(
        &mut stream,
        admission,
        Augmentation::NONE,
        &mut Gas::unlimited(),
        &sink,
    )
    .expect("stream replays")
    .iter()
    .map(|s| s.digest)
    .collect();
    let counters = [
        pm::INCR_REPACKS,
        pm::INCR_REPACK_INFEASIBLE,
        pm::FF_PLACED,
        pm::FF_ADMISSION_CHECKS,
        pm::ENGINE_EXACT_CHECKS,
        pm::FF_WORKSPACE_ALLOCS,
    ]
    .map(|name| sink.counter(name));
    (digests, counters)
}

/// The streamed digests of a fixed synth trace, pinned to literals with
/// the repack counters. The digest covers every placement, resident
/// order and the canonical frontier, so any drift in the online engine's
/// add, remove or repack path shows here, not only a disagreement
/// between two replay paths.
#[test]
fn stream_digests_are_pinned() {
    let mut s = SynthSpec {
        seed: 5,
        ops_per_instance: 1 << 14,
        instances: 3,
        machines: 2,
        max_live: 256,
        snapshot_every_ops: 1500,
        rollback_per_mille: 20,
        repack_every_ops: 2000,
        adversarial_per_mille: 30,
        ..SynthSpec::default()
    };
    for case in FaultPlan::new(5).cases() {
        s.adversarial.extend_from_slice(case.tasks.as_slice());
    }
    let trace = OpTrace {
        instances: (0..s.instances).map(|i| materialize(&s, i)).collect(),
    };
    let edf = pinned_run(&trace, EdfAdmission);
    let rms = pinned_run(&trace, RmsLlAdmission);
    // RMS-LL on two machines also exercises the infeasible repack.
    assert_eq!(
        edf,
        (
            vec![0x008b_edc3, 0x9f0e_a21f, 0xa527_432a],
            [55, 0, 423, 638, 423, 9]
        )
    );
    assert_eq!(
        rms,
        (
            vec![0x93e5_fad2, 0x7ae1_c7f1, 0x9449_a661],
            [78, 2, 331, 509, 331, 9]
        )
    );
}
