//! Smoke benchmark for the incremental admission engine. Run by
//! `scripts/bench_smoke.sh` (`cargo run --release --bin bench_incr_smoke`);
//! prints `BENCH_incremental.json`:
//!
//! * `streaming` — a synthesized million-op binary trace replayed through
//!   the pull-based [`replay_stream`] path, with the trace size on disk,
//!   the replay throughput and the process peak RSS (`VmHWM`). This
//!   section runs FIRST so the high-water mark reflects the streaming
//!   replay, not the later 4096×1024 churn engine; the harness itself
//!   asserts the ceiling (`scripts/ci.sh` gates `peak_rss_bytes` again);
//! * `single_thread` — steady-state churn ops/sec at n = 4096, m = 1024
//!   on the [`IncrementalEngine`] under its default repack policy vs the
//!   honest from-scratch baseline (a full [`FirstFitEngine`] batch re-run
//!   after every mutation). The baseline op count is *scaled from a probe*
//!   of its measured per-op cost, so the ratio (`speedup` — the
//!   `scripts/ci.sh` gate compares it with the committed file) is averaged
//!   over a fixed wall-clock budget instead of a fixed 64 ops. Every churn
//!   op is also timed on its own: `latency` splits them into adds,
//!   removes, and ops that ran a divergence-triggered repack, each as
//!   count/p50/p99/max ns, and `worst_op_ns` is the slowest single op;
//! * `compaction` — the amortized cost of incremental journal compaction:
//!   full sliced compactions driven at a fixed op cadence over a churned
//!   [`DurableEngine`], reported as ns per journaled op;
//! * `scaling` — independent instances sharded across OS threads
//!   (`std::thread::scope`, 1 vs 8 workers). Reported with `host_cpus`
//!   because the ratio is only meaningful on a multicore host; the CI gate
//!   checks it conditionally.
//!
//! Instances mirror `bench_ffd_smoke`: uniform-random integer
//! speeds in 1..=8, UUniFast utilizations (capped at 0.95 per task),
//! periods from the standard menu.

use hetfeas_experiments::{combine_digests, replay_stream};
use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, OpStream, Platform, Task, TaskSet, TraceWriter};
use hetfeas_obs::MemorySink;
use hetfeas_partition::{
    DurableEngine, DurableOptions, EdfAdmission, FirstFitEngine, IncrementalEngine, RmsLlAdmission,
    TaskId,
};
use hetfeas_robust::metrics as rmetrics;
use hetfeas_robust::{Gas, MemStorage};
use hetfeas_workload::{synth_platform, SynthSpec, TraceSynth};
use std::time::Instant;

/// Hard ceiling for the streaming replay's peak RSS: a million-op trace is
/// ~5 MB on disk and the replay holds one engine plus one decode frame, so
/// 128 MiB is an order of magnitude of slack — a materialized replay blows
/// straight through it.
const STREAM_RSS_CEILING: u64 = 128 << 20;

/// Uniform in (0, 1].
fn uniform(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// UUniFast (Bini & Buttazzo) with a per-task cap.
fn uunifast_capped(rng: &mut Rng, n: usize, total: f64, cap: f64) -> Vec<f64> {
    let mut utils = Vec::with_capacity(n);
    let mut sum = total;
    for i in 0..n {
        let remaining = (n - i - 1) as f64;
        let next = if remaining > 0.0 {
            sum * uniform(rng).powf(1.0 / remaining)
        } else {
            0.0
        };
        utils.push((sum - next).clamp(1e-4, cap));
        sum = next;
    }
    utils
}

fn instance(n: usize, m: usize, u_norm: f64, seed: u64) -> (Vec<Task>, Platform) {
    let mut rng = Rng::from_state(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let speeds: Vec<u64> = (0..m).map(|_| 1 + rng.next_u64() % 8).collect();
    let total_speed: u64 = speeds.iter().sum();
    let target = (u_norm * total_speed as f64).min(0.90 * n as f64);
    let periods = [100u64, 200, 250, 400, 500, 1000];
    let tasks: Vec<Task> = uunifast_capped(&mut rng, n, target, 0.95)
        .into_iter()
        .map(|u| {
            let p = periods[(rng.next_u64() % periods.len() as u64) as usize];
            Task::implicit(((u * p as f64).round() as u64).max(1), p).expect("c ≥ 1")
        })
        .collect();
    (tasks, Platform::from_int_speeds(speeds).expect("m ≥ 1"))
}

/// One unit of scaling work: build an engine over `tasks`, then churn it.
fn run_instance(tasks: &[Task], platform: &Platform, churn: usize, seed: u64) -> u64 {
    let mut eng = IncrementalEngine::new(EdfAdmission, platform, Augmentation::NONE);
    let mut live: Vec<TaskId> = Vec::new();
    for &t in tasks {
        if let Some(id) = eng.add(t).id() {
            live.push(id);
        }
    }
    let mut rng = Rng::from_state(seed | 1);
    let mut fresh = Rng::from_state(seed.wrapping_mul(31) | 1);
    for i in 0..churn {
        if i % 2 == 0 && !live.is_empty() {
            let victim = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
            eng.remove(victim);
        } else {
            let (extra, _) = instance(1, 1, 0.0, fresh.next_u64());
            if let Some(id) = eng.add(extra[0]).id() {
                live.push(id);
            }
        }
    }
    eng.len() as u64
}

/// Process peak RSS from `/proc/self/status` (`VmHWM`, kB → bytes); 0 when
/// unreadable (non-Linux hosts report instead of gate).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// `count`/`p50`/`p99`/`max` of per-op latencies, as a JSON object.
fn latency_row(ns: &mut [u64]) -> String {
    ns.sort_unstable();
    let at = |q: f64| {
        let last = ns.len().saturating_sub(1);
        ns.get((last as f64 * q).round() as usize)
            .copied()
            .unwrap_or(0)
    };
    format!(
        "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
        ns.len(),
        at(0.5),
        at(0.99),
        at(1.0)
    )
}

/// The from-scratch churn protocol: `churn` alternating remove/re-add ops,
/// each followed by a full batch first-fit re-run. Returns wall seconds.
fn run_from_scratch(tasks: &[Task], platform: &Platform, churn: usize) -> f64 {
    let mut ff = FirstFitEngine::new(EdfAdmission);
    let mut live_tasks: Vec<Task> = tasks.to_vec();
    let mut rng = Rng::from_state(99);
    let mut spare: Vec<Task> = Vec::new();
    let started = Instant::now();
    for i in 0..churn {
        if i % 2 == 0 && !live_tasks.is_empty() {
            let pos = (rng.next_u64() % live_tasks.len() as u64) as usize;
            spare.push(live_tasks.swap_remove(pos));
        } else if let Some(t) = spare.pop() {
            live_tasks.push(t);
        }
        let ts: TaskSet = live_tasks.iter().copied().collect();
        std::hint::black_box(ff.run(&ts, platform, Augmentation::NONE));
    }
    started.elapsed().as_secs_f64()
}

fn main() {
    // ---- streaming: synthesize a million-op binary trace to disk, then
    // replay it through the pull-based stream path. Runs FIRST so VmHWM
    // is the streaming replay's high-water mark.
    let stream_ops_target = 1u64 << 20;
    let spec = SynthSpec {
        seed: 42,
        ops_per_instance: stream_ops_target,
        instances: 1,
        machines: 8,
        ..SynthSpec::default()
    };
    let trace_path =
        std::env::temp_dir().join(format!("hetfeas_bench_stream_{}.hbt", std::process::id()));
    let started = Instant::now();
    {
        let file = std::fs::File::create(&trace_path).expect("create trace file");
        let mut writer = TraceWriter::new(std::io::BufWriter::with_capacity(1 << 20, file))
            .expect("trace header");
        let platform = synth_platform(&spec, 0);
        writer
            .begin_instance("bench-stream", &platform)
            .expect("begin");
        let mut synth = TraceSynth::new(&spec, 0);
        while let Some(op) = synth.next_op() {
            writer.op(&op).expect("op");
        }
        writer.end_instance().expect("end");
        writer.finish().expect("finish");
    }
    let synth_secs = started.elapsed().as_secs_f64();
    let trace_bytes = std::fs::metadata(&trace_path).expect("trace stat").len();

    let started = Instant::now();
    let file = std::fs::File::open(&trace_path).expect("open trace");
    let mut stream =
        OpStream::new(std::io::BufReader::with_capacity(1 << 20, file)).expect("trace header");
    let summaries = replay_stream(
        &mut stream,
        EdfAdmission,
        Augmentation::NONE,
        &mut Gas::unlimited(),
        &(),
    )
    .expect("streaming replay");
    let stream_secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&trace_path);
    let stream_ops: u64 = summaries.iter().map(|s| s.stats.ops).sum();
    assert_eq!(stream_ops, stream_ops_target, "synthesizer op count");
    let stream_digest = combine_digests(summaries.iter().map(|s| s.digest));
    let stream_ops_per_sec = stream_ops as f64 / stream_secs;
    let peak_rss = peak_rss_bytes();
    eprintln!(
        "streaming: {stream_ops} ops synthesized in {:.1} ms ({} bytes), replayed in {:.1} ms \
         ({:.0} ops/s, digest {stream_digest:08x}, peak RSS {} kB)",
        synth_secs * 1e3,
        trace_bytes,
        stream_secs * 1e3,
        stream_ops_per_sec,
        peak_rss / 1024
    );
    if peak_rss > 0 {
        assert!(
            peak_rss < STREAM_RSS_CEILING,
            "streaming replay peak RSS {peak_rss} exceeds the {STREAM_RSS_CEILING} ceiling — \
             the bounded-memory property regressed"
        );
    }

    // ---- single-thread: incremental vs from-scratch churn at 4096×1024.
    let (n, m) = (4096usize, 1024usize);
    let (tasks, platform) = instance(n, m, 0.6, 7);

    // Incremental: untimed build-up, then timed churn.
    let mut eng = IncrementalEngine::new(EdfAdmission, &platform, Augmentation::NONE);
    let mut live: Vec<TaskId> = Vec::new();
    for &t in &tasks {
        if let Some(id) = eng.add(t).id() {
            live.push(id);
        }
    }
    // Long enough for a few hundred repacks (one per 256 divergent ops)
    // and a wall time well above timer noise.
    let incr_churn = 1usize << 16;
    let mut rng = Rng::from_state(99);
    let mut spare: Vec<Task> = Vec::new();
    let (mut add_ns, mut remove_ns, mut repack_ns) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0..incr_churn {
        let divergence = eng.divergence();
        let op_started = Instant::now();
        let removing = i % 2 == 0 && !live.is_empty();
        if removing {
            let pos = (rng.next_u64() % live.len() as u64) as usize;
            let victim = live.swap_remove(pos);
            if let Some(t) = eng.remove(victim) {
                spare.push(t);
            }
        } else if let Some(t) = spare.pop() {
            if let Some(id) = eng.add(t).id() {
                live.push(id);
            }
        }
        let ns = op_started.elapsed().as_nanos() as u64;
        // The divergence clock only falls when the op ran a repack.
        if eng.divergence() < divergence {
            repack_ns.push(ns);
        } else if removing {
            remove_ns.push(ns);
        } else {
            add_ns.push(ns);
        }
    }
    let incr_secs = started.elapsed().as_secs_f64();
    let incr_ops_per_sec = incr_churn as f64 / incr_secs;
    let worst_op_ns = add_ns
        .iter()
        .chain(&remove_ns)
        .chain(&repack_ns)
        .copied()
        .max()
        .unwrap_or(0);
    let (add_row, remove_row, repack_row) = (
        latency_row(&mut add_ns),
        latency_row(&mut remove_ns),
        latency_row(&mut repack_ns),
    );
    eprintln!(
        "incremental: {incr_churn} churn ops in {:.1} ms ({:.0} ops/s, {} live, divergence {}, \
         worst op {:.3} ms)\n  add {add_row}\n  remove {remove_row}\n  repack {repack_row}",
        incr_secs * 1e3,
        incr_ops_per_sec,
        eng.len(),
        eng.divergence(),
        worst_op_ns as f64 / 1e6
    );

    // From-scratch baseline: same churn protocol, full batch re-run per
    // op. A fixed 64-op run is dominated by cache warm-up and timer
    // granularity on fast hosts, so probe the per-op cost first and scale
    // the measured run to a ~0.75 s wall budget (clamped to 64..=4096).
    let probe_ops = 8usize;
    let probe_secs = run_from_scratch(&tasks, &platform, probe_ops);
    let per_op = probe_secs / probe_ops as f64;
    let scratch_churn = ((0.75 / per_op.max(1e-9)) as usize).clamp(64, 4096);
    let scratch_secs = run_from_scratch(&tasks, &platform, scratch_churn);
    let scratch_ops_per_sec = scratch_churn as f64 / scratch_secs;
    eprintln!(
        "from-scratch: {scratch_churn} churn ops in {:.1} ms ({:.0} ops/s; probe {:.2} ms/op)",
        scratch_secs * 1e3,
        scratch_ops_per_sec,
        per_op * 1e3
    );
    let speedup = incr_ops_per_sec / scratch_ops_per_sec;
    eprintln!("single-thread incremental vs from-scratch: {speedup:.1}x");

    // Cross-check on RMS-LL too (cheap, not part of the gate): the engine
    // must survive the same protocol under the other indexed admission.
    let (small_tasks, small_platform) = instance(512, 128, 0.5, 11);
    let mut rms = IncrementalEngine::new(RmsLlAdmission, &small_platform, Augmentation::NONE);
    let mut rms_live = Vec::new();
    for &t in &small_tasks {
        if let Some(id) = rms.add(t).id() {
            rms_live.push(id);
        }
    }
    for id in rms_live {
        rms.remove(id);
    }
    assert!(rms.is_empty(), "RMS-LL engine must drain cleanly");

    // ---- compaction: amortized cost of incremental journal compaction.
    // Churn a journaled engine for `cadence` ops, then drive one full
    // sliced compaction; repeat. Amortized ns/op = compaction wall time
    // over the ops each compaction covers — the price an op stream pays
    // for keeping the journal bounded.
    let (ctasks, cplatform) = instance(512, 64, 0.6, 21);
    let sink = MemorySink::new();
    let mem = MemStorage::new();
    let opts = DurableOptions {
        repack_after: 0,
        compact_every: 0, // compactions driven manually below
        slice_bytes: 4096,
    };
    let mut gas = Gas::unlimited();
    let mut durable = DurableEngine::create(
        EdfAdmission,
        &cplatform,
        Augmentation::NONE,
        "edf",
        opts,
        Box::new(mem.clone()),
        &mut gas,
        &sink,
    )
    .expect("create journaled engine");
    let mut ids: Vec<TaskId> = Vec::new();
    for &t in &ctasks {
        if let Some(id) = durable.add(t, &mut gas, &sink).expect("journaled add").id() {
            ids.push(id);
        }
    }
    let cadence = 1024u64;
    let rounds = 4u32;
    let mut rng = Rng::from_state(7);
    let mut fresh = Rng::from_state(77);
    let mut compact_secs_total = 0.0f64;
    for _ in 0..rounds {
        for i in 0..cadence {
            if i % 2 == 0 && !ids.is_empty() {
                let pos = (rng.next_u64() % ids.len() as u64) as usize;
                let victim = ids.swap_remove(pos);
                durable
                    .remove(victim, &mut gas, &sink)
                    .expect("journaled remove");
            } else {
                let (extra, _) = instance(1, 1, 0.0, fresh.next_u64());
                if let Some(id) = durable
                    .add(extra[0], &mut gas, &sink)
                    .expect("journaled add")
                    .id()
                {
                    ids.push(id);
                }
            }
        }
        let started = Instant::now();
        durable.compact(&mut gas, &sink).expect("sliced compaction");
        compact_secs_total += started.elapsed().as_secs_f64();
    }
    let compaction_amortized_ns_per_op =
        compact_secs_total * 1e9 / (rounds as u64 * cadence) as f64;
    let compact_slices = sink.counter(rmetrics::JOURNAL_COMPACT_SLICES);
    let bytes_reclaimed = sink.counter(rmetrics::JOURNAL_BYTES_RECLAIMED);
    eprintln!(
        "compaction: {rounds} sliced compactions over {} ops ({compact_slices} slices, \
         {bytes_reclaimed} bytes reclaimed) — {compaction_amortized_ns_per_op:.0} ns/op amortized",
        rounds as u64 * cadence
    );
    assert!(
        compact_slices >= rounds as u64,
        "each compaction slices at least once"
    );
    assert!(bytes_reclaimed > 0, "churned journals must shrink");

    // ---- scaling: independent instances across OS threads.
    let instances = 64usize;
    let (sn, sm, churn) = (512usize, 128usize, 512usize);
    let work: Vec<(Vec<Task>, Platform)> = (0..instances)
        .map(|i| instance(sn, sm, 0.6, 1000 + i as u64))
        .collect();
    let run_all = |workers: usize| -> f64 {
        let started = Instant::now();
        let chunk = instances.div_ceil(workers);
        std::thread::scope(|scope| {
            for shard in work.chunks(chunk) {
                scope.spawn(move || {
                    for (i, (tasks, platform)) in shard.iter().enumerate() {
                        std::hint::black_box(run_instance(tasks, platform, churn, i as u64));
                    }
                });
            }
        });
        started.elapsed().as_secs_f64()
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let secs_w1 = run_all(1);
    let (workers_hi, secs_hi) = (8usize, run_all(8));
    let scaling = secs_w1 / secs_hi;
    eprintln!(
        "scaling: {instances} instances, 1 worker {:.1} ms vs {workers_hi} workers {:.1} ms \
         ({scaling:.2}x on {host_cpus} host cpus)",
        secs_w1 * 1e3,
        secs_hi * 1e3
    );

    println!(
        "{{\n  \"bench\": \"incremental_vs_from_scratch\",\n  \"admission\": \"EDF\",\n  \
         \"host_cpus\": {host_cpus},\n  \"streaming\": {{\n    \
         \"ops\": {stream_ops}, \"trace_bytes\": {trace_bytes},\n    \
         \"synth_secs\": {synth_secs:.3}, \"replay_secs\": {stream_secs:.3},\n    \
         \"replay_ops_per_sec\": {stream_ops_per_sec:.0},\n    \
         \"peak_rss_bytes\": {peak_rss},\n    \
         \"digest\": \"{stream_digest:08x}\"\n  }},\n  \"single_thread\": {{\n    \
         \"n\": {n}, \"m\": {m},\n    \
         \"incremental_churn_ops\": {incr_churn}, \"from_scratch_churn_ops\": {scratch_churn},\n    \
         \"incremental_ops_per_sec\": {incr_ops_per_sec:.0},\n    \
         \"from_scratch_ops_per_sec\": {scratch_ops_per_sec:.1},\n    \
         \"speedup\": {speedup:.1},\n    \
         \"latency\": {{\n      \"add\": {add_row},\n      \
         \"remove\": {remove_row},\n      \"repack\": {repack_row}\n    }},\n    \
         \"worst_op_ns\": {worst_op_ns}\n  }},\n  \"compaction\": {{\n    \
         \"cadence_ops\": {cadence}, \"rounds\": {rounds},\n    \
         \"compact_slices\": {compact_slices}, \"bytes_reclaimed\": {bytes_reclaimed},\n    \
         \"compaction_amortized_ns_per_op\": {compaction_amortized_ns_per_op:.0}\n  }},\n  \
         \"scaling\": {{\n    \
         \"instances\": {instances}, \"n\": {sn}, \"m\": {sm}, \"churn\": {churn},\n    \
         \"workers_lo\": 1, \"workers_hi\": {workers_hi},\n    \
         \"secs_lo\": {secs_w1:.3}, \"secs_hi\": {secs_hi:.3},\n    \
         \"worker_speedup\": {scaling:.2}\n  }}\n}}"
    );
}
