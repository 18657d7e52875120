//! Per-layer metrics of the traced run.
//!
//! Layers inside the server process are timed by replaying fresh reports
//! of the workload's own shapes through each layer's public function
//! in-process, with a span around every call: perturb → encode → decode →
//! validate → queue → fold → snapshot → oracle → top-k → reply encode,
//! plus checkpoint save/load and the coordinator's merge. Whole-process
//! costs (server and coordinator CPU per report, `Busy` per frame, how
//! late the open-loop generator ran, how long queries waited for the fold
//! frontier) come from the traced workload run itself.

use crate::load::Tally;
use crate::measure::{Metrics, Tracer};
use crate::procs;
use crate::traffic::{shape_param, Stream};
use crate::workloads::{tail, Ctx, Run, TOP_K};
use idldp_coord::merge_candidates;
use idldp_core::report::{Report, ReportData};
use idldp_core::snapshot::{open_store, AccumulatorSnapshot, StoreKind};
use idldp_num::vecops::top_k_indices;
use idldp_server::{
    encode_reports_frame, encoded_report_len, estimates_reply_frames, Frame, FrameAssembler,
    IngestQueue,
};
use idldp_stream::{ShapedAccumulator, ShardedAccumulator, DEFAULT_SHARDS};

/// Frames of fresh reports replayed per stream.
const REPLAY_FRAMES: usize = 48;

/// Checkpoint saves (and loads) the store replay makes.
const STORE_SAVES: usize = 8;

/// Per-report (or per-call) costs of one replayed stream, in ns.
#[derive(Default)]
struct Replay {
    perturb: f64,
    encode: f64,
    decode: f64,
    wire_bytes: f64,
    validate: f64,
    queue_per_frame: f64,
    frame: usize,
    fold: f64,
    snapshot: f64,
    oracle: f64,
    top_k: f64,
    reply_encode: f64,
    reply_bytes: f64,
    store_save: f64,
    store_load: f64,
    store_bytes: f64,
    merge: f64,
}

/// Calls `f` `reps` times inside one span and returns ns per call.
fn per_call<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let span = tracer.span(name, parent);
    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let ns = start.elapsed().as_nanos() as f64;
    drop(span);
    ns / reps as f64
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays `frames` fresh frames of `stream` through every layer.
fn replay(
    stream: &mut Stream,
    frames: usize,
    full: bool,
    dir: &std::path::Path,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let mechanism = stream.mechanism.clone();
    let (frame, report_len, param) = (
        stream.frame,
        mechanism.report_len(),
        shape_param(mechanism.as_ref()),
    );
    let n = (frames * frame) as f64;
    let root = tracer.span("replay", 0);
    let p = root.id();
    let mut out = Replay {
        frame,
        ..Replay::default()
    };
    let mut batches = Vec::with_capacity(frames);
    for _ in 0..frames {
        let _span = tracer.span("core.mechanism.perturb_data", p);
        let t = std::time::Instant::now();
        batches.push(stream.perturb_serial(frame)?);
        out.perturb += t.elapsed().as_nanos() as f64;
    }
    out.perturb /= n;
    out.wire_bytes = batches
        .iter()
        .flatten()
        .map(encoded_report_len)
        .sum::<usize>() as f64
        / n;

    let mut wire = Vec::with_capacity(frames);
    let mut decoded: Vec<Vec<ReportData>> = Vec::with_capacity(frames);
    for batch in &batches {
        let t = std::time::Instant::now();
        let bytes = tracer.time("server.frame.encode_reports_frame", p, || {
            encode_reports_frame(batch)
        });
        out.encode += t.elapsed().as_nanos() as f64;
        wire.push(bytes);
    }
    drop(batches);
    for bytes in &wire {
        let t = std::time::Instant::now();
        let frame = tracer.time("server.frame.decode", p, || {
            let mut asm = FrameAssembler::new();
            asm.feed(bytes).map(|()| asm.next_frame())
        });
        out.decode += t.elapsed().as_nanos() as f64;
        match frame.map_err(err)? {
            Some(Frame::Reports(reports)) => decoded.push(reports),
            other => return Err(format!("replay decoded {other:?}, not a Reports frame")),
        }
    }
    drop(wire);
    for reports in &decoded {
        let t = std::time::Instant::now();
        tracer
            .time("core.report.validate", p, || {
                reports
                    .iter()
                    .try_for_each(|r| r.as_report().validate(report_len, param))
            })
            .map_err(err)?;
        out.validate += t.elapsed().as_nanos() as f64;
    }
    let queue = IngestQueue::new(65_536);
    let mut queued = Vec::with_capacity(frames);
    for reports in decoded {
        let t = std::time::Instant::now();
        let popped = tracer.time("server.queue.push_pop", p, || {
            queue
                .try_push_batch(reports)
                .map_err(|e| format!("{e:?}"))?;
            let (ticket, batch) = queue.pop().ok_or("replay queue closed")?;
            queue.mark_processed(ticket);
            Ok::<_, String>(batch)
        })?;
        out.queue_per_frame += t.elapsed().as_nanos() as f64;
        queued.push(popped);
    }
    out.queue_per_frame /= frames as f64;

    let sink = ShardedAccumulator::new(
        ShapedAccumulator::for_mechanism(mechanism.as_ref()),
        DEFAULT_SHARDS,
    );
    let saves = STORE_SAVES.min(frames);
    let store_path = dir.join("replay-checkpoint");
    let mut store = open_store(StoreKind::default(), &store_path);
    let mut saved_bytes = 0u64;
    for (i, reports) in queued.iter().enumerate() {
        let borrowed: Vec<Report<'_>> = reports.iter().map(ReportData::as_report).collect();
        let t = std::time::Instant::now();
        tracer
            .time("stream.push_batch", p, || sink.push_batch(&borrowed))
            .map_err(err)?;
        out.fold += t.elapsed().as_nanos() as f64;
        // Checkpoint after every `frames / saves` frames: the traffic
        // between two saves is what an incremental store has to write.
        if full && (i + 1) % (frames / saves) == 0 {
            let shards = sink.snapshot_shards();
            let written = procs::bytes_written_by_self()?;
            let t = std::time::Instant::now();
            tracer
                .time("core.snapshot.store.save", p, || store.save(&shards, ""))
                .map_err(err)?;
            out.store_save += t.elapsed().as_nanos() as f64;
            saved_bytes += procs::bytes_written_by_self()? - written;
        }
    }
    out.encode /= n;
    out.decode /= n;
    out.validate /= n;
    out.fold /= n;
    if !full {
        return Ok(out);
    }
    out.store_save /= saves as f64;
    out.store_bytes = saved_bytes as f64 / saves as f64;
    out.store_load = per_call(tracer, "core.snapshot.store.load", p, saves, || {
        open_store(StoreKind::default(), &store_path).load()
    });

    let reps = (2_000_000 / report_len).clamp(10, 500);
    let snapshot = sink.snapshot();
    out.snapshot = per_call(tracer, "stream.snapshot", p, reps, || sink.snapshot());
    let oracle = mechanism.frequency_oracle(snapshot.num_users());
    out.oracle = per_call(tracer, "core.oracle.estimate_from", p, reps, || {
        oracle.estimate_from(&snapshot)
    });
    let estimates = oracle.estimate_from(&snapshot).map_err(err)?;
    out.top_k = per_call(tracer, "num.vecops.top_k_indices", p, reps, || {
        top_k_indices(&estimates, TOP_K)
    });
    out.reply_encode = per_call(tracer, "server.frame.reply_encode", p, reps, || {
        estimates_reply_frames(snapshot.num_users(), &estimates)
            .iter()
            .map(|f| f.encode().len())
            .sum::<usize>()
    });
    out.reply_bytes = estimates_reply_frames(snapshot.num_users(), &estimates)
        .iter()
        .map(|f| f.encode().len())
        .sum::<usize>() as f64;

    // Two collectors' views: the shard snapshots split in half.
    let shards = sink.snapshot_shards();
    let (left, right) = shards.split_at(shards.len() / 2);
    let merge_all = |part: &[AccumulatorSnapshot]| -> Result<AccumulatorSnapshot, String> {
        let mut merged = part[0].clone();
        for s in &part[1..] {
            merged.merge(s).map_err(err)?;
        }
        Ok(merged)
    };
    let (a, b) = (merge_all(left)?, merge_all(right)?);
    let local_top = |s: &AccumulatorSnapshot| -> Result<Vec<(u64, f64)>, String> {
        let est = mechanism
            .frequency_oracle(s.num_users())
            .estimate_from(s)
            .map_err(err)?;
        Ok(top_k_indices(&est, TOP_K)
            .into_iter()
            .map(|i| (i as u64, est[i]))
            .collect())
    };
    let locals = [local_top(&a)?, local_top(&b)?];
    out.merge = per_call(tracer, "coord.merge", p, reps, || {
        let mut merged = a.clone();
        merged
            .merge(&b)
            .map(|()| merge_candidates(&locals, &estimates, TOP_K))
    });
    Ok(out)
}

/// The medians the tracing overhead compares: ack and query latency p50
/// and ingest throughput.
fn overhead_basis(run: &Run) -> Result<[(&'static str, f64, &'static str); 3], String> {
    Ok([
        (
            "ack_p50_ms",
            run.ingest.ack_ms.percentile(0.5, "ack")?,
            "ms",
        ),
        (
            "query_p50_ms",
            run.probe.query_ms().percentile(0.5, "query")?,
            "ms",
        ),
        ("ingest_rps", run.ingest_rps, "reports/s"),
    ])
}

/// The per-layer metrics of the traced run `run`, plus the tracing
/// overhead (traced minus the untraced `plain` run) and the baseline table.
pub fn per_layer(ctx: &Ctx, run: &Run, plain: &Run) -> Result<Metrics, String> {
    let tracer = Tracer::new(true);
    let dir = procs::fresh_dir(&ctx.work, "replay")?;
    let frames = if ctx.smoke { 8 } else { REPLAY_FRAMES };
    // Each stream's costs, weighted by its share of acknowledged reports;
    // the replayed users are new ones (their own stream index).
    let mut weights = Vec::new();
    let mut replays = Vec::new();
    for (i, stream) in run.streams.iter().enumerate() {
        let mut fresh = Stream::new(
            stream.mech_name,
            stream.m,
            None,
            stream.frame,
            ctx.seed,
            1_000 + i as u64,
        )?;
        replays.push(replay(&mut fresh, frames, true, &dir, &tracer)?);
        weights.push(stream.acknowledged() as f64);
    }
    let total: f64 = weights.iter().sum();
    let mix = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        replays
            .iter()
            .zip(&weights)
            .map(|(r, w)| f(r) * w / total)
            .sum()
    };
    let mut m = Metrics::default();
    let all: &Tally = &run.all;
    let per_report = |secs: f64| secs * 1e9 / all.acked as f64;
    m.add("mechanism.perturb_ns_per_report", mix(&|r| r.perturb), "ns");
    m.add(
        "client.busy_per_frame",
        all.busy as f64 / all.frames as f64,
        "count",
    );
    m.add("frame.encode_ns_per_report", mix(&|r| r.encode), "ns");
    m.add("frame.decode_ns_per_report", mix(&|r| r.decode), "ns");
    m.add("frame.wire_bytes_per_report", mix(&|r| r.wire_bytes), "B");
    m.add("frame.reply_encode_ns", mix(&|r| r.reply_encode), "ns");
    m.add("frame.reply_bytes", mix(&|r| r.reply_bytes), "B");
    m.add("report.validate_ns_per_report", mix(&|r| r.validate), "ns");
    m.add(
        "queue.push_pop_ns_per_frame",
        mix(&|r| r.queue_per_frame),
        "ns",
    );
    let live = run.probe.estimates_ms.percentile(0.5, "estimates")?;
    let idle = run
        .idle_estimates_p50_ms
        .ok_or("traced run has no idle query latency")?;
    m.add("queue.frontier_wait_p50_ms", live - idle, "ms");
    m.add("stream.fold_ns_per_report", mix(&|r| r.fold), "ns");
    m.add("stream.snapshot_ns", mix(&|r| r.snapshot), "ns");
    m.add("oracle.estimate_ns", mix(&|r| r.oracle), "ns");
    m.add("topk.select_ns", mix(&|r| r.top_k), "ns");
    m.add("store.save_ns", mix(&|r| r.store_save), "ns");
    m.add("store.load_ns", mix(&|r| r.store_load), "ns");
    m.add("store.bytes_per_save", mix(&|r| r.store_bytes), "B");
    let server = per_report(all.collector_cpu_s);
    m.add("server.cpu_ns_per_report", server, "ns");
    let attributed = mix(&|r| r.decode + r.validate + r.queue_per_frame / r.frame as f64 + r.fold);
    m.add(
        "server.unattributed_ns_per_report",
        server - attributed,
        "ns",
    );
    m.add(
        "coord.cpu_ns_per_report",
        per_report(all.coordinator_cpu_s),
        "ns",
    );
    m.add("coord.merge_ns", mix(&|r| r.merge), "ns");
    m.add(
        "loadgen.late_p99_ms",
        all.late_ms.nearest_rank(0.99, "lateness")?,
        "ms",
    );
    // End-to-end latencies too unsteady on a shared VM to gate, reported
    // here at the highest percentile the half-length traced run supports.
    let query = run.probe.query_ms();
    m.add(
        "latency.ack_p90_ms",
        tail(ctx, &run.ingest.ack_ms, 0.9, "ack")?,
        "ms",
    );
    m.add(
        "latency.query_p50_ms",
        query.percentile(0.5, "query")?,
        "ms",
    );
    m.add(
        "latency.query_p90_ms",
        tail(ctx, &query, 0.9, "query")?,
        "ms",
    );
    m.add(
        "latency.checkpoint_p50_ms",
        run.probe.checkpoint_ms.percentile(0.5, "checkpoint")?,
        "ms",
    );
    for ((name, traced, unit), (_, untraced, _)) in
        overhead_basis(run)?.into_iter().zip(overhead_basis(plain)?)
    {
        m.add(format!("trace.overhead.{name}"), traced - untraced, unit);
    }
    baseline(ctx, &dir, &tracer, &mut m)?;
    ctx.tracer.absorb(tracer);
    Ok(m)
}

/// The per-shape baseline table at m = 1000: perturb, encode, decode and
/// fold ns per report and wire bytes per report, on fresh reports.
fn baseline(
    ctx: &Ctx,
    dir: &std::path::Path,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let frames = if ctx.smoke { 2 } else { 16 };
    println!("baseline m=1000 eps=1 frames of 1024 fresh reports, one thread");
    println!("baseline | mechanism (shape) | perturb ns | encode ns | decode ns | fold ns | wire B/report |");
    for (i, name) in ["grr", "oue", "olh", "ss"].into_iter().enumerate() {
        let mut stream = Stream::new(name, 1000, None, 1024, ctx.seed, 2_000 + i as u64)?;
        let shape = stream.mechanism.report_shape().label();
        let r = replay(&mut stream, frames, false, dir, tracer)?;
        println!(
            "baseline | {name} ({shape}) | {:.0} | {:.0} | {:.0} | {:.0} | {:.1} |",
            r.perturb, r.encode, r.decode, r.fold, r.wire_bytes
        );
        m.add(format!("baseline.{name}.perturb_ns"), r.perturb, "ns");
        m.add(format!("baseline.{name}.encode_ns"), r.encode, "ns");
        m.add(format!("baseline.{name}.decode_ns"), r.decode, "ns");
        m.add(format!("baseline.{name}.fold_ns"), r.fold, "ns");
        m.add(format!("baseline.{name}.wire_bytes"), r.wire_bytes, "B");
    }
    Ok(())
}
