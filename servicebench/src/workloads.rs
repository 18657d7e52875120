//! The four workloads: how each deploys `idldp serve` / `idldp coordinate`,
//! which traffic it drives, and which end-to-end metrics it yields.
//!
//! | workload | deployment | traffic |
//! |---|---|---|
//! | `ingest-oue` | 1 collector | closed loop, 2 conns, OUE m=1000 in 1024-report frames; then open-loop OUE + probe |
//! | `ingest-olh-ss` | 1 collector, 2 tenants | closed loop: OLH (default tenant) + SS (tenant `sets`), 1 conn each; then open-loop OLH + probe |
//! | `query-live` | 1 collector, restarted on a checkpoint | open-loop GRR m=100000 in 16384-report frames + probe |
//! | `fleet-grr` | 2 collectors + coordinator | closed loop GRR m=1000 in 64-report frames through the coordinator + probe |
//!
//! Every workload yields every metric: a workload whose main phase
//! saturates the server with both connections adds a second, open-loop
//! phase in which one connection ingests at a fixed rate and the other
//! runs the probe, so query and checkpoint latency are always taken under
//! live ingest and never from a saturated queue's drain time. The open-loop
//! phase also bounds how many OUE and SS reports a run must perturb.

use crate::load::{self, Conn, Deployment, PoolSize, ProbeSpec, Tally};
use crate::measure::{median, Metrics, Samples, Tracer};
use crate::procs;
use crate::traffic::{Stream, CONFIG_SEED, EPS};
use idldp_num::rng::derive_seed;
use idldp_server::ReportClient;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const ALL: [&str; 4] = ["ingest-oue", "ingest-olh-ss", "query-live", "fleet-grr"];

/// Top-k size of every top-k query.
pub const TOP_K: usize = 10;

/// Server start-ups per run, split over its deployments; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 24;

/// Settings shared by every workload of one invocation.
#[derive(Clone)]
pub struct Ctx<'a> {
    pub idldp: &'a Path,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Small sizes and rates; tail percentiles are then computed from
    /// whatever samples there are.
    pub smoke: bool,
    pub tracer: &'a Tracer,
    /// Server start-ups of this deployment (set by [`run`]).
    pub setups: usize,
}

impl Ctx<'_> {
    /// A rate, scaled down in smoke mode.
    fn rate(&self, full: f64) -> f64 {
        if self.smoke {
            full / 2.0
        } else {
            full
        }
    }
}

/// What one workload run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The phase ingest metrics come from.
    pub ingest: Tally,
    /// The phase query and checkpoint metrics come from.
    pub probe: Tally,
    /// Both phases, for whole-run accounting.
    pub all: Tally,
    /// Median over deployments of their peak RSS.
    pub peak_rss_mib: f64,
    /// Median over deployments of acknowledged reports per wall second and
    /// per server CPU second: a median, so one deployment that settled
    /// badly does not move the run.
    pub ingest_rps: f64,
    pub ingest_rps_per_cpu: f64,
    pub checks: u64,
    /// Median of estimates queries on the same server once idle (traced
    /// runs only).
    pub idle_estimates_p50_ms: Option<f64>,
    pub streams: Vec<Stream>,
}

/// How to start the servers of a workload.
enum Topology<'a> {
    /// One collector hosting `streams` (the first is the default tenant).
    Single(&'a [Stream]),
    /// `collectors` collectors of the first stream's mechanism behind one
    /// coordinator.
    Fleet(&'a Stream, usize),
}

fn serve_args(stream: &Stream, checkpoint: &Path, tenants: &[String]) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--mechanism",
        stream.mech_name,
        "--m",
        &stream.m.to_string(),
        "--eps",
        &EPS.to_string(),
        "--seed",
        &CONFIG_SEED.to_string(),
        "--port",
        "0",
        "--checkpoint",
        &checkpoint.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if !tenants.is_empty() {
        args.push("--tenants".into());
        args.push(tenants.join(","));
    }
    args
}

/// Starts the servers and completes one handshake. Returns the deployment,
/// the handshaken client (for `stream`'s tenant), the user count its
/// `HelloAck` announced, and the seconds from spawning the first process
/// to that `HelloAck`.
fn deploy(
    ctx: &Ctx,
    topology: &Topology,
    dir: &Path,
    stream: &Stream,
) -> Result<(Deployment, ReportClient, u64, f64), String> {
    let start = Instant::now();
    let deployment = match topology {
        Topology::Single(streams) => {
            let tenants: Vec<String> = streams.iter().filter_map(Stream::tenant_spec).collect();
            let args = serve_args(&streams[0], &dir.join("checkpoint"), &tenants);
            Deployment {
                collectors: vec![procs::spawn_server(ctx.idldp, &args)?],
                coordinator: None,
            }
        }
        Topology::Fleet(first, n) => {
            let mut collectors = Vec::new();
            for i in 0..*n {
                let args = serve_args(first, &dir.join(format!("checkpoint-{i}")), &[]);
                collectors.push(procs::spawn_server(ctx.idldp, &args)?);
            }
            let addrs: Vec<&str> = collectors.iter().map(|c| c.addr.as_str()).collect();
            let args: Vec<String> = [
                "coordinate",
                "--collectors",
                &addrs.join(","),
                "--mechanism",
                first.mech_name,
                "--m",
                &first.m.to_string(),
                "--eps",
                &EPS.to_string(),
                "--seed",
                &CONFIG_SEED.to_string(),
                "--port",
                "0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let coordinator = procs::spawn_server(ctx.idldp, &args)?;
            Deployment {
                collectors,
                coordinator: Some(coordinator),
            }
        }
    };
    let (client, users) = connect(&deployment, stream)?;
    Ok((deployment, client, users, procs::secs_since(start)))
}

fn connect(deployment: &Deployment, stream: &Stream) -> Result<(ReportClient, u64), String> {
    ReportClient::connect_tenant(
        deployment.addr(),
        stream.mechanism.as_ref(),
        stream.tenant.as_ref(),
    )
    .map_err(|e| {
        format!(
            "handshake with {} for {}: {e}",
            deployment.addr(),
            stream.mech_name
        )
    })
}

/// Starts the servers `ctx.setups` times from empty state, keeping the
/// last deployment. Returns it with its client and every set-up time.
fn deploy_repeatedly(
    ctx: &Ctx,
    topology: &Topology,
    stream: &Stream,
) -> Result<(Deployment, ReportClient, Vec<f64>), String> {
    let mut times = Vec::new();
    for i in 0..ctx.setups {
        let dir = procs::fresh_dir(&ctx.work, &format!("deploy-{i}"))?;
        let (deployment, client, users, secs) = deploy(ctx, topology, &dir, stream)?;
        if users != 0 {
            return Err(format!("fresh deployment announced {users} users"));
        }
        times.push(secs);
        if i + 1 == ctx.setups {
            return Ok((deployment, client, times));
        }
        drop(client);
        deployment.stop();
    }
    Err("no server start-ups configured".into())
}

/// Runs workload `name` on one or more independent deployments, each
/// given an equal share of the timed phase and fresh users, and pools
/// their samples: how a server instance happens to settle (thread
/// placement, lock hand-off patterns) moves one instance's figures by tens
/// of percent from one start to the next, and pooling averages that out.
/// `ingest-olh-ss` runs one deployment: its OLH queue takes a while to
/// fill, and short instances would make that ramp a large share of the
/// ack samples. Smoke mode always runs one.
pub fn run(name: &str, ctx: &Ctx) -> Result<Run, String> {
    type Workload = fn(&Ctx) -> Result<Run, String>;
    let (workload, instances): (Workload, usize) = match name {
        "ingest-oue" => (ingest_oue, 4),
        "ingest-olh-ss" => (ingest_olh_ss, 1),
        "query-live" => (query_live, 4),
        "fleet-grr" => (fleet_grr, 4),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of: {}, all)",
                ALL.join(", ")
            ))
        }
    };
    let instances = if ctx.smoke { 1 } else { instances };
    let mut pooled: Option<Run> = None;
    let (mut rss, mut rps, mut rps_per_cpu, mut idle) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..instances {
        let instance = Ctx {
            work: ctx.work.join(format!("instance-{i}")),
            seed: derive_seed(ctx.seed, i as u64),
            seconds: ctx.seconds / instances as f64,
            setups: SETUP_REPEATS / instances,
            ..ctx.clone()
        };
        let run = workload(&instance)?;
        rss.push(run.peak_rss_mib);
        rps.push(run.ingest_rps);
        rps_per_cpu.push(run.ingest_rps_per_cpu);
        idle.extend(run.idle_estimates_p50_ms);
        pooled = Some(match pooled {
            None => run,
            Some(mut all) => {
                all.setup_s.extend(run.setup_s);
                all.ingest.absorb(run.ingest);
                all.probe.absorb(run.probe);
                all.all.absorb(run.all);
                all.checks += run.checks;
                all.streams = run.streams;
                all
            }
        });
    }
    let mut run = pooled.expect("at least one instance runs");
    run.peak_rss_mib = median(&rss);
    run.ingest_rps = median(&rps);
    run.ingest_rps_per_cpu = median(&rps_per_cpu);
    run.idle_estimates_p50_ms = (!idle.is_empty()).then(|| median(&idle));
    Ok(run)
}

/// A probe at `rate_hz` operations per second (scaled down in smoke
/// mode): a checkpoint every `checkpoint_every`-th operation (at most every
/// 10th in smoke mode, whose runs are too short for sparser ones), and a
/// top-10 query every `top_k_every`-th.
fn probe_spec(ctx: &Ctx, rate_hz: f64, checkpoint_every: usize, top_k_every: usize) -> ProbeSpec {
    ProbeSpec {
        rate_hz: ctx.rate(rate_hz),
        checkpoint_every: if ctx.smoke {
            checkpoint_every.min(10)
        } else {
            checkpoint_every
        },
        top_k_every,
        top_k: TOP_K,
    }
}

/// Share of the run given to the saturating phase on workloads that also
/// need an open-loop probe phase.
const LOAD_SHARE: f64 = 0.3;

/// OUE at m = 1000: the codec-bound workload.
fn ingest_oue(ctx: &Ctx) -> Result<Run, String> {
    let mut streams = vec![Stream::new("oue", 1000, None, 1024, ctx.seed, 0)?];
    let (deployment, client, setup_s) =
        deploy_repeatedly(ctx, &Topology::Single(&streams), &streams[0])?;
    let (second, _) = connect(&deployment, &streams[0])?;
    let mut conns = vec![
        Conn { client, stream: 0 },
        Conn {
            client: second,
            stream: 0,
        },
    ];
    // OUE reports hold one byte per slot in memory: 1 KB each.
    let pools = [PoolSize {
        expected_rps: 300_000.0,
        max_reports: if ctx.smoke { 32_768 } else { 262_144 },
    }];
    let ingest = load::closed_loop(
        &deployment,
        &mut streams,
        &mut conns,
        None,
        &pools,
        ctx.seconds * LOAD_SHARE,
        derive_seed(ctx.seed, 10),
        ctx.tracer,
    )?;
    let probe_conn = conns.pop().expect("two connections");
    let mut probe_client = probe_conn.client;
    let probe = load::open_loop(
        &deployment,
        &mut streams[0],
        &mut conns[0],
        &mut probe_client,
        ctx.rate(24.0),
        probe_spec(ctx, 50.0, 10, 2),
        ctx.seconds * (1.0 - LOAD_SHARE),
        derive_seed(ctx.seed, 11),
        ctx.tracer,
    )?;
    drop(conns);
    finish(
        ctx,
        deployment,
        streams,
        setup_s,
        ingest,
        probe,
        &mut probe_client,
        false,
    )
}

/// OLH and SS on two tenants of one collector: the fold-bound workload.
fn ingest_olh_ss(ctx: &Ctx) -> Result<Run, String> {
    let mut streams = vec![
        Stream::new("olh", 1000, None, 1024, ctx.seed, 0)?,
        Stream::new("ss", 1000, Some("sets"), 1024, ctx.seed, 1)?,
    ];
    let (deployment, client, setup_s) =
        deploy_repeatedly(ctx, &Topology::Single(&streams), &streams[0])?;
    let (sets, _) = connect(&deployment, &streams[1])?;
    let mut conns = vec![
        Conn { client, stream: 0 },
        Conn {
            client: sets,
            stream: 1,
        },
    ];
    // An SS report holds 269 `usize` items in memory: 2 KB each.
    let pools = [
        PoolSize {
            expected_rps: 250_000.0,
            max_reports: 4_194_304,
        },
        PoolSize {
            expected_rps: 30_000.0,
            max_reports: if ctx.smoke { 16_384 } else { 98_304 },
        },
    ];
    let ingest = load::closed_loop(
        &deployment,
        &mut streams,
        &mut conns,
        None,
        &pools,
        ctx.seconds * LOAD_SHARE,
        derive_seed(ctx.seed, 10),
        ctx.tracer,
    )?;
    // The probe phase runs on the default (OLH) tenant: the sets
    // connection is closed and a probe connection opened in its place.
    conns.truncate(1);
    let (mut probe_client, _) = connect(&deployment, &streams[0])?;
    let probe = load::open_loop(
        &deployment,
        &mut streams[0],
        &mut conns[0],
        &mut probe_client,
        ctx.rate(24.0),
        probe_spec(ctx, 50.0, 10, 2),
        ctx.seconds * (1.0 - LOAD_SHARE),
        derive_seed(ctx.seed, 11),
        ctx.tracer,
    )?;
    drop(conns);
    finish(
        ctx,
        deployment,
        streams,
        setup_s,
        ingest,
        probe,
        &mut probe_client,
        false,
    )
}

/// GRR at m = 100000 across a restart: the query-bound workload.
fn query_live(ctx: &Ctx) -> Result<Run, String> {
    let m = if ctx.smoke { 20_000 } else { 100_000 };
    // Large frames keep each ack a millisecond of real decode work rather
    // than a sub-millisecond wake-up.
    let mut streams = vec![Stream::new("grr", m, None, 16_384, ctx.seed, 0)?];
    let topology = Topology::Single(&streams);
    // Generation 1 ingests a prefix, checkpoints, and is killed.
    let dir = procs::fresh_dir(&ctx.work, "query-live")?;
    let prefix = if ctx.smoke { 50_000 } else { 200_000 };
    let (first, mut client, _, _) = deploy(ctx, &topology, &dir, &streams[0])?;
    streams[0].fill_pool(prefix)?;
    client
        .push_all(&streams[0].pool)
        .map_err(|e| format!("generation 1 prefix push: {e}"))?;
    let covered = client
        .checkpoint()
        .map_err(|e| format!("generation 1 checkpoint: {e}"))?;
    if covered != prefix as u64 {
        return Err(format!(
            "correctness: generation 1 checkpoint covers {covered} users, {prefix} were acknowledged"
        ));
    }
    streams[0].acknowledge(prefix)?;
    drop(client);
    first.stop();
    // Generation 2: restarted on the checkpoint, `ctx.setups` times.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..ctx.setups {
        let (deployment, client, users, secs) =
            deploy(ctx, &Topology::Single(&streams), &dir, &streams[0])?;
        if users != streams[0].acknowledged() {
            return Err(format!(
                "correctness: restart restored {users} users, generation 1 acknowledged {}",
                streams[0].acknowledged()
            ));
        }
        setup_s.push(secs);
        if i + 1 == ctx.setups {
            kept = Some((deployment, client));
        } else {
            drop(client);
            deployment.stop();
        }
    }
    let (deployment, client) = kept.ok_or("no server start-ups configured")?;
    let (mut probe_client, _) = connect(&deployment, &streams[0])?;
    let mut ingest = Conn { client, stream: 0 };
    let tally = load::open_loop(
        &deployment,
        &mut streams[0],
        &mut ingest,
        &mut probe_client,
        ctx.rate(12.5),
        probe_spec(ctx, 30.0, 10, 4),
        ctx.seconds,
        derive_seed(ctx.seed, 11),
        ctx.tracer,
    )?;
    drop(ingest);
    finish(
        ctx,
        deployment,
        streams,
        setup_s,
        Tally::default(),
        tally,
        &mut probe_client,
        true,
    )
}

/// GRR at m = 1000 in small frames through a coordinator: the per-frame
/// workload.
fn fleet_grr(ctx: &Ctx) -> Result<Run, String> {
    let mut streams = vec![Stream::new("grr", 1000, None, 64, ctx.seed, 0)?];
    let (deployment, client, setup_s) =
        deploy_repeatedly(ctx, &Topology::Fleet(&streams[0], 2), &streams[0])?;
    let (mut probe_client, _) = connect(&deployment, &streams[0])?;
    let mut conns = vec![Conn { client, stream: 0 }];
    let pools = [PoolSize {
        expected_rps: 1_000_000.0,
        max_reports: 4_194_304,
    }];
    // A coordinated checkpoint holds the routing lock through every
    // collector's fsync (~0.4 or ~12 ms each), so the fleet probe
    // checkpoints only every 50th operation; at every 10th, that stall
    // alone moved ingest throughput by up to 2x from run to run.
    let tally = load::closed_loop(
        &deployment,
        &mut streams,
        &mut conns,
        Some((&mut probe_client, probe_spec(ctx, 50.0, 50, 2))),
        &pools,
        ctx.seconds,
        derive_seed(ctx.seed, 10),
        ctx.tracer,
    )?;
    drop(conns);
    finish(
        ctx,
        deployment,
        streams,
        setup_s,
        Tally::default(),
        tally,
        &mut probe_client,
        true,
    )
}

/// Common end of a workload: reads peak RSS, runs the correctness gate on
/// every stream, optionally measures idle query latency, and stops the
/// servers. `probe_is_ingest` marks workloads whose single phase yields
/// both the ingest and the probe metrics.
#[allow(clippy::too_many_arguments)]
fn finish(
    ctx: &Ctx,
    deployment: Deployment,
    streams: Vec<Stream>,
    setup_s: Vec<f64>,
    ingest: Tally,
    probe: Tally,
    probe_client: &mut ReportClient,
    probe_is_ingest: bool,
) -> Result<Run, String> {
    let peak_rss_mib = deployment.peak_rss_mib()?;
    let mut checks = 0;
    for stream in &streams {
        let (mut client, _) = connect(&deployment, stream)?;
        checks += load::verify(&mut client, stream, TOP_K)?;
    }
    let idle_estimates_p50_ms = if ctx.tracer.enabled() {
        let mut samples = Vec::new();
        for _ in 0..100 {
            let t = Instant::now();
            probe_client
                .query_estimates()
                .map_err(|e| format!("idle estimates query: {e}"))?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Some(median(&samples))
    } else {
        None
    };
    deployment.stop();
    let mut all = Tally::default();
    let (ingest, probe) = if probe_is_ingest {
        (probe.clone(), probe)
    } else {
        (ingest, probe)
    };
    all.absorb(ingest.clone());
    if !probe_is_ingest {
        all.absorb(probe.clone());
    }
    let ingest_rps = ingest.acked as f64 / ingest.wall_s;
    let ingest_rps_per_cpu =
        ingest.acked as f64 / (ingest.collector_cpu_s + ingest.coordinator_cpu_s);
    Ok(Run {
        setup_s,
        ingest_rps,
        ingest_rps_per_cpu,
        ingest,
        probe,
        all,
        peak_rss_mib,
        checks,
        idle_estimates_p50_ms,
        streams,
    })
}

/// A tail percentile for the notes, or why there is none.
fn tail_note(samples: &Samples, q: f64) -> String {
    samples
        .percentile(q, "")
        .map_or_else(|_| "n/a".to_string(), |v| format!("{v:.3}"))
}

/// A tail percentile; in smoke mode the sample-size rule is waived.
pub fn tail(ctx: &Ctx, samples: &Samples, q: f64, what: &str) -> Result<f64, String> {
    if ctx.smoke {
        samples.nearest_rank(q, what)
    } else {
        samples.percentile(q, what)
    }
}

/// What a run did, in words: volume, every latency with its sample count
/// (tails only where ten samples lie beyond them), and the error share.
pub fn notes(run: &Run) -> Vec<String> {
    let query = run.probe.query_ms();
    let attempted = run.all.attempted + run.checks;
    vec![
        format!(
            "{} reports acknowledged in {:.2} s; {} start-ups",
            run.ingest.acked,
            run.ingest.wall_s,
            run.setup_s.len()
        ),
        format!(
            "latency ms: ack p50 {} p99 {} (n={}); query p50 {} p90 {} p99 {} (n={}); \
             estimates p50 {} (n={}); top-k p50 {} (n={}); checkpoint p50 {} p90 {} (n={}); \
             generator lateness p50 {} (n={})",
            tail_note(&run.ingest.ack_ms, 0.5),
            tail_note(&run.ingest.ack_ms, 0.99),
            run.ingest.ack_ms.len(),
            tail_note(&query, 0.5),
            tail_note(&query, 0.9),
            tail_note(&query, 0.99),
            query.len(),
            tail_note(&run.probe.estimates_ms, 0.5),
            run.probe.estimates_ms.len(),
            tail_note(&run.probe.top_k_ms, 0.5),
            run.probe.top_k_ms.len(),
            tail_note(&run.probe.checkpoint_ms, 0.5),
            tail_note(&run.probe.checkpoint_ms, 0.9),
            run.probe.checkpoint_ms.len(),
            tail_note(&run.all.late_ms, 0.5),
            run.all.late_ms.len()
        ),
        format!(
            "error_share {} ratio ({} of {attempted} frames, queries, checkpoints and checks failed)",
            run.all.failed as f64 / attempted as f64,
            run.all.failed
        ),
    ]
}

/// The end-to-end metrics of a run. Only figures that repeat within the
/// benchmark's bounds on a shared two-core VM are here; the query,
/// checkpoint and tail latencies are in the notes of every run and in the
/// per-layer metrics of the traced run.
pub fn end_to_end(run: &Run) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let ingest = &run.ingest;
    m.add("setup_s", median(&run.setup_s), "s");
    m.add("ingest_rps", run.ingest_rps, "reports/s");
    m.add(
        "ingest_rps_per_server_cpu",
        run.ingest_rps_per_cpu,
        "reports/CPU-s",
    );
    m.add("ack_p50_ms", ingest.ack_ms.percentile(0.5, "ack")?, "ms");
    m.add("server_peak_rss_mb", run.peak_rss_mib, "MiB");
    let attempted = run.all.attempted + run.checks;
    m.add(
        "ok_share",
        1.0 - run.all.failed as f64 / attempted as f64,
        "ratio",
    );
    Ok(m)
}
