//! The load generator's three kinds of traffic, over `ReportClient` only:
//!
//! * **closed loop** — each connection sends its next `Reports` frame as
//!   soon as the previous one is acknowledged (a saturating producer);
//! * **open loop** — frames go out on a schedule of Poisson arrivals at a
//!   fixed rate whatever the server does, and each frame is timed from when
//!   it was due;
//! * **probe** — estimates and top-k queries, with a `Checkpoint` every
//!   Nth operation, on the same kind of schedule and timed the same way.
//!
//! Every frame is sent with `ReportClient::push_all`, which resends the
//! unaccepted tail after `Busy`; a frame counts as acknowledged once it
//! returns. A timed window always ends with an estimates query on each
//! tenant, which waits until everything acknowledged is folded, so the
//! server CPU read at the window's end covers all the work for the
//! reports the window counts.

use crate::measure::{Samples, Tracer};
use crate::procs::{self, Server};
use crate::traffic::Stream;
use idldp_num::rng::{derive_seed, SplitMix64};
use idldp_server::{Query, ReportClient};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The server processes of one deployment: collectors, and a coordinator
/// when the workload is a fleet.
pub struct Deployment {
    pub collectors: Vec<Server>,
    pub coordinator: Option<Server>,
}

impl Deployment {
    /// Where clients connect.
    pub fn addr(&self) -> &str {
        match &self.coordinator {
            Some(c) => &c.addr,
            None => &self.collectors[0].addr,
        }
    }

    /// CPU seconds used so far by the collectors and by the coordinator.
    pub fn cpu(&self) -> Result<(f64, f64), String> {
        let mut collectors = 0.0;
        for s in &self.collectors {
            collectors += procs::cpu_seconds(s.pid)?;
        }
        let coordinator = match &self.coordinator {
            Some(c) => procs::cpu_seconds(c.pid)?,
            None => 0.0,
        };
        Ok((collectors, coordinator))
    }

    /// Sum of every server process's peak RSS, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for s in self.collectors.iter().chain(&self.coordinator) {
            total += procs::peak_rss_mib(s.pid)?;
        }
        Ok(total)
    }

    /// Stops every process of the deployment.
    pub fn stop(self) {
        for s in self.coordinator.iter().chain(&self.collectors) {
            procs::kill(s.pid);
        }
    }
}

/// A client connection and the stream whose reports it pushes.
pub struct Conn {
    pub client: ReportClient,
    pub stream: usize,
}

/// The probe schedule: `rate_hz` operations per second; operation `j` is
/// a checkpoint when `(j + 1) % checkpoint_every == 0`, otherwise a
/// top-`top_k` query when `(j + 1) % top_k_every == 0`, otherwise an
/// estimates query.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSpec {
    pub rate_hz: f64,
    pub checkpoint_every: usize,
    pub top_k_every: usize,
    pub top_k: usize,
}

/// Everything one timed window (or a sum of them) measured.
#[derive(Clone, Default)]
pub struct Tally {
    pub wall_s: f64,
    pub collector_cpu_s: f64,
    pub coordinator_cpu_s: f64,
    pub acked: u64,
    pub frames: u64,
    pub busy: u64,
    pub ack_ms: Samples,
    pub estimates_ms: Samples,
    pub top_k_ms: Samples,
    pub checkpoint_ms: Samples,
    pub late_ms: Samples,
    /// Frames, queries and checkpoints attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.wall_s += other.wall_s;
        self.collector_cpu_s += other.collector_cpu_s;
        self.coordinator_cpu_s += other.coordinator_cpu_s;
        self.acked += other.acked;
        self.frames += other.frames;
        self.busy += other.busy;
        self.ack_ms.extend(other.ack_ms);
        self.estimates_ms.extend(other.estimates_ms);
        self.top_k_ms.extend(other.top_k_ms);
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Estimates and top-k latencies together.
    pub fn query_ms(&self) -> Samples {
        let mut all = self.estimates_ms.clone();
        all.extend(self.top_k_ms.clone());
        all
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One connection's result from a window.
#[derive(Default)]
struct ConnResult {
    tally: Tally,
    error: Option<String>,
}

/// Open-loop arrival times: `rate × seconds` instants spread uniformly at
/// random over the span — a Poisson process conditioned on its count, so
/// every run has the same number of operations, and two schedules never
/// lock into one phase relation that a run's start-up jitter would pick.
struct Schedule {
    /// Offsets from the start of the timed clock, ascending.
    at: Vec<Duration>,
    /// The next operation to run.
    next: usize,
}

impl Schedule {
    fn poisson(rate: f64, seconds: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut at: Vec<Duration> = (0..(rate * seconds).round() as usize)
            .map(|_| Duration::from_secs_f64(rng.next_f64() * seconds))
            .collect();
        at.sort();
        Self { at, next: 0 }
    }

    /// The next operation's index and due instant, for a window that
    /// started at `start` with the timed clock at `offset`; `None` once
    /// the schedule is done or the next operation falls at or after
    /// `end`. An operation due in the gap before the window is due at once.
    fn next_due(&self, start: Instant, offset: Duration, end: Instant) -> Option<(usize, Instant)> {
        let due = start + self.at.get(self.next)?.saturating_sub(offset);
        (due < end).then_some((self.next, due))
    }
}

/// Sleeps until `due` and returns how late the send is, in ms. (Spinning
/// the last few hundred microseconds instead would cut that lateness, but
/// on two cores the spinning thread halved the fleet's closed-loop
/// throughput.)
fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    ms(Instant::now().saturating_duration_since(due))
}

/// Runs `schedule` on `client` for one window — from `start`, with the
/// timed clock at `offset`, until `end` or until `stop` is raised.
/// Operation `j` of the schedule is the `j`-th of the probe's mix, so the
/// mix does not restart with each window.
#[allow(clippy::too_many_arguments)]
fn probe(
    client: &mut ReportClient,
    spec: ProbeSpec,
    schedule: &mut Schedule,
    offset: Duration,
    start: Instant,
    end: Instant,
    stop: &AtomicBool,
    tracer: &Tracer,
    parent: u64,
) -> ConnResult {
    let mut out = ConnResult::default();
    while let Some((j, due)) = schedule.next_due(start, offset, end) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        out.tally.late_ms.push(wait_until(due));
        out.tally.attempted += 1;
        schedule.next += 1;
        let (name, query, samples) = if (j + 1) % spec.checkpoint_every == 0 {
            (
                "server.client.checkpoint",
                Query::Checkpoint,
                &mut out.tally.checkpoint_ms,
            )
        } else if (j + 1) % spec.top_k_every == 0 {
            (
                "server.client.top_k",
                Query::TopK(spec.top_k),
                &mut out.tally.top_k_ms,
            )
        } else {
            (
                "server.client.estimates",
                Query::Estimates,
                &mut out.tally.estimates_ms,
            )
        };
        let result = tracer.time(name, parent, || client.query(query));
        match result {
            Ok(_) => samples.push(ms(due.elapsed())),
            Err(e) => {
                out.tally.failed += 1;
                out.error = Some(format!("probe {query:?}: {e}"));
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    out
}

/// Pushes one frame, timing it from `due` (open loop) or from its first
/// send (closed loop, `due == now`).
fn push_frame(
    client: &mut ReportClient,
    frame: &[idldp_core::report::ReportData],
    due: Instant,
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.attempted += 1;
    let busy_before = client.busy_retries();
    let result = tracer.time("server.client.push_all", parent, || client.push_all(frame));
    match result {
        Ok(()) => {
            tally.ack_ms.push(ms(due.elapsed()));
            tally.frames += 1;
            tally.acked += frame.len() as u64;
            tally.busy += client.busy_retries() - busy_before;
            Ok(())
        }
        Err(e) => {
            tally.failed += 1;
            Err(format!("push of a {}-report frame: {e}", frame.len()))
        }
    }
}

/// Waits until every acknowledged report of each stream is folded, with
/// one estimates query per stream's first connection.
fn settle(
    conns: &mut [Conn],
    tally: &mut Tally,
    tracer: &Tracer,
    parent: u64,
) -> Result<(), String> {
    let mut seen = Vec::new();
    for conn in conns.iter_mut() {
        if seen.contains(&conn.stream) {
            continue;
        }
        seen.push(conn.stream);
        tally.attempted += 1;
        if let Err(e) = tracer.time("server.client.settle", parent, || {
            conn.client.query_estimates()
        }) {
            tally.failed += 1;
            return Err(format!("settle query: {e}"));
        }
    }
    Ok(())
}

/// The fresh-traffic guard on the send side: frames claim disjoint pool
/// ranges, so the reports acknowledged must be exactly the reports taken
/// from the pools — one more means a report went out twice.
fn check_each_report_once(taken: usize, acked: u64) -> Result<(), String> {
    if taken as u64 != acked {
        return Err(format!(
            "fresh-traffic guard: {acked} reports acknowledged, {taken} distinct reports sent"
        ));
    }
    Ok(())
}

/// How many reports of one stream a closed-loop window perturbs ahead:
/// enough for `expected_rps` (until a window has measured the real rate)
/// over the time left, but never more than `max_reports` in memory.
#[derive(Clone, Copy, Debug)]
pub struct PoolSize {
    pub expected_rps: f64,
    pub max_reports: usize,
}

/// Closed-loop ingest on every connection for `seconds` of timed windows,
/// optionally with a probe on `prober`. Reports are perturbed between
/// windows, never inside one: a window ends when its deadline passes or a
/// stream's pool runs dry, and the next pool is sized from the rate just
/// measured, within `pools[s]` for stream `s`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    deployment: &Deployment,
    streams: &mut [Stream],
    conns: &mut [Conn],
    mut prober: Option<(&mut ReportClient, ProbeSpec)>,
    pools: &[PoolSize],
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
) -> Result<Tally, String> {
    let mut total = Tally::default();
    let mut rates: Vec<f64> = pools.iter().map(|p| p.expected_rps).collect();
    let mut schedule = prober
        .as_ref()
        .map(|(_, spec)| Schedule::poisson(spec.rate_hz, seconds, derive_seed(seed, 1)));
    while total.wall_s < seconds - 1e-3 {
        let remaining = seconds - total.wall_s;
        for (s, stream) in streams.iter_mut().enumerate() {
            if !conns.iter().any(|c| c.stream == s) {
                continue;
            }
            let want = (rates[s] * remaining * 1.1) as usize;
            stream.fill_pool(want.clamp(4 * stream.frame, pools[s].max_reports))?;
        }
        let cursors: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
        let stop = AtomicBool::new(false);
        let offset = Duration::from_secs_f64(total.wall_s);
        let (cpu0, coord0) = deployment.cpu()?;
        let window_span = tracer.span("loadgen.closed_loop_window", 0);
        let parent = window_span.id();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(remaining);
        let pools: Vec<&[idldp_core::report::ReportData]> =
            streams.iter().map(|s| s.pool.as_slice()).collect();
        let frames: Vec<usize> = streams.iter().map(|s| s.frame).collect();
        let results: Vec<ConnResult> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for conn in conns.iter_mut() {
                let (pool, frame, cursor) = (
                    pools[conn.stream],
                    frames[conn.stream],
                    &cursors[conn.stream],
                );
                let stop = &stop;
                handles.push(scope.spawn(move || {
                    let mut out = ConnResult::default();
                    while !stop.load(Ordering::SeqCst) && Instant::now() < end {
                        let from = cursor.fetch_add(frame, Ordering::SeqCst);
                        if from >= pool.len() {
                            // This stream's pool ran dry: close the window
                            // for every connection, so the traffic mix
                            // stays the same throughout.
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                        let batch = &pool[from..(from + frame).min(pool.len())];
                        if let Err(e) = push_frame(
                            &mut conn.client,
                            batch,
                            Instant::now(),
                            tracer,
                            parent,
                            &mut out.tally,
                        ) {
                            out.error = Some(e);
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    out
                }));
            }
            if let (Some((client, spec)), Some(schedule)) = (prober.as_mut(), schedule.as_mut()) {
                let (spec, stop) = (*spec, &stop);
                let client = &mut **client;
                handles.push(scope.spawn(move || {
                    probe(
                        client, spec, schedule, offset, start, end, stop, tracer, parent,
                    )
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let mut window = Tally::default();
        let mut error = None;
        for r in results {
            window.absorb(r.tally);
            error = error.or(r.error);
        }
        if let Some(e) = error {
            total.absorb(window);
            return Err(e);
        }
        settle(conns, &mut window, tracer, parent)?;
        window.wall_s = procs::secs_since(start);
        drop(window_span);
        let (cpu1, coord1) = deployment.cpu()?;
        window.collector_cpu_s = cpu1 - cpu0;
        window.coordinator_cpu_s = coord1 - coord0;
        let claimed: Vec<usize> = streams
            .iter()
            .zip(&cursors)
            .map(|(stream, cursor)| cursor.load(Ordering::SeqCst).min(stream.pool.len()))
            .collect();
        check_each_report_once(claimed.iter().sum(), window.acked)?;
        for (s, stream) in streams.iter_mut().enumerate() {
            if conns.iter().any(|c| c.stream == s) {
                rates[s] = claimed[s] as f64 / window.wall_s;
            }
            stream.acknowledge(claimed[s])?;
        }
        total.absorb(window);
    }
    Ok(total)
}

/// Open-loop ingest of `stream` on `ingest` at `frames_per_s` for
/// `seconds`, with the probe on `prober` alongside.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    deployment: &Deployment,
    stream: &mut Stream,
    ingest: &mut Conn,
    prober: &mut ReportClient,
    frames_per_s: f64,
    probe_spec: ProbeSpec,
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
) -> Result<Tally, String> {
    let mut frames = Schedule::poisson(frames_per_s, seconds, derive_seed(seed, 2));
    let mut probes = Schedule::poisson(probe_spec.rate_hz, seconds, derive_seed(seed, 1));
    stream.fill_pool(frames.at.len() * stream.frame)?;
    let (pool, frame) = (&stream.pool, stream.frame);
    let stop = AtomicBool::new(false);
    let (cpu0, coord0) = deployment.cpu()?;
    let window_span = tracer.span("loadgen.open_loop_window", 0);
    let parent = window_span.id();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (ingest_result, probe_result) = std::thread::scope(|scope| {
        let (stop, client, frames) = (&stop, &mut ingest.client, &mut frames);
        let ingest_handle = scope.spawn(move || {
            let mut out = ConnResult::default();
            while let Some((i, due)) = frames.next_due(start, Duration::ZERO, end) {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                out.tally.late_ms.push(wait_until(due));
                frames.next += 1;
                let batch = &pool[i * frame..(i + 1) * frame];
                if let Err(e) = push_frame(client, batch, due, tracer, parent, &mut out.tally) {
                    out.error = Some(e);
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
            out
        });
        let probe_result = probe(
            prober,
            probe_spec,
            &mut probes,
            Duration::ZERO,
            start,
            end,
            stop,
            tracer,
            parent,
        );
        (
            ingest_handle.join().expect("ingest thread panicked"),
            probe_result,
        )
    });
    let mut window = Tally::default();
    window.absorb(ingest_result.tally);
    window.absorb(probe_result.tally);
    if let Some(e) = ingest_result.error.or(probe_result.error) {
        return Err(e);
    }
    settle(std::slice::from_mut(ingest), &mut window, tracer, parent)?;
    window.wall_s = procs::secs_since(start);
    drop(window_span);
    let (cpu1, coord1) = deployment.cpu()?;
    window.collector_cpu_s = cpu1 - cpu0;
    window.coordinator_cpu_s = coord1 - coord0;
    let sent = frames.next * frame;
    check_each_report_once(sent, window.acked)?;
    stream.acknowledge(sent)?;
    Ok(window)
}

/// Checks the server's answer against the stream's local reference:
/// estimates and top-k must be bit-identical, and the user count must be
/// exactly the number of acknowledged reports. Returns the number of
/// checks made; any mismatch is an error.
pub fn verify(client: &mut ReportClient, stream: &Stream, top_k: usize) -> Result<u64, String> {
    let who = stream.tenant.as_ref().map_or_else(
        || stream.mech_name.to_string(),
        |t| format!("{} (tenant {t})", stream.mech_name),
    );
    let (users, estimates) = client
        .query_estimates()
        .map_err(|e| format!("{who}: final estimates query: {e}"))?;
    if users != stream.acknowledged() {
        return Err(format!(
            "correctness: {who}: server counts {users} users, {} reports were acknowledged",
            stream.acknowledged()
        ));
    }
    let want = stream.reference_estimates()?;
    let same = want.len() == estimates.len()
        && want
            .iter()
            .zip(&estimates)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "correctness: {who}: estimates differ from the local fold over the {users} acknowledged reports"
        ));
    }
    let (users_k, items) = client
        .query_top_k(top_k)
        .map_err(|e| format!("{who}: final top-k query: {e}"))?;
    let want_k = stream.reference_top_k(top_k)?;
    let same_k = users_k == users
        && want_k.len() == items.len()
        && want_k
            .iter()
            .zip(&items)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    if !same_k {
        return Err(format!(
            "correctness: {who}: top-{top_k} differs from the local reference"
        ));
    }
    Ok(2)
}
