//! Measurement plumbing: latency samples with percentile rules, the
//! in-memory span recorder of the traced run, and the metric list a run
//! prints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Latency samples in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (nearest rank), refusing a sample too small for
    /// it: a tail percentile needs at least ten samples beyond it.
    pub fn percentile(&self, q: f64, what: &str) -> Result<f64, String> {
        let n = self.0.len();
        if q > 0.5 && (n as f64 * (1.0 - q)).floor() < 10.0 {
            return Err(format!(
                "harness error: {what}: {n} samples are too few for p{:.0} \
                 (it needs at least ten samples beyond it)",
                q * 100.0
            ));
        }
        self.nearest_rank(q, what)
    }

    /// The `q`-quantile by nearest rank, with no sample-size rule.
    pub fn nearest_rank(&self, q: f64, what: &str) -> Result<f64, String> {
        let n = self.0.len();
        if n == 0 {
            return Err(format!("harness error: {what}: no samples"));
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Ok(sorted[rank - 1])
    }
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One recorded span: a named interval around a call into one layer, and
/// the span that caused it (`0` for none).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span ids are unique across tracers, and times share one epoch, so the
/// spans of several tracers can be written out together.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Records spans in memory while enabled; a disabled tracer does not even
/// read the clock, so untraced runs pay nothing for the call sites.
pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        epoch();
        Self {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Moves every span of `other` into this tracer.
    pub fn absorb(&self, other: Tracer) {
        let spans = other
            .spans
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.lock().extend(spans);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent,
                name,
                start: None,
            };
        }
        SpanGuard {
            tracer: self,
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, parent);
        f()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.lock().iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of the spans it causes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let epoch = epoch();
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: start.duration_since(epoch).as_nanos() as u64,
                end_ns: epoch.elapsed().as_nanos() as u64,
            };
            self.tracer.lock().push(span);
        }
    }
}

/// The metrics one run reports, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self, prefix: &str) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        body.join(", ")
    }
}

/// A finite JSON number with every digit the measurement has.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
