//! The [`Recorder`] seam: where instrumented code hands off spans.
//!
//! Instrumentation sites hold a `&dyn Recorder` (usually through an
//! `Arc`) and guard every non-trivial step — timestamping, formatting
//! span details, pushing records — behind [`Recorder::enabled`]. The
//! [`NoopRecorder`] answers `false` and turns the whole apparatus into
//! a single predictable branch; the [`TraceRecorder`] answers `true`
//! and accumulates everything for export.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span: a named interval on a lane, with its per-thread
/// nesting depth and an optional `key=value` detail string.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static span name (the Chrome trace event name).
    pub name: &'static str,
    /// Rendered `key=value` pairs from the [`span!`](crate::span!) site,
    /// if any.
    pub detail: Option<String>,
    /// Display lane (Chrome `tid`); by the engine's convention lane 0 is
    /// the session/orchestrator thread and lane `1 + k` is worker `k`.
    pub lane: u32,
    /// Nesting depth on this thread when the span opened (0 = root).
    pub depth: u32,
    /// When the span opened.
    pub start: Instant,
    /// When the span closed.
    pub end: Instant,
}

/// One sampled counter value (a Chrome `"C"` event), e.g. the engine
/// pool's count of jobs not yet claimed.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Static counter name.
    pub name: &'static str,
    /// Sampled value.
    pub value: u64,
    /// When it was sampled.
    pub at: Instant,
}

/// Sink for spans and counter samples.
///
/// The contract that keeps disabled instrumentation near-free: callers
/// must consult [`Recorder::enabled`] before doing *any* work on a
/// span's behalf (clock reads, formatting). The [`span!`](crate::span!)
/// macro and [`SpanGuard`](crate::SpanGuard) uphold this automatically.
///
/// ```
/// use hetrta_obs::{Recorder, SpanRecord};
///
/// /// A recorder that only counts spans.
/// #[derive(Debug, Default)]
/// struct CountingRecorder(std::sync::atomic::AtomicU64);
///
/// impl Recorder for CountingRecorder {
///     fn enabled(&self) -> bool {
///         true
///     }
///     fn record_span(&self, _span: SpanRecord) {
///         self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
///     }
/// }
/// ```
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether spans are being collected. When `false`, instrumentation
    /// sites skip all work (no timestamps, no detail formatting).
    fn enabled(&self) -> bool;

    /// Accepts one completed span.
    fn record_span(&self, span: SpanRecord);

    /// Accepts one sampled counter value (rendered as a Chrome `"C"`
    /// counter track). No-op by default.
    fn record_counter(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Names a display lane (rendered as Chrome thread-name metadata).
    /// No-op by default.
    fn name_lane(&self, lane: u32, name: &str) {
        let _ = (lane, name);
    }
}

/// The always-off recorder: [`Recorder::enabled`] is `false` and every
/// sink method is a no-op. This is the engine's default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

/// A shared no-op instance for call sites that need a `&'static dyn`
/// recorder (e.g. tests exercising instrumented internals).
pub static NOOP: NoopRecorder = NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record_span(&self, _span: SpanRecord) {}
}

/// Number of span shards; writers shard by lane so concurrent workers
/// rarely contend on the same mutex.
const SPAN_SHARDS: usize = 16;

/// An in-memory recorder that collects every span and counter sample
/// for export — as Chrome trace-event JSON
/// ([`TraceRecorder::to_chrome_json`]) or, when stderr logging is on,
/// as structured log lines emitted at span close.
///
/// Timestamps are kept as [`Instant`]s and converted to microseconds
/// relative to the recorder's construction time (`epoch`) at export.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    counters: Mutex<Vec<CounterSample>>,
    lanes: Mutex<BTreeMap<u32, String>>,
    stderr_log: bool,
}

impl TraceRecorder {
    /// A recorder collecting from now on, without stderr logging.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder {
            epoch: Instant::now(),
            shards: (0..SPAN_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            counters: Mutex::new(Vec::new()),
            lanes: Mutex::new(BTreeMap::new()),
            stderr_log: false,
        }
    }

    /// Enables (or disables) a structured stderr log line per closed
    /// span — the `HETRTA_LOG` surface.
    #[must_use]
    pub fn with_stderr_log(mut self, enabled: bool) -> Self {
        self.stderr_log = enabled;
        self
    }

    /// The instant all exported timestamps are relative to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Every recorded span, sorted by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("span shard").clone())
            .collect();
        all.sort_by_key(|s| s.start);
        all
    }

    /// Every recorded counter sample, in record order.
    #[must_use]
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.counters.lock().expect("counter samples").clone()
    }

    /// The registered lane names (lane → name).
    #[must_use]
    pub fn lane_names(&self) -> BTreeMap<u32, String> {
        self.lanes.lock().expect("lane names").clone()
    }

    /// Renders everything recorded so far as a Chrome trace-event JSON
    /// document (the `{"traceEvents": [...]}` object format), loadable
    /// in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::render(self)
    }

    /// Writes [`TraceRecorder::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    fn log_span(&self, span: &SpanRecord) {
        let at_ms = span
            .start
            .saturating_duration_since(self.epoch)
            .as_secs_f64()
            * 1e3;
        let dur_ms = span.end.saturating_duration_since(span.start).as_secs_f64() * 1e3;
        let indent = "  ".repeat(span.depth as usize);
        let detail = span.detail.as_deref().unwrap_or("");
        eprintln!(
            "[hetrta] {at_ms:>12.3}ms lane={lane} {indent}{name} {detail} ({dur_ms:.3}ms)",
            lane = span.lane,
            name = span.name,
        );
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, span: SpanRecord) {
        if self.stderr_log {
            self.log_span(&span);
        }
        self.shards[span.lane as usize % SPAN_SHARDS]
            .lock()
            .expect("span shard")
            .push(span);
    }

    fn record_counter(&self, name: &'static str, value: u64) {
        self.counters
            .lock()
            .expect("counter samples")
            .push(CounterSample {
                name,
                value,
                at: Instant::now(),
            });
    }

    fn name_lane(&self, lane: u32, name: &str) {
        self.lanes
            .lock()
            .expect("lane names")
            .insert(lane, name.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        assert!(!NOOP.enabled());
        NOOP.record_counter("x", 1);
        NOOP.name_lane(0, "session");
    }

    #[test]
    fn trace_recorder_collects_spans_counters_and_lanes() {
        let rec = TraceRecorder::new();
        assert!(rec.enabled());
        let start = Instant::now();
        rec.record_span(SpanRecord {
            name: "job",
            detail: Some("index=1".into()),
            lane: 2,
            depth: 0,
            start,
            end: Instant::now(),
        });
        rec.record_counter("queue_depth", 7);
        rec.name_lane(2, "worker 1");
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.counter_samples().len(), 1);
        assert_eq!(
            rec.lane_names().get(&2).map(String::as_str),
            Some("worker 1")
        );
    }

    #[test]
    fn spans_come_back_sorted_by_start() {
        let rec = TraceRecorder::new();
        let early = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let late = Instant::now();
        for (lane, start) in [(5u32, late), (1, early)] {
            rec.record_span(SpanRecord {
                name: "s",
                detail: None,
                lane,
                depth: 0,
                start,
                end: start,
            });
        }
        let spans = rec.spans();
        assert_eq!(spans[0].lane, 1, "earlier span first");
        assert_eq!(spans[1].lane, 5);
    }
}
