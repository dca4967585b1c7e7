//! End-to-end observability: an instrumented engine run must export a
//! Chrome trace that parses as JSON, carries one span per job nested in
//! worker lanes, and a metrics registry that agrees with the run stats.

use std::sync::Arc;

use hetrta_engine::obs::json::JsonValue;
use hetrta_engine::{EngineBuilder, GeneratorPreset, SessionConfig, SweepSpec, TraceRecorder};

/// One X event, decoded just enough for structural assertions.
struct Complete {
    name: String,
    lane: f64,
    depth: f64,
    start: f64,
    end: f64,
}

fn complete_events(doc: &JsonValue) -> Vec<Complete> {
    doc.get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .map(|e| {
            let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
            let dur = e.get("dur").and_then(JsonValue::as_f64).expect("dur");
            Complete {
                name: e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_owned(),
                lane: e.get("tid").and_then(JsonValue::as_f64).expect("tid"),
                depth: e
                    .get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(JsonValue::as_f64)
                    .expect("depth"),
                start: ts,
                end: ts + dur,
            }
        })
        .collect()
}

#[test]
fn instrumented_sweep_exports_a_structurally_valid_chrome_trace() {
    let recorder = Arc::new(TraceRecorder::new());
    let engine = EngineBuilder::new()
        .threads(2)
        .with_recorder(Arc::clone(&recorder) as _)
        .build()
        .expect("no cache dir");

    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2, 0.3], 4, 5);
    let out = engine.run(&spec).expect("sweep succeeds");
    assert_eq!(out.stats.jobs, 8);

    let text = recorder.to_chrome_json();
    let doc = JsonValue::parse(&text).expect("export is valid JSON");
    let events = complete_events(&doc);

    // Every job produced exactly one `job` span, all on worker lanes
    // (lane 0 is the session thread).
    let jobs: Vec<&Complete> = events.iter().filter(|e| e.name == "job").collect();
    assert_eq!(jobs.len(), out.stats.jobs, "one span per job");
    assert!(
        jobs.iter().all(|j| j.lane == 1.0 || j.lane == 2.0),
        "jobs run on worker lanes"
    );

    // Analysis spans nest inside a job span on the same lane, one level
    // (or more, via the context seam) deeper.
    let analyses: Vec<&Complete> = events.iter().filter(|e| e.name == "analysis").collect();
    assert!(!analyses.is_empty(), "computed analyses produce spans");
    for analysis in &analyses {
        assert!(analysis.depth >= 1.0, "analysis spans are children");
        assert!(
            jobs.iter().any(|job| job.lane == analysis.lane
                && job.start <= analysis.start
                && analysis.end <= job.end),
            "analysis span outside every job interval on its lane"
        );
    }

    // The session lane carries the root sweep span enclosing every job.
    let sweep = events
        .iter()
        .find(|e| e.name == "sweep")
        .expect("root sweep span");
    assert_eq!(sweep.lane, 0.0, "sweep span lives on the session lane");
    // `Engine::run` sweeps on the calling thread, which is also worker 0:
    // its jobs go to lane 1, its aggregation stays on lane 0.
    let finalize = events
        .iter()
        .find(|e| e.name == "aggregate.finalize")
        .expect("finalize span");
    assert_eq!(finalize.lane, 0.0, "finalize lives on the session lane");
    for job in &jobs {
        assert!(
            sweep.start <= job.start && job.end <= sweep.end,
            "job outside the sweep interval"
        );
    }

    // Worker lanes are named through thread_name metadata.
    let lane_names: Vec<String> = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        })
        .collect();
    for expected in ["session", "worker 0", "worker 1"] {
        assert!(
            lane_names.iter().any(|n| n == expected),
            "missing lane {expected}"
        );
    }
}

#[test]
fn metrics_registry_is_the_source_of_the_run_stats() {
    let engine = EngineBuilder::new()
        .threads(2)
        .build()
        .expect("no cache dir");
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2, 0.3], 4, 5);
    let out = engine.run(&spec).expect("sweep succeeds");

    let snap = engine.metrics().snapshot();
    // EngineStats is a view over the registry: the same counters back both.
    assert_eq!(
        snap.counter("cache.result.hits"),
        Some(out.stats.result_cache.hits),
    );
    assert_eq!(
        snap.counter("cache.result.misses"),
        Some(out.stats.result_cache.misses),
    );
    assert_eq!(snap.counter("pool.jobs"), Some(out.stats.jobs as u64));
    // Each executed analysis fed its latency histogram, and its measured
    // EWMA landed as a gauge.
    let latencies = snap.histograms_with_prefix("analysis.");
    assert!(!latencies.is_empty(), "latency histograms recorded");
    for (name, hist) in &latencies {
        assert!(hist.count > 0, "{name} is empty");
        assert!(hist.p99().is_some(), "{name} has no quantiles");
    }
    assert!(
        snap.gauge("cost.ewma_us.het").is_some(),
        "cost EWMA gauges exported"
    );
}

#[test]
fn overflowing_event_buffers_count_their_drops() {
    let engine = EngineBuilder::new()
        .threads(2)
        .build()
        .expect("no cache dir");
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2, 0.3], 16, 5);
    // A 2-event buffer with per-job events and no consumer must drop.
    let config = SessionConfig {
        max_buffered_events: 2,
        ..SessionConfig::default()
    };
    let handle = engine.submit_with(&spec, config).expect("valid spec");
    let out = handle.wait().expect("sweep succeeds");
    assert!(
        out.stats.events_dropped > 0,
        "a tiny unconsumed buffer must drop events"
    );
    let rendered = out.stats.render();
    assert!(rendered.contains("events dropped"), "{rendered}");

    // The quiet path never drops (nothing is buffered per job).
    let quiet = engine.run(&spec).expect("sweep succeeds");
    assert_eq!(quiet.stats.events_dropped, 0);
    assert!(!quiet.stats.render().contains("events dropped"));
}
