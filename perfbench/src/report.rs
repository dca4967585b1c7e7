//! The result: a human table, then one JSON line.

use crate::stats::{median, percentile};
use crate::workloads::{Run, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics of an untraced run, plus `failed_ratio`, which
/// the table shows and the JSON line carries as `failed / attempted`.
pub fn end_to_end(w: Workload, run: &Run) -> (Vec<Metric>, Metric) {
    let all: Vec<f64> = run.sweeps.iter().map(|s| s.ms).collect();
    let cold: Vec<f64> = run.sweeps.iter().filter(|s| s.cold).map(|s| s.ms).collect();
    let warm: Vec<f64> = if run.local_warm_ms.is_empty() {
        run.sweeps
            .iter()
            .filter(|s| !s.cold)
            .map(|s| s.ms)
            .collect()
    } else {
        run.local_warm_ms.clone()
    };
    let jobs: usize = run.sweeps.iter().map(|s| s.jobs).sum();
    let (tail, _) = w.tail();
    let metrics = vec![
        metric("setup_s", median(&run.setup_s), "s", run.setup_s.len()),
        metric("jobs_per_s", jobs as f64 / run.phase_s, "jobs/s", all.len()),
        metric("sweep_p50_ms", median(&all), "ms", all.len()),
        metric("sweep_tail_ms", percentile(&all, tail), "ms", all.len()),
        metric("cold_sweep_p50_ms", median(&cold), "ms", cold.len()),
        metric("warm_sweep_p50_ms", median(&warm), "ms", warm.len()),
        metric("peak_rss_mb", run.peak_rss_mb, "MB", 1),
    ];
    let failed = metric(
        "failed_ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        run.attempted as usize,
    );
    (metrics, failed)
}

/// Prints the table and the final JSON line. A run is correct when no
/// sweep or check failed and every metric has samples.
pub fn print(title: &str, metrics: &[Metric], extra: &[Metric], run: &Run) {
    println!("{title}");
    for m in metrics.iter().chain(extra) {
        println!(
            "  {:<30}{:>16.6} {:<7} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &run.errors {
        println!("  FAILED: {e}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("  FAILED: a metric has no samples");
    }
    let correct = run.failed == 0 && finite && run.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed + u64::from(!finite),
        body.join(", ")
    );
}
