//! Golden-aggregate parity: a distributed sweep must produce *bitwise*
//! the aggregate of a single-process run — cold, warm (shared disk
//! cache), and for any worker count.

use std::path::PathBuf;

use hetrta_dist::{run_distributed, shard_indices, DistConfig, DistProgress, WorkerLauncher};
use hetrta_engine::{Aggregator, Engine, GeneratorPreset, SweepSpec};

fn launcher() -> WorkerLauncher {
    WorkerLauncher {
        program: PathBuf::from(env!("CARGO_BIN_EXE_hetrta-dist-worker")),
        args: Vec::new(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetrta-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fig8_spec() -> SweepSpec {
    // A small Figure-8-shaped sweep: 2 core counts × 2 fractions × 6
    // tasks per point = 24 jobs.
    SweepSpec::fractions(
        GeneratorPreset::Small,
        vec![2, 4],
        vec![0.1, 0.3],
        6,
        0xDAC_2018,
    )
}

#[test]
fn distributed_aggregate_is_bitwise_the_single_process_one() {
    let spec = fig8_spec();
    let local = Engine::new(2).run(&spec).expect("local run");
    let dir = temp_dir("parity");

    let mut config = DistConfig::local(2, launcher());
    config.worker_threads = 2;
    config.cache_dir = Some(dir.clone());
    config.partial_every = Some(5);

    // Cold: every job computed somewhere in the fleet.
    let mut jobs_seen = 0usize;
    let mut partials = 0usize;
    let cold = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |p| match p {
        DistProgress::Job { .. } => jobs_seen += 1,
        DistProgress::Partial {
            completed, total, ..
        } => {
            assert!(completed <= total);
            partials += 1;
        }
        DistProgress::WorkerDown { .. } => panic!("no worker should die here"),
    })
    .expect("cold distributed run");
    assert_eq!(cold.total, spec.job_count());
    assert_eq!(cold.completed, cold.total);
    assert_eq!(jobs_seen, cold.total);
    assert!(partials > 0, "partial snapshots streamed");
    assert!(!cold.cancelled);
    assert_eq!(cold.worker_deaths, 0);
    assert_eq!(cold.duplicates, 0);
    assert_eq!(
        cold.aggregate, local.aggregate,
        "cold dist == single-process"
    );
    assert_eq!(cold.worker_jobs.len(), 2);
    assert_eq!(cold.worker_jobs.iter().sum::<u64>(), cold.total as u64);
    assert!(
        cold.worker_jobs.iter().all(|&j| j > 0),
        "both workers contributed: {:?}",
        cold.worker_jobs
    );
    assert!(cold.bytes_tx > 0 && cold.bytes_rx > 0);

    // Warm: a *fresh* fleet over the same cache directory replays every
    // job from disk — warm cells never recompute anywhere.
    let mut warm_hits = 0usize;
    let warm = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |p| {
        if let DistProgress::Job { cache_hit, .. } = p {
            warm_hits += usize::from(cache_hit);
        }
    })
    .expect("warm distributed run");
    assert_eq!(
        warm.aggregate, local.aggregate,
        "warm dist == single-process"
    );
    assert_eq!(
        warm_hits, warm.total,
        "every warm job came from the shared cache"
    );
    assert_eq!(
        warm.cached_jobs as usize, warm_hits,
        "the outcome counts them"
    );

    // Worker-count invariance: 3 workers over the warm cache, same bits.
    let mut wide = config.clone();
    wide.workers = 3;
    let three =
        run_distributed(&spec, &wide, &hetrta_obs::NOOP, None, |_| {}).expect("3-worker run");
    assert_eq!(
        three.aggregate, local.aggregate,
        "3 workers == single-process"
    );
    assert_eq!(three.worker_jobs.len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_process_shards_reassemble_bitwise() {
    // The `--shard i/k` building block: running each deterministic
    // shard in its own engine and merging through one aggregator equals
    // the unsharded run exactly.
    let spec = fig8_spec();
    let local = Engine::new(2).run(&spec).expect("local run");
    let (cells, jobs) = spec.expand();
    let mut merged = Aggregator::new(cells, jobs.len(), spec.cell_shape());
    for shard in 0..3 {
        let engine = Engine::new(2);
        let indices = shard_indices(jobs.len(), shard, 3);
        let ran = engine
            .run_job_subset(&spec, &indices, |result| merged.accept(result))
            .expect("shard runs");
        assert_eq!(ran, indices.len());
    }
    assert_eq!(merged.finalize().expect("complete"), local.aggregate);
}

#[test]
fn cancellation_stops_the_fleet_with_a_partial_outcome() {
    let spec = fig8_spec();
    let cancel = std::sync::atomic::AtomicBool::new(true); // cancelled up front
    let config = DistConfig::local(2, launcher());
    let out = run_distributed(&spec, &config, &hetrta_obs::NOOP, Some(&cancel), |_| {})
        .expect("cancelled run still returns");
    assert!(out.cancelled);
    assert!(out.completed < out.total);
}
