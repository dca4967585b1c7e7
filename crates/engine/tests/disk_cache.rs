//! Disk-persistent cache guarantees: a second engine instance (standing
//! in for a second process — nothing is shared but the directory) replays
//! every result from disk with zero recomputation, corrupt or stale
//! entries degrade to recomputation without ever panicking, and disk
//! activity is reported in `EngineStats`.

use std::path::PathBuf;
use std::sync::Arc;

use hetrta_engine::{
    AnalysisSelection, Engine, EngineBuilder, EngineError, GeneratorPreset, SweepSpec,
    TraceRecorder,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetrta-engine-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> SweepSpec {
    SweepSpec::fractions(
        GeneratorPreset::Small,
        vec![2, 4],
        vec![0.1, 0.3],
        5,
        0xCAFE,
    )
    .with_analyses(AnalysisSelection::from_keys(["het", "hom", "sim"]))
}

fn engine_on(dir: &PathBuf) -> Engine {
    EngineBuilder::new()
        .threads(2)
        .with_cache_dir(dir)
        .build()
        .expect("cache dir opens")
}

#[test]
fn second_engine_instance_replays_from_disk_with_zero_recomputes() {
    let dir = temp_dir("roundtrip");

    let cold = engine_on(&dir).run(&spec()).expect("cold run");
    assert_eq!(cold.stats.disk_cache.hits, 0, "nothing persisted yet");
    assert!(cold.stats.disk_cache.misses > 0, "disk was probed");

    // A brand-new engine on the same directory: fresh in-memory caches,
    // so everything must come off disk.
    let warm = engine_on(&dir).run(&spec()).expect("warm run");
    assert_eq!(warm.aggregate, cold.aggregate);
    assert_eq!(
        format!("{:?}", warm.aggregate),
        format!("{:?}", cold.aggregate),
        "disk replay must be bitwise identical"
    );
    assert_eq!(
        warm.stats.cached_jobs as usize, warm.stats.jobs,
        "zero recomputed jobs on an unchanged spec"
    );
    assert!(warm.stats.disk_cache.hits > 0);
    assert!(
        warm.stats.render().contains("disk cache"),
        "{}",
        warm.stats.render()
    );

    // And a disk-free engine agrees (the disk layer changes nothing).
    let reference = Engine::new(2).run(&spec()).expect("reference run");
    assert_eq!(reference.aggregate, cold.aggregate);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `first` on engine A, then a fresh engine B over the same
/// directory while A is still alive: nothing has dropped A's disk handle,
/// so B replays only what A committed when its run ended.
fn replays_while_the_writer_lives(tag: &str, first: impl FnOnce(&Engine)) {
    let dir = temp_dir(tag);
    let writer = engine_on(&dir);
    first(&writer);
    let warm = engine_on(&dir).run(&spec()).expect("warm run");
    assert_eq!(
        warm.stats.cached_jobs as usize, warm.stats.jobs,
        "zero recomputes while the writer lives"
    );
    let reference = Engine::new(2).run(&spec()).expect("reference run");
    assert_eq!(warm.aggregate, reference.aggregate);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_commits_its_disk_writes_when_it_ends() {
    replays_while_the_writer_lives("run-end", |engine| {
        engine.run(&spec()).expect("cold run");
    });
}

#[test]
fn a_job_subset_commits_its_disk_writes_when_it_ends() {
    // The fleet worker's call: every index, results to a sink.
    replays_while_the_writer_lives("subset-end", |engine| {
        let all: Vec<usize> = (0..spec().job_count()).collect();
        let ran = engine.run_job_subset(&spec(), &all, |_| {});
        assert_eq!(ran.expect("cold subset"), all.len());
    });
}

#[test]
fn identity_entries_are_written_once_per_recipe() {
    // Every recipe runs at m = 2 and at m = 8. The m = 8 job finds the
    // recipe's identity in memory but misses its results, so it takes
    // the slow path; that path must not rewrite the identity entry.
    let spec = SweepSpec::fractions(
        GeneratorPreset::Small,
        vec![2, 8],
        vec![0.1, 0.3],
        5,
        0xCAFE,
    )
    .with_analyses(AnalysisSelection::from_keys(["het", "hom"]));
    let recipes = 2 * 5;
    let dir = temp_dir("identity-once");
    let recorder = Arc::new(TraceRecorder::new());
    let cold = EngineBuilder::new()
        .threads(1)
        .with_cache_dir(&dir)
        .with_recorder(Arc::clone(&recorder) as _)
        .build()
        .expect("cache dir opens")
        .run(&spec)
        .expect("cold run");
    let spans = recorder.spans();
    let writes = |namespace: &str| {
        let detail = format!("ns={namespace}");
        spans
            .iter()
            .filter(|span| span.name == "disk.write" && span.detail.as_ref() == Some(&detail))
            .count()
    };
    assert_eq!(cold.stats.jobs, 2 * recipes);
    assert_eq!(cold.stats.skipped_jobs, 0);
    assert_eq!(writes("identity"), recipes, "one identity write per recipe");
    assert_eq!(
        writes("results"),
        cold.stats.jobs * 2,
        "one results write per computed (job, analysis)"
    );

    let warm = EngineBuilder::new()
        .threads(1)
        .with_cache_dir(&dir)
        .build()
        .expect("cache dir opens")
        .run(&spec)
        .expect("warm run");
    assert_eq!(warm.stats.cached_jobs as usize, warm.stats.jobs);
    assert_eq!(
        format!("{:?}", warm.aggregate),
        format!("{:?}", cold.aggregate),
        "disk replay must be bitwise identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn declined_samples_are_persisted_too() {
    // A generator that cannot produce a valid task: every job is a
    // declined sample, memoized on disk, so the second instance skips
    // generation entirely.
    let tiny = GeneratorPreset::Custom(hetrta_gen::NfjParams::small_tasks().with_node_range(1, 1));
    let mut spec = SweepSpec::suspension(vec![2], vec![0.05], 4, 0);
    spec.preset = tiny;
    let dir = temp_dir("skips");

    let cold = engine_on(&dir).run(&spec).expect("cold run");
    assert_eq!(cold.stats.skipped_jobs, 4);
    let warm = engine_on(&dir).run(&spec).expect("warm run");
    assert_eq!(warm.stats.skipped_jobs, 4);
    assert_eq!(warm.stats.cached_jobs, 4, "skips replay from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_stale_entries_fall_back_to_recompute() {
    let dir = temp_dir("corrupt");
    let cold = engine_on(&dir).run(&spec()).expect("cold run");

    // Corrupt every record inside the generation's log, each keeping its
    // offset: one flipped byte, or a checksum-valid record of a stale
    // format version; the last record is a torn tail.
    let log_path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|entry| entry.expect("entry").path().join("log"))
        .find(|path| path.exists())
        .expect("a generation log");
    let log = std::fs::read_to_string(&log_path).expect("log");
    let records: Vec<&str> = log.lines().collect();
    let mut corrupted = Vec::new();
    let mut vandalized = 0usize;
    for (i, record) in records.iter().enumerate() {
        let mut bytes = record.as_bytes().to_vec();
        if i + 1 == records.len() {
            bytes.truncate(bytes.len() / 2); // torn tail
        } else if i.is_multiple_of(2) {
            *bytes.last_mut().expect("a record") ^= 1; // one flipped byte
            bytes.push(b'\n');
        } else {
            let (_, payload) = record.split_once(' ').expect("record line");
            let stale = payload.replacen(".v2 ", ".v1 ", 1); // stale version
            bytes = hetrta_fault::encode(&stale).into_bytes();
        }
        corrupted.extend_from_slice(&bytes);
        vandalized += 1;
    }
    std::fs::write(&log_path, corrupted).expect("vandalize");
    assert!(vandalized > 0, "the cold run persisted entries");

    // The engine must recompute everything, bit-identically, no panic.
    let recovered = engine_on(&dir).run(&spec()).expect("recovery run");
    assert_eq!(recovered.aggregate, cold.aggregate);
    assert_eq!(recovered.stats.disk_cache.hits, 0, "nothing valid on disk");
    assert!(recovered.stats.disk_cache.misses > 0);

    // Recomputation rewrote the entries: a further instance replays.
    let warm = engine_on(&dir).run(&spec()).expect("rewritten run");
    assert_eq!(warm.stats.cached_jobs as usize, warm.stats.jobs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_engines_share_one_cache_dir_under_concurrent_gc() {
    // Two engines (standing in for two processes — nothing shared but
    // the directory) run the same sweep concurrently while a third
    // thread aggressively gc's the directory the whole time. Entries
    // compacted away mid-run must read as misses and be recomputed; the
    // concurrent writer's appends must never yield a torn read; the
    // outputs must match a disk-free reference bitwise.
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = temp_dir("two-engines");
    let reference = Engine::new(2).run(&spec()).expect("reference run");

    let stop = Arc::new(AtomicBool::new(false));
    // The engines start with the gc thread's first pass, so the race does
    // not depend on the scheduler reaching the gc thread before two short
    // sweeps finish. `sweeps` counts the passes that started before both
    // engines were done.
    let start = Arc::new(std::sync::Barrier::new(3));
    let gc_thread = {
        let dir = dir.clone();
        let (stop, start) = (Arc::clone(&stop), Arc::clone(&start));
        std::thread::spawn(move || {
            // A dedicated handle, like an operator's `hetrta cache gc`
            // racing the daemons.
            let cache = hetrta_engine::DiskCache::open(&dir).expect("gc handle");
            let mut sweeps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if sweeps == 0 {
                    start.wait();
                }
                cache.gc(0).expect("gc never errors");
                sweeps += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            sweeps
        })
    };

    let runs: Vec<_> = (0..2)
        .map(|_| {
            let (dir, start) = (dir.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                engine_on(&dir).run(&spec()).expect("concurrent run")
            })
        })
        .collect();
    let outputs: Vec<_> = runs
        .into_iter()
        .map(|t| t.join().expect("run thread"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let sweeps = gc_thread.join().expect("gc thread");
    assert!(sweeps > 0, "gc actually raced the engines");

    for out in &outputs {
        assert_eq!(out.aggregate, reference.aggregate);
        assert_eq!(
            format!("{:?}", out.aggregate),
            format!("{:?}", reference.aggregate),
            "bitwise identical under gc pressure"
        );
    }
    // The directory is still a working cache afterwards.
    let warm = engine_on(&dir).run(&spec()).expect("post-stress run");
    assert_eq!(warm.aggregate, reference.aggregate);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_is_a_builder_error() {
    let err = EngineBuilder::new()
        .with_cache_dir("/proc/definitely/not/writable")
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Cache(_)), "{err}");
    assert!(err.to_string().contains("disk cache"), "{err}");
}

#[test]
fn disk_layer_composes_with_bounded_memory_caches() {
    // Memory far too small to hold the run: the disk still captures
    // everything, so instance two is fully cached even though instance
    // one was evicting constantly.
    let dir = temp_dir("bounded");
    let tiny = EngineBuilder::new()
        .threads(2)
        .cache_capacity(32)
        .with_cache_dir(&dir)
        .build()
        .expect("build");
    let cold = tiny.run(&spec()).expect("cold run");

    let warm = engine_on(&dir).run(&spec()).expect("warm run");
    assert_eq!(warm.aggregate, cold.aggregate);
    assert_eq!(warm.stats.cached_jobs as usize, warm.stats.jobs);
    let _ = std::fs::remove_dir_all(&dir);
}
