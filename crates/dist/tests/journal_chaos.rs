//! Crash-safe distributed sweeps: the coordinator journals every
//! accepted job, a resumed run executes only the remainder, and a
//! seeded fault plan drives deterministic chaos (generalized worker
//! kills + worker-side disk/wire faults) without losing a single job.

use std::path::PathBuf;
use std::sync::Arc;

use hetrta_dist::{run_distributed, DistConfig, WorkerLauncher};
use hetrta_engine::{Engine, FaultPlan, GeneratorPreset, JournalConfig, SweepJournal, SweepSpec};

fn launcher() -> WorkerLauncher {
    WorkerLauncher {
        program: PathBuf::from(env!("CARGO_BIN_EXE_hetrta-dist-worker")),
        args: Vec::new(),
    }
}

fn spec() -> SweepSpec {
    SweepSpec::fractions(
        GeneratorPreset::Small,
        vec![2, 4],
        vec![0.1, 0.3],
        4,
        0xD15C,
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetrta-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resumed_coordinator_replays_the_journal_and_executes_only_the_remainder() {
    let spec = spec();
    let local = Engine::new(0).run(&spec).expect("local run");
    let total = local.stats.jobs;

    // Simulate a run that crashed after 4 jobs: journal exactly those
    // `done` records (no seal — the "crash" tears the active segment
    // boundary, which the reader tolerates).
    let dir = temp_dir("journal");
    let journaled = [0usize, 3, 7, 11];
    {
        let cfg = JournalConfig::new(&dir);
        let (journal, replay) =
            SweepJournal::open(&cfg, &spec, total).expect("fresh journal opens");
        assert!(replay.results.is_empty());
        Engine::new(1)
            .run_job_subset(&spec, &journaled, |result| {
                journal.record_done(&result);
            })
            .expect("prefix subset runs");
    }

    let mut config = DistConfig::local(2, launcher());
    config.worker_threads = 2;
    config.journal = Some(JournalConfig::new(&dir).resuming());
    let out = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |_| {})
        .expect("resumed distributed run");

    assert_eq!(out.completed, total, "replayed + executed covers the sweep");
    assert_eq!(
        out.worker_jobs.iter().sum::<u64>(),
        (total - journaled.len()) as u64,
        "the fleet executed only the remainder — zero re-executed jobs"
    );
    assert_eq!(
        out.aggregate, local.aggregate,
        "resumed distributed aggregate is bitwise identical to one uninterrupted local run"
    );

    // Resuming the now-complete journal needs no fleet and re-executes
    // nothing at all.
    let out = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |_| {})
        .expect("fully-replayed run");
    assert_eq!(out.completed, total);
    assert_eq!(out.worker_jobs.iter().sum::<u64>(), 0);
    assert_eq!(out.aggregate, local.aggregate);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_fault_plan_kills_a_worker_and_no_job_is_lost() {
    // The plan-drawn kill (after 1–4 of a worker's 10 jobs) lands
    // mid-shard: the coordinator orphans every job it has not accepted.
    let spec = SweepSpec::fractions(
        GeneratorPreset::LargeGraphs(2500),
        vec![2],
        vec![0.1, 0.3],
        10,
        0xFA_17,
    );
    let local = Engine::new(0).run(&spec).expect("local run");

    let cache = temp_dir("chaos-cache");
    let mut config = DistConfig::local(2, launcher());
    config.worker_threads = 2;
    config.cache_dir = Some(cache.clone());
    // Forwarded `--chaos` also arms worker-side disk/wire faults, which
    // can cost extra (recoverable) deaths; give the budget headroom.
    config.max_respawns = 5;
    // No explicit kill hook: the generalized schedule draws a
    // deterministic (worker, K) from the plan's `dist.kill_worker`
    // stream. Restricting the plan keeps coordinator-side wire faults
    // out of this test (they get their own soak in CI).
    let plan = Arc::new(FaultPlan::new(0xC4A05).restrict_to(["dist.kill_worker"]));
    config.fault = Some(Arc::clone(&plan));

    let out = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |_| {})
        .expect("chaos run completes");

    assert_eq!(out.completed, out.total, "zero lost jobs");
    assert!(
        out.worker_deaths >= 1,
        "the plan-drawn kill fired and was detected"
    );
    assert_eq!(
        out.aggregate, local.aggregate,
        "bitwise-identical aggregate despite the plan-drawn kill"
    );
    let events = plan.events();
    assert!(
        events.iter().any(|e| e.site == "dist.kill_worker"),
        "the kill draw is on the fault-event log"
    );
    // Same seed, same draw: the schedule is a pure function of the plan.
    let replay = FaultPlan::new(0xC4A05).restrict_to(["dist.kill_worker"]);
    let bits = replay.draw("dist.kill_worker");
    assert_eq!(
        events[0].bits, bits,
        "identical fault sequence for the seed"
    );

    let _ = std::fs::remove_dir_all(&cache);
}
