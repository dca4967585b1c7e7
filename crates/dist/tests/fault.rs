//! Fault injection: SIGKILL a worker mid-sweep and prove zero jobs are
//! lost — the coordinator re-dispatches the dead worker's unfinished
//! shard and the final aggregate is bitwise identical to a
//! single-process run.

use std::path::PathBuf;

use hetrta_dist::{run_distributed, DistConfig, DistProgress, WorkerLauncher};
use hetrta_engine::{Engine, GeneratorPreset, SweepSpec};

fn launcher() -> WorkerLauncher {
    WorkerLauncher {
        program: PathBuf::from(env!("CARGO_BIN_EXE_hetrta-dist-worker")),
        args: Vec::new(),
    }
}

#[test]
fn sigkilled_worker_is_respawned_and_no_job_is_lost() {
    // 20 jobs, 10 per worker. The coordinator declares worker 0 dead
    // the moment it kills it, so 8 of its jobs are orphaned however fast
    // the worker ran them.
    let spec = SweepSpec::fractions(
        GeneratorPreset::LargeGraphs(2500),
        vec![2],
        vec![0.1, 0.3],
        10,
        0xFA_17,
    );
    let local = Engine::new(0).run(&spec).expect("local run");

    let dir = std::env::temp_dir().join(format!("hetrta-dist-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = DistConfig::local(2, launcher());
    config.worker_threads = 2;
    config.cache_dir = Some(dir.clone());
    // Chaos hook: the coordinator SIGKILLs worker 0's process (that is
    // what `Child::kill` delivers on unix) after accepting 2 of its
    // jobs.
    config.chaos_kill_after = Some((0, 2));

    let mut downs = 0u64;
    let out = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |p| {
        if let DistProgress::WorkerDown { redispatched, .. } = p {
            assert!(redispatched > 0);
            downs += 1;
        }
    })
    .expect("distributed run survives the kill");

    assert!(out.worker_deaths >= 1, "the kill was detected");
    assert_eq!(downs, out.worker_deaths);
    assert!(
        out.redispatched_jobs >= 1,
        "orphaned jobs were re-dispatched"
    );
    assert!(out.respawns >= 1, "a replacement worker was spawned");
    assert_eq!(out.completed, out.total, "zero lost jobs");
    assert_eq!(out.worker_jobs.iter().sum::<u64>(), out.total as u64);
    assert_eq!(
        out.aggregate, local.aggregate,
        "the aggregate is bitwise identical despite the mid-sweep kill"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
