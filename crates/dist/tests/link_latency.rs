//! Link latency of the worker's batched writes. A worker encodes its
//! `JobDone` frames into one buffer and writes it once it holds 8 KB,
//! together with the shard's `ShardDone`, and ahead of every heartbeat.
//! Two bounds follow:
//!
//! - No write waits for a delayed ACK. With Nagle's algorithm on the
//!   worker's socket, a write that follows an unacknowledged one waits
//!   for its ACK, which the receiver delays by about 40 ms, so a shard
//!   written in several batches (and its `ShardDone`) would stall that
//!   long between writes.
//! - A finished result waits at most one heartbeat period: its `JobDone`
//!   reaches the coordinator while the worker's next, slow job still
//!   runs.
//!
//! The tests play the coordinator, so they pin the worker's end of the
//! link on its own.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hetrta_dist::protocol::FRAME_OVERHEAD;
use hetrta_dist::{run_worker, DistError, DistMsg, WireJobResult, WorkerConfig};
use hetrta_engine::{AnalysisSelection, EngineBuilder, GeneratorPreset, SweepSpec};

/// A 1-thread worker on a fresh loopback link, its hello read.
fn connect(
    cache_dir: Option<&Path>,
    heartbeat_every: Duration,
) -> (TcpStream, JoinHandle<Result<u64, DistError>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let config = WorkerConfig {
        addr: listener.local_addr().expect("local addr").to_string(),
        worker: 0,
        threads: 1,
        cache_dir: cache_dir.map(Path::to_path_buf),
        heartbeat_every,
        chaos: None,
    };
    let worker = std::thread::spawn(move || run_worker(&config, &hetrta_obs::NOOP));
    let (mut stream, _) = listener.accept().expect("worker connects");
    assert!(matches!(
        DistMsg::read_from(&mut stream).expect("hello"),
        DistMsg::Hello { worker: 0 }
    ));
    (stream, worker)
}

/// Assigns every job of `spec` and returns each `JobDone` with its
/// arrival time, then the arrival time of the `ShardDone`. Shuts the
/// worker down afterwards.
fn run_shard(
    mut stream: TcpStream,
    worker: JoinHandle<Result<u64, DistError>>,
    spec: &SweepSpec,
) -> (Vec<(Instant, WireJobResult)>, Instant) {
    let jobs = spec.job_count();
    DistMsg::Assign {
        indices: (0..jobs).collect(),
        spec: Box::new(spec.clone()),
    }
    .write_to(&mut stream)
    .expect("send assignment");
    let mut results = Vec::new();
    let shard_done = loop {
        match DistMsg::read_from(&mut stream).expect("worker frame") {
            DistMsg::JobDone(result) => results.push((Instant::now(), *result)),
            DistMsg::Heartbeat { .. } => {}
            DistMsg::ShardDone { completed } => {
                assert_eq!(completed, jobs);
                break Instant::now();
            }
            other => panic!("unexpected frame from the worker: {other:?}"),
        }
    };
    DistMsg::Shutdown
        .write_to(&mut stream)
        .expect("send shutdown");
    let done = worker
        .join()
        .expect("worker thread")
        .expect("worker ends cleanly");
    assert_eq!(done, jobs as u64);
    assert_eq!(results.len(), jobs);
    (results, shard_done)
}

/// Largest gap between consecutive frame arrivals of a 200-job shard
/// that takes several batches.
fn largest_arrival_gap() -> Duration {
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1], 200, 0x11AC);
    let (stream, worker) = connect(None, WorkerConfig::DEFAULT_HEARTBEAT);
    let (results, shard_done) = run_shard(stream, worker, &spec);
    let bytes: usize = results
        .iter()
        .map(|(_, result)| {
            let frame = DistMsg::JobDone(Box::new(result.clone())).encode();
            frame.1.len() + FRAME_OVERHEAD
        })
        .sum();
    assert!(bytes > 2 * 8 * 1024, "{bytes} B of results fit one batch");
    let arrivals: Vec<Instant> = results
        .iter()
        .map(|(at, _)| *at)
        .chain([shard_done])
        .collect();
    arrivals
        .windows(2)
        .map(|pair| pair[1] - pair[0])
        .max()
        .expect("two or more arrivals")
}

#[test]
fn job_done_frames_are_not_held_back_by_delayed_acks() {
    // Three tries, so one slow scheduling slice on a loaded host cannot
    // fail the test; a held write costs ~40 ms on every try.
    let gaps: Vec<Duration> = (0..3).map(|_| largest_arrival_gap()).collect();
    assert!(
        gaps.iter().any(|gap| *gap < Duration::from_millis(20)),
        "largest arrival gap per try: {gaps:?}"
    );
}

#[test]
fn a_finished_result_waits_at_most_one_heartbeat() {
    // Job 0 comes from a pre-warmed cache directory and finishes at once;
    // job 1 generates and simulates a large graph (about 0.3 s in a
    // release build). Job 0's result must not wait in the buffer for
    // job 1, only for the next heartbeat.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hetrta-dist-link-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::fractions(
        GeneratorPreset::LargeGraphs(200_000),
        vec![2],
        vec![0.1],
        2,
        0x1A7E,
    )
    .with_analyses(AnalysisSelection::from_keys(["het", "sim"]));
    EngineBuilder::new()
        .threads(1)
        .with_cache_dir(&dir)
        .build()
        .expect("cache dir opens")
        .run_job_subset(&spec, &[0], |_| {})
        .expect("warm job 0");

    let (stream, worker) = connect(Some(&dir), Duration::from_millis(20));
    let (results, _) = run_shard(stream, worker, &spec);
    let _ = std::fs::remove_dir_all(&dir);
    let [(first_at, first), (second_at, second)] = &results[..] else {
        panic!("two results expected, got {}", results.len());
    };
    assert_eq!(
        (first.index, second.index),
        (0, 1),
        "one thread, index order"
    );
    assert!(first.cache_hit, "job 0 was served from the warm directory");
    assert!(
        second.wall_time > Duration::from_millis(100),
        "job 1 is too fast to tell: {:?}",
        second.wall_time
    );
    // Job 0's result arrived in the first half of job 1's run.
    let lead = *second_at - *first_at;
    assert!(
        lead > second.wall_time / 2,
        "job 0 arrived {lead:?} before job 1, which ran {:?}",
        second.wall_time
    );
}
