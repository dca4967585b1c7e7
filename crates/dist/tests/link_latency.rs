//! Link latency: a worker's `JobDone` frames must reach the coordinator
//! as they are written. Each frame is a separate small write; with
//! Nagle's algorithm on the worker's socket, every frame after the first
//! waits for the previous one's ACK, which the receiver delays by about
//! 40 ms. The test plays the coordinator, so it pins the worker's end of
//! the link on its own.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use hetrta_dist::{run_worker, DistMsg, WorkerConfig};
use hetrta_engine::{GeneratorPreset, SweepSpec};

/// Largest gap between consecutive `JobDone` arrivals of one 8-job
/// assignment, served by a fresh 1-thread worker.
fn largest_job_gap() -> Duration {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let config = WorkerConfig {
        addr: listener.local_addr().expect("local addr").to_string(),
        worker: 0,
        threads: 1,
        cache_dir: None,
        heartbeat_every: WorkerConfig::DEFAULT_HEARTBEAT,
        chaos: None,
    };
    let worker = std::thread::spawn(move || run_worker(&config, &hetrta_obs::NOOP));

    let (mut stream, _) = listener.accept().expect("worker connects");
    assert!(matches!(
        DistMsg::read_from(&mut stream).expect("hello"),
        DistMsg::Hello { worker: 0 }
    ));
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1], 8, 0x11AC);
    assert_eq!(spec.job_count(), 8);
    DistMsg::Assign {
        indices: (0..8).collect(),
        spec: Box::new(spec),
    }
    .write_to(&mut stream)
    .expect("send assignment");

    let mut arrivals = Vec::new();
    loop {
        match DistMsg::read_from(&mut stream).expect("worker frame") {
            DistMsg::JobDone(_) => arrivals.push(Instant::now()),
            DistMsg::Heartbeat { .. } => {}
            DistMsg::ShardDone { completed } => {
                assert_eq!(completed, 8);
                break;
            }
            other => panic!("unexpected frame from the worker: {other:?}"),
        }
    }
    DistMsg::Shutdown
        .write_to(&mut stream)
        .expect("send shutdown");
    let jobs = worker
        .join()
        .expect("worker thread")
        .expect("worker ends cleanly");
    assert_eq!(jobs, 8);
    assert_eq!(arrivals.len(), 8);
    arrivals
        .windows(2)
        .map(|pair| pair[1] - pair[0])
        .max()
        .expect("two or more arrivals")
}

#[test]
fn job_done_frames_are_not_held_back_by_delayed_acks() {
    // Three tries, so one slow scheduling slice on a loaded host cannot
    // fail the test; a held frame costs ~40 ms on every try.
    let gaps: Vec<Duration> = (0..3).map(|_| largest_job_gap()).collect();
    assert!(
        gaps.iter().any(|gap| *gap < Duration::from_millis(20)),
        "largest JobDone gap per try: {gaps:?}"
    );
}
