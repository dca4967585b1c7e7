//! End-to-end distributed-sweep guarantees through the real binary:
//! `engine sweep --workers N` is bitwise the `--threads`-only run, and
//! a daemon in fleet mode (`serve --workers N`) answers submits with
//! the same cells the local engine produces.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn hetrta(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hetrta"))
        .args(args)
        .output()
        .expect("run hetrta");
    assert!(
        out.status.success(),
        "hetrta {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// The cell block: everything up to the first blank line (the stats
/// block below it is run-dependent).
fn cells(text: &str) -> Vec<String> {
    text.lines()
        .take_while(|l| !l.is_empty())
        .map(String::from)
        .collect()
}

#[test]
fn fig8_with_four_workers_is_bitwise_the_threads_only_run() {
    let local = hetrta(&[
        "engine",
        "sweep",
        "--preset",
        "fig8",
        "--threads",
        "2",
        "--csv",
    ]);
    let dist = hetrta(&[
        "engine",
        "sweep",
        "--preset",
        "fig8",
        "--workers",
        "4",
        "--threads",
        "1",
        "--csv",
        "--progress",
    ]);
    // Progress streams to stderr; the cells on stdout are untouched.
    assert_eq!(cells(&local), cells(&dist), "fig8 dist != local");
    assert!(dist.contains("dist: "), "{dist}");
    assert!(dist.contains("0 redispatched, 0 worker deaths"), "{dist}");
}

#[test]
fn sampled_sweep_with_two_workers_is_bitwise_the_threads_only_run() {
    // The sampled tier's determinism contract: the sample seed and budget
    // live in the spec (not per worker), and every sample's seed is a pure
    // function of the base seed and sample index — so sharding the sweep
    // across worker processes draws the identical sample set and the
    // mean/CI columns match bit-for-bit.
    let shape = [
        "--cores",
        "2",
        "--per-point",
        "4",
        "--fractions",
        "0.1,0.3",
        "--seed",
        "11",
        "--analyses",
        "sampled,anytime",
        "--sample-budget",
        "12",
        "--sample-seed",
        "42",
        "--exact-budget",
        "5000",
        "--csv",
    ];
    let mut local_args = vec!["engine", "sweep", "--threads", "2"];
    local_args.extend_from_slice(&shape);
    let mut dist_args = vec!["engine", "sweep", "--workers", "2", "--threads", "1"];
    dist_args.extend_from_slice(&shape);
    let local = hetrta(&local_args);
    let dist = hetrta(&dist_args);
    assert_eq!(cells(&local), cells(&dist), "sampled dist != local");
    let header = &cells(&local)[0];
    assert!(header.contains("sampled_mean"), "{header}");
    assert!(header.contains("sampled_ci_half"), "{header}");
    assert!(header.contains("anytime_lower"), "{header}");
}

#[test]
fn daemon_in_fleet_mode_answers_with_the_local_cells() {
    let shape = [
        "--cores",
        "2",
        "--per-point",
        "4",
        "--fractions",
        "0.1,0.3",
        "--seed",
        "5",
        "--csv",
    ];

    // Fleet sweeps journal too: one directory per spec hash.
    let journal =
        std::env::temp_dir().join(format!("hetrta-dist-cli-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);
    let mut serve = Command::new(env!("CARGO_BIN_EXE_hetrta"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--threads",
            "1",
        ])
        .arg("--journal-dir")
        .arg(&journal)
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // The daemon announces its resolved address on stderr before the
    // accept loop starts.
    let mut announce = String::new();
    BufReader::new(serve.stderr.take().expect("daemon stderr"))
        .read_line(&mut announce)
        .expect("daemon announcement");
    let addr = announce
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {announce:?}"))
        .to_string();

    let mut local_args = vec!["engine", "sweep", "--threads", "2"];
    local_args.extend_from_slice(&shape);
    let mut remote_args = vec!["submit", "--addr", &addr];
    remote_args.extend_from_slice(&shape);
    let local = hetrta(&local_args);
    let remote = hetrta(&remote_args);
    assert_eq!(cells(&local), cells(&remote), "fleet daemon != local");
    assert!(remote.contains("remote: 8 jobs"), "{remote}");

    hetrta(&["submit", "--addr", &addr, "--shutdown"]);
    let status = serve.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited {status:?}");

    // Every job of the sweep left a `done` record (lines are
    // `<checksum> <payload>`) in the spec's journal directory.
    let done: usize = std::fs::read_dir(&journal)
        .expect("journal root")
        .flatten()
        .flat_map(|spec_dir| std::fs::read_dir(spec_dir.path()).expect("spec journal"))
        .flatten()
        .filter_map(|file| std::fs::read_to_string(file.path()).ok())
        .map(|text| text.lines().filter(|l| l.contains(" done ")).count())
        .sum();
    assert_eq!(done, 8, "fleet sweep journaled every job");
    let _ = std::fs::remove_dir_all(&journal);
}
