//! `perfbench`: the hetrta benchmark. Runs one named workload through the
//! program's public crates and its `hetrta` binary, checks the outputs,
//! and prints a table followed by one JSON line.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//!           --hetrta PATH --workdir DIR
//! ```
//!
//! `--trace 0` times the workload and reports its end-to-end metrics;
//! `--trace 1` runs the per-layer probes instead. Normally started by
//! `run.py`, which builds both binaries first.

mod layers;
mod procs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use workloads::{Phase, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    hetrta: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        hetrta: PathBuf::new(),
        workdir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or_else(|| bad("workload"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("duration"))?,
            "--trace" => args.trace = value == "1",
            "--hetrta" => args.hetrta = value.into(),
            "--workdir" => args.workdir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if !args.hetrta.is_file() {
        return Err(format!(
            "--hetrta `{}` is not a file",
            args.hetrta.display()
        ));
    }
    Ok(args)
}

fn run_one(w: Workload, args: &Args) {
    let dir = args
        .workdir
        .join(format!("{}-{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        std::process::exit(2);
    }
    procs::sync_filesystems();
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let title = format!(
        "workload {} seed {} ({}; {cpus} CPUs available)",
        w.name(),
        args.seed,
        if args.trace {
            "traced, per-layer"
        } else {
            "untraced, end to end"
        }
    );
    if args.trace {
        let layers = layers::run_traced(w, args.seed, args.seconds, &args.hetrta, &dir);
        for line in &layers.ledger {
            println!("{line}");
        }
        report::print(&title, &layers.metrics, &[], &layers.checks);
    } else {
        let (tail, min_sweeps) = w.tail();
        let phase = Phase {
            budget: Duration::from_secs(args.seconds),
            min_sweeps,
        };
        let run = match w {
            Workload::Fig8Cold | Workload::N100kSampled => {
                workloads::run_local(w, args.seed, phase)
            }
            Workload::ServeMixed => workloads::run_serve(w, args.seed, phase, &args.hetrta, &dir),
            Workload::FleetPaper => workloads::run_fleet(
                w,
                args.seed,
                phase,
                &args.hetrta,
                &dir,
                &hetrta_engine::obs::NOOP,
            ),
        };
        let (metrics, failed) = report::end_to_end(w, &run);
        println!("sweep_tail_ms is p{:.0} of the timed sweeps", tail * 100.0);
        report::print(&title, &metrics, &[failed], &run);
    }
    let _ = std::fs::remove_dir_all(&dir);
    procs::sync_filesystems();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A printed result speaks for itself through its `correct` field.
    for &w in &args.workloads {
        run_one(w, &args);
    }
    ExitCode::SUCCESS
}
