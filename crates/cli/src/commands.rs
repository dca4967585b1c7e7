//! Command implementations (pure: strings in, strings out, testable).
//!
//! Every subcommand is declared once in [`COMMANDS`] — name, positional
//! synopsis, help line, flags, handler — and dispatch, usage text,
//! per-command `--help` screens, and unknown-flag errors are generated
//! from that table by [`crate::spec`]. The `engine sweep` command resolves
//! `--analyses` against the [`AnalysisRegistry`] of `hetrta-api`, so every
//! registry key (including custom registrations) is a valid selection.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hetrta_bench::table::Table;
use hetrta_core::federated::{minimum_cores, AnalysisKind};
use hetrta_core::{transform, HeterogeneousAnalysis};
use hetrta_dag::dot::{to_dot, DotOptions};
use hetrta_dag::io::{parse_task, render_task, TaskKind};
use hetrta_dag::{HeteroDagTask, NodeId, Ticks};
use hetrta_engine::{
    AggregateUpdate, AggregateView, AnalysisSelection, CellSummary, EngineBuilder, GeneratorPreset,
    JournalConfig, SessionConfig, StatDef, StatKind, SweepAggregate, SweepDriver, SweepEvent,
    SweepSpec, TraceRecorder,
};
use hetrta_exact::{lp, solve, SolverConfig};
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::{generate_nfj, NfjParams};
use hetrta_sched::model::{AnalysisModel, DeviceModel};
use hetrta_sched::taskset::sort_deadline_monotonic;
use hetrta_sched::{gedf_test, gfp_test, SetVerdict};
use hetrta_sim::policy::{BreadthFirst, CriticalPathFirst, DepthFirst, Policy, RandomTieBreak};
use hetrta_sim::{simulate, trace, Platform};
use hetrta_suspend::BaselineComparison;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{parse_list, CommandSpec, FlagSpec, ParsedArgs};

const M_FLAG: FlagSpec = FlagSpec {
    name: "-m",
    value: Some("CORES[,CORES...]"),
    help: "host core counts (default 2,4,8,16; single-platform commands use the first)",
    ..FlagSpec::DEFAULT
};

const ADDR_FLAG: FlagSpec = FlagSpec {
    name: "--addr",
    value: Some("HOST:PORT"),
    help: "daemon address (default 127.0.0.1:7917)",
    ..FlagSpec::DEFAULT
};

const CSV_FLAG: FlagSpec = FlagSpec {
    name: "--csv",
    value: None,
    help: "machine-readable CSV instead of the table",
    ..FlagSpec::DEFAULT
};

/// The sweep-shape flags (grid, preset, analyses, per-analysis knobs)
/// shared by `engine sweep`, `submit`, and `loadgen`: one source of
/// truth, parsed by [`build_sweep_spec`], so a sweep described at the
/// shell runs identically on a local engine or against a daemon.
/// `pre`/`post` splice each verb's own flags around the shared block.
macro_rules! sweep_shape_flags {
    (pre: [$($pre:expr),* $(,)?], post: [$($post:expr),* $(,)?]) => {
        &[
            $($pre,)*
            FlagSpec {
                name: "--cores",
                value: Some("A,B,..."),
                help: "host core counts to sweep (default 2,8)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--per-point",
                value: Some("N"),
                help: "jobs per sweep point (default 20)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--seed",
                value: Some("S[,S...]"),
                help: "replication base seeds",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--fractions",
                value: Some("F,..."),
                help: "offload-fraction grid (the default sweep shape)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--utils",
                value: Some("U,..."),
                help: "normalized-utilization grid (task-set acceptance tests)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--cond-shares",
                value: Some("P,..."),
                help: "conditional-share grid (conditional-DAG bounds)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--n-tasks",
                value: Some("N"),
                help: "tasks per generated set (utilization sweeps, default 4)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--analyses",
                value: Some("KEY[,KEY...]"),
                help: "registry keys to run per job",
                dynamic_help: Some(analyses_help),
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--preset",
                value: Some("small|large|paper|fig8"),
                help: "DAG generator preset for fraction sweeps \
                       (fig8 = the benchmark harness's quick Figure 8 sweep)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--n-max",
                value: Some("N"),
                help: "large-graph tier: sweep NFJ DAGs of up to N nodes \
                       (accepted from N/4 up; builder-first generation keeps this O(V+E))",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--sim-transformed",
                value: None,
                help: "sim also measures the transformed task (Figure 6 comparison)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--exact-budget",
                value: Some("N"),
                help: "node budget for the exact solver",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--explore-seeds",
                value: Some("N"),
                help: "worst-case exploration seeds for suspend (default 0 = off)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--realization-cap",
                value: Some("N"),
                help: "enumeration cap for cond (default 4096)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--sample-budget",
                value: Some("K"),
                help: "simulation samples per job for sampled (default 64)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--sample-seed",
                value: Some("S"),
                help: "base seed for sampled draws (default 0)",
                ..FlagSpec::DEFAULT
            },
            $($post,)*
        ]
    };
}

/// The declarative command table: dispatch, `--help`, usage, and flag
/// validation are all generated from these rows.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "analyze",
        args: "<task.hdag>",
        help: "R_hom/R_het bounds, scenario and schedulability per core count",
        flags: &[M_FLAG],
        handler: analyze,
    },
    CommandSpec {
        name: "transform",
        args: "<task.hdag>",
        help: "Algorithm 1 transformation (task file or Graphviz output)",
        flags: &[FlagSpec {
            name: "--dot",
            value: None,
            help: "emit Graphviz instead of the task format",
            ..FlagSpec::DEFAULT
        }],
        handler: transform_cmd,
    },
    CommandSpec {
        name: "simulate",
        args: "<task.hdag>",
        help: "work-conserving execution simulation",
        flags: &[
            M_FLAG,
            FlagSpec {
                name: "--policy",
                value: Some("bfs|dfs|cp|random:SEED"),
                help: "ready-queue policy (default bfs)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--gantt",
                value: None,
                help: "print an ASCII Gantt chart of the schedule",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: simulate_cmd,
    },
    CommandSpec {
        name: "solve",
        args: "<task.hdag>",
        help: "exact minimum makespan (branch-and-bound, or the ILP in LP format)",
        flags: &[
            M_FLAG,
            FlagSpec {
                name: "--lp",
                value: None,
                help: "emit the CPLEX-style LP formulation instead of solving",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: solve_cmd,
    },
    CommandSpec {
        name: "sched",
        args: "<task.hdag>...",
        help: "multi-task global schedulability (GFP or GEDF)",
        flags: &[
            M_FLAG,
            FlagSpec {
                name: "--edf",
                value: None,
                help: "global EDF instead of fixed priorities",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--shared-device",
                value: None,
                help: "one shared FIFO accelerator instead of one per task",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: sched_cmd,
    },
    CommandSpec {
        name: "baselines",
        args: "<task.hdag>",
        help: "self-suspending baselines vs Theorem 1 (incl. the unsound naive discount)",
        flags: &[M_FLAG],
        handler: baselines_cmd,
    },
    CommandSpec {
        name: "cond",
        args: "<expr.hcond>",
        help: "conditional-DAG bounds (flatten-all, cond-aware, exact, offloaded)",
        flags: &[
            M_FLAG,
            FlagSpec {
                name: "--offload",
                value: Some("LABEL"),
                help: "also bound the expression with LABEL offloaded",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: cond_cmd,
    },
    CommandSpec {
        name: "generate",
        args: "",
        help: "generate a random heterogeneous task file",
        flags: &[
            FlagSpec {
                name: "--small",
                value: None,
                help: "small-tasks preset (default)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--large",
                value: None,
                help: "large-tasks preset",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--seed",
                value: Some("N"),
                help: "RNG seed (default 0)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--fraction",
                value: Some("F"),
                help: "target C_off/vol instead of a generated WCET",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: generate_cmd,
    },
    CommandSpec {
        name: "engine sweep",
        args: "",
        help: "batch sweep on the parallel engine (registry-driven analyses)",
        flags: sweep_shape_flags!(
            pre: [
                FlagSpec {
                    name: "--threads",
                    value: Some("N"),
                    help: "worker threads (default: all cores)",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--workers",
                    value: Some("N"),
                    help: "fan the sweep across N worker processes (each with --threads \
                           threads, all sharing --cache-dir); bitwise the single-process \
                           aggregate",
                    // Fleet workers record no metrics yet.
                    conflicts: &["--shard", "--metrics"],
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--shard",
                    value: Some("I/K"),
                    help: "run only the I-th of K deterministic shards in this process \
                           (zero-based; merge all K partial aggregates to reassemble the \
                           full sweep)",
                    conflicts: &["--workers"],
                    ..FlagSpec::DEFAULT
                },
            ],
            post: [
                CSV_FLAG,
                FlagSpec {
                    name: "--cache-dir",
                    value: Some("DIR"),
                    help: "disk-persistent result cache: later sweeps (any process) replay from DIR",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--progress",
                    value: None,
                    help: "stream live progress (completed jobs, cache hits) to stderr while sweeping",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--journal",
                    value: Some("DIR"),
                    help: "write a durable sweep journal to DIR: every finished job is \
                           recorded (checksummed, atomically) before it aggregates, so a \
                           killed sweep can be resumed",
                    conflicts: &["--shard"],
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--resume",
                    value: None,
                    help: "replay finished jobs from the --journal DIR of an interrupted \
                           run and execute only the remainder (the final aggregate is \
                           bitwise the uninterrupted one)",
                    conflicts: &["--shard"],
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--chaos",
                    value: Some("SEED"),
                    help: "arm the deterministic fault-injection plane with SEED (decimal \
                           or 0x hex): seeded disk/wire/process faults, same seed same \
                           fault sequence; the fault report appends to the output",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--trace",
                    value: Some("FILE"),
                    help: "record structured spans and write a Chrome trace-event JSON \
                           (load in Perfetto or chrome://tracing)",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--metrics",
                    value: None,
                    help: "append the engine metrics table (cache counters, pool totals, \
                           per-analysis latency quantiles) to the output",
                    ..FlagSpec::DEFAULT
                },
            ]
        ),
        handler: engine_sweep_cmd,
    },
    CommandSpec {
        name: "serve",
        args: "",
        help: "multi-tenant analysis daemon: many clients, one shared engine",
        flags: &[
            FlagSpec {
                name: "--addr",
                value: Some("HOST:PORT"),
                help: "listen address (default 127.0.0.1:7917; port 0 picks a free one)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--threads",
                value: Some("N"),
                help: "worker threads of the shared engine pool (default: all cores)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--cache-dir",
                value: Some("DIR"),
                help: "disk-persistent result cache shared by every tenant",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--max-active",
                value: Some("N"),
                help: "sweeps running concurrently on the engine (default 2)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--max-pending",
                value: Some("N"),
                help: "bounded admission queue; past it clients get a typed Busy (default 64)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--retry-after-ms",
                value: Some("MS"),
                help: "backoff hint carried in Busy replies (default 200)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--partial-every",
                value: Some("N"),
                help: "stream a partial aggregate every N completed jobs (default 8)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--workers",
                value: Some("N"),
                help: "fan each granted sweep across N worker processes (the \
                       hetrta-dist fleet) instead of the in-process engine",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--journal-dir",
                value: Some("DIR"),
                help: "journal every sweep under DIR (one subdirectory per spec hash); \
                       a restarted daemon resumes interrupted sweeps on resubmit instead \
                       of recomputing finished jobs",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--chaos",
                value: Some("SEED"),
                help: "arm the shared engine's deterministic fault-injection plane \
                       with SEED (fault counters land in the daemon metrics)",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: serve_cmd,
    },
    CommandSpec {
        name: "dist worker",
        args: "",
        help: "one fleet worker: connect to a coordinator and compute assigned shards",
        flags: &[
            FlagSpec {
                name: "--connect",
                value: Some("HOST:PORT"),
                help: "coordinator address (as printed by the spawning process)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--worker",
                value: Some("N"),
                help: "this worker's fleet slot index (default 0)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--threads",
                value: Some("N"),
                help: "engine threads of this worker (default: all cores)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--cache-dir",
                value: Some("DIR"),
                help: "disk cache namespace shared with the rest of the fleet",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--heartbeat-ms",
                value: Some("MS"),
                help: "liveness heartbeat period (default 200)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--chaos",
                value: Some("SEED"),
                help: "arm this worker's deterministic fault-injection plane with SEED \
                       (a coordinator running --chaos forwards a derived seed here)",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: dist_worker_cmd,
    },
    CommandSpec {
        name: "submit",
        args: "",
        help: "run a sweep on a daemon, streaming progress (same flags as engine sweep)",
        flags: sweep_shape_flags!(
            pre: [
                ADDR_FLAG,
                FlagSpec {
                    name: "--tenant",
                    value: Some("NAME"),
                    help: "tenant to account and fair-queue the sweep under (default cli)",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--stats",
                    value: None,
                    help: "print the daemon's metrics snapshot instead of submitting",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--shutdown",
                    value: None,
                    help: "ask the daemon to drain in-flight sweeps and exit instead of submitting",
                    ..FlagSpec::DEFAULT
                },
            ],
            post: [CSV_FLAG]
        ),
        handler: submit_cmd,
    },
    CommandSpec {
        name: "loadgen",
        args: "",
        help: "drive a daemon to saturation, measuring sweeps/sec and p50/p99 latency",
        flags: sweep_shape_flags!(
            pre: [
                ADDR_FLAG,
                FlagSpec {
                    name: "--clients",
                    value: Some("N[,N...]"),
                    help: "concurrent-client ladder (default 1,8,64,256)",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--sweeps",
                    value: Some("K"),
                    help: "sweeps each client completes per rung (default 4)",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--json",
                    value: Some("PATH"),
                    help: "also write the report as JSON to PATH (the BENCH_6.json format)",
                    ..FlagSpec::DEFAULT
                },
                FlagSpec {
                    name: "--workers",
                    value: Some("N[,N...]"),
                    help: "fleet-scaling ladder instead of a daemon: run the sweep \
                           distributed at each worker count (1 engine thread per \
                           worker), cold then warm, recording per-worker job balance",
                    conflicts: &["--addr", "--clients", "--sweeps"],
                    ..FlagSpec::DEFAULT
                },
            ],
            post: []
        ),
        handler: loadgen_cmd,
    },
    CommandSpec {
        name: "cache gc",
        args: "",
        help: "compact a disk cache directory, keeping the newest result entries that fit",
        flags: &[
            FlagSpec {
                name: "--cache-dir",
                value: Some("DIR"),
                help: "the cache directory (as passed to `engine sweep --cache-dir`)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--max-bytes",
                value: Some("N"),
                help: "bound on record bytes (identity memo entries are never dropped)",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: cache_gc_cmd,
    },
    CommandSpec {
        name: "bench",
        args: "",
        help: "measure kernel ns/op and end-to-end sweep wall times",
        flags: &[
            FlagSpec {
                name: "--quick",
                help: "scaled-down inputs and iteration budgets (CI smoke mode)",
                ..FlagSpec::DEFAULT
            },
            FlagSpec {
                name: "--json",
                value: Some("PATH"),
                help: "also write the report as JSON to PATH (the BENCH_*.json format)",
                ..FlagSpec::DEFAULT
            },
        ],
        handler: bench_cmd,
    },
    CommandSpec {
        name: "example",
        args: "",
        help: "print the paper's Figure 1 task in the .hdag format",
        flags: &[],
        handler: |_| Ok(example_file()),
    },
];

fn cache_gc_cmd(args: &ParsedArgs) -> Result<String, String> {
    let dir = args
        .value_of("--cache-dir")
        .ok_or("missing --cache-dir DIR")?;
    let raw = args
        .value_of("--max-bytes")
        .ok_or("missing --max-bytes N")?;
    let max_bytes: u64 = raw
        .parse()
        .map_err(|_| format!("invalid byte count `{raw}`"))?;
    let cache = hetrta_engine::DiskCache::open(dir)?;
    let stats = cache.gc(max_bytes)?;
    Ok(format!(
        "cache gc: {} → scanned {} bytes, deleted {} result entries ({} bytes), {} bytes remain (bound {})\n",
        dir,
        stats.scanned_bytes,
        stats.deleted_entries,
        stats.deleted_bytes,
        stats.remaining_bytes,
        max_bytes,
    ))
}

fn bench_cmd(args: &ParsedArgs) -> Result<String, String> {
    let config = if args.has("--quick") {
        hetrta_bench::perf::PerfConfig::quick()
    } else {
        hetrta_bench::perf::PerfConfig::full()
    };
    let mut report = hetrta_bench::perf::run(&config);
    report.sweeps.extend(fleet_bench_rows()?);
    if let Some(path) = args.value_of("--json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(report.render())
}

/// The fleet rows of `hetrta bench`: the Figure 8 quick sweep across two
/// spawned `hetrta dist worker` processes of one thread each, cold over a
/// fresh cache directory, then replayed from it by five fresh fleets
/// timed together (one warm fleet alone is only a few milliseconds).
/// They live here rather than in `hetrta-bench` because they spawn this
/// binary.
fn fleet_bench_rows() -> Result<Vec<hetrta_bench::perf::SweepResult>, String> {
    let spec = hetrta_bench::experiments::fig8::sweep_spec(
        &hetrta_bench::experiments::fig8::Config::quick(),
    );
    let dir = std::env::temp_dir().join(format!("hetrta-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = hetrta_dist::DistConfig::local(2, self_launcher()?);
    config.worker_threads = 1;
    config.cache_dir = Some(dir.clone());
    let timed = |name: &'static str, fleets: usize| {
        let started = std::time::Instant::now();
        let mut jobs = 0;
        for _ in 0..fleets {
            jobs += hetrta_dist::run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |_| {})
                .map_err(|e| format!("fleet bench sweep: {e}"))?
                .completed;
        }
        Ok::<_, String>(hetrta_bench::perf::SweepResult {
            name,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            jobs,
        })
    };
    let rows = timed("sweep/fleet_fig8_quick_cold", 1)
        .and_then(|cold| Ok(vec![cold, timed("sweep/fleet_fig8_quick_warm5", 5)?]));
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Usage text shown on errors (generated from the command table).
#[must_use]
pub fn usage() -> String {
    crate::spec::usage(COMMANDS)
}

/// Dispatches a command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for any failure: unknown command,
/// malformed flags, unreadable file, parse error, analysis error.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(first) = args.first().map(String::as_str) else {
        return Err("missing command".into());
    };
    if matches!(first, "help" | "--help" | "-h") {
        let topic = args[1..].join(" ");
        if topic.is_empty() {
            return Ok(crate::spec::global_help(COMMANDS));
        }
        if let Some(command) = COMMANDS.iter().find(|c| c.name == topic) {
            return Ok(command.help_screen());
        }
        // A family name (`help engine`) with a single member resolves to
        // that member, matching the `engine --help` dispatch below.
        let family: Vec<&CommandSpec> = COMMANDS
            .iter()
            .filter(|c| {
                c.name
                    .strip_prefix(topic.as_str())
                    .is_some_and(|rest| rest.starts_with(' '))
            })
            .collect();
        if let [only] = family[..] {
            return Ok(only.help_screen());
        }
        return Err(format!("unknown command `{topic}`"));
    }

    // Two-word command families (`engine sweep`).
    let family: Vec<&CommandSpec> = COMMANDS
        .iter()
        .filter(|c| {
            c.name
                .strip_prefix(first)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .collect();
    let (command, rest) = if family.is_empty() {
        let command = COMMANDS
            .iter()
            .find(|c| c.name == first)
            .ok_or_else(|| format!("unknown command `{first}`"))?;
        (command, &args[1..])
    } else {
        let subcommands: Vec<&str> = family
            .iter()
            .map(|c| c.name.split_whitespace().nth(1).unwrap_or_default())
            .collect();
        match args.get(1).map(String::as_str) {
            None => {
                return Err(format!(
                    "missing {first} subcommand (try `{first} {}`)",
                    subcommands.join("`, `")
                ))
            }
            Some("--help" | "-h") if family.len() == 1 => {
                return Ok(family[0].help_screen());
            }
            Some(sub) => {
                let command = family
                    .iter()
                    .find(|c| c.name.split_whitespace().nth(1) == Some(sub))
                    .ok_or_else(|| format!("unknown {first} subcommand `{sub}`"))?;
                (*command, &args[2..])
            }
        }
    };

    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(command.help_screen());
    }
    let parsed = ParsedArgs::parse(command, rest)?;
    (command.handler)(&parsed)
}

fn load_task(args: &ParsedArgs) -> Result<(HeteroDagTask, Option<NodeId>), String> {
    let path = args.first_positional("task file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = parse_task(&text).map_err(|e| format!("{path}: {e}"))?;
    match parsed.task {
        TaskKind::Heterogeneous(t) => {
            let off = t.offloaded();
            Ok((t, Some(off)))
        }
        TaskKind::Homogeneous(t) => {
            // Wrap as heterogeneous with a phantom offload for the shared
            // plumbing; commands that need v_off check `off` is Some.
            let period = t.period();
            let deadline = t.deadline();
            let dag = t.into_dag();
            let any = dag.node_ids().next().ok_or("empty graph")?;
            let task = HeteroDagTask::new(dag, any, period, deadline).map_err(|e| e.to_string())?;
            Ok((task, None))
        }
    }
}

fn core_list(args: &ParsedArgs) -> Result<Vec<u64>, String> {
    match args.value_of("-m") {
        None => Ok(vec![2, 4, 8, 16]),
        Some(spec) => parse_list(spec, "core count"),
    }
}

fn analyze(args: &ParsedArgs) -> Result<String, String> {
    let (task, off) = load_task(args)?;
    if off.is_none() {
        return Err("task file has no `offload` line; nothing heterogeneous to analyze".into());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "task: n = {}, vol = {}, len = {}, C_off = {} ({:.1}% of vol), T = {}, D = {}",
        task.dag().node_count(),
        task.volume(),
        task.critical_path_length(),
        task.c_off(),
        task.offload_fraction().to_f64() * 100.0,
        task.period(),
        task.deadline(),
    );
    let _ = writeln!(
        out,
        "\n  m  R_hom(tau)  R_het(tau')  scenario  schedulable(het)  min cores (het)"
    );
    for m in core_list(args)? {
        let report = HeterogeneousAnalysis::run(&task, m).map_err(|e| e.to_string())?;
        let min = minimum_cores(&task, AnalysisKind::Heterogeneous, 128)
            .map_err(|e| e.to_string())?
            .map_or("-".to_owned(), |(c, _)| c.to_string());
        let _ = writeln!(
            out,
            "{m:>3}  {:>10.2}  {:>11.2}  {:>8}  {:>16}  {:>15}",
            report.r_hom_original().to_f64(),
            report.r_het().to_f64(),
            report.scenario().paper_label(),
            report.is_schedulable(),
            min,
        );
    }
    Ok(out)
}

fn transform_cmd(args: &ParsedArgs) -> Result<String, String> {
    let (task, off) = load_task(args)?;
    if off.is_none() {
        return Err("task file has no `offload` line; nothing to transform".into());
    }
    let t = transform(&task).map_err(|e| e.to_string())?;
    if args.has("--dot") {
        let mut opts = DotOptions::named("transformed");
        opts.offloaded = Some(task.offloaded());
        opts.sync = Some(t.sync_node());
        opts.highlight = Some(t.par_nodes().clone());
        Ok(to_dot(t.transformed(), &opts))
    } else {
        let out_task = t.as_task();
        let mut out = render_task(&out_task);
        let _ = writeln!(
            out,
            "# len(G') = {}, vol(G_par) = {}, len(G_par) = {}",
            t.len_transformed(),
            t.vol_g_par(),
            t.len_g_par()
        );
        Ok(out)
    }
}

fn make_policy(args: &ParsedArgs) -> Result<Box<dyn Policy>, String> {
    match args.value_of("--policy") {
        None | Some("bfs") => Ok(Box::new(BreadthFirst::new())),
        Some("dfs") => Ok(Box::new(DepthFirst::new())),
        Some("cp") => Ok(Box::new(CriticalPathFirst::new())),
        Some(spec) if spec.starts_with("random:") => {
            let seed = spec["random:".len()..]
                .parse::<u64>()
                .map_err(|_| format!("invalid random seed in `{spec}`"))?;
            Ok(Box::new(RandomTieBreak::new(seed)))
        }
        Some(other) => Err(format!("unknown policy `{other}`")),
    }
}

fn single_core_count(args: &ParsedArgs) -> Result<u64, String> {
    let list = core_list(args)?;
    Ok(*list.first().unwrap_or(&2))
}

fn simulate_cmd(args: &ParsedArgs) -> Result<String, String> {
    let (task, off) = load_task(args)?;
    let m = single_core_count(args)? as usize;
    let mut policy = make_policy(args)?;
    let platform = if off.is_some() {
        Platform::with_accelerator(m)
    } else {
        Platform::host_only(m)
    };
    let result = simulate(task.dag(), off, platform, policy.as_mut()).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy {} on {} cores{}: makespan = {}",
        result.policy(),
        m,
        if off.is_some() {
            " + 1 accelerator"
        } else {
            ""
        },
        result.makespan()
    );
    if args.has("--gantt") {
        let scale = (result.makespan().get() / 72).max(1);
        out.push_str(&trace::gantt(task.dag(), &result, scale));
    }
    Ok(out)
}

fn solve_cmd(args: &ParsedArgs) -> Result<String, String> {
    let (task, off) = load_task(args)?;
    let m = single_core_count(args)?;
    if args.has("--lp") {
        return lp::to_lp_format(task.dag(), off, m).map_err(|e| e.to_string());
    }
    let sol = solve(task.dag(), off, m, &SolverConfig::default()).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "minimum makespan on {m} cores{}: {} ({:?}, lower bound {}, {} nodes explored)",
        if off.is_some() {
            " + 1 accelerator"
        } else {
            ""
        },
        sol.makespan(),
        sol.optimality(),
        sol.lower_bound(),
        sol.explored_nodes()
    );
    Ok(out)
}

/// Loads every positional argument as a heterogeneous task file.
fn load_task_files(args: &ParsedArgs) -> Result<Vec<HeteroDagTask>, String> {
    let mut tasks = Vec::new();
    for (i, path) in args.positionals().iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let parsed = parse_task(&text).map_err(|e| format!("{path}: {e}"))?;
        match parsed.task {
            TaskKind::Heterogeneous(t) => tasks.push(t),
            TaskKind::Homogeneous(_) => {
                return Err(format!("{path} (argument {i}): task has no `offload` line"));
            }
        }
    }
    if tasks.is_empty() {
        return Err("no task files given".into());
    }
    Ok(tasks)
}

fn render_verdict(out: &mut String, label: &str, v: &SetVerdict, tasks: &[HeteroDagTask]) {
    let _ = writeln!(
        out,
        "\n{label}: {}",
        if v.is_schedulable() {
            "SCHEDULABLE"
        } else {
            "not schedulable"
        }
    );
    for tv in &v.per_task {
        let bound = tv
            .response_bound
            .as_ref()
            .map_or("exceeds deadline".to_owned(), |r| {
                format!("{:.2}", r.to_f64())
            });
        let _ = writeln!(
            out,
            "  task {} (T = {}, D = {}): R = {}",
            tv.task,
            tasks[tv.task].period(),
            tv.deadline,
            bound
        );
    }
}

fn sched_cmd(args: &ParsedArgs) -> Result<String, String> {
    let mut tasks = load_task_files(args)?;
    sort_deadline_monotonic(&mut tasks);
    let m = single_core_count(args)?;
    let device = if args.has("--shared-device") {
        DeviceModel::SharedFifo
    } else {
        DeviceModel::DedicatedPerTask
    };
    let het = AnalysisModel::Heterogeneous(device);
    let mut out = format!(
        "{} tasks (deadline-monotonic order), m = {m} host cores, device: {}\n",
        tasks.len(),
        match device {
            DeviceModel::DedicatedPerTask => "dedicated per task",
            DeviceModel::SharedFifo => "one shared FIFO device",
        }
    );
    if args.has("--edf") {
        let hom = gedf_test(&tasks, m, AnalysisModel::Homogeneous).map_err(|e| e.to_string())?;
        let hv = gedf_test(&tasks, m, het).map_err(|e| e.to_string())?;
        render_verdict(&mut out, "global EDF, homogeneous model", &hom, &tasks);
        render_verdict(&mut out, "global EDF, heterogeneous model", &hv, &tasks);
    } else {
        let hom = gfp_test(&tasks, m, AnalysisModel::Homogeneous).map_err(|e| e.to_string())?;
        let hv = gfp_test(&tasks, m, het).map_err(|e| e.to_string())?;
        render_verdict(&mut out, "global FP (DM), homogeneous model", &hom, &tasks);
        render_verdict(&mut out, "global FP (DM), heterogeneous model", &hv, &tasks);
    }
    Ok(out)
}

fn baselines_cmd(args: &ParsedArgs) -> Result<String, String> {
    let (task, off) = load_task(args)?;
    if off.is_none() {
        return Err("task file has no `offload` line; baselines need one".into());
    }
    let mut out = String::from(
        "  m   oblivious    barrier     R_het~   naive(!)   <- naive is UNSOUND (paper Fig. 1(c))\n",
    );
    for m in core_list(args)? {
        let c = BaselineComparison::compute(&task, m).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "{m:>3}  {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            c.oblivious.to_f64(),
            c.phase_barrier.to_f64(),
            c.r_het_tight.to_f64(),
            c.naive_unsound.to_f64(),
        );
    }
    Ok(out)
}

fn cond_cmd(args: &ParsedArgs) -> Result<String, String> {
    let path = args.first_positional("expression file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let expr = hetrta_cond::parse_expr(&text).map_err(|e| format!("{path}:{e}"))?;
    let mut out = format!(
        "expression: {} leaves, {} realizations, W* = {}, len* = {}\n\n",
        expr.leaf_count(),
        expr.realization_count(),
        expr.worst_case_workload(),
        expr.worst_case_length()
    );
    let offload = args.value_of("--offload");
    let het_task = match offload {
        Some(label) => Some(
            hetrta_cond::HetCondTask::new(
                expr.clone(),
                label,
                Ticks::new(u64::MAX / 4),
                Ticks::new(u64::MAX / 4),
            )
            .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let _ = writeln!(
        out,
        "  m  flatten-all  cond-aware  per-realization{}",
        if het_task.is_some() {
            "  het (offloaded)"
        } else {
            ""
        }
    );
    for m in core_list(args)? {
        let flat = hetrta_cond::r_parallel_flattening(&expr, m).map_err(|e| e.to_string())?;
        let aware = hetrta_cond::r_cond(&expr, m).map_err(|e| e.to_string())?;
        let exact = match hetrta_cond::r_cond_exact(&expr, m, 4096) {
            Ok(v) => format!("{:.2}", v.to_f64()),
            Err(hetrta_cond::CondError::TooManyRealizations { .. }) => "-".to_owned(),
            Err(e) => return Err(e.to_string()),
        };
        let het = match &het_task {
            Some(t) => match t.r_het_cond(m, 4096) {
                Ok(v) => format!("  {:>14.2}", v.to_f64()),
                Err(hetrta_cond::CondError::TooManyRealizations { .. }) => "  -".to_owned(),
                Err(e) => return Err(e.to_string()),
            },
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{m:>3}  {:>11.2} {:>11.2}  {:>15}{het}",
            flat.to_f64(),
            aware.to_f64(),
            exact,
        );
    }
    Ok(out)
}

fn generate_cmd(args: &ParsedArgs) -> Result<String, String> {
    let params = if args.has("--large") {
        NfjParams::large_tasks()
    } else {
        NfjParams::small_tasks()
    };
    let seed = args.parsed_or("--seed", "seed", 0u64)?;
    let sizing = match args.value_of("--fraction") {
        None => CoffSizing::Generated,
        Some(f) => {
            let f = f
                .parse::<f64>()
                .map_err(|_| format!("invalid fraction `{f}`"))?;
            CoffSizing::VolumeFraction(f)
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = generate_nfj(&params, &mut rng).map_err(|e| e.to_string())?;
    if dag.node_count() < 3 {
        return Err("generated graph too small for an interior offload; try another --seed".into());
    }
    let task = make_hetero_task(dag, OffloadSelection::AnyInterior, sizing, &mut rng)
        .map_err(|e| e.to_string())?;
    Ok(render_task(&task))
}

/// The `--analyses` help line, generated from the [`AnalysisRegistry`] so
/// it never drifts from the keys actually registered.
fn analyses_help() -> String {
    format!(
        "registry keys to run per job ({})",
        hetrta_engine::AnalysisRegistry::builtin().keys().join(", ")
    )
}

/// `hetrta engine sweep …` — run a batch sweep on the parallel engine
/// and report per-cell results plus engine statistics (cache hit/miss,
/// per-worker job counts).
///
/// Any registry key is selectable on any grid; which key/grid pairs are
/// coherent is decided by the registry itself (each analysis declares the
/// input kind it consumes, the engine rejects mismatches up front), not by
/// CLI-side rules.
/// Builds a [`SweepSpec`] from the shared sweep-shape flags — the one
/// parser behind `engine sweep` (local engine), `submit` (daemon), and
/// `loadgen` (saturation driver).
fn build_sweep_spec(args: &ParsedArgs) -> Result<SweepSpec, String> {
    let cores = match args.value_of("--cores") {
        None => vec![2, 8],
        Some(spec) => parse_list(spec, "core count")?,
    };
    let per_point = args.parsed_or("--per-point", "per-point count", 20usize)?;
    let seeds = match args.value_of("--seed") {
        None => vec![0xDAC_2018],
        Some(spec) => parse_list(spec, "seed")?,
    };
    let preset = match (args.value_of("--preset"), args.value_of("--n-max")) {
        (Some(_), Some(_)) => {
            return Err("choose one of --preset and --n-max (the large-graph \
                        tier is its own preset)"
                .into())
        }
        (_, Some(raw)) => {
            let n_max: usize = raw
                .parse()
                .map_err(|_| format!("invalid node count `{raw}`"))?;
            if n_max < 4 {
                return Err(format!("--n-max {n_max} is too small (need ≥ 4 nodes)"));
            }
            GeneratorPreset::LargeGraphs(n_max)
        }
        (None | Some("small" | "fig8"), None) => GeneratorPreset::Small,
        (Some("large"), None) => GeneratorPreset::Large,
        (Some("paper"), None) => GeneratorPreset::LargePaper,
        (Some(other), None) => return Err(format!("unknown preset `{other}`")),
    };
    // `--preset fig8` is not a generator preset but the benchmark
    // harness's quick Figure 8 sweep, spec and all — the same workload
    // `hetrta bench --quick` measures, here with full observability.
    let fig8 = args.value_of("--preset") == Some("fig8");
    if fig8 {
        for flag in ["--fractions", "--utils", "--cond-shares", "--cores"] {
            if args.value_of(flag).is_some() {
                return Err(format!(
                    "{flag} conflicts with --preset fig8 (a fixed benchmark sweep)"
                ));
            }
        }
    }
    // Registry-validated selection; `None` keeps each grid's default
    // (het for fractions, acceptance for utils, cond for cond-shares).
    // Grid/key *compatibility* is the engine's registry-driven check.
    let analyses = args
        .value_of("--analyses")
        .map(AnalysisSelection::parse)
        .transpose()?;

    let grids = [
        args.value_of("--fractions").is_some(),
        args.value_of("--utils").is_some(),
        args.value_of("--cond-shares").is_some(),
    ];
    if grids.iter().filter(|&&g| g).count() > 1 {
        return Err(
            "choose one grid of --fractions, --utils and --cond-shares, not both at once".into(),
        );
    }
    // Flags that only make sense on a fraction grid are rejected (not
    // silently dropped) on the other grids.
    let fraction_only_given = |args: &ParsedArgs| {
        ["--sim-transformed"]
            .iter()
            .copied()
            .filter(|f| args.has(f))
            .chain(
                [
                    "--explore-seeds",
                    "--exact-budget",
                    "--sample-budget",
                    "--sample-seed",
                ]
                .iter()
                .copied()
                .filter(|f| args.value_of(f).is_some()),
            )
            .next()
    };
    if args.value_of("--utils").is_some() {
        if args.value_of("--preset").is_some() || args.value_of("--n-max").is_some() {
            return Err("--preset/--n-max apply to fraction sweeps; utilization \
                        sweeps use the small task-set template"
                .into());
        }
        if let Some(flag) = fraction_only_given(args) {
            return Err(format!("{flag} applies to fraction sweeps"));
        }
        if args.value_of("--realization-cap").is_some() {
            return Err("--realization-cap applies to fraction and conditional sweeps".into());
        }
    } else if args.value_of("--cond-shares").is_some() {
        if args.value_of("--preset").is_some() || args.value_of("--n-max").is_some() {
            return Err("--preset/--n-max apply to fraction sweeps; conditional \
                        sweeps use the small expression template"
                .into());
        }
        if let Some(flag) = fraction_only_given(args) {
            return Err(format!("{flag} applies to fraction sweeps"));
        }
    } else if args.value_of("--n-tasks").is_some() {
        return Err("--n-tasks applies to utilization sweeps (--utils)".into());
    }

    let mut spec = if fig8 {
        hetrta_bench::experiments::fig8::sweep_spec(
            &hetrta_bench::experiments::fig8::Config::quick(),
        )
    } else if let Some(utils) = args.value_of("--utils") {
        let n_tasks = args.parsed_or("--n-tasks", "task count", 4usize)?;
        SweepSpec::acceptance(
            hetrta_sched::taskset::TaskSetParams::small(n_tasks, 1.0)
                .with_offload_fraction(0.2, 0.45),
            cores,
            parse_list(utils, "utilization")?,
            n_tasks,
            per_point,
            seeds[0],
        )
        .with_seeds(seeds)
    } else if let Some(shares) = args.value_of("--cond-shares") {
        let cap = args.parsed_or("--realization-cap", "realization cap", 4096usize)?;
        SweepSpec::conditional(
            hetrta_cond::CondGenParams::small(),
            cores,
            parse_list(shares, "conditional share")?,
            per_point,
            cap,
        )
        .with_seeds(seeds)
    } else {
        let fractions = match args.value_of("--fractions") {
            None => vec![0.05, 0.10, 0.20, 0.30, 0.50],
            Some(spec) => parse_list(spec, "fraction")?,
        };
        let mut spec =
            SweepSpec::fractions(preset, cores, fractions, per_point, seeds[0]).with_seeds(seeds);
        spec.sim_transformed = args.has("--sim-transformed");
        spec.explore_seeds = args.parsed_or("--explore-seeds", "exploration seed count", 0u64)?;
        spec.realization_cap = args.parsed_or("--realization-cap", "realization cap", 4096usize)?;
        spec.sample_budget = args.parsed_or("--sample-budget", "sample budget", 64usize)?;
        spec.sample_seed = args.parsed_or("--sample-seed", "sample seed", 0u64)?;
        if let Some(budget) = args.value_of("--exact-budget") {
            spec.exact_node_budget = Some(
                budget
                    .parse::<u64>()
                    .map_err(|_| format!("invalid exact budget `{budget}`"))?,
            );
        }
        spec
    };
    if let Some(selection) = analyses {
        spec = spec.with_analyses(selection);
    }
    Ok(spec)
}

fn engine_sweep_cmd(args: &ParsedArgs) -> Result<String, String> {
    let threads = args.parsed_or("--threads", "thread count", 0usize)?;
    let workers = args.parsed_or("--workers", "worker count", 0usize)?;
    let spec = build_sweep_spec(args)?;
    if args.has("--resume") && args.value_of("--journal").is_none() {
        return Err("--resume needs --journal DIR (the journal of the interrupted run)".into());
    }
    let journal_dir = args.value_of("--journal");
    let journal = journal_dir.map(|dir| {
        let cfg = JournalConfig::new(dir);
        if args.has("--resume") {
            cfg.resuming()
        } else {
            cfg
        }
    });
    let chaos = parse_chaos_seed(args)?.map(|seed| Arc::new(hetrta_engine::FaultPlan::new(seed)));
    // A recorder is attached only when something consumes it: a --trace
    // output file, or structured stderr logging via HETRTA_LOG. Without
    // either, the sweep keeps the zero-cost no-op recorder.
    let trace_path = args.value_of("--trace");
    let stderr_log = std::env::var("HETRTA_LOG").is_ok_and(|v| !v.is_empty() && v != "0");
    let recorder = (trace_path.is_some() || stderr_log)
        .then(|| Arc::new(TraceRecorder::new().with_stderr_log(stderr_log)));
    // ~50 progress snapshots over the sweep, at least one per job for
    // tiny runs.
    let partial_every = args
        .has("--progress")
        .then(|| (spec.job_count() / 50).max(1));
    let mut progress = ProgressLine::new(partial_every.is_some());

    // `--workers` fans the jobs across a fleet; every other sweep runs on
    // one local engine.
    let engine = if workers > 0 {
        None
    } else {
        let mut builder = EngineBuilder::new().threads(threads);
        if let Some(plan) = &chaos {
            builder = builder.with_fault_plan(Arc::clone(plan));
        }
        if let Some(dir) = args.value_of("--cache-dir") {
            builder = builder.with_cache_dir(dir);
        }
        if let Some(recorder) = &recorder {
            builder = builder.with_recorder(Arc::clone(recorder) as _);
        }
        Some(builder.build().map_err(|e| e.to_string())?)
    };

    let (aggregate, summary) = match (&engine, args.value_of("--shard")) {
        (None, _) => {
            let mut config = hetrta_dist::DistConfig::local(workers, self_launcher()?);
            config.worker_threads = threads;
            config.cache_dir = args.value_of("--cache-dir").map(Into::into);
            config.journal = journal;
            config.partial_every = partial_every;
            config.fault = chaos.clone();
            // The recorder traces the *coordinator*: the sweep span,
            // per-worker lanes, and the byte/re-dispatch counters (workers
            // keep their own no-op recorders).
            let recorder: &dyn hetrta_obs::Recorder = match &recorder {
                Some(recorder) => recorder.as_ref(),
                None => &hetrta_obs::NOOP,
            };
            let out = hetrta_dist::run_distributed(&spec, &config, recorder, None, |event| {
                if let hetrta_dist::DistProgress::Partial {
                    completed,
                    total,
                    update,
                } = event
                {
                    progress.show(completed, total, &update);
                }
            })
            .map_err(|e| e.to_string())?;
            progress.done(out.completed, out.total);
            let balance: Vec<String> = out.worker_jobs.iter().map(u64::to_string).collect();
            let mut summary = format!(
                "dist: {} jobs across {workers} workers [{}], {} cached, {} redispatched, \
                 {} worker deaths, {} respawns, {} B tx / {} B rx\n",
                out.completed,
                balance.join("/"),
                out.cached_jobs,
                out.redispatched_jobs,
                out.worker_deaths,
                out.respawns,
                out.bytes_tx,
                out.bytes_rx,
            );
            if let Some(dir) = journal_dir {
                let executed: u64 = out.worker_jobs.iter().sum();
                let replayed = (out.completed as u64).saturating_sub(executed);
                let _ = writeln!(
                    summary,
                    "journal: {replayed} of {} jobs replayed from {dir}, {executed} executed",
                    out.completed,
                );
            }
            (out.aggregate, summary)
        }
        (Some(engine), Some(raw)) => {
            // One deterministic shard in-process: merging every shard's
            // results reassembles the full sweep bitwise (pinned by
            // `crates/dist/tests/parity.rs`).
            let (shard, shards) = hetrta_dist::parse_shard(raw)?;
            let (driver, _) =
                SweepDriver::open(&spec, engine.registry(), None).map_err(|e| e.to_string())?;
            let mut driver = driver.with_partials(partial_every);
            let total = driver.total();
            let indices = hetrta_dist::shard_indices(total, shard, shards);
            let ran = engine
                .run_job_subset(&spec, &indices, |result| {
                    if let Some(update) = driver.accept(result) {
                        progress.show(driver.completed(), total, &update);
                    }
                })
                .map_err(|e| e.to_string())?;
            progress.done(ran, total);
            let summary = format!(
                "shard {shard}/{shards}: ran {ran} of {total} jobs \
                 (merge all {shards} shards for the full aggregate)\n"
            );
            (driver.partial(), summary)
        }
        (Some(engine), None) => {
            let config = SessionConfig {
                job_events: false,
                partial_every,
                journal,
                ..SessionConfig::quiet()
            };
            let handle = engine
                .submit_with(&spec, config)
                .map_err(|e| e.to_string())?;
            while let Some(event) = handle.next_event() {
                if let SweepEvent::PartialAggregate {
                    completed,
                    total,
                    update,
                } = event
                {
                    progress.show(completed, total, &update);
                }
            }
            let out = handle.wait().map_err(|e| e.to_string())?;
            progress.done(out.stats.jobs, out.stats.jobs);
            let mut summary = out.stats.render();
            if let Some(dir) = journal_dir {
                let executed: u64 = out.stats.per_worker_jobs.iter().sum();
                let failures = engine
                    .metrics()
                    .snapshot()
                    .counter("journal.write_failures")
                    .unwrap_or(0);
                let _ = writeln!(
                    summary,
                    "journal: {} of {} jobs replayed from {dir}, {executed} executed, \
                     {failures} journal write failures",
                    out.stats.replayed_jobs, out.stats.jobs,
                );
            }
            (out.aggregate, summary)
        }
    };

    let mut text = if args.has("--csv") {
        render_cells_csv(&aggregate)
    } else {
        render_cells_table(&aggregate)
    };
    text.push('\n');
    text.push_str(&summary);
    if let (Some(path), Some(recorder)) = (trace_path, &recorder) {
        recorder
            .write_chrome_trace(path)
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        let _ = writeln!(
            text,
            "trace: {} spans written to {path} (load in Perfetto or chrome://tracing)",
            recorder.spans().len()
        );
    }
    if let (true, Some(engine)) = (args.has("--metrics"), &engine) {
        text.push('\n');
        text.push_str(&engine.metrics().snapshot().render_table());
    }
    if let Some(plan) = &chaos {
        text.push('\n');
        text.push_str(&plan.report());
    }
    Ok(text)
}

/// The worker launcher for locally spawned fleets: this very binary,
/// re-entered as `hetrta dist worker`.
fn self_launcher() -> Result<hetrta_dist::WorkerLauncher, String> {
    Ok(hetrta_dist::WorkerLauncher {
        program: std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?,
        args: vec!["dist".into(), "worker".into()],
    })
}

/// `dist worker`: the fleet-worker process a coordinator spawns (or an
/// operator starts by hand against `Launch::Attach`).
fn dist_worker_cmd(args: &ParsedArgs) -> Result<String, String> {
    let addr = args
        .value_of("--connect")
        .ok_or("missing --connect HOST:PORT (the coordinator address)")?;
    let heartbeat_ms = args.parsed_or("--heartbeat-ms", "heartbeat period", 200u64)?;
    let config = hetrta_dist::WorkerConfig {
        addr: addr.to_string(),
        worker: args.parsed_or("--worker", "worker index", 0usize)?,
        threads: args.parsed_or("--threads", "thread count", 0usize)?,
        cache_dir: args.value_of("--cache-dir").map(Into::into),
        heartbeat_every: std::time::Duration::from_millis(heartbeat_ms.max(1)),
        chaos: parse_chaos_seed(args)?,
    };
    let jobs = hetrta_dist::run_worker(&config, &hetrta_obs::NOOP).map_err(|e| e.to_string())?;
    Ok(format!("dist worker: {jobs} jobs computed\n"))
}

/// Parses `--chaos SEED` (decimal or `0x` hex) when present.
fn parse_chaos_seed(args: &ParsedArgs) -> Result<Option<u64>, String> {
    let Some(raw) = args.value_of("--chaos") else {
        return Ok(None);
    };
    let seed = raw
        .strip_prefix("0x")
        .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16))
        .map_err(|_| format!("--chaos needs a seed (decimal or 0x hex), got `{raw}`"))?;
    Ok(Some(seed))
}

/// The one progress renderer of streaming sweeps (`engine sweep
/// --progress` in every mode, and `submit`): redraws a stderr line from
/// each delta-encoded partial aggregate, so stdout stays clean for the
/// final table or CSV. A disabled renderer prints nothing.
struct ProgressLine {
    /// Reassembles full snapshots from the deltas; `None` when disabled.
    view: Option<AggregateView>,
    started: Instant,
}

impl ProgressLine {
    fn new(enabled: bool) -> Self {
        ProgressLine {
            view: enabled.then(AggregateView::new),
            started: Instant::now(),
        }
    }

    fn show(&mut self, completed: usize, total: usize, update: &AggregateUpdate) {
        // Unsynced until a keyframe arrives (e.g. after a dropped event).
        let Some(aggregate) = self.view.as_mut().and_then(|view| view.apply(update)) else {
            return;
        };
        let populated = aggregate.cells.iter().filter(|c| c.samples > 0).count();
        eprint!(
            "\r[{completed}/{total} jobs] {populated}/{} cells populated ({:.1?})   ",
            aggregate.cells.len(),
            self.started.elapsed(),
        );
    }

    fn done(&self, completed: usize, total: usize) {
        if self.view.is_some() {
            eprintln!("\r[{completed}/{total} jobs] done{}", " ".repeat(48));
        }
    }
}

const DEFAULT_DAEMON_ADDR: &str = "127.0.0.1:7917";

fn serve_cmd(args: &ParsedArgs) -> Result<String, String> {
    let defaults = hetrta_serve::AdmissionConfig::default();
    let workers = args.parsed_or("--workers", "worker count", 0usize)?;
    let threads = args.parsed_or("--threads", "thread count", 0usize)?;
    let dist = if workers > 0 {
        // Fleet mode: each granted sweep fans across `workers` spawned
        // processes; the fleet shares the daemon's cache directory so
        // tenants still warm each other's cells.
        let mut dist = hetrta_dist::DistConfig::local(workers, self_launcher()?);
        dist.worker_threads = threads;
        dist.cache_dir = args.value_of("--cache-dir").map(Into::into);
        Some(dist)
    } else {
        None
    };
    let config = hetrta_serve::ServerConfig {
        addr: args
            .value_of("--addr")
            .unwrap_or(DEFAULT_DAEMON_ADDR)
            .to_string(),
        threads,
        cache_dir: args.value_of("--cache-dir").map(Into::into),
        admission: hetrta_serve::AdmissionConfig {
            max_active: args.parsed_or("--max-active", "active bound", defaults.max_active)?,
            max_pending: args.parsed_or("--max-pending", "pending bound", defaults.max_pending)?,
            retry_after_ms: args.parsed_or(
                "--retry-after-ms",
                "retry hint",
                defaults.retry_after_ms,
            )?,
        },
        partial_every: Some(args.parsed_or("--partial-every", "partial cadence", 8usize)?),
        dist,
        journal_dir: args.value_of("--journal-dir").map(Into::into),
        chaos: parse_chaos_seed(args)?,
    };
    let server = hetrta_serve::Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    // Announced on stderr *before* the blocking serve loop, so scripts
    // starting the daemon in the background know where to connect.
    eprintln!(
        "hetrta serve: listening on {addr} \
         (drain with `hetrta submit --addr {addr} --shutdown` or SIGTERM)"
    );
    server.run().map_err(|e| e.to_string())?;
    Ok(format!("hetrta serve: {addr} drained and exited\n"))
}

fn submit_cmd(args: &ParsedArgs) -> Result<String, String> {
    let addr = args.value_of("--addr").unwrap_or(DEFAULT_DAEMON_ADDR);
    let mut client = hetrta_serve::ServeClient::connect(addr).map_err(|e| e.to_string())?;
    if args.has("--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        return Ok(format!(
            "daemon at {addr} acknowledged shutdown and is draining\n"
        ));
    }
    if args.has("--stats") {
        return client.stats().map_err(|e| e.to_string());
    }
    let tenant = args.value_of("--tenant").unwrap_or("cli");
    let spec = build_sweep_spec(args)?;
    drop(client);

    // `Busy` is backpressure, not failure: honour the daemon's hint with
    // the shared jittered-exponential policy (the same one loadgen uses),
    // reconnecting per attempt like any polite client.
    let policy = hetrta_serve::RetryPolicy::new();
    let mut progress = ProgressLine::new(true);
    let outcome = policy
        .run(
            || {
                progress = ProgressLine::new(true); // fresh view per attempt
                let mut client = hetrta_serve::ServeClient::connect(addr)?;
                client.run_to_completion(tenant, &spec, |event| {
                    if let SweepEvent::PartialAggregate {
                        completed,
                        total,
                        update,
                    } = event
                    {
                        progress.show(*completed, *total, update);
                    }
                })
            },
            |delay| {
                eprintln!("daemon busy; retrying in {}ms", delay.as_millis());
            },
        )
        .map_err(|e| e.to_string())?;
    progress.done(outcome.completed, spec.job_count());

    let mut text = if args.has("--csv") {
        render_cells_csv(&outcome.aggregate)
    } else {
        render_cells_table(&outcome.aggregate)
    };
    text.push('\n');
    let _ = writeln!(
        text,
        "remote: {} jobs on {addr} as tenant `{tenant}`, cancelled={}, events dropped={}",
        outcome.completed, outcome.cancelled, outcome.events_dropped,
    );
    Ok(text)
}

fn loadgen_cmd(args: &ParsedArgs) -> Result<String, String> {
    if let Some(raw) = args.value_of("--workers") {
        return loadgen_dist(args, raw);
    }
    let addr = args.value_of("--addr").unwrap_or(DEFAULT_DAEMON_ADDR);
    let ladder: Vec<usize> = match args.value_of("--clients") {
        None => vec![1, 8, 64, 256],
        Some(spec) => parse_list(spec, "client count")?,
    };
    let sweeps = args.parsed_or("--sweeps", "sweep count", 4usize)?;
    let spec = build_sweep_spec(args)?;

    let mut rows = Vec::new();
    let mut text =
        String::from("cache  clients  completed  failed  sweeps/s    p50 ms    p99 ms   busy\n");
    // Cold rungs give every sweep a unique seed (nothing replays from
    // cache); warm rungs resubmit the identical spec, so after the first
    // completion the daemon answers from cache.
    let mut cold_seed_offset = 0x5EED_0000u64;
    for cache in ["cold", "warm"] {
        for &clients in &ladder {
            let mut config = hetrta_serve::LoadgenConfig::new(addr, clients, sweeps, spec.clone());
            if cache == "cold" {
                config.vary_seeds = Some(cold_seed_offset);
                cold_seed_offset += (clients * sweeps) as u64;
            }
            let report = hetrta_serve::loadgen::run(&config).map_err(|e| e.to_string())?;
            let _ = writeln!(
                text,
                "{cache:>5}  {:>7}  {:>9}  {:>6}  {:>8.2}  {:>8.2}  {:>8.2}  {:>5}",
                report.clients,
                report.completed,
                report.failed,
                report.sweeps_per_sec,
                report.p50_ms,
                report.p99_ms,
                report.busy_retries,
            );
            if report.protocol_errors > 0 {
                let _ = writeln!(
                    text,
                    "       ^ {} protocol errors at {clients} clients",
                    report.protocol_errors
                );
            }
            if let Some(err) = &report.first_error {
                let _ = writeln!(text, "       ^ first failure: {err}");
            }
            rows.push((cache.to_string(), report));
        }
    }
    if let Some(path) = args.value_of("--json") {
        std::fs::write(
            path,
            hetrta_serve::loadgen::render_bench_json("serve_saturation", &rows),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(text)
}

/// `loadgen --workers`: the fleet-scaling ladder. No daemon involved —
/// each rung runs the sweep through the dist coordinator at one worker
/// count (1 engine thread per worker, so rungs measure process-level
/// scaling), cold with a fresh cache directory and warm over the first
/// cold rung's directory, recording jobs/sec and per-worker balance.
fn loadgen_dist(args: &ParsedArgs, raw: &str) -> Result<String, String> {
    let ladder: Vec<usize> = parse_list(raw, "worker count")?;
    if ladder.contains(&0) {
        return Err("worker counts must be >= 1".into());
    }
    let spec = build_sweep_spec(args)?;
    let launcher = self_launcher()?;
    let root = std::env::temp_dir().join(format!("hetrta-loadgen-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Warm rungs replay from the first cold rung's directory: by then it
    // holds every job of the (identical) spec.
    let warm_dir = root.join(format!("cold-{}", ladder[0]));

    let mut rows = Vec::new();
    let mut text =
        String::from("cache  workers  jobs  failed    jobs/s    p50 ms    p99 ms  balance\n");
    for cache in ["cold", "warm"] {
        for &workers in &ladder {
            let mut config = hetrta_dist::DistConfig::local(workers, launcher.clone());
            config.worker_threads = 1;
            config.cache_dir = Some(match cache {
                "cold" => root.join(format!("cold-{workers}")),
                _ => warm_dir.clone(),
            });
            let mut wall_times = Vec::new();
            let started = std::time::Instant::now();
            let out =
                hetrta_dist::run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |progress| {
                    if let hetrta_dist::DistProgress::Job { wall_time, .. } = progress {
                        wall_times.push(wall_time);
                    }
                })
                .map_err(|e| e.to_string())?;
            let elapsed = started.elapsed();
            let balance: Vec<String> = out.worker_jobs.iter().map(u64::to_string).collect();
            let report = hetrta_serve::loadgen::LoadgenReport {
                clients: workers,
                completed: out.completed,
                failed: out.total - out.completed,
                busy_retries: 0,
                protocol_errors: 0,
                elapsed,
                sweeps_per_sec: out.completed as f64 / elapsed.as_secs_f64().max(1e-9),
                p50_ms: hetrta_serve::loadgen::percentile_ms(&wall_times, 0.50),
                p99_ms: hetrta_serve::loadgen::percentile_ms(&wall_times, 0.99),
                first_error: None,
                worker_jobs: out.worker_jobs,
            };
            let _ = writeln!(
                text,
                "{cache:>5}  {:>7}  {:>4}  {:>6}  {:>8.2}  {:>8.2}  {:>8.2}  [{}]",
                report.clients,
                report.completed,
                report.failed,
                report.sweeps_per_sec,
                report.p50_ms,
                report.p99_ms,
                balance.join("/"),
            );
            rows.push((cache.to_string(), report));
        }
    }
    if let Some(path) = args.value_of("--json") {
        std::fs::write(
            path,
            hetrta_serve::loadgen::render_bench_json("dist_scaling", &rows),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(text)
}

/// The aggregate as one table per section of its shape's statistics that
/// holds a present, nonzero value: `m`, the grid value and `samples`, then
/// the section's statistics (shares as percentages, reals to two
/// decimals, `-` when absent).
fn render_cells_table(aggregate: &SweepAggregate) -> String {
    let shown = |def: &StatDef, cell: &CellSummary| {
        cell.count(def.stat).is_some_and(|c| c != 0)
            || cell.real(def.stat).is_some_and(|v| v != 0.0)
    };
    let mut blocks = Vec::new();
    for section in aggregate
        .shape
        .stats()
        .chunk_by(|a, b| a.section == b.section)
    {
        if !aggregate
            .cells
            .iter()
            .any(|cell| section.iter().any(|def| shown(def, cell)))
        {
            continue;
        }
        let mut table = Table::new(
            ["m", aggregate.shape.grid_name(), "samples"]
                .into_iter()
                .chain(section.iter().map(|def| def.name))
                .map(str::to_owned)
                .collect(),
        );
        for cell in &aggregate.cells {
            let values = section.iter().map(|def| {
                let value = match def.kind {
                    StatKind::Count => cell.count(def.stat).map(|c| c.to_string()),
                    StatKind::Share => cell.share(def.stat).map(|v| format!("{:.1}%", v * 100.0)),
                    StatKind::Real => cell.real(def.stat).map(|v| format!("{v:.2}")),
                };
                value.unwrap_or_else(|| "-".to_owned())
            });
            let coordinates = [
                cell.m.to_string(),
                cell.grid_value.to_string(),
                cell.samples.to_string(),
            ];
            table.row(coordinates.into_iter().chain(values).collect());
        }
        blocks.push(table.render());
    }
    blocks.join("\n")
}

/// The aggregate as CSV: `m`, the grid value and `samples`, then one
/// column per statistic of its shape (counts as integers, shares and
/// reals to six decimals, absent values empty).
fn render_cells_csv(aggregate: &SweepAggregate) -> String {
    let stats = aggregate.shape.stats();
    let names: Vec<&str> = stats.iter().map(|def| def.name).collect();
    let grid = aggregate.shape.grid_name();
    let mut out = format!("m,{grid},samples,{}\n", names.join(","));
    for cell in &aggregate.cells {
        let values: Vec<String> = stats
            .iter()
            .map(|def| {
                let value = match def.kind {
                    StatKind::Count => cell.count(def.stat).map(|c| c.to_string()),
                    StatKind::Share => cell.share(def.stat).map(|v| format!("{v:.6}")),
                    StatKind::Real => cell.real(def.stat).map(|v| format!("{v:.6}")),
                };
                value.unwrap_or_default()
            })
            .collect();
        let _ = writeln!(
            out,
            "{},{},{},{}",
            cell.m,
            cell.grid_value,
            cell.samples,
            values.join(",")
        );
    }
    out
}

fn example_file() -> String {
    let mut b = hetrta_dag::DagBuilder::new();
    let v1 = b.node("v1", Ticks::new(1));
    let v2 = b.node("v2", Ticks::new(4));
    let v3 = b.node("v3", Ticks::new(6));
    let v4 = b.node("v4", Ticks::new(2));
    let v5 = b.node("v5", Ticks::new(1));
    let voff = b.node("v_off", Ticks::new(4));
    b.edges([
        (v1, v2),
        (v1, v3),
        (v1, v4),
        (v4, voff),
        (v2, v5),
        (v3, v5),
        (voff, v5),
    ])
    .expect("static edges");
    let task = HeteroDagTask::new(
        b.build().expect("static graph"),
        voff,
        Ticks::new(50),
        Ticks::new(50),
    )
    .expect("static task");
    render_task(&task)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The arguments of one command line, separated by single spaces.
    fn words(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_owned).collect()
    }

    /// Runs one command line.
    fn cli(line: &str) -> Result<String, String> {
        run(&words(line))
    }

    /// Registry keys available to `--analyses`.
    fn registry_keys() -> Vec<String> {
        hetrta_engine::AnalysisRegistry::builtin()
            .keys()
            .iter()
            .map(|&k| k.to_owned())
            .collect()
    }

    /// The parent-pinned CSV header of task-shaped sweeps.
    const TASK_CSV_HEADER: &str = "m,fraction,samples,s1,s21,s22,mean_improvement,\
        max_improvement,schedulable_het,schedulable_hom,mean_r_het,mean_r_hom,\
        mean_sim_makespan,mean_sim_transformed,exact_solved,mean_exact_makespan,\
        hom_increment,het_increment,solved,suspend_oblivious,suspend_barrier,\
        suspend_het_tight,suspend_naive,suspend_worst,naive_violations,sampled_mean,\
        sampled_ci_half,sampled_min,sampled_max,sampled_total,anytime_lower,\
        anytime_upper,anytime_optimal";

    /// The CSV cell block of a `--csv` sweep: every line before the first
    /// blank one, newlines included.
    fn csv_block(text: &str) -> String {
        text.lines()
            .take_while(|l| !l.is_empty())
            .map(|l| format!("{l}\n"))
            .collect()
    }

    fn write_example() -> tempfile::TempPath {
        let text = example_file();
        let mut f = tempfile::Builder::new().suffix(".hdag").tempfile().unwrap();
        std::io::Write::write_all(&mut f, text.as_bytes()).unwrap();
        f.into_temp_path()
    }

    // tempfile is not a dependency; emulate with std.
    mod tempfile {
        use std::path::PathBuf;

        pub struct TempPath(PathBuf);
        impl TempPath {
            pub fn to_str(&self) -> &str {
                self.0.to_str().unwrap()
            }
        }
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub struct Builder {
            suffix: String,
        }
        pub struct NamedFile {
            pub file: std::fs::File,
            path: PathBuf,
        }
        impl Builder {
            pub fn new() -> Self {
                Builder {
                    suffix: String::new(),
                }
            }
            pub fn suffix(mut self, s: &str) -> Self {
                self.suffix = s.to_owned();
                self
            }
            pub fn tempfile(self) -> std::io::Result<NamedFile> {
                let path = std::env::temp_dir().join(format!(
                    "hetrta-test-{}-{}{}",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .unwrap()
                        .as_nanos(),
                    self.suffix
                ));
                Ok(NamedFile {
                    file: std::fs::File::create(&path)?,
                    path,
                })
            }
        }
        impl NamedFile {
            pub fn into_temp_path(self) -> TempPath {
                TempPath(self.path)
            }
        }
        impl std::io::Write for NamedFile {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.file.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.file.flush()
            }
        }
    }

    #[test]
    fn example_parses_and_analyzes() {
        let path = write_example();
        let out = run(&args(&["analyze", path.to_str(), "-m", "2"])).unwrap();
        assert!(out.contains("R_hom"));
        assert!(out.contains("13.00"));
        assert!(out.contains("12.00"));
    }

    #[test]
    fn transform_outputs_task_file_and_dot() {
        let path = write_example();
        let out = run(&args(&["transform", path.to_str()])).unwrap();
        assert!(out.contains("node v_sync 0"));
        assert!(out.contains("len(G') = 10"));
        let dot = run(&args(&["transform", path.to_str(), "--dot"])).unwrap();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("cluster_par"));
    }

    #[test]
    fn simulate_reports_makespan() {
        let path = write_example();
        let out = run(&args(&["simulate", path.to_str(), "-m", "2"])).unwrap();
        assert!(out.contains("makespan = 12"));
        let gantt = run(&args(&["simulate", path.to_str(), "-m", "2", "--gantt"])).unwrap();
        assert!(gantt.contains("core 0"));
        let cp = run(&args(&[
            "simulate",
            path.to_str(),
            "-m",
            "2",
            "--policy",
            "cp",
        ]))
        .unwrap();
        assert!(cp.contains("makespan = 8"));
    }

    #[test]
    fn solve_finds_optimum() {
        let path = write_example();
        let out = run(&args(&["solve", path.to_str(), "-m", "2"])).unwrap();
        assert!(out.contains("minimum makespan"));
        assert!(out.contains(": 8 "));
        let lp = run(&args(&["solve", path.to_str(), "-m", "2", "--lp"])).unwrap();
        assert!(lp.contains("Minimize"));
    }

    #[test]
    fn generate_emits_parseable_file() {
        let out = cli("generate --seed 7 --fraction 0.3").unwrap();
        let parsed = hetrta_dag::io::parse_task(&out).unwrap();
        assert!(parsed.task.offloaded().is_some());
    }

    #[test]
    fn engine_sweep_reports_cells_and_stats() {
        let out =
            cli("engine sweep --threads 2 --cores 2,4 --per-point 4 --fractions 0.1,0.3 --seed 9")
                .unwrap();
        assert!(out.contains("mean_improvement"), "{out}");
        assert!(out.contains("result cache"), "{out}");
        assert!(out.contains("worker 0"), "{out}");
        assert!(out.contains("worker 1"), "{out}");
    }

    #[test]
    fn submit_against_a_live_daemon_matches_engine_sweep() {
        let server = hetrta_serve::Server::bind(hetrta_serve::ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let shape = "--cores 2 --per-point 4 --fractions 0.1,0.3 --seed 5 --csv";
        let local = cli(&format!("engine sweep --threads 2 {shape}")).unwrap();
        let remote = cli(&format!("submit --addr {addr} {shape}")).unwrap();
        // Same flags, same CSV cell block: the daemon path is bitwise
        // the local engine path.
        assert_eq!(csv_block(&local), csv_block(&remote));
        assert!(remote.contains("remote: 8 jobs"), "{remote}");

        let stats = cli(&format!("submit --addr {addr} --stats")).unwrap();
        assert!(stats.contains("serve.tenant.cli.completed"), "{stats}");

        let bye = cli(&format!("submit --addr {addr} --shutdown")).unwrap();
        assert!(bye.contains("draining"), "{bye}");
        daemon.join().unwrap();
    }

    #[test]
    fn engine_sweep_shard_runs_its_slice_and_conflicts_are_table_driven() {
        // 2 cores × 2 fractions × 4 per point = 8 jobs; shard 0/2 owns
        // the even expansion indices.
        let sweep = |extra: &[&str]| {
            let shape = ["--threads", "1", "--cores", "2", "--per-point", "4"];
            let mut argv = args(&["engine", "sweep", "--fractions", "0.1,0.3", "--seed", "9"]);
            argv.extend(shape.iter().chain(extra).map(|s| (*s).to_owned()));
            run(&argv).unwrap()
        };
        let out = sweep(&["--shard", "0/2", "--metrics"]);
        assert!(out.contains("shard 0/2: ran 4 of 8 jobs"), "{out}");

        // A journaled run goes through the same engine session: stats
        // block and metrics included.
        let dir = std::env::temp_dir().join(format!("hetrta-cli-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journaled = sweep(&["--journal", dir.to_str().unwrap(), "--metrics"]);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(journaled.contains("engine: 8 jobs"), "{journaled}");
        assert!(
            journaled.contains("journal: 0 of 8 jobs replayed"),
            "{journaled}"
        );
        for text in [&out, &journaled] {
            assert!(text.contains("pool.jobs"), "{text}");
            assert!(text.contains("analysis.het.latency_ns"), "{text}");
        }

        // Conflict rules come from the FlagSpec table, not handler code.
        for bad in ["--workers 2 --shard 0/2", "--workers 2 --metrics"] {
            let err = cli(&format!("engine sweep {bad}")).unwrap_err();
            assert!(err.contains("conflicts with"), "{err}");
        }
        let err = cli("engine sweep --shard 2/2").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn engine_sweep_single_thread_matches_parallel() {
        let sweep = |threads: &str| {
            cli(&format!(
                "engine sweep --threads {threads} --cores 2 --per-point 6 \
                 --fractions 0.2,0.4 --seed 11 --csv"
            ))
            .unwrap()
        };
        assert_eq!(csv_block(&sweep("1")), csv_block(&sweep("3")));
    }

    #[test]
    fn engine_sweep_acceptance_mode() {
        let sweep = |csv: bool| {
            let mut line = "engine sweep --threads 2 --cores 2 --per-point 4 --utils 0.2,0.8 --n-tasks 3 --seed 5".to_owned();
            if csv {
                line.push_str(" --csv");
            }
            cli(&line).unwrap()
        };
        let out = sweep(false);
        assert!(out.contains("GFP-hom"), "{out}");
        assert!(out.contains("normalized_util"), "{out}");
        assert!(out.contains("engine: 8 jobs"), "{out}");
        assert_eq!(
            csv_block(&sweep(true)),
            "m,normalized_util,samples,GFP-hom,GFP-het,GEDF-hom,GEDF-het,FED-hom,FED-het\n\
             2,0.2,4,1.000000,1.000000,0.500000,0.750000,0.000000,0.000000\n\
             2,0.8,4,0.250000,1.000000,0.000000,0.000000,0.000000,0.000000\n"
        );
    }

    #[test]
    fn engine_sweep_conditional_mode() {
        let sweep = |csv: bool| {
            let mut line = "engine sweep --threads 2 --cores 2 --per-point 6 --cond-shares 0.2,0.4 --realization-cap 512".to_owned();
            if csv {
                line.push_str(" --csv");
            }
            cli(&line).unwrap()
        };
        let out = sweep(false);
        assert!(out.contains("mean_flat_overhead"), "{out}");
        assert!(out.contains("p_cond"), "{out}");
        assert!(out.contains("engine: 12 jobs"), "{out}");
        assert_eq!(
            csv_block(&sweep(true)),
            "m,p_cond,samples,included,mean_flat_overhead,mean_dp_overhead,mean_realizations\n\
             2,0.2,6,6,73.337091,0.856590,39.500000\n\
             2,0.4,6,5,51.632178,0.222841,5.400000\n"
        );
    }

    #[test]
    fn engine_sweep_suspend_analysis() {
        let sweep = |csv: bool| {
            let mut line = "engine sweep --threads 1 --cores 2 --per-point 3 --fractions 0.2 --analyses suspend --explore-seeds 4".to_owned();
            if csv {
                line.push_str(" --csv");
            }
            cli(&line).unwrap()
        };
        let out = sweep(false);
        assert!(out.contains("suspend_naive"), "{out}");
        assert!(out.contains("naive_violations"), "{out}");
        assert_eq!(
            csv_block(&sweep(true)),
            format!(
                "{TASK_CSV_HEADER}\n2,0.2,3,0.000000,0.000000,0.000000,0.000000,0.000000,0,0,\
                 0.000000,0.000000,,,0,,,,,1331.500000,1058.333333,1058.333333,1135.500000,\
                 961.000000,0,,,,,,,,\n"
            )
        );
    }

    #[test]
    fn engine_sweep_sampled_and_anytime_analyses() {
        let sweep = |csv: bool| {
            let mut line = "engine sweep --threads 1 --cores 2 --per-point 3 --fractions 0.2 --analyses sampled,anytime --sample-budget 8 --sample-seed 7 --exact-budget 5000".to_owned();
            if csv {
                line.push_str(" --csv");
            }
            cli(&line).unwrap()
        };
        let table = sweep(false);
        assert!(table.contains("sampled_mean"), "{table}");
        assert!(table.contains("sampled_ci_half"), "{table}");
        assert!(table.contains("anytime_optimal"), "{table}");
        let csv = sweep(true);
        assert!(csv.contains("sampled_mean"), "{csv}");
        assert!(csv.contains("anytime_upper"), "{csv}");
        assert_eq!(
            csv_block(&csv),
            format!(
                "{TASK_CSV_HEADER}\n2,0.2,3,0.000000,0.000000,0.000000,0.000000,0.000000,0,0,\
                 0.000000,0.000000,,,0,,,,,,,,,,,968.625000,70.199656,441,2019,24,821.333333,\
                 861.333333,1\n"
            )
        );
        // 3 jobs × 8 samples land in the one cell.
        let data = csv.lines().nth(1).unwrap();
        let cols: Vec<&str> = data.split(',').collect();
        assert_eq!(cols[cols.len() - 4], "24", "sampled_total in {data}");
        // Same seed and budget ⇒ bitwise-identical report on a rerun
        // (the engine footer carries wall time, so compare the tables).
        let report = |s: &str| s.split("engine:").next().unwrap().to_owned();
        assert_eq!(report(&table), report(&sweep(false)));
    }

    #[test]
    fn engine_sweep_accuracy_analyses() {
        let out = cli("engine sweep --threads 2 --cores 2 --per-point 3 --fractions 0.25 --analyses exact,hom,het --csv")
        .unwrap();
        assert!(out.contains("hom_increment"), "{out}");
        let data_line = out.lines().nth(1).unwrap();
        assert!(!data_line.is_empty(), "{out}");
        assert_eq!(
            csv_block(&out),
            format!(
                "{TASK_CSV_HEADER}\n2,0.25,3,0.000000,0.333333,0.666667,40.580152,50.912584,3,3,\
                 1690.500000,2504.666667,,,3,1516.666667,22.018349,0.000000,1,,,,,,,,,,,,,,\n"
            )
        );
    }

    #[test]
    fn engine_sweep_rejects_bad_flags() {
        assert!(cli("engine").unwrap_err().contains("subcommand"));
        assert!(cli("engine frob").unwrap_err().contains("unknown engine"));
        assert!(cli("engine sweep --threads x")
            .unwrap_err()
            .contains("invalid thread count"));
        assert!(cli("engine sweep --analyses zig")
            .unwrap_err()
            .contains("unknown analysis"));
        assert!(cli("engine sweep --fractions 0.1 --utils 0.5")
            .unwrap_err()
            .contains("not both"));
        assert!(cli("engine sweep --cond-shares 0.2 --utils 0.5")
            .unwrap_err()
            .contains("not both"));
        assert!(cli("engine sweep --preset giant")
            .unwrap_err()
            .contains("unknown preset"));
        // Grid/analysis conflicts are decided by the registry (each key
        // declares its input kind), and the error names the keys that fit.
        let err = cli("engine sweep --utils 0.5 --analyses hom").unwrap_err();
        assert!(err.contains("`hom` expects a task"), "{err}");
        assert!(err.contains("produces a task set"), "{err}");
        assert!(err.contains("acceptance"), "{err}");
        let err = cli("engine sweep --cond-shares 0.2 --analyses het").unwrap_err();
        assert!(err.contains("`het` expects a task"), "{err}");
        assert!(err.contains("conditional expression"), "{err}");
        assert!(err.contains("cond"), "{err}");
        assert!(cli("engine sweep --utils 0.5 --preset large")
            .unwrap_err()
            .contains("fraction sweeps"));
        assert!(cli("engine sweep --n-tasks 3")
            .unwrap_err()
            .contains("utilization sweeps"));
        // Fraction-only knobs are rejected (not dropped) on other grids.
        assert!(cli("engine sweep --utils 0.5 --explore-seeds 5")
            .unwrap_err()
            .contains("fraction sweeps"));
        assert!(cli("engine sweep --cond-shares 0.2 --sim-transformed")
            .unwrap_err()
            .contains("fraction sweeps"));
        assert!(cli("engine sweep --utils 0.5 --realization-cap 9")
            .unwrap_err()
            .contains("conditional sweeps"));
        assert!(cli("engine sweep --utils 0.5 --sample-budget 8")
            .unwrap_err()
            .contains("fraction sweeps"));
        assert!(cli("engine sweep --fractions 0.2 --sample-budget 0")
            .unwrap_err()
            .contains("sample budget"));
    }

    #[test]
    fn analyses_flag_accepts_every_registry_key_error_lists_them() {
        // Unknown keys list every valid key, so the error is self-serving.
        let err = cli("engine sweep --analyses zig").unwrap_err();
        for key in registry_keys() {
            assert!(err.contains(&key), "`{key}` missing from: {err}");
        }
    }

    #[test]
    fn explicit_analyses_work_on_every_grid_kind() {
        // Selecting the grid's own analysis explicitly is no longer an
        // error: validity comes from the registry's input kinds.
        let utils =
            cli("engine sweep --cores 2 --per-point 2 --utils 0.5 --analyses acceptance").unwrap();
        assert!(utils.contains("GFP-hom"), "{utils}");
        let cond =
            cli("engine sweep --cores 2 --per-point 2 --cond-shares 0.2 --analyses cond").unwrap();
        assert!(cond.contains("mean_flat_overhead"), "{cond}");
    }

    #[test]
    fn sweep_help_lists_every_registry_key() {
        // The --analyses help line is generated from the registry.
        let help = cli("engine sweep --help").unwrap();
        for key in registry_keys() {
            assert!(help.contains(&key), "`{key}` missing from:\n{help}");
        }
        assert!(help.contains("--cache-dir"), "{help}");
        assert!(help.contains("--progress"), "{help}");
    }

    #[test]
    fn cache_dir_persists_results_across_engine_processes() {
        let dir = std::env::temp_dir().join(format!("hetrta-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = || {
            let mut argv = words(
                "engine sweep --threads 2 --cores 2 --per-point 4 --fractions 0.1,0.3 \
                 --seed 9 --cache-dir",
            );
            argv.push(dir.to_str().unwrap().to_owned());
            run(&argv).unwrap()
        };
        let cold = sweep();
        assert!(cold.contains("disk cache"), "{cold}");
        // Each CLI invocation builds a fresh engine: the second one can
        // only be warm through the disk layer.
        let warm = sweep();
        assert!(warm.contains("8 jobs fully cached"), "{warm}");
        assert!(
            warm.contains("0 misses") || warm.contains("(100.0% hit rate)"),
            "warm run must not recompute: {warm}"
        );
        // The cells themselves are identical.
        let cells = |text: &str| {
            text.lines()
                .take_while(|l| !l.starts_with("engine:"))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(cells(&cold), cells(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_flag_streams_without_disturbing_the_output() {
        let base = words(
            "engine sweep --threads 2 --cores 2 --per-point 4 --fractions 0.1,0.3 --seed 9 --csv",
        );
        // Progress renders to stderr; stdout's cells are untouched — on
        // the plain, sharded and journaled paths alike.
        let cells = csv_block;
        let dir = std::env::temp_dir().join(format!("hetrta-cli-progress-{}", std::process::id()));
        for (tag, extra) in [
            ("plain", vec![]),
            ("shard", vec!["--shard", "0/2"]),
            ("journal", vec!["--journal", dir.to_str().unwrap()]),
        ] {
            let mut quiet = base.clone();
            quiet.extend(extra.iter().map(|s| (*s).to_owned()));
            let mut streamed = quiet.clone();
            streamed.push("--progress".into());
            let _ = std::fs::remove_dir_all(&dir);
            let quiet = run(&quiet).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            let streamed = run(&streamed).unwrap();
            assert_eq!(cells(&quiet), cells(&streamed), "{tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_sweep_without_het_has_no_infinite_improvement() {
        let out = cli(
            "engine sweep --threads 1 --cores 2 --fractions 0.2 --per-point 2 --analyses sim --csv",
        )
        .unwrap();
        assert!(!out.contains("inf"), "{out}");
        assert!(out.contains("mean_sim_makespan"), "{out}");
    }

    #[test]
    fn sim_transformed_flag_fills_the_transformed_column() {
        let base = words(
            "engine sweep --threads 1 --cores 2 --fractions 0.3 --per-point 2 --analyses sim --csv",
        );
        let without = run(&base).unwrap();
        let mut with = base.clone();
        with.push("--sim-transformed".into());
        let with = run(&with).unwrap();
        let column = |text: &str, name: &str| {
            let header: Vec<&str> = text.lines().next().unwrap().split(',').collect();
            let idx = header.iter().position(|&h| h == name).unwrap();
            text.lines()
                .nth(1)
                .unwrap()
                .split(',')
                .nth(idx)
                .unwrap()
                .to_owned()
        };
        assert!(column(&without, "mean_sim_transformed").is_empty());
        assert!(!column(&with, "mean_sim_transformed").is_empty());
        let cells = |transformed: &str| {
            format!(
                "{TASK_CSV_HEADER}\n2,0.3,2,0.000000,0.000000,0.000000,0.000000,0.000000,0,0,\
                 0.000000,0.000000,1364.500000,{transformed},0,,,,,,,,,,,,,,,,,,\n"
            )
        };
        assert_eq!(csv_block(&without), cells(""));
        assert_eq!(csv_block(&with), cells("1066.500000"));
    }

    #[test]
    fn example_command_roundtrips() {
        let out = cli("example").unwrap();
        let parsed = hetrta_dag::io::parse_task(&out).unwrap();
        assert_eq!(parsed.task.dag().node_count(), 6);
    }

    #[test]
    fn sched_reports_both_models() {
        let path = write_example();
        let p = path.to_str().to_owned();
        let out = run(&args(&["sched", &p, &p, "-m", "2"])).unwrap();
        assert!(out.contains("2 tasks"));
        assert!(out.contains("homogeneous model"));
        assert!(out.contains("heterogeneous model"));
        assert!(out.contains("task 0"));
        let edf = run(&args(&["sched", &p, "-m", "4", "--edf"])).unwrap();
        assert!(edf.contains("global EDF"));
        let shared = run(&args(&["sched", &p, &p, "-m", "2", "--shared-device"])).unwrap();
        assert!(shared.contains("shared FIFO"));
    }

    #[test]
    fn baselines_prints_all_bounds() {
        let path = write_example();
        let out = run(&args(&["baselines", path.to_str(), "-m", "2"])).unwrap();
        assert!(out.contains("oblivious"));
        // Figure 1 numbers: oblivious 13, naive 11, R_het~ 12.
        assert!(out.contains("13.00"));
        assert!(out.contains("11.00"));
        assert!(out.contains("12.00"));
    }

    fn write_hcond() -> tempfile::TempPath {
        let text = "pre(4); if { par { kernel(26) | edge(11) | flow(9) } | soft(30) }; fuse(3)";
        let mut f = tempfile::Builder::new()
            .suffix(".hcond")
            .tempfile()
            .unwrap();
        std::io::Write::write_all(&mut f, text.as_bytes()).unwrap();
        f.into_temp_path()
    }

    #[test]
    fn cond_reports_bounds() {
        let path = write_hcond();
        let out = run(&args(&["cond", path.to_str(), "-m", "2"])).unwrap();
        assert!(out.contains("2 realizations"));
        assert!(out.contains("W* = 53"));
        assert!(out.contains("cond-aware"));
        let het = run(&args(&[
            "cond",
            path.to_str(),
            "-m",
            "2",
            "--offload",
            "kernel",
        ]))
        .unwrap();
        assert!(het.contains("het (offloaded)"));
        assert!(het.contains("37.00"));
    }

    #[test]
    fn cond_errors_are_positioned() {
        let mut f = tempfile::Builder::new()
            .suffix(".hcond")
            .tempfile()
            .unwrap();
        std::io::Write::write_all(&mut f, b"a(1);\nb(?)").unwrap();
        let path = f.into_temp_path();
        let err = run(&args(&["cond", path.to_str()])).unwrap_err();
        assert!(err.contains(":2:"), "{err}");
        let path2 = write_hcond();
        let err = run(&args(&["cond", path2.to_str(), "--offload", "nope"])).unwrap_err();
        assert!(err.contains("nope"));
    }

    #[test]
    fn sched_rejects_homogeneous_and_missing_files() {
        assert!(cli("sched -m 2").unwrap_err().contains("no task files"));
        assert!(cli("baselines").unwrap_err().contains("missing task file"));
    }

    #[test]
    fn errors_are_informative() {
        assert!(cli("frobnicate").unwrap_err().contains("unknown command"));
        assert!(run(&[]).unwrap_err().contains("missing command"));
        assert!(cli("analyze").unwrap_err().contains("missing task file"));
        assert!(cli("analyze /nonexistent/x.hdag")
            .unwrap_err()
            .contains("cannot read"));
        let path = write_example();
        assert!(
            run(&args(&["simulate", path.to_str(), "--policy", "zigzag"]))
                .unwrap_err()
                .contains("unknown policy")
        );
        assert!(run(&args(&["analyze", path.to_str(), "-m", "x"]))
            .unwrap_err()
            .contains("invalid core count"));
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_valid_set() {
        let path = write_example();
        let err = run(&args(&["analyze", path.to_str(), "--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        assert!(err.contains("-m"), "{err}");
        let err = run(&args(&["simulate", path.to_str(), "--policy"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn global_help_lists_every_command() {
        let help = cli("help").unwrap();
        for command in COMMANDS {
            assert!(help.contains(command.name), "`{}` missing", command.name);
        }
        assert_eq!(help, cli("--help").unwrap());
        let usage = usage();
        for command in COMMANDS {
            assert!(usage.contains(command.name), "`{}` missing", command.name);
        }
    }

    #[test]
    fn per_command_help_is_generated_from_the_spec() {
        let analyze_help = cli("analyze --help").unwrap();
        assert_eq!(analyze_help, cli("help analyze").unwrap());
        let sweep_help = cli("engine sweep --help").unwrap();
        assert_eq!(sweep_help, run(&args(&["help", "engine sweep"])).unwrap());
        // A single-member family resolves by its family name too.
        assert_eq!(sweep_help, cli("help engine").unwrap());
        // --help short-circuits even with other flags present.
        assert_eq!(sweep_help, cli("engine sweep --cores 2 --help").unwrap());
        assert_eq!(sweep_help, cli("engine --help").unwrap());
        for flag in ["--analyses", "--cond-shares", "--sim-transformed", "--csv"] {
            assert!(sweep_help.contains(flag), "`{flag}` missing:\n{sweep_help}");
        }
    }

    /// Golden rendering of a generated help screen: pins the exact shape
    /// the spec table produces.
    #[test]
    fn analyze_help_golden() {
        let expected = "\
hetrta analyze — R_hom/R_het bounds, scenario and schedulability per core count

usage:
  hetrta analyze <task.hdag> [-m CORES[,CORES...]]

flags:
  -m CORES[,CORES...]  host core counts (default 2,4,8,16; single-platform commands use the first)
";
        assert_eq!(cli("analyze --help").unwrap(), expected);
    }

    #[test]
    fn usage_golden_first_lines() {
        let text = usage();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("usage:"));
        assert_eq!(
            lines.next(),
            Some("  hetrta analyze <task.hdag> [-m CORES[,CORES...]]")
        );
    }
}
