//! Sporadic task-*set* simulation (extension).
//!
//! The paper simulates a single DAG job in isolation (§5.2). Real systems
//! run several sporadic tasks that compete for the host cores and for the
//! accelerator. This module simulates the **synchronous periodic** arrival
//! pattern — every task releases a job at time 0 and then strictly
//! periodically — of a set of [`HeteroDagTask`]s under global
//! fixed-priority or EDF scheduling, and reports per-job response times and
//! deadline misses.
//!
//! It is the empirical counterpart of the `hetrta-sched` schedulability
//! tests: a set deemed schedulable by a *sound* test must never miss a
//! deadline here (the synchronous periodic pattern is one legal sporadic
//! arrival sequence, so a miss disproves soundness; the converse does not
//! hold).
//!
//! ## Model
//!
//! * `m` identical host cores plus a pool of accelerator devices
//!   ([`Platform`]);
//! * node-level execution: every node runs for exactly its WCET;
//! * host scheduling is global and work-conserving across all active jobs;
//!   priorities are per-*job* (task priority under FP, absolute deadline
//!   under EDF), ties broken by earlier release, then task index;
//!   within a job, ready nodes are ordered breadth-first (readiness order,
//!   the GOMP discipline of the single-task simulator);
//! * host nodes are preemptible at any integer instant
//!   ([`Preemption::Preemptive`]) or run to completion once started
//!   ([`Preemption::NonPreemptive`]); preemption overhead is zero;
//! * offloaded nodes are **never** preempted: accelerators drain a
//!   priority-ordered queue one node at a time (FIFO per priority level) —
//!   device contention between tasks is therefore visible in the results;
//! * zero-WCET nodes (e.g. `v_sync`) complete instantly without occupying
//!   any resource.
//!
//! ## Example
//!
//! ```
//! use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
//! use hetrta_sim::sporadic::{simulate_sporadic, Discipline, SporadicConfig};
//! use hetrta_sim::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mk = |c_off: u64, period: u64| -> Result<HeteroDagTask, Box<dyn std::error::Error>> {
//!     let mut b = DagBuilder::new();
//!     let a = b.node("a", Ticks::new(1));
//!     let k = b.node("k", Ticks::new(c_off));
//!     let z = b.node("z", Ticks::new(1));
//!     b.edges([(a, k), (k, z)])?;
//!     Ok(HeteroDagTask::new(b.build()?, k, Ticks::new(period), Ticks::new(period))?)
//! };
//! let tasks = vec![mk(3, 10)?, mk(4, 20)?];
//!
//! let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(40))
//!     .discipline(Discipline::FixedPriority);
//! let result = simulate_sporadic(&tasks, &config)?;
//! assert!(!result.any_deadline_miss());
//! assert_eq!(result.jobs_of_task(0).count(), 4); // releases at 0, 10, 20, 30
//! # Ok(())
//! # }
//! ```

use std::cmp::Ordering;

use hetrta_dag::{HeteroDagTask, NodeId, Ticks};

use crate::{Platform, SimError};

/// Which global scheduling discipline orders competing jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Global fixed-priority: the position of a task in the input slice is
    /// its priority (index 0 = highest). Use
    /// [`deadline_monotonic_order`] to sort a set first.
    FixedPriority,
    /// Global EDF: jobs are ordered by absolute deadline.
    EarliestDeadlineFirst,
}

/// Whether host nodes may be preempted by higher-priority jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preemption {
    /// A higher-priority ready node preempts the lowest-priority running
    /// host node (zero cost; the classical global scheduling model that
    /// the analytical tests assume).
    Preemptive,
    /// Nodes run to completion once dispatched (the single-task
    /// simulator's behaviour); exposes priority-inversion blocking that
    /// preemptive analyses do not cover.
    NonPreemptive,
}

/// Configuration of a sporadic task-set simulation.
#[derive(Debug, Clone, Copy)]
pub struct SporadicConfig {
    platform: Platform,
    horizon: Ticks,
    discipline: Discipline,
    preemption: Preemption,
    offload_on_host: bool,
}

impl SporadicConfig {
    /// A preemptive global-FP configuration releasing jobs in `[0, horizon)`.
    #[must_use]
    pub fn new(platform: Platform, horizon: Ticks) -> Self {
        SporadicConfig {
            platform,
            horizon,
            discipline: Discipline::FixedPriority,
            preemption: Preemption::Preemptive,
            offload_on_host: false,
        }
    }

    /// Selects the global scheduling discipline.
    #[must_use]
    pub fn discipline(mut self, d: Discipline) -> Self {
        self.discipline = d;
        self
    }

    /// Selects host-node preemptibility.
    #[must_use]
    pub fn preemption(mut self, p: Preemption) -> Self {
        self.preemption = p;
        self
    }

    /// Runs every offloaded node on the **host** instead of the device —
    /// the homogeneous baseline (no accelerator required).
    #[must_use]
    pub fn offload_on_host(mut self, yes: bool) -> Self {
        self.offload_on_host = yes;
        self
    }

    /// The simulated platform.
    #[must_use]
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Jobs are released at every `k·T_i < horizon`.
    #[must_use]
    pub fn horizon(&self) -> Ticks {
        self.horizon
    }
}

/// The outcome of one job (one release of one task).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// Index of the task in the input slice.
    pub task: usize,
    /// Zero-based job number (release at `job · T`).
    pub job: u64,
    /// Release time.
    pub release: Ticks,
    /// Absolute deadline (`release + D`).
    pub deadline: Ticks,
    /// Completion time of the job's sink, if it completed before the
    /// simulation was cut off.
    pub finish: Option<Ticks>,
}

impl JobOutcome {
    /// Response time `finish − release`, if the job completed.
    #[must_use]
    pub fn response_time(&self) -> Option<Ticks> {
        self.finish.map(|f| f - self.release)
    }

    /// `true` if the job demonstrably missed its deadline: it either
    /// finished after it, or was still incomplete when the simulation
    /// stopped past it.
    #[must_use]
    pub fn missed(&self, cutoff: Ticks) -> bool {
        match self.finish {
            Some(f) => f > self.deadline,
            None => cutoff > self.deadline,
        }
    }
}

/// Result of a sporadic task-set simulation.
#[derive(Debug, Clone)]
pub struct SporadicSimResult {
    jobs: Vec<JobOutcome>,
    cutoff: Ticks,
    segments: Vec<ExecSegment>,
}

impl SporadicSimResult {
    /// All job outcomes, ordered by (release, task).
    #[must_use]
    pub fn jobs(&self) -> &[JobOutcome] {
        &self.jobs
    }

    /// Outcomes of one task's jobs.
    pub fn jobs_of_task(&self, task: usize) -> impl Iterator<Item = &JobOutcome> {
        self.jobs.iter().filter(move |j| j.task == task)
    }

    /// The instant the simulation stopped. All releases happened strictly
    /// before the configured horizon; jobs were allowed to run on until
    /// this (later) cutoff, so an incomplete job with a deadline before
    /// the cutoff is a genuine miss.
    #[must_use]
    pub fn cutoff(&self) -> Ticks {
        self.cutoff
    }

    /// `true` if any job demonstrably missed its deadline.
    #[must_use]
    pub fn any_deadline_miss(&self) -> bool {
        self.jobs.iter().any(|j| j.missed(self.cutoff))
    }

    /// Jobs that demonstrably missed their deadline.
    pub fn misses(&self) -> impl Iterator<Item = &JobOutcome> {
        self.jobs.iter().filter(move |j| j.missed(self.cutoff))
    }

    /// Largest observed response time of `task` across completed jobs;
    /// `None` if no job of the task completed.
    #[must_use]
    pub fn max_response_time(&self, task: usize) -> Option<Ticks> {
        self.jobs_of_task(task)
            .filter_map(JobOutcome::response_time)
            .max()
    }

    /// Every contiguous execution segment recorded during the run,
    /// ordered by start time. Preempted nodes contribute one segment per
    /// contiguous slice; zero-WCET nodes contribute none.
    #[must_use]
    pub fn segments(&self) -> &[ExecSegment] {
        &self.segments
    }

    /// Response-time statistics of `task` over its completed jobs, or
    /// `None` if no job completed.
    #[must_use]
    pub fn response_stats(&self, task: usize) -> Option<ResponseStats> {
        let rts: Vec<Ticks> = self
            .jobs_of_task(task)
            .filter_map(JobOutcome::response_time)
            .collect();
        if rts.is_empty() {
            return None;
        }
        let sum: u64 = rts.iter().map(|r| r.get()).sum();
        Some(ResponseStats {
            completed: rts.len(),
            min: *rts.iter().min().expect("non-empty"),
            max: *rts.iter().max().expect("non-empty"),
            mean: sum as f64 / rts.len() as f64,
        })
    }
}

/// Which resource class an execution segment ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentResource {
    /// One of the `m` host cores.
    Host,
    /// One of the accelerator devices.
    Device,
}

/// One contiguous execution segment of a node (preemption splits a node
/// into several segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSegment {
    /// Index of the task in the input slice.
    pub task: usize,
    /// Zero-based job number.
    pub job: u64,
    /// The node that executed.
    pub node: NodeId,
    /// Segment start.
    pub start: Ticks,
    /// Segment end (exclusive).
    pub end: Ticks,
    /// Where it ran.
    pub resource: SegmentResource,
}

/// Aggregate response-time statistics of one task's completed jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseStats {
    /// Number of completed jobs.
    pub completed: usize,
    /// Smallest observed response time.
    pub min: Ticks,
    /// Largest observed response time.
    pub max: Ticks,
    /// Mean observed response time.
    pub mean: f64,
}

/// Sorts task indices by constrained deadline (deadline-monotonic priority
/// order: shortest deadline first, ties by period then input order).
///
/// Returns a permutation: `order[0]` is the index of the highest-priority
/// task. Reorder the slice with this before a
/// [`Discipline::FixedPriority`] simulation or a fixed-priority
/// schedulability test.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
/// use hetrta_sim::sporadic::deadline_monotonic_order;
///
/// # fn mk(d: u64) -> HeteroDagTask {
/// #     let mut b = DagBuilder::new();
/// #     let a = b.node("a", Ticks::new(1));
/// #     let k = b.node("k", Ticks::new(1));
/// #     b.edge(a, k).unwrap();
/// #     HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(d), Ticks::new(d)).unwrap()
/// # }
/// let tasks = vec![mk(30), mk(10), mk(20)];
/// assert_eq!(deadline_monotonic_order(&tasks), vec![1, 2, 0]);
/// ```
#[must_use]
pub fn deadline_monotonic_order(tasks: &[HeteroDagTask]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].deadline(), tasks[i].period(), i));
    order
}

/// The hyperperiod (LCM of all periods), or `None` if the set is empty, a
/// period is zero, or the LCM overflows `u64`.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
/// use hetrta_sim::sporadic::hyperperiod;
///
/// # fn mk(t: u64) -> HeteroDagTask {
/// #     let mut b = DagBuilder::new();
/// #     let a = b.node("a", Ticks::new(1));
/// #     let k = b.node("k", Ticks::new(1));
/// #     b.edge(a, k).unwrap();
/// #     HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(t), Ticks::new(t)).unwrap()
/// # }
/// let tasks = vec![mk(6), mk(10)];
/// assert_eq!(hyperperiod(&tasks), Some(Ticks::new(30)));
/// ```
#[must_use]
pub fn hyperperiod(tasks: &[HeteroDagTask]) -> Option<Ticks> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    if tasks.is_empty() {
        return None;
    }
    let mut l: u64 = 1;
    for t in tasks {
        let p = t.period().get();
        if p == 0 {
            return None;
        }
        l = l.checked_div(gcd(l, p))?.checked_mul(p)?;
    }
    Some(Ticks::new(l))
}

/// Validates the recorded execution segments of a simulation against the
/// task set and configuration:
///
/// * every completed job's nodes executed for exactly their WCET, split
///   across one or more segments (exactly one under
///   [`Preemption::NonPreemptive`]);
/// * host segments never overlap on more than `m` cores, device segments
///   never on more than the accelerator count;
/// * precedence: within a job, no node starts before all its
///   predecessors' last segments end;
/// * placement: offloaded nodes run on the device (unless
///   `offload_on_host`), everything else on the host.
///
/// Returns a human-readable description of the first violation. Used by
/// the test suite to certify the simulator itself; exported so downstream
/// users can assert their own runs.
///
/// # Errors
///
/// A description of the first violated property.
pub fn validate_segments(
    tasks: &[HeteroDagTask],
    result: &SporadicSimResult,
    config: &SporadicConfig,
) -> Result<(), String> {
    use std::collections::HashMap;

    // Group segments per (task, job, node).
    let mut per_node: HashMap<(usize, u64, NodeId), Vec<&ExecSegment>> = HashMap::new();
    for s in result.segments() {
        if s.start >= s.end {
            return Err(format!("empty segment {s:?}"));
        }
        per_node.entry((s.task, s.job, s.node)).or_default().push(s);
    }

    for job in result.jobs().iter().filter(|j| j.finish.is_some()) {
        let dag = tasks[job.task].dag();
        let offloaded = tasks[job.task].offloaded();
        for v in dag.node_ids() {
            let wcet = dag.wcet(v);
            let segs = per_node
                .get(&(job.task, job.job, v))
                .map_or(&[][..], Vec::as_slice);
            let total: u64 = segs.iter().map(|s| (s.end - s.start).get()).sum();
            if total != wcet.get() {
                return Err(format!(
                    "task {} job {} node {v}: executed {total} of WCET {wcet}",
                    job.task, job.job
                ));
            }
            if config.preemption == Preemption::NonPreemptive && segs.len() > 1 {
                return Err(format!(
                    "task {} job {} node {v}: {} segments under non-preemptive dispatch",
                    job.task,
                    job.job,
                    segs.len()
                ));
            }
            let expect_device = v == offloaded && !config.offload_on_host;
            for s in segs {
                let on_device = s.resource == SegmentResource::Device;
                if on_device != expect_device {
                    return Err(format!("task {} node {v}: wrong resource {s:?}", job.task));
                }
            }
            // Precedence: first start ≥ every predecessor's last end.
            if let Some(first) = segs.iter().map(|s| s.start).min() {
                for &p in dag.predecessors(v) {
                    if dag.wcet(p).is_zero() {
                        continue; // instant nodes leave no segment
                    }
                    let p_end = per_node
                        .get(&(job.task, job.job, p))
                        .and_then(|ss| ss.iter().map(|s| s.end).max());
                    if let Some(p_end) = p_end {
                        if first < p_end {
                            return Err(format!(
                                "task {} job {}: {v} starts {first} before pred {p} ends {p_end}",
                                job.task, job.job
                            ));
                        }
                    }
                }
            }
        }
    }

    // Capacity: sweep over segment boundaries.
    for (res, cap) in [
        (SegmentResource::Host, config.platform.cores()),
        (SegmentResource::Device, config.platform.accelerators()),
    ] {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for s in result.segments().iter().filter(|s| s.resource == res) {
            events.push((s.start.get(), 1));
            events.push((s.end.get(), -1));
        }
        events.sort_unstable();
        let mut load = 0i64;
        for (t, d) in events {
            load += d;
            if load > cap as i64 {
                return Err(format!("{res:?} overloaded ({load} > {cap}) at t = {t}"));
            }
        }
    }
    Ok(())
}

/// Priority key of a job: smaller sorts first (runs earlier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct JobKey {
    /// FP: task rank; EDF: absolute deadline.
    primary: u64,
    release: u64,
    task: usize,
    job: u64,
}

/// One ready (or preempted) host node of a live job.
#[derive(Debug, Clone, Copy)]
struct ReadyNode {
    key: JobKey,
    /// Readiness order within the job (breadth-first tie-break).
    seq: u64,
    job_slot: usize,
    node: NodeId,
    remaining: u64,
}

impl ReadyNode {
    fn order(&self) -> (JobKey, u64, u32) {
        (self.key, self.seq, self.node.index() as u32)
    }
}

/// A node currently executing on a host core or device.
#[derive(Debug, Clone, Copy)]
struct RunningNode {
    entry: ReadyNode,
    /// When the current execution segment started (for segment recording).
    started_at: u64,
}

/// Live state of one released job.
#[derive(Debug)]
struct JobState {
    task: usize,
    job: u64,
    key: JobKey,
    remaining_preds: Vec<usize>,
    unfinished: usize,
    /// Monotone counter ordering node readiness within the job.
    next_seq: u64,
}

/// Simulates the synchronous periodic execution of `tasks` and reports all
/// job outcomes.
///
/// Every task releases jobs at `0, T, 2T, …` strictly below
/// `config.horizon()`; released jobs then run to completion (the returned
/// [`SporadicSimResult::cutoff`] is the instant the last one finished),
/// unless the backlog diverges, in which case the run is cut off at a
/// safety limit and unfinished jobs are reported as incomplete — under a
/// work-conserving scheduler that only happens for genuinely overloaded
/// sets, whose jobs past their deadline count as misses anyway.
///
/// # Errors
///
/// - [`SimError::ZeroCores`] if the platform has no host core;
/// - [`SimError::NoAccelerator`] if any task offloads and the platform has
///   no device (unless `offload_on_host` is set);
/// - [`SimError::Dag`] if a task's period is zero (wrapped as a
///   structural error) or a graph is cyclic.
pub fn simulate_sporadic(
    tasks: &[HeteroDagTask],
    config: &SporadicConfig,
) -> Result<SporadicSimResult, SimError> {
    simulate_sporadic_with_offsets(tasks, &[], config)
}

/// Like [`simulate_sporadic`] but with per-task **release offsets**: task
/// `i` releases at `offsets[i], offsets[i] + T, …` (a missing entry means
/// offset 0). Offsets must be below the task's period.
///
/// Synchronous release (all offsets zero) is *not* always the worst case
/// under global multiprocessor scheduling, so sound tests should also
/// survive asynchronous patterns — the empirical harnesses sweep a few.
///
/// # Errors
///
/// As [`simulate_sporadic`]; additionally [`SimError::Dag`] if an offset
/// is not below the task's period.
pub fn simulate_sporadic_with_offsets(
    tasks: &[HeteroDagTask],
    offsets: &[Ticks],
    config: &SporadicConfig,
) -> Result<SporadicSimResult, SimError> {
    if config.platform.cores() == 0 {
        return Err(SimError::ZeroCores);
    }
    for (i, t) in tasks.iter().enumerate() {
        if offsets.get(i).copied().unwrap_or(Ticks::ZERO) >= t.period() {
            return Err(SimError::Dag(hetrta_dag::DagError::Empty));
        }
    }
    if !config.offload_on_host && !config.platform.has_accelerator() {
        if let Some(t) = tasks.first() {
            return Err(SimError::NoAccelerator(t.offloaded()));
        }
    }
    for t in tasks {
        if t.period().is_zero() {
            return Err(SimError::Dag(hetrta_dag::DagError::Empty));
        }
    }

    // FP rank = index in the input slice.
    let horizon = config.horizon.get();
    // Safety cutoff: generous; only reached under divergent overload.
    let total_vol: u64 = tasks.iter().map(|t| t.volume().get()).sum();
    let max_d: u64 = tasks.iter().map(|t| t.deadline().get()).max().unwrap_or(0);
    let hard_stop = horizon
        .saturating_add(max_d)
        .saturating_add(total_vol.saturating_mul(horizon.max(1)).min(u64::MAX / 2));

    let mut sim = Sim {
        tasks,
        config,
        jobs: Vec::new(),
        outcomes: Vec::new(),
        ready_host: Vec::new(),
        ready_dev: Vec::new(),
        running_host: Vec::new(),
        running_dev: Vec::new(),
        next_release: tasks
            .iter()
            .enumerate()
            .map(|(i, _)| (offsets.get(i).copied().unwrap_or(Ticks::ZERO).get(), i))
            .collect(),
        offsets,
        segments: Vec::new(),
    };
    sim.next_release.sort();

    let mut now: u64 = 0;
    loop {
        // 1. Release all jobs due now.
        while let Some(&(t, i)) = sim.next_release.first() {
            if t != now || t >= horizon {
                break;
            }
            sim.next_release.remove(0);
            sim.release_job(i, now);
            let next = t + tasks[i].period().get();
            if next < horizon {
                sim.next_release.push((next, i));
                sim.next_release.sort_unstable();
            }
        }

        // 2. Dispatch devices (non-preemptive, priority order).
        sim.ready_dev.sort_unstable_by_key(|a| a.order());
        while sim.running_dev.len() < sim.device_capacity() && !sim.ready_dev.is_empty() {
            let entry = sim.ready_dev.remove(0);
            sim.running_dev.push(RunningNode {
                entry,
                started_at: now,
            });
        }

        // 3. Dispatch host cores.
        let m = config.platform.cores();
        match config.preemption {
            Preemption::Preemptive => {
                // Pool running + ready, keep the m best running; close the
                // execution segment of anything preempted.
                let mut pool: Vec<(ReadyNode, Option<u64>)> = sim
                    .running_host
                    .drain(..)
                    .map(|r| (r.entry, Some(r.started_at)))
                    .collect();
                pool.extend(sim.ready_host.drain(..).map(|e| (e, None)));
                pool.sort_unstable_by_key(|(a, _)| a.order());
                for (i, (entry, started)) in pool.into_iter().enumerate() {
                    if i < m {
                        sim.running_host.push(RunningNode {
                            entry,
                            started_at: started.unwrap_or(now),
                        });
                    } else {
                        if let Some(s) = started {
                            sim.record_segment(&entry, s, now, SegmentResource::Host);
                        }
                        sim.ready_host.push(entry);
                    }
                }
            }
            Preemption::NonPreemptive => {
                sim.ready_host.sort_unstable_by_key(|a| a.order());
                while sim.running_host.len() < m && !sim.ready_host.is_empty() {
                    let entry = sim.ready_host.remove(0);
                    sim.running_host.push(RunningNode {
                        entry,
                        started_at: now,
                    });
                }
            }
        }

        // 4. Advance to the next event.
        let next_finish = sim
            .running_host
            .iter()
            .chain(sim.running_dev.iter())
            .map(|r| r.entry.remaining)
            .min();
        let next_rel = sim
            .next_release
            .first()
            .map(|&(t, _)| t.saturating_sub(now));
        let delta = match (next_finish, next_rel) {
            (Some(f), Some(r)) => f.min(r),
            (Some(f), None) => f,
            (None, Some(r)) => r,
            (None, None) => break, // idle and no more releases: done
        };
        debug_assert!(delta > 0, "zero-delta step would not make progress");
        now += delta;
        if now > hard_stop {
            now -= delta;
            break;
        }

        // 5. Complete nodes that finished at `now`.
        sim.advance_and_complete(delta, now);
    }

    let mut outcomes = std::mem::take(&mut sim.outcomes);
    // Unfinished jobs (divergent overload only).
    for j in &sim.jobs {
        if j.unfinished > 0 {
            outcomes.push(JobOutcome {
                task: j.task,
                job: j.job,
                release: Ticks::new(j.key.release),
                deadline: Ticks::new(j.key.release + tasks[j.task].deadline().get()),
                finish: None,
            });
        }
    }
    outcomes.sort_by_key(|j| (j.release, j.task, j.job));
    let mut segments = std::mem::take(&mut sim.segments);
    segments.sort_by_key(|s| (s.start, s.task, s.job, s.node));
    Ok(SporadicSimResult {
        jobs: outcomes,
        cutoff: Ticks::new(now),
        segments,
    })
}

struct Sim<'a> {
    tasks: &'a [HeteroDagTask],
    config: &'a SporadicConfig,
    /// Live jobs (slots are never reused; finished jobs keep `unfinished == 0`).
    jobs: Vec<JobState>,
    outcomes: Vec<JobOutcome>,
    ready_host: Vec<ReadyNode>,
    ready_dev: Vec<ReadyNode>,
    running_host: Vec<RunningNode>,
    running_dev: Vec<RunningNode>,
    /// Pending (time, task) releases, sorted ascending.
    next_release: Vec<(u64, usize)>,
    /// Per-task release offsets (missing entries mean zero).
    offsets: &'a [Ticks],
    /// Recorded execution segments.
    segments: Vec<ExecSegment>,
}

impl Sim<'_> {
    fn device_capacity(&self) -> usize {
        if self.config.offload_on_host {
            0
        } else {
            self.config.platform.accelerators()
        }
    }

    fn job_key(&self, task: usize, release: u64, job: u64) -> JobKey {
        let primary = match self.config.discipline {
            Discipline::FixedPriority => task as u64,
            Discipline::EarliestDeadlineFirst => release + self.tasks[task].deadline().get(),
        };
        JobKey {
            primary,
            release,
            task,
            job,
        }
    }

    fn release_job(&mut self, task: usize, now: u64) {
        let t = &self.tasks[task];
        let dag = t.dag();
        let n = dag.node_count();
        let offset = self.offsets.get(task).copied().unwrap_or(Ticks::ZERO).get();
        let job_no = (now - offset) / t.period().get();
        let key = self.job_key(task, now, job_no);
        let slot = self.jobs.len();
        self.jobs.push(JobState {
            task,
            job: job_no,
            key,
            remaining_preds: (0..n)
                .map(|i| dag.in_degree(NodeId::from_index(i)))
                .collect(),
            unfinished: n,
            next_seq: 0,
        });
        if n == 0 {
            self.jobs[slot].unfinished = 0;
            self.finish_job(slot, now);
            return;
        }
        for v in dag.sources() {
            self.node_ready(slot, v, now);
        }
    }

    /// A node of job `slot` became ready at `now`.
    fn node_ready(&mut self, slot: usize, v: NodeId, now: u64) {
        let task = self.jobs[slot].task;
        let t = &self.tasks[task];
        let wcet = t.dag().wcet(v).get();
        if wcet == 0 {
            self.complete_node(slot, v, now);
            return;
        }
        let seq = self.jobs[slot].next_seq;
        self.jobs[slot].next_seq += 1;
        let entry = ReadyNode {
            key: self.jobs[slot].key,
            seq,
            job_slot: slot,
            node: v,
            remaining: wcet,
        };
        if !self.config.offload_on_host && v == t.offloaded() {
            self.ready_dev.push(entry);
        } else {
            self.ready_host.push(entry);
        }
    }

    /// Subtracts `delta` from every running node and completes the ones
    /// that reach zero.
    fn record_segment(&mut self, entry: &ReadyNode, start: u64, end: u64, res: SegmentResource) {
        debug_assert!(start < end, "empty execution segment");
        let job = &self.jobs[entry.job_slot];
        self.segments.push(ExecSegment {
            task: job.task,
            job: job.job,
            node: entry.node,
            start: Ticks::new(start),
            end: Ticks::new(end),
            resource: res,
        });
    }

    fn advance_and_complete(&mut self, delta: u64, now: u64) {
        let mut done: Vec<(usize, NodeId)> = Vec::new();
        let mut finished_segments: Vec<(ReadyNode, u64, SegmentResource)> = Vec::new();
        for (list, res) in [
            (&mut self.running_host, SegmentResource::Host),
            (&mut self.running_dev, SegmentResource::Device),
        ] {
            list.retain_mut(|r| {
                r.entry.remaining -= delta;
                if r.entry.remaining == 0 {
                    done.push((r.entry.job_slot, r.entry.node));
                    finished_segments.push((r.entry, r.started_at, res));
                    false
                } else {
                    true
                }
            });
        }
        for (entry, started, res) in finished_segments {
            self.record_segment(&entry, started, now, res);
        }
        // Deterministic completion order: by job key then node id.
        done.sort_by(|a, b| {
            let ka = (self.jobs[a.0].key, a.1.index());
            let kb = (self.jobs[b.0].key, b.1.index());
            ka.cmp(&kb)
        });
        for (slot, v) in done {
            self.complete_node(slot, v, now);
        }
    }

    fn complete_node(&mut self, slot: usize, v: NodeId, now: u64) {
        let task = self.jobs[slot].task;
        self.jobs[slot].unfinished -= 1;
        let succs: Vec<NodeId> = self.tasks[task].dag().successors(v).to_vec();
        for s in succs {
            self.jobs[slot].remaining_preds[s.index()] -= 1;
            if self.jobs[slot].remaining_preds[s.index()] == 0 {
                self.node_ready(slot, s, now);
            }
        }
        if self.jobs[slot].unfinished == 0 {
            self.finish_job(slot, now);
        }
    }

    fn finish_job(&mut self, slot: usize, now: u64) {
        let j = &self.jobs[slot];
        self.outcomes.push(JobOutcome {
            task: j.task,
            job: j.job,
            release: Ticks::new(j.key.release),
            deadline: Ticks::new(j.key.release + self.tasks[j.task].deadline().get()),
            finish: Some(Ticks::new(now)),
        });
    }
}

impl PartialOrd for ReadyNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.order().cmp(&other.order()))
    }
}
impl PartialEq for ReadyNode {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::DagBuilder;

    /// `a(1) → k(c_off) → z(1)` with period = deadline = `t`.
    fn chain_task(c_off: u64, t: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(1));
        let k = b.node("k", Ticks::new(c_off));
        let z = b.node("z", Ticks::new(1));
        b.edges([(a, k), (k, z)]).unwrap();
        HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(t), Ticks::new(t)).unwrap()
    }

    /// Fork-join: `src(1) → {p1(w), p2(w), k(c_off)} → sink(1)`.
    fn forkjoin_task(w: u64, c_off: u64, t: u64, d: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::new(1));
        let sink = b.node("sink", Ticks::new(1));
        let k = b.node("k", Ticks::new(c_off));
        b.edges([(src, k), (k, sink)]).unwrap();
        for i in 0..2 {
            let p = b.node(format!("p{i}"), Ticks::new(w));
            b.edges([(src, p), (p, sink)]).unwrap();
        }
        HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(t), Ticks::new(d)).unwrap()
    }

    #[test]
    fn single_task_single_job_matches_single_task_simulator() {
        let task = forkjoin_task(3, 2, 100, 100);
        let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(1));
        let r = simulate_sporadic(std::slice::from_ref(&task), &config).unwrap();
        assert_eq!(r.jobs().len(), 1);
        // src(1); p1 ∥ p2 (3) with k(2) on the device; sink(1): makespan 5.
        assert_eq!(r.jobs()[0].response_time(), Some(Ticks::new(5)));
        assert!(!r.any_deadline_miss());
    }

    #[test]
    fn releases_cover_the_horizon() {
        let tasks = vec![chain_task(2, 10), chain_task(2, 15)];
        let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(30));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        assert_eq!(r.jobs_of_task(0).count(), 3); // 0, 10, 20
        assert_eq!(r.jobs_of_task(1).count(), 2); // 0, 15
        assert!(!r.any_deadline_miss());
    }

    #[test]
    fn overload_misses_are_detected() {
        // Two chains needing the single host core 2 ticks each + exclusive
        // device 8 ticks, period 10: the low-priority task cannot make it.
        let tasks = vec![chain_task(8, 10), chain_task(8, 10)];
        let config = SporadicConfig::new(Platform::with_accelerator(1), Ticks::new(10));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        assert!(r.any_deadline_miss());
        // The high-priority task is fine.
        assert!(r.jobs_of_task(0).all(|j| !j.missed(r.cutoff())));
        assert!(r.jobs_of_task(1).any(|j| j.missed(r.cutoff())));
    }

    #[test]
    fn fp_priority_order_matters() {
        // One core; task 0 hogs it. Swapping the order swaps the victim.
        let heavy = forkjoin_task(4, 1, 12, 12);
        let light = chain_task(1, 12);
        let config = SporadicConfig::new(Platform::with_accelerator(1), Ticks::new(12));
        let r0 = simulate_sporadic(&[heavy.clone(), light.clone()], &config).unwrap();
        let r1 = simulate_sporadic(&[light, heavy], &config).unwrap();
        let heavy_rt_as_hp = r0.max_response_time(0).unwrap();
        let heavy_rt_as_lp = r1.max_response_time(1).unwrap();
        assert!(heavy_rt_as_hp <= heavy_rt_as_lp);
    }

    #[test]
    fn edf_meets_what_fp_misses_here() {
        // Classic: FP with the "wrong" static order misses, EDF adapts.
        // Task 0 (low rate, long deadline) listed first = top FP priority.
        let slow = forkjoin_task(5, 1, 40, 40);
        let fast = chain_task(2, 8);
        let platform = Platform::with_accelerator(1);
        let fp =
            SporadicConfig::new(platform, Ticks::new(40)).discipline(Discipline::FixedPriority);
        let edf = SporadicConfig::new(platform, Ticks::new(40))
            .discipline(Discipline::EarliestDeadlineFirst);
        let r_fp = simulate_sporadic(&[slow.clone(), fast.clone()], &fp).unwrap();
        let r_edf = simulate_sporadic(&[slow, fast], &edf).unwrap();
        let fast_fp = r_fp.max_response_time(1).unwrap();
        let fast_edf = r_edf.max_response_time(1).unwrap();
        assert!(fast_edf <= fast_fp, "EDF {fast_edf} > FP {fast_fp}");
    }

    #[test]
    fn preemptive_no_worse_than_nonpreemptive_for_high_priority() {
        let hp = chain_task(1, 20);
        let lp = forkjoin_task(9, 1, 20, 20);
        let platform = Platform::with_accelerator(1);
        // Release the LP work first is impossible under synchronous
        // arrivals, but non-preemptive dispatch can still block the HP
        // task's later nodes behind LP nodes.
        let pre = SporadicConfig::new(platform, Ticks::new(20));
        let non = pre.preemption(Preemption::NonPreemptive);
        let r_pre = simulate_sporadic(&[hp.clone(), lp.clone()], &pre).unwrap();
        let r_non = simulate_sporadic(&[hp, lp], &non).unwrap();
        assert!(r_pre.max_response_time(0).unwrap() <= r_non.max_response_time(0).unwrap());
    }

    #[test]
    fn shared_device_serializes_offloads() {
        // Two tasks whose offloads overlap; one device: second waits.
        let tasks = vec![chain_task(5, 50), chain_task(5, 50)];
        let one_dev = SporadicConfig::new(Platform::with_accelerator(4), Ticks::new(1));
        let two_dev = SporadicConfig::new(Platform::new(4, 2), Ticks::new(1));
        let r1 = simulate_sporadic(&tasks, &one_dev).unwrap();
        let r2 = simulate_sporadic(&tasks, &two_dev).unwrap();
        let worst1 = r1.max_response_time(1).unwrap();
        let worst2 = r2.max_response_time(1).unwrap();
        assert!(
            worst2 < worst1,
            "extra device should help: {worst2} vs {worst1}"
        );
        assert_eq!(worst1, Ticks::new(12)); // 1 + wait 5 + 5 + 1
        assert_eq!(worst2, Ticks::new(7)); // 1 + 5 + 1
    }

    #[test]
    fn offload_on_host_needs_no_accelerator() {
        let tasks = vec![chain_task(3, 10)];
        let config =
            SporadicConfig::new(Platform::host_only(2), Ticks::new(10)).offload_on_host(true);
        let r = simulate_sporadic(&tasks, &config).unwrap();
        assert_eq!(r.jobs()[0].response_time(), Some(Ticks::new(5)));
    }

    #[test]
    fn missing_accelerator_is_an_error() {
        let tasks = vec![chain_task(3, 10)];
        let config = SporadicConfig::new(Platform::host_only(2), Ticks::new(10));
        assert!(matches!(
            simulate_sporadic(&tasks, &config),
            Err(SimError::NoAccelerator(_))
        ));
    }

    #[test]
    fn zero_cores_is_an_error() {
        let tasks = vec![chain_task(3, 10)];
        let config = SporadicConfig::new(Platform::new(0, 1), Ticks::new(10));
        assert_eq!(
            simulate_sporadic(&tasks, &config).unwrap_err(),
            SimError::ZeroCores
        );
    }

    #[test]
    fn empty_task_set_is_empty_result() {
        let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(100));
        let r = simulate_sporadic(&[], &config).unwrap();
        assert!(r.jobs().is_empty());
        assert!(!r.any_deadline_miss());
    }

    #[test]
    fn response_times_never_exceed_isolated_bound_plus_interference_window() {
        // Sanity: with plenty of cores and devices there is no contention,
        // so every job's response time equals the isolated makespan.
        let tasks = vec![forkjoin_task(3, 2, 20, 20), forkjoin_task(4, 3, 20, 20)];
        let config = SporadicConfig::new(Platform::new(8, 2), Ticks::new(60));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        for j in r.jobs() {
            let iso = if j.task == 0 { 5 } else { 6 };
            assert_eq!(j.response_time(), Some(Ticks::new(iso)));
        }
    }

    #[test]
    fn deadline_monotonic_order_sorts_by_deadline() {
        let tasks = vec![
            forkjoin_task(1, 1, 50, 40),
            forkjoin_task(1, 1, 50, 10),
            forkjoin_task(1, 1, 50, 25),
        ];
        assert_eq!(deadline_monotonic_order(&tasks), vec![1, 2, 0]);
    }

    #[test]
    fn hyperperiod_basics() {
        assert_eq!(hyperperiod(&[]), None);
        let tasks = vec![chain_task(1, 4), chain_task(1, 6)];
        assert_eq!(hyperperiod(&tasks), Some(Ticks::new(12)));
    }

    #[test]
    fn offsets_shift_releases() {
        let tasks = vec![chain_task(2, 10), chain_task(2, 10)];
        let config = SporadicConfig::new(Platform::new(2, 2), Ticks::new(20));
        let r =
            simulate_sporadic_with_offsets(&tasks, &[Ticks::ZERO, Ticks::new(5)], &config).unwrap();
        let releases: Vec<u64> = r.jobs_of_task(1).map(|j| j.release.get()).collect();
        assert_eq!(releases, vec![5, 15]);
        // Job numbering starts at 0 despite the offset.
        assert_eq!(
            r.jobs_of_task(1).map(|j| j.job).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert!(!r.any_deadline_miss());
    }

    #[test]
    fn offset_at_or_past_period_is_rejected() {
        let tasks = vec![chain_task(2, 10)];
        let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(20));
        assert!(simulate_sporadic_with_offsets(&tasks, &[Ticks::new(10)], &config).is_err());
    }

    #[test]
    fn async_release_can_change_response_times() {
        // One core: offsetting the second task away from the first's
        // release avoids the head-of-line contention of the synchronous
        // pattern.
        let tasks = vec![chain_task(4, 20), chain_task(4, 20)];
        let config = SporadicConfig::new(Platform::with_accelerator(1), Ticks::new(20));
        let sync = simulate_sporadic(&tasks, &config).unwrap();
        let async_ =
            simulate_sporadic_with_offsets(&tasks, &[Ticks::ZERO, Ticks::new(10)], &config)
                .unwrap();
        let rt_sync = sync.max_response_time(1).unwrap();
        let rt_async = async_.max_response_time(1).unwrap();
        assert!(
            rt_async < rt_sync,
            "offset should relieve device contention"
        );
    }

    #[test]
    fn segments_validate_across_modes_and_platforms() {
        let tasks = vec![
            forkjoin_task(3, 2, 12, 12),
            chain_task(4, 9),
            forkjoin_task(2, 5, 15, 15),
        ];
        for cores in [1usize, 2, 4] {
            for devices in [1usize, 3] {
                for pre in [Preemption::Preemptive, Preemption::NonPreemptive] {
                    for disc in [Discipline::FixedPriority, Discipline::EarliestDeadlineFirst] {
                        let config =
                            SporadicConfig::new(Platform::new(cores, devices), Ticks::new(36))
                                .preemption(pre)
                                .discipline(disc);
                        let r = simulate_sporadic(&tasks, &config).unwrap();
                        validate_segments(&tasks, &r, &config).unwrap_or_else(|e| {
                            panic!("m={cores} d={devices} {pre:?} {disc:?}: {e}")
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn preemption_splits_segments() {
        // One core: the low-priority fork-join work is preempted by the
        // high-priority task's next release.
        let tasks = vec![chain_task(1, 6), forkjoin_task(7, 1, 40, 40)];
        let config = SporadicConfig::new(Platform::with_accelerator(1), Ticks::new(24));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        validate_segments(&tasks, &r, &config).unwrap();
        // Some node of task 1 must have been split.
        let mut per_node = std::collections::HashMap::new();
        for s in r.segments().iter().filter(|s| s.task == 1) {
            *per_node.entry((s.job, s.node)).or_insert(0) += 1;
        }
        assert!(
            per_node.values().any(|&n| n > 1),
            "expected at least one preemption"
        );
    }

    #[test]
    fn segments_are_sorted_and_cover_wcet() {
        let tasks = vec![forkjoin_task(3, 2, 20, 20)];
        let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(20));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        assert!(r.segments().windows(2).all(|w| w[0].start <= w[1].start));
        let total: u64 = r.segments().iter().map(|s| (s.end - s.start).get()).sum();
        assert_eq!(total, tasks[0].volume().get());
        // The offloaded node ran on the device.
        let k = tasks[0].offloaded();
        assert!(r
            .segments()
            .iter()
            .any(|s| s.node == k && s.resource == SegmentResource::Device));
    }

    #[test]
    fn response_stats_aggregate_correctly() {
        let tasks = vec![chain_task(2, 10), chain_task(6, 15)];
        let config = SporadicConfig::new(Platform::with_accelerator(1), Ticks::new(30));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        let stats = r.response_stats(0).unwrap();
        assert_eq!(stats.completed, 3);
        assert!(stats.min <= stats.max);
        assert!(stats.mean >= stats.min.get() as f64);
        assert!(stats.mean <= stats.max.get() as f64);
        assert_eq!(r.response_stats(99), None);
    }

    #[test]
    fn jobs_sorted_by_release_then_task() {
        let tasks = vec![chain_task(1, 7), chain_task(1, 5)];
        let config = SporadicConfig::new(Platform::with_accelerator(2), Ticks::new(35));
        let r = simulate_sporadic(&tasks, &config).unwrap();
        assert!(r
            .jobs()
            .windows(2)
            .all(|w| (w[0].release, w[0].task) <= (w[1].release, w[1].task)));
        // 35/7 = 5 jobs + 35/5 = 7 jobs
        assert_eq!(r.jobs().len(), 12);
    }
}
