//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetrta_dag::{Dag, DagError, HeteroDagTask, NodeId, Ticks};

use crate::policy::{Policy, PolicyContext};
use crate::SimError;

/// The simulated platform: `m` identical host cores plus zero or more
/// accelerator devices.
///
/// The paper's platform is `Platform::with_accelerator(m)` (one device);
/// multi-device platforms support the paper's future-work direction
/// "(ii) more devices in the heterogeneous architecture".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Platform {
    cores: usize,
    accelerators: usize,
}

impl Platform {
    /// A homogeneous host with `cores` cores and no accelerator.
    #[must_use]
    pub fn host_only(cores: usize) -> Self {
        Platform {
            cores,
            accelerators: 0,
        }
    }

    /// The paper's platform: `cores` host cores plus one accelerator.
    #[must_use]
    pub fn with_accelerator(cores: usize) -> Self {
        Platform {
            cores,
            accelerators: 1,
        }
    }

    /// A general platform with `cores` host cores and `accelerators`
    /// identical devices.
    #[must_use]
    pub fn new(cores: usize, accelerators: usize) -> Self {
        Platform {
            cores,
            accelerators,
        }
    }

    /// Number of host cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of accelerator devices.
    #[must_use]
    pub fn accelerators(&self) -> usize {
        self.accelerators
    }

    /// `true` if the platform has at least one accelerator device.
    #[must_use]
    pub fn has_accelerator(&self) -> bool {
        self.accelerators > 0
    }
}

/// Where a node executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A host core (0-based index).
    HostCore(usize),
    /// An accelerator device (0-based index; the paper's single device is
    /// index 0).
    Accelerator(usize),
    /// Completed instantaneously (zero-WCET nodes such as `v_sync` and
    /// dummy terminals occupy no resource).
    Instant,
}

/// One executed node: `[start, finish)` on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The node that executed.
    pub node: NodeId,
    /// Start time.
    pub start: Ticks,
    /// Finish time (`start + C_v`).
    pub finish: Ticks,
    /// Where it ran.
    pub resource: Resource,
    /// When the node's last predecessor finished (readiness time).
    pub ready: Ticks,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    makespan: Ticks,
    intervals: Vec<Interval>,
    policy: &'static str,
    platform: Platform,
}

impl SimResult {
    /// The makespan (response time of the single job instance).
    #[must_use]
    pub fn makespan(&self) -> Ticks {
        self.makespan
    }

    /// Per-node execution intervals, ordered by start time (ties by node).
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The interval of a specific node, if it executed.
    #[must_use]
    pub fn interval_of(&self, node: NodeId) -> Option<&Interval> {
        self.intervals.iter().find(|i| i.node == node)
    }

    /// Name of the policy that produced this schedule.
    #[must_use]
    pub fn policy(&self) -> &'static str {
        self.policy
    }

    /// The platform the schedule ran on.
    #[must_use]
    pub fn platform(&self) -> Platform {
        self.platform
    }
}

/// Simulates the execution of `dag` on `platform` under `policy`, with one
/// optional offloaded node (the paper's model).
///
/// * `offloaded` — the node executing on the accelerator (`None` simulates
///   fully homogeneous execution, e.g. the `R_hom` baseline);
/// * every node executes for exactly its WCET (the paper's §5.2 setting);
/// * scheduling is non-preemptive and work-conserving: a free core
///   immediately takes a ready node, chosen by `policy`;
/// * an offloaded node starts the moment its predecessors finish whenever a
///   device is free (with a single offloaded node it therefore never
///   waits);
/// * zero-WCET nodes complete instantly without occupying a core
///   (synchronization points are dependency constructs, not work).
///
/// # Errors
///
/// - [`SimError::ZeroCores`] if the platform has no host core;
/// - [`SimError::NoAccelerator`] if `offloaded` is set on a host-only
///   platform;
/// - [`SimError::Dag`] if `offloaded` is not a node of `dag`;
/// - [`SimError::Stalled`] if the graph has a cycle.
pub fn simulate(
    dag: &Dag,
    offloaded: Option<NodeId>,
    platform: Platform,
    policy: &mut dyn Policy,
) -> Result<SimResult, SimError> {
    match offloaded {
        Some(off) => simulate_multi(dag, &[off], platform, policy),
        None => simulate_multi(dag, &[], platform, policy),
    }
}

/// Simulates `dag` with a *set* of offloaded nodes sharing the platform's
/// accelerator pool (extension of the paper's model; its future work (i)
/// and (ii)).
///
/// Offloaded nodes that become ready while every device is busy queue in
/// FIFO readiness order (ties broken by node id) — the device pool is
/// work-conserving just like the host.
///
/// # Errors
///
/// As [`simulate`], plus [`SimError::NoAccelerator`] if `offloaded` is
/// non-empty and the platform has no device.
pub fn simulate_multi(
    dag: &Dag,
    offloaded: &[NodeId],
    platform: Platform,
    policy: &mut dyn Policy,
) -> Result<SimResult, SimError> {
    let mut ws = SimWorkspace::new();
    run_event_loop(&mut ws, dag, offloaded, platform, policy)?;
    let makespan = ws
        .intervals
        .iter()
        .map(|i| i.finish)
        .max()
        .unwrap_or(Ticks::ZERO);
    let mut intervals = std::mem::take(&mut ws.intervals);
    intervals.sort_by_key(|i| (i.start, i.node));
    Ok(SimResult {
        makespan,
        intervals,
        policy: policy.name(),
        platform,
    })
}

/// Simulates `dag` and returns only the makespan, reusing `ws` for every
/// queue, heap and per-node array — the steady-state allocation count of a
/// warm workspace is zero, which is what the batch engine's per-worker
/// workspaces rely on.
///
/// Produces exactly the makespan [`simulate`] would report for the same
/// arguments (pinned by tests).
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_makespan(
    ws: &mut SimWorkspace,
    dag: &Dag,
    offloaded: Option<NodeId>,
    platform: Platform,
    policy: &mut dyn Policy,
) -> Result<Ticks, SimError> {
    let storage;
    let offloaded: &[NodeId] = match offloaded {
        Some(off) => {
            storage = [off];
            &storage
        }
        None => &[],
    };
    run_event_loop(ws, dag, offloaded, platform, policy)?;
    Ok(ws
        .intervals
        .iter()
        .map(|i| i.finish)
        .max()
        .unwrap_or(Ticks::ZERO))
}

/// Reusable scratch state of the simulation event loop: per-node arrays,
/// ready queues, resource heaps, and the interval log.
///
/// One workspace serves any number of sequential simulations of any
/// graphs/platforms; each run resets (but does not reallocate) the
/// buffers. Owned per worker thread by batch engines so steady-state
/// sweeps do near-zero heap allocation per simulated task.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    is_offloaded: Vec<bool>,
    remaining_preds: Vec<u32>,
    ready_time: Vec<Ticks>,
    intervals: Vec<Interval>,
    finished: usize,
    free_cores: BinaryHeap<Reverse<usize>>,
    free_accels: BinaryHeap<Reverse<usize>>,
    running: BinaryHeap<Reverse<(u64, u32, ResourceKey)>>,
    ready_host: Vec<NodeId>,
    ready_accel: Vec<NodeId>,
}

impl SimWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    fn reset(&mut self, dag: &Dag, offloaded: &[NodeId], platform: Platform) {
        let n = dag.node_count();
        self.is_offloaded.clear();
        self.is_offloaded.resize(n, false);
        for &off in offloaded {
            self.is_offloaded[off.index()] = true;
        }
        self.remaining_preds.clear();
        self.remaining_preds
            .extend((0..n).map(|i| dag.in_degree(NodeId::from_index(i)) as u32));
        self.ready_time.clear();
        self.ready_time.resize(n, Ticks::ZERO);
        self.intervals.clear();
        self.intervals.reserve(n);
        self.finished = 0;
        self.free_cores.clear();
        self.free_cores.extend((0..platform.cores()).map(Reverse));
        self.free_accels.clear();
        self.free_accels
            .extend((0..platform.accelerators()).map(Reverse));
        self.running.clear();
        self.ready_host.clear();
        self.ready_accel.clear();
    }
}

/// Runs the event loop into `ws` (validation, policy preparation, reset,
/// execution, stall check). `ws.intervals` holds every executed interval
/// in completion order afterwards.
fn run_event_loop(
    ws: &mut SimWorkspace,
    dag: &Dag,
    offloaded: &[NodeId],
    platform: Platform,
    policy: &mut dyn Policy,
) -> Result<(), SimError> {
    if platform.cores() == 0 {
        return Err(SimError::ZeroCores);
    }
    for &off in offloaded {
        if !dag.contains_node(off) {
            return Err(SimError::Dag(DagError::UnknownNode(off)));
        }
        if !platform.has_accelerator() {
            return Err(SimError::NoAccelerator(off));
        }
    }
    policy.prepare(dag);

    let n = dag.node_count();
    ws.reset(dag, offloaded, platform);
    let mut engine = EngineRun { dag, ws };

    let mut now = Ticks::ZERO;
    for v in dag.sources() {
        engine.release(v, now);
    }

    loop {
        // Start device work (FIFO over the device-ready queue).
        while !engine.ws.ready_accel.is_empty() && !engine.ws.free_accels.is_empty() {
            let v = engine.ws.ready_accel.remove(0);
            let Reverse(dev) = engine.ws.free_accels.pop().expect("checked non-empty");
            engine.start(v, now, ResourceKey::Accel(dev));
        }
        // Start host work while cores are free (work conservation).
        while !engine.ws.ready_host.is_empty() && !engine.ws.free_cores.is_empty() {
            let ctx = PolicyContext {
                dag,
                now: now.get(),
            };
            let idx = policy.choose(&engine.ws.ready_host, &ctx);
            assert!(
                idx < engine.ws.ready_host.len(),
                "policy {} returned out-of-range index",
                policy.name()
            );
            let v = engine.ws.ready_host.remove(idx);
            let Reverse(core) = engine.ws.free_cores.pop().expect("checked non-empty");
            engine.start(v, now, ResourceKey::Host(core));
        }

        let Some(Reverse((finish, vi, res))) = engine.ws.running.pop() else {
            break;
        };
        now = Ticks::new(finish);
        match res {
            ResourceKey::Host(core) => engine.ws.free_cores.push(Reverse(core)),
            ResourceKey::Accel(dev) => engine.ws.free_accels.push(Reverse(dev)),
        }
        engine.ws.finished += 1;
        let v = NodeId::from_index(vi as usize);
        for &s in dag.successors(v) {
            engine.ws.remaining_preds[s.index()] -= 1;
            if engine.ws.remaining_preds[s.index()] == 0 {
                engine.release(s, now);
            }
        }
    }

    if ws.finished != n {
        return Err(SimError::Stalled {
            unfinished: n - ws.finished,
        });
    }
    Ok(())
}

/// Internal ordering key so simultaneous completions resolve
/// deterministically (host cores before accelerators, then node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ResourceKey {
    Host(usize),
    Accel(usize),
}

struct EngineRun<'a, 'w> {
    dag: &'a Dag,
    ws: &'w mut SimWorkspace,
}

impl EngineRun<'_, '_> {
    fn start(&mut self, v: NodeId, now: Ticks, key: ResourceKey) {
        let finish = now + self.dag.wcet(v);
        self.ws
            .running
            .push(Reverse((finish.get(), v.index() as u32, key)));
        let resource = match key {
            ResourceKey::Host(c) => Resource::HostCore(c),
            ResourceKey::Accel(d) => Resource::Accelerator(d),
        };
        self.ws.intervals.push(Interval {
            node: v,
            start: now,
            finish,
            resource,
            ready: self.ws.ready_time[v.index()],
        });
    }

    /// A node became ready: dispatch to a device queue, instant-complete,
    /// or queue for the host.
    fn release(&mut self, v: NodeId, now: Ticks) {
        self.ws.ready_time[v.index()] = now;
        let wcet = self.dag.wcet(v);
        if wcet.is_zero() {
            self.ws.intervals.push(Interval {
                node: v,
                start: now,
                finish: now,
                resource: Resource::Instant,
                ready: now,
            });
            self.ws.finished += 1;
            for i in 0..self.dag.successors(v).len() {
                let s = self.dag.successors(v)[i];
                self.ws.remaining_preds[s.index()] -= 1;
                if self.ws.remaining_preds[s.index()] == 0 {
                    self.release(s, now);
                }
            }
        } else if self.ws.is_offloaded[v.index()] {
            self.ws.ready_accel.push(v);
        } else {
            self.ws.ready_host.push(v);
        }
    }
}

/// Simulates a [`HeteroDagTask`] on `cores` host cores plus the accelerator.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_hetero_task(
    task: &HeteroDagTask,
    cores: usize,
    policy: &mut dyn Policy,
) -> Result<SimResult, SimError> {
    simulate(
        task.dag(),
        Some(task.offloaded()),
        Platform::with_accelerator(cores),
        policy,
    )
}

/// Runs the deterministic policies plus `random_seeds` seeded random
/// tie-breakers and returns the schedule with the **largest** makespan —
/// an empirical lower bound on the true worst case over work-conserving
/// schedulers, used to probe the tightness of `R_hom` / `R_het`.
///
/// # Errors
///
/// See [`simulate`].
pub fn explore_worst_case(
    dag: &Dag,
    offloaded: Option<NodeId>,
    platform: Platform,
    random_seeds: u64,
) -> Result<SimResult, SimError> {
    use crate::policy::{BreadthFirst, CriticalPathFirst, DepthFirst, RandomTieBreak};
    let mut worst = simulate(dag, offloaded, platform, &mut BreadthFirst::new())?;
    for result in [
        simulate(dag, offloaded, platform, &mut DepthFirst::new())?,
        simulate(dag, offloaded, platform, &mut CriticalPathFirst::new())?,
    ] {
        if result.makespan() > worst.makespan() {
            worst = result;
        }
    }
    for seed in 0..random_seeds {
        let result = simulate(dag, offloaded, platform, &mut RandomTieBreak::new(seed))?;
        if result.makespan() > worst.makespan() {
            worst = result;
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BreadthFirst, CriticalPathFirst, DepthFirst};
    use hetrta_dag::DagBuilder;

    /// Figure 1(a) of the paper with the reconstructed WCETs
    /// (C1=1, C2=4, C3=6, C4=2, C5=1, C_off=4).
    fn figure1() -> (Dag, [NodeId; 6]) {
        let mut b = DagBuilder::new();
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
        .unwrap();
        (b.build().unwrap(), [v1, v2, v3, v4, v5, voff])
    }

    #[test]
    fn chain_runs_sequentially() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let c = b.node("c", Ticks::new(3));
        b.edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let r = simulate(&dag, None, Platform::host_only(4), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r.makespan(), Ticks::new(5));
        assert_eq!(r.interval_of(a).unwrap().start, Ticks::ZERO);
        assert_eq!(r.interval_of(c).unwrap().start, Ticks::new(2));
    }

    #[test]
    fn parallel_branches_use_both_cores() {
        let mut b = DagBuilder::new();
        let f = b.node("f", Ticks::ONE);
        let x = b.node("x", Ticks::new(3));
        let y = b.node("y", Ticks::new(3));
        let j = b.node("j", Ticks::ONE);
        b.edges([(f, x), (f, y), (x, j), (y, j)]).unwrap();
        let dag = b.build().unwrap();
        let r = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r.makespan(), Ticks::new(5));
        let (ix, iy) = (r.interval_of(x).unwrap(), r.interval_of(y).unwrap());
        assert_eq!(ix.start, iy.start);
        assert_ne!(ix.resource, iy.resource);
        let r1 = simulate(&dag, None, Platform::host_only(1), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r1.makespan(), Ticks::new(8));
    }

    #[test]
    fn figure1_breadth_first_hits_worst_case_12() {
        let (dag, [_, _, _, _, _, voff]) = figure1();
        let r = simulate(
            &dag,
            Some(voff),
            Platform::with_accelerator(2),
            &mut BreadthFirst::new(),
        )
        .unwrap();
        assert_eq!(r.makespan(), Ticks::new(12));
        assert_eq!(
            r.interval_of(voff).unwrap().resource,
            Resource::Accelerator(0)
        );
    }

    #[test]
    fn figure1_critical_path_first_achieves_8() {
        let (dag, [_, _, _, _, _, voff]) = figure1();
        let r = simulate(
            &dag,
            Some(voff),
            Platform::with_accelerator(2),
            &mut CriticalPathFirst::new(),
        )
        .unwrap();
        assert_eq!(r.makespan(), Ticks::new(8));
    }

    #[test]
    fn figure1_worst_case_exploration_bounded_by_r_hom() {
        let (dag, [_, _, _, _, _, voff]) = figure1();
        let worst =
            explore_worst_case(&dag, Some(voff), Platform::with_accelerator(2), 200).unwrap();
        assert!(worst.makespan() >= Ticks::new(12));
        assert!(worst.makespan() <= Ticks::new(13));
    }

    #[test]
    fn offloaded_node_starts_immediately_when_ready() {
        let (dag, [v1, _, _, v4, _, voff]) = figure1();
        let r = simulate(
            &dag,
            Some(voff),
            Platform::with_accelerator(1),
            &mut DepthFirst::new(),
        )
        .unwrap();
        let ioff = r.interval_of(voff).unwrap();
        let iv4 = r.interval_of(v4).unwrap();
        assert_eq!(ioff.start, iv4.finish);
        let _ = v1;
    }

    #[test]
    fn homogeneous_execution_puts_offloaded_on_host() {
        let (dag, [_, _, _, _, _, voff]) = figure1();
        let r = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
        assert!(matches!(
            r.interval_of(voff).unwrap().resource,
            Resource::HostCore(_)
        ));
        assert!(r.makespan() <= Ticks::new(13));
    }

    #[test]
    fn zero_wcet_nodes_complete_instantly_without_core() {
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ZERO);
        let a = b.node("a", Ticks::new(2));
        let c = b.node("c", Ticks::new(2));
        b.edges([(src, a), (src, c)]).unwrap();
        b.allow_multiple_sources_and_sinks();
        let dag = b.build().unwrap();
        let r = simulate(&dag, None, Platform::host_only(1), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r.interval_of(src).unwrap().resource, Resource::Instant);
        assert_eq!(r.makespan(), Ticks::new(4));
    }

    #[test]
    fn chained_zero_wcet_nodes_cascade() {
        let mut b = DagBuilder::new();
        let s0 = b.node("s0", Ticks::ZERO);
        let s1 = b.node("s1", Ticks::ZERO);
        let a = b.node("a", Ticks::new(3));
        b.edges([(s0, s1), (s1, a)]).unwrap();
        let dag = b.build().unwrap();
        let r = simulate(&dag, None, Platform::host_only(1), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r.makespan(), Ticks::new(3));
        assert_eq!(r.interval_of(a).unwrap().start, Ticks::ZERO);
    }

    #[test]
    fn errors_are_reported() {
        let (dag, [_, _, _, _, _, voff]) = figure1();
        assert_eq!(
            simulate(&dag, None, Platform::host_only(0), &mut BreadthFirst::new()).unwrap_err(),
            SimError::ZeroCores
        );
        assert_eq!(
            simulate(
                &dag,
                Some(voff),
                Platform::host_only(2),
                &mut BreadthFirst::new()
            )
            .unwrap_err(),
            SimError::NoAccelerator(voff)
        );
        let bogus = NodeId::from_index(400);
        assert!(matches!(
            simulate(
                &dag,
                Some(bogus),
                Platform::with_accelerator(2),
                &mut BreadthFirst::new()
            ),
            Err(SimError::Dag(DagError::UnknownNode(_)))
        ));
    }

    #[test]
    fn cycle_stalls_cleanly() {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::ONE);
        let b = dag.add_node(Ticks::ONE);
        dag.add_edge(a, b).unwrap();
        dag.add_edge(b, a).unwrap();
        assert!(matches!(
            simulate(&dag, None, Platform::host_only(1), &mut BreadthFirst::new()),
            Err(SimError::Stalled { unfinished: 2 })
        ));
    }

    #[test]
    fn empty_dag_has_zero_makespan() {
        let dag = Dag::new();
        let r = simulate(&dag, None, Platform::host_only(1), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r.makespan(), Ticks::ZERO);
        assert!(r.intervals().is_empty());
    }

    #[test]
    fn intervals_sorted_and_complete() {
        let (dag, _) = figure1();
        let r = simulate(&dag, None, Platform::host_only(3), &mut BreadthFirst::new()).unwrap();
        assert_eq!(r.intervals().len(), dag.node_count());
        assert!(r.intervals().windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(r.platform(), Platform::host_only(3));
        assert_eq!(r.policy(), "breadth-first");
    }

    #[test]
    fn more_cores_never_needed_beyond_width() {
        let (dag, _) = figure1();
        let r4 = simulate(&dag, None, Platform::host_only(4), &mut BreadthFirst::new()).unwrap();
        let r16 = simulate(
            &dag,
            None,
            Platform::host_only(16),
            &mut BreadthFirst::new(),
        )
        .unwrap();
        assert_eq!(r4.makespan(), r16.makespan());
        assert_eq!(r16.makespan(), Ticks::new(8));
    }

    // ---- multi-offload / multi-device (extension) ----

    /// src → {k1, k2, h} → sink with k1, k2 offloaded.
    fn two_kernel_dag() -> (Dag, [NodeId; 5]) {
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ONE);
        let k1 = b.node("k1", Ticks::new(6));
        let k2 = b.node("k2", Ticks::new(6));
        let h = b.node("h", Ticks::new(4));
        let sink = b.node("sink", Ticks::ONE);
        b.edges([
            (src, k1),
            (src, k2),
            (src, h),
            (k1, sink),
            (k2, sink),
            (h, sink),
        ])
        .unwrap();
        (b.build().unwrap(), [src, k1, k2, h, sink])
    }

    #[test]
    fn single_device_serializes_two_kernels() {
        let (dag, [_, k1, k2, _, _]) = two_kernel_dag();
        let r = simulate_multi(
            &dag,
            &[k1, k2],
            Platform::with_accelerator(1),
            &mut BreadthFirst::new(),
        )
        .unwrap();
        // k1 runs 1..7, k2 queues and runs 7..13, sink at 13..14.
        assert_eq!(r.makespan(), Ticks::new(14));
        assert_eq!(r.interval_of(k2).unwrap().start, Ticks::new(7));
        assert_eq!(
            r.interval_of(k2).unwrap().resource,
            Resource::Accelerator(0)
        );
    }

    #[test]
    fn two_devices_run_kernels_in_parallel() {
        let (dag, [_, k1, k2, _, _]) = two_kernel_dag();
        let r = simulate_multi(
            &dag,
            &[k1, k2],
            Platform::new(1, 2),
            &mut BreadthFirst::new(),
        )
        .unwrap();
        // both kernels run 1..7 on different devices; sink at 7..8
        assert_eq!(r.makespan(), Ticks::new(8));
        let (i1, i2) = (r.interval_of(k1).unwrap(), r.interval_of(k2).unwrap());
        assert_eq!(i1.start, i2.start);
        assert_ne!(i1.resource, i2.resource);
    }

    #[test]
    fn device_queue_is_work_conserving_fifo() {
        let (dag, [_, k1, k2, h, _]) = two_kernel_dag();
        let r = simulate_multi(
            &dag,
            &[k1, k2],
            Platform::with_accelerator(2),
            &mut BreadthFirst::new(),
        )
        .unwrap();
        // the device never idles while a kernel waits
        let i1 = r.interval_of(k1).unwrap();
        let i2 = r.interval_of(k2).unwrap();
        assert_eq!(i2.start, i1.finish);
        // host node unaffected
        assert_eq!(r.interval_of(h).unwrap().resource, Resource::HostCore(0));
    }

    #[test]
    fn workspace_makespan_matches_simulate() {
        // One warm workspace across graphs, platforms and policies must
        // reproduce the makespan of the allocating path exactly.
        let (fig, [_, _, _, _, _, voff]) = figure1();
        let (two, [_, k1, _, _, _]) = two_kernel_dag();
        let mut ws = SimWorkspace::new();
        for m in [1usize, 2, 4] {
            for (dag, off) in [
                (&fig, Some(voff)),
                (&fig, None),
                (&two, Some(k1)),
                (&two, None),
            ] {
                let platform = if off.is_some() {
                    Platform::with_accelerator(m)
                } else {
                    Platform::host_only(m)
                };
                let full = simulate(dag, off, platform, &mut BreadthFirst::new()).unwrap();
                let fast = simulate_makespan(&mut ws, dag, off, platform, &mut BreadthFirst::new())
                    .unwrap();
                assert_eq!(full.makespan(), fast);
                let fast_dfs =
                    simulate_makespan(&mut ws, dag, off, platform, &mut DepthFirst::new()).unwrap();
                let full_dfs = simulate(dag, off, platform, &mut DepthFirst::new()).unwrap();
                assert_eq!(full_dfs.makespan(), fast_dfs);
            }
        }
    }

    #[test]
    fn workspace_errors_match_simulate() {
        let (dag, [_, _, _, _, _, voff]) = figure1();
        let mut ws = SimWorkspace::new();
        assert_eq!(
            simulate_makespan(
                &mut ws,
                &dag,
                None,
                Platform::host_only(0),
                &mut BreadthFirst::new()
            )
            .unwrap_err(),
            SimError::ZeroCores
        );
        assert_eq!(
            simulate_makespan(
                &mut ws,
                &dag,
                Some(voff),
                Platform::host_only(2),
                &mut BreadthFirst::new()
            )
            .unwrap_err(),
            SimError::NoAccelerator(voff)
        );
    }

    #[test]
    fn empty_offload_set_equals_homogeneous() {
        let (dag, _) = two_kernel_dag();
        let a =
            simulate_multi(&dag, &[], Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
        let b = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
        assert_eq!(a.makespan(), b.makespan());
    }
}
