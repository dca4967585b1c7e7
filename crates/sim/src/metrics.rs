//! Derived schedule metrics.

use hetrta_dag::{Dag, Rational, Ticks};

use crate::{Resource, SimResult};

/// Aggregate metrics of one simulated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// Total schedule length.
    pub makespan: Ticks,
    /// Work executed on host cores (sum of host interval lengths).
    pub host_work: Ticks,
    /// Work executed on the accelerator.
    pub accelerator_work: Ticks,
    /// Average host-core utilization over the makespan, in `[0, 1]`.
    pub host_utilization: f64,
    /// Speedup w.r.t. fully sequential execution: `vol(G) / makespan`.
    pub speedup: f64,
    /// Total host idle time (core-ticks with no work while the task ran).
    pub host_idle: Ticks,
}

/// Computes [`ScheduleMetrics`] for a simulation result.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks};
/// use hetrta_sim::{metrics::metrics_of, policy::BreadthFirst, simulate, Platform};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let f = b.node("f", Ticks::new(2));
/// let x = b.node("x", Ticks::new(4));
/// let y = b.node("y", Ticks::new(4));
/// let j = b.node("j", Ticks::new(2));
/// b.edges([(f, x), (f, y), (x, j), (y, j)])?;
/// let dag = b.build()?;
/// let r = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new())?;
/// let m = metrics_of(&dag, &r);
/// assert_eq!(m.makespan, Ticks::new(8));
/// assert_eq!(m.host_work, Ticks::new(12));
/// assert!((m.speedup - 1.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn metrics_of(dag: &Dag, result: &SimResult) -> ScheduleMetrics {
    let makespan = result.makespan();
    let mut host_work = Ticks::ZERO;
    let mut accelerator_work = Ticks::ZERO;
    for i in result.intervals() {
        let len = i.finish - i.start;
        match i.resource {
            Resource::HostCore(_) => host_work += len,
            Resource::Accelerator(_) => accelerator_work += len,
            Resource::Instant => {}
        }
    }
    let cores = result.platform().cores() as u64;
    let capacity = makespan * cores;
    let host_utilization = if capacity.is_zero() {
        0.0
    } else {
        Rational::new(host_work.get() as i128, capacity.get() as i128).to_f64()
    };
    let speedup = if makespan.is_zero() {
        1.0
    } else {
        dag.volume().as_f64() / makespan.as_f64()
    };
    ScheduleMetrics {
        makespan,
        host_work,
        accelerator_work,
        host_utilization,
        speedup,
        host_idle: capacity - host_work,
    }
}

/// Percentage change of `a` with respect to `b`: `100·(a − b)/b`.
///
/// The paper uses this metric in Figures 6 and 9 ("the percentage change
/// computes the relative change of two values from the same variable").
/// Returns 0 when `b` is zero.
///
/// # Examples
///
/// ```
/// use hetrta_sim::metrics::percentage_change;
///
/// assert_eq!(percentage_change(12.0, 10.0), 20.0);
/// assert_eq!(percentage_change(8.0, 10.0), -20.0);
/// ```
#[must_use]
pub fn percentage_change(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        100.0 * (a - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BreadthFirst;
    use crate::{simulate, Platform};
    use hetrta_dag::DagBuilder;

    #[test]
    fn hetero_metrics_split_work() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let k = b.node("k", Ticks::new(6));
        let h = b.node("h", Ticks::new(6));
        let z = b.node("z", Ticks::new(2));
        b.edges([(a, k), (a, h), (k, z), (h, z)]).unwrap();
        let dag = b.build().unwrap();
        let r = simulate(
            &dag,
            Some(k),
            Platform::with_accelerator(1),
            &mut BreadthFirst::new(),
        )
        .unwrap();
        let m = metrics_of(&dag, &r);
        assert_eq!(m.accelerator_work, Ticks::new(6));
        assert_eq!(m.host_work, Ticks::new(10));
        assert_eq!(m.makespan, Ticks::new(10)); // a(2), h ∥ k (6), z(2)
        assert_eq!(m.host_idle, Ticks::ZERO);
        assert!((m.host_utilization - 1.0).abs() < 1e-9);
        assert!((m.speedup - 1.6).abs() < 1e-9);
    }

    #[test]
    fn idle_time_accounts_for_unused_capacity() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(4));
        let z = b.node("z", Ticks::new(4));
        b.edge(a, z).unwrap();
        let dag = b.build().unwrap();
        let r = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
        let m = metrics_of(&dag, &r);
        assert_eq!(m.makespan, Ticks::new(8));
        assert_eq!(m.host_idle, Ticks::new(8)); // second core never used
        assert!((m.host_utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_schedule_metrics_are_neutral() {
        let dag = Dag::new();
        let r = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
        let m = metrics_of(&dag, &r);
        assert_eq!(m.makespan, Ticks::ZERO);
        assert_eq!(m.host_utilization, 0.0);
        assert_eq!(m.speedup, 1.0);
    }

    #[test]
    fn percentage_change_edge_cases() {
        assert_eq!(percentage_change(5.0, 0.0), 0.0);
        assert_eq!(percentage_change(10.0, 10.0), 0.0);
        assert!(percentage_change(24.8, 20.0) > 0.0);
    }

    use hetrta_dag::Dag;
}
