//! Carry-in workload bounds for interfering sporadic DAG tasks.
//!
//! Under global scheduling, the response time of a DAG job is inflated by
//! the workload that *other* tasks execute on the host during its
//! scheduling window. This module bounds that workload with the classical
//! carry-in decomposition used for DAG tasks by Melani et al. (ECRTS 2015)
//! and in the fixed-priority analysis of Serrano et al. (DATE 2016, the
//! paper's reference \[18\]):
//!
//! ```text
//! W(L) = ⌊L′/T⌋ · w  +  min(w, m · (L′ mod T))      L′ = L + R − w/m
//! ```
//!
//! where `w` is the interfering workload per job (full `vol(G)` on a
//! homogeneous platform; host volume `vol(G) − C_off` when the task
//! offloads — accelerator work never competes for host cores), `T` the
//! period, and `R` any sound response-time bound of the *interfering* task.
//! The `R − w/m` shift captures the worst-case carry-in alignment: the
//! first overlapping job was released as early as possible while still
//! running at the window start.
//!
//! Everything is computed in exact [`Rational`] arithmetic; windows are
//! rational because the response-time bounds being iterated are.

use hetrta_dag::{Rational, Ticks};

/// Timing summary of one interfering task, as seen by the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterferingTask {
    /// Workload one job executes **on the host** (`vol(G)` if nothing is
    /// offloaded, `vol(G) − C_off` otherwise).
    pub host_workload: Ticks,
    /// Minimum inter-arrival time `T`.
    pub period: Ticks,
    /// `C_off` of the task (zero when nothing is offloaded); used for
    /// device-contention bounds, not for host workload.
    pub c_off: Ticks,
}

/// Upper bound on the host workload of one interfering task in any window
/// of length `window`, given a sound response-time bound `resp` of that
/// task (the carry-in shift).
///
/// Monotone in `window` and in `resp`; zero when the task has no host
/// workload or the window is empty.
///
/// # Panics
///
/// Panics (debug) if `m == 0` or the period is zero.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{Rational, Ticks};
/// use hetrta_sched::workload::{carry_in_workload, InterferingTask};
///
/// let t = InterferingTask {
///     host_workload: Ticks::new(4),
///     period: Ticks::new(10),
///     c_off: Ticks::ZERO,
/// };
/// // Window of one full period with a tight bound R = 4 on m = 2:
/// // L' = 10 + 4 − 2 = 12 → one full job + min(4, 2·2) = 8.
/// let w = carry_in_workload(&t, Rational::from_integer(10), Rational::from_integer(4), 2);
/// assert_eq!(w, Rational::from_integer(8));
/// ```
#[must_use]
pub fn carry_in_workload(
    task: &InterferingTask,
    window: Rational,
    resp: Rational,
    m: u64,
) -> Rational {
    debug_assert!(m > 0, "zero cores");
    debug_assert!(!task.period.is_zero(), "zero period");
    let w = task.host_workload.to_rational();
    if w.is_zero() || window.is_negative() || window.is_zero() {
        return Rational::ZERO;
    }
    let t = task.period.to_rational();
    let shift = resp - w / Rational::from_integer(m as i128);
    let l_ext = window + shift.max(Rational::ZERO);
    let full_jobs = Rational::from_integer((l_ext / t).floor());
    let tail = l_ext - full_jobs * t;
    full_jobs * w + w.min(Rational::from_integer(m as i128) * tail)
}

/// Upper bound on the host workload of one interfering task in a window of
/// length `window` **without carry-in**: the task's first overlapping job
/// is released no earlier than the window start.
///
/// Equals [`carry_in_workload`] with a zero shift; used by the limited
/// carry-in refinement (at most `m − 1` interfering tasks can have a job
/// already executing when a busy window opens, so only the `m − 1` largest
/// `W^CI − W^NC` differences are charged on top of `Σ W^NC`).
///
/// # Examples
///
/// ```
/// use hetrta_dag::{Rational, Ticks};
/// use hetrta_sched::workload::{carry_in_workload, no_carry_in_workload, InterferingTask};
///
/// let t = InterferingTask {
///     host_workload: Ticks::new(4),
///     period: Ticks::new(10),
///     c_off: Ticks::ZERO,
/// };
/// let window = Rational::from_integer(10);
/// let nc = no_carry_in_workload(&t, window, 2);
/// let ci = carry_in_workload(&t, window, Rational::from_integer(4), 2);
/// assert!(nc <= ci);
/// assert_eq!(nc, Rational::from_integer(4)); // exactly one job fits
/// ```
#[must_use]
pub fn no_carry_in_workload(task: &InterferingTask, window: Rational, m: u64) -> Rational {
    carry_in_workload(task, window, Rational::ZERO, m)
}

/// Upper bound on the **device** time demanded by one interfering task in
/// any window of length `window`, assuming a single shared FIFO
/// accelerator (extension; the paper and the federated analysis assume a
/// dedicated device per task).
///
/// Every job overlapping the window can enqueue its offloaded node ahead
/// of ours, so the count is `⌊(L + R)/T⌋ + 1` jobs, each contributing
/// `C_off`.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{Rational, Ticks};
/// use hetrta_sched::workload::{device_demand, InterferingTask};
///
/// let t = InterferingTask {
///     host_workload: Ticks::new(4),
///     period: Ticks::new(10),
///     c_off: Ticks::new(3),
/// };
/// // L = 10, R = 6: ⌊16/10⌋ + 1 = 2 jobs → 6 ticks of device time.
/// let d = device_demand(&t, Rational::from_integer(10), Rational::from_integer(6));
/// assert_eq!(d, Rational::from_integer(6));
/// ```
#[must_use]
pub fn device_demand(task: &InterferingTask, window: Rational, resp: Rational) -> Rational {
    if task.c_off.is_zero() || window.is_negative() {
        return Rational::ZERO;
    }
    let t = task.period.to_rational();
    let jobs = ((window + resp.max(Rational::ZERO)) / t).floor() + 1;
    Rational::from_integer(jobs) * task.c_off.to_rational()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(w: u64, t: u64, c: u64) -> InterferingTask {
        InterferingTask {
            host_workload: Ticks::new(w),
            period: Ticks::new(t),
            c_off: Ticks::new(c),
        }
    }

    #[test]
    fn zero_window_contributes_nothing() {
        let t = task(4, 10, 0);
        assert_eq!(
            carry_in_workload(&t, Rational::ZERO, Rational::from_integer(4), 2),
            Rational::ZERO
        );
    }

    #[test]
    fn zero_host_workload_contributes_nothing() {
        // A task whose entire volume is offloaded never touches the host.
        let t = task(0, 10, 9);
        assert_eq!(
            carry_in_workload(
                &t,
                Rational::from_integer(100),
                Rational::from_integer(9),
                2
            ),
            Rational::ZERO
        );
    }

    #[test]
    fn workload_is_monotone_in_window() {
        let t = task(5, 12, 0);
        let resp = Rational::from_integer(7);
        let mut prev = Rational::ZERO;
        for l in 1..60 {
            let w = carry_in_workload(&t, Rational::from_integer(l), resp, 4);
            assert!(w >= prev, "not monotone at L = {l}");
            prev = w;
        }
    }

    #[test]
    fn workload_is_monotone_in_response_bound() {
        let t = task(5, 12, 0);
        let window = Rational::from_integer(30);
        let mut prev = Rational::ZERO;
        for r in 1..=12 {
            let w = carry_in_workload(&t, window, Rational::from_integer(r), 4);
            assert!(w >= prev, "not monotone at R = {r}");
            prev = w;
        }
    }

    #[test]
    fn long_window_approaches_utilization_rate() {
        // Over k periods the bound is ≤ (k+2) jobs of workload.
        let t = task(6, 10, 0);
        let w = carry_in_workload(
            &t,
            Rational::from_integer(1000),
            Rational::from_integer(8),
            2,
        );
        assert!(w <= Rational::from_integer(102 * 6));
        assert!(w >= Rational::from_integer(100 * 6));
    }

    #[test]
    fn tail_is_capped_by_one_job() {
        // Tiny window: at most one job's workload, and at most m·L.
        let t = task(40, 100, 0);
        let w = carry_in_workload(&t, Rational::ONE, Rational::from_integer(50), 2);
        assert!(w <= Rational::from_integer(40));
    }

    #[test]
    fn device_demand_counts_overlapping_jobs() {
        let t = task(4, 10, 3);
        // Tiny window, R = 0: exactly one overlapping job.
        assert_eq!(
            device_demand(&t, Rational::ONE, Rational::ZERO),
            Rational::from_integer(3)
        );
        // Window of 3 periods: ⌊30/10⌋ + 1 = 4 jobs.
        assert_eq!(
            device_demand(&t, Rational::from_integer(30), Rational::ZERO),
            Rational::from_integer(12)
        );
    }

    #[test]
    fn no_offload_no_device_demand() {
        let t = task(4, 10, 0);
        assert_eq!(
            device_demand(&t, Rational::from_integer(30), Rational::from_integer(5)),
            Rational::ZERO
        );
    }
}
