//! Multi-offload response-time analysis (extension).
//!
//! The paper's future work asks for "(i) more tasks assigned to the
//! accelerator device, and (ii) more devices in the heterogeneous
//! architecture". This module provides a *conservative* analysis for a DAG
//! task with a **set** `O` of offloaded nodes executing on a pool of `d`
//! identical devices, combining two sound bounds:
//!
//! 1. **Typed Graham bound.** For work-conserving scheduling over two
//!    resource pools (m host cores, d devices),
//!    `R ≤ vol_H/m + vol_A/d + max_λ Σ_{v∈λ} C_v·(1 − 1/m_type(v))`,
//!    maximizing over source-sink paths `λ` (computed by a longest-path DP
//!    with per-node weights `C_v·(1 − 1/m_t)`). With a single pool this is
//!    exactly Eq. 1 of the paper. The argument is the classical chain
//!    construction: every instant not covered by the chain has the chain's
//!    next node waiting on a full pool of its own type.
//! 2. **Candidate Theorem 1.** When `d ≥ |O|` no offloaded node ever waits
//!    for a device, so for any single candidate `v ∈ O` the paper's
//!    transformation + Theorem 1 — treating the *other* offloaded nodes as
//!    host nodes — remains sound: modeling a device node as host work only
//!    adds pessimism, and the barrier argument is unaffected. We take the
//!    best candidate.
//!
//! The returned bound is the minimum of all applicable bounds. Soundness of
//! both components is exercised against [`hetrta-sim`]'s multi-device
//! simulator by the property suite in `tests/multi_offload.rs`.
//!
//! [`hetrta-sim`]: https://docs.rs/hetrta-sim

use hetrta_dag::algo::{topological_order, CriticalPath};
use hetrta_dag::{Dag, DagError, HeteroDagTask, NodeId, Rational, Ticks};

use crate::rta::r_het;
use crate::transform::{transform_with_critical_path, TransformedTask};
use crate::AnalysisError;

/// A deployment option produced by the candidate analysis: transform the
/// task with respect to one offloaded node and run the transformed program.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The offloaded node the transformation targeted.
    pub node: NodeId,
    /// Theorem 1 bound **for the transformed program** below.
    pub bound: Rational,
    /// The transformed DAG `G'` to deploy (original node ids preserved,
    /// `v_sync` appended).
    pub transformed: Dag,
    /// The synchronization node inside `transformed`.
    pub sync: NodeId,
}

/// The result of the multi-offload analysis.
///
/// The two component bounds certify *different programs*:
///
/// * [`typed_bound`](MultiOffloadBound::typed_bound) — the **original**,
///   untransformed task;
/// * [`candidate`](MultiOffloadBound::candidate) — the task transformed
///   with respect to the best single offloaded node (the program a designer
///   would deploy to exploit Theorem 1).
///
/// [`value`](MultiOffloadBound::value) is the smaller of the two — the best
/// bound achievable when the designer is free to pick the deployment; use
/// the individual accessors when the program version is fixed.
#[derive(Debug, Clone)]
pub struct MultiOffloadBound {
    typed: Rational,
    candidate: Option<CandidatePlan>,
    m: u64,
    devices: u64,
}

impl MultiOffloadBound {
    /// The best (smallest) bound over the available deployments.
    #[must_use]
    pub fn value(&self) -> Rational {
        match &self.candidate {
            Some(c) => c.bound.min(self.typed),
            None => self.typed,
        }
    }

    /// The typed (two-pool) Graham bound — valid for the original program.
    #[must_use]
    pub fn typed_bound(&self) -> Rational {
        self.typed
    }

    /// The best single-candidate Theorem 1 deployment, when applicable
    /// (`d ≥ |O|`).
    #[must_use]
    pub fn candidate(&self) -> Option<&CandidatePlan> {
        self.candidate.as_ref()
    }

    /// Host cores the analysis assumed.
    #[must_use]
    pub fn cores(&self) -> u64 {
        self.m
    }

    /// Devices the analysis assumed.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.devices
    }
}

/// Computes the typed two-pool Graham bound (see module docs).
///
/// Nodes in `offloaded` are device work; everything else is host work.
/// Zero-WCET nodes contribute nothing.
///
/// # Errors
///
/// - [`AnalysisError::ZeroCores`] if `m == 0`, or if `offloaded` is
///   non-empty and `devices == 0`;
/// - [`AnalysisError::Dag`] on unknown nodes or cycles.
pub fn typed_graham_bound(
    dag: &Dag,
    offloaded: &[NodeId],
    m: u64,
    devices: u64,
) -> Result<Rational, AnalysisError> {
    if m == 0 || (!offloaded.is_empty() && devices == 0) {
        return Err(AnalysisError::ZeroCores);
    }
    for &v in offloaded {
        if !dag.contains_node(v) {
            return Err(AnalysisError::Dag(DagError::UnknownNode(v)));
        }
    }
    let mut is_off = vec![false; dag.node_count()];
    for &v in offloaded {
        is_off[v.index()] = true;
    }
    let (mut vol_host, mut vol_dev) = (Ticks::ZERO, Ticks::ZERO);
    for v in dag.node_ids() {
        if is_off[v.index()] {
            vol_dev += dag.wcet(v);
        } else {
            vol_host += dag.wcet(v);
        }
    }
    // Longest path under weights C_v · (1 − 1/m_t), exactly rational:
    // track numerators over the common denominator m·d.
    let md = (m as i128) * (devices.max(1) as i128);
    let weight = |v: NodeId| -> i128 {
        let c = dag.wcet(v).get() as i128;
        if is_off[v.index()] {
            // c·(1 − 1/d) scaled by m·d = c·m·(d − 1)
            c * (m as i128) * (devices.max(1) as i128 - 1)
        } else {
            // c·(1 − 1/m) scaled by m·d = c·d·(m − 1)
            c * (devices.max(1) as i128) * (m as i128 - 1)
        }
    };
    let order = topological_order(dag)?;
    let mut best = vec![0i128; dag.node_count()];
    let mut overall = 0i128;
    for &v in &order {
        let pred_best = dag
            .predecessors(v)
            .iter()
            .map(|&p| best[p.index()])
            .max()
            .unwrap_or(0);
        best[v.index()] = pred_best + weight(v);
        overall = overall.max(best[v.index()]);
    }
    let chain_term = Rational::new(overall, md);
    let pool_term = Rational::new(vol_host.get() as i128, m as i128)
        + if devices == 0 {
            Rational::ZERO
        } else {
            Rational::new(vol_dev.get() as i128, devices as i128)
        };
    Ok(pool_term + chain_term)
}

/// Multi-offload analysis: best sound bound for `dag` with the node set
/// `offloaded` executing on `devices` devices and the rest on `m` host
/// cores (see the module documentation for the component bounds).
///
/// With `offloaded.len() == 1` and `devices == 1` this reduces to
/// `min(`[Theorem 1](crate::r_het)`, typed bound)` — never worse than the
/// paper's analysis.
///
/// # Errors
///
/// - [`AnalysisError::ZeroCores`] if `m == 0`, or `devices == 0` with a
///   non-empty offload set;
/// - [`AnalysisError::Dag`] on unknown nodes or cycles.
///
/// # Examples
///
/// ```
/// use hetrta_core::multi::r_het_multi;
/// use hetrta_dag::{DagBuilder, Ticks};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let src = b.node("src", Ticks::new(1));
/// let k1 = b.node("k1", Ticks::new(8));
/// let k2 = b.node("k2", Ticks::new(8));
/// let h = b.node("h", Ticks::new(6));
/// let sink = b.node("sink", Ticks::new(1));
/// b.edges([(src, k1), (src, k2), (src, h), (k1, sink), (k2, sink), (h, sink)])?;
/// let dag = b.build()?;
///
/// let bound = r_het_multi(&dag, &[k1, k2], 2, 2)?;
/// // both kernels overlap the host work: far below serial volume 24
/// assert!(bound.value() < hetrta_dag::Rational::from_integer(24));
/// # Ok(())
/// # }
/// ```
pub fn r_het_multi(
    dag: &Dag,
    offloaded: &[NodeId],
    m: u64,
    devices: u64,
) -> Result<MultiOffloadBound, AnalysisError> {
    let typed = typed_graham_bound(dag, offloaded, m, devices)?;
    let mut best: Option<(TransformedTask, Rational)> = None;
    if !offloaded.is_empty() && devices >= offloaded.len() as u64 {
        // Every candidate transforms the same graph: one critical path
        // feeds them all, and only the winner's G' is ever built.
        let cp = CriticalPath::try_of(dag)?;
        let vol = dag.volume();
        for &v in offloaded {
            // Treat the other offloaded nodes as host nodes (conservative:
            // they never wait for a device when d ≥ |O|, and counting them
            // as host interference only adds pessimism).
            let task = HeteroDagTask::new(dag.clone(), v, vol, vol)?;
            let t = transform_with_critical_path(&task, &cp)?;
            let value = r_het(&t, m)?.tight_value();
            if best.as_ref().is_none_or(|(_, bound)| value < *bound) {
                best = Some((t, value));
            }
        }
    }
    let candidate = best.map(|(t, bound)| CandidatePlan {
        node: t.offloaded(),
        bound,
        sync: t.sync_node(),
        transformed: t.transformed().clone(),
    });
    Ok(MultiOffloadBound {
        typed,
        candidate,
        m,
        devices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r_hom_dag;
    use hetrta_dag::DagBuilder;

    fn two_kernel_dag() -> (Dag, [NodeId; 5]) {
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::new(1));
        let k1 = b.node("k1", Ticks::new(6));
        let k2 = b.node("k2", Ticks::new(6));
        let h = b.node("h", Ticks::new(4));
        let sink = b.node("sink", Ticks::new(1));
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
    fn typed_bound_reduces_to_eq1_without_offloading() {
        let (dag, _) = two_kernel_dag();
        for m in [1u64, 2, 4, 8] {
            let typed = typed_graham_bound(&dag, &[], m, 0).unwrap();
            let eq1 = r_hom_dag(&dag, m).unwrap();
            assert_eq!(typed, eq1, "m = {m}");
        }
    }

    #[test]
    fn typed_bound_known_value() {
        let (dag, [_, k1, k2, _, _]) = two_kernel_dag();
        // m = 2, d = 1: vol_H = 6, vol_A = 12.
        // weights: host c·(1 − 1/2), device c·(1 − 1/1) = 0.
        // longest weighted path: src..h..sink = (1+4+1)/2 = 3.
        // bound = 6/2 + 12/1 + 3 = 18.
        let b = typed_graham_bound(&dag, &[k1, k2], 2, 1).unwrap();
        assert_eq!(b, Rational::from_integer(18));
        // d = 2: device chain weight c·(1/2): longest weighted path now
        // src,k,sink = 0.5·(1+1) + 3 = ... host weights (1+1)/2 = 1 plus
        // k·(1−1/2) = 3 → 4; host path 3. bound = 3 + 6 + 4 = 13.
        let b2 = typed_graham_bound(&dag, &[k1, k2], 2, 2).unwrap();
        assert_eq!(b2, Rational::from_integer(13));
    }

    #[test]
    fn multi_bound_beats_serial_volume() {
        let (dag, [_, k1, k2, _, _]) = two_kernel_dag();
        let bound = r_het_multi(&dag, &[k1, k2], 2, 2).unwrap();
        assert!(bound.value() < dag.volume().to_rational());
        assert_eq!(bound.cores(), 2);
        assert_eq!(bound.devices(), 2);
        // candidate analysis applies (d ≥ |O|)
        assert!(bound.candidate().is_some());
    }

    #[test]
    fn shared_device_disables_candidate_bound() {
        let (dag, [_, k1, k2, _, _]) = two_kernel_dag();
        let bound = r_het_multi(&dag, &[k1, k2], 2, 1).unwrap();
        assert!(bound.candidate().is_none());
        assert_eq!(bound.value(), bound.typed_bound());
    }

    #[test]
    fn single_offload_never_worse_than_typed() {
        let (dag, [_, k1, _, _, _]) = two_kernel_dag();
        let bound = r_het_multi(&dag, &[k1], 2, 1).unwrap();
        assert!(bound.value() <= bound.typed_bound());
        assert_eq!(bound.candidate().unwrap().node, k1);
    }

    #[test]
    fn empty_offload_set_equals_r_hom() {
        let (dag, _) = two_kernel_dag();
        let bound = r_het_multi(&dag, &[], 4, 0).unwrap();
        assert_eq!(bound.value(), r_hom_dag(&dag, 4).unwrap());
    }

    #[test]
    fn errors() {
        let (dag, [_, k1, ..]) = two_kernel_dag();
        assert_eq!(
            r_het_multi(&dag, &[k1], 0, 1).unwrap_err(),
            AnalysisError::ZeroCores
        );
        assert_eq!(
            r_het_multi(&dag, &[k1], 2, 0).unwrap_err(),
            AnalysisError::ZeroCores
        );
        let bogus = NodeId::from_index(99);
        assert!(matches!(
            r_het_multi(&dag, &[bogus], 2, 1),
            Err(AnalysisError::Dag(DagError::UnknownNode(_)))
        ));
    }
}
