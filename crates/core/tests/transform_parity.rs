//! Algorithm-1 rewiring parity: the mutation-free CSR assembly in
//! `hetrta_core::transform` must produce a transformed graph **bitwise
//! identical** to the legacy path (clone the task graph, then
//! `remove_edge`/`add_edge` per rerouted edge) — same `v_sync` id, same
//! adjacency order in every successor and predecessor segment, same
//! derived quantities. The legacy reference below is a verbatim copy of
//! the pre-refactor implementation, running on the `legacy-mutation`
//! feature of `hetrta-dag`.
//!
//! The second half pins `transform`'s one-pass numbers (computed from the
//! original graph's critical path, no graph built) and its lazily built
//! graphs against `transform_with_reachability`, the materialized
//! reference that builds `G'` and `G_par` and reads their critical paths.

use hetrta_core::{transform, transform_with_reachability, AnalysisError, TransformedTask};
use hetrta_dag::algo::Reachability;
use hetrta_dag::{BitSet, Dag, DagError, HeteroDagTask, NodeId, Ticks};
use hetrta_gen::layered::{generate_layered, LayeredParams};
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::{generate_nfj, NfjParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-refactor Algorithm 1: mutate a clone of the task graph.
/// Returns `(G', v_sync, V_par)`.
fn legacy_transform(task: &HeteroDagTask) -> (Dag, NodeId, BitSet) {
    let reach = Reachability::of(task.dag()).expect("acyclic");
    let dag = task.dag();
    let v_off = task.offloaded();
    let n = dag.node_count();

    let pred = reach.ancestors(v_off).clone();
    let succ = reach.descendants(v_off).clone();

    let mut g2 = dag.clone();
    let sync = g2.add_labeled_node("v_sync", Ticks::ZERO);

    let direct_pred: Vec<NodeId> = g2.predecessors(v_off).to_vec();
    for &vi in &direct_pred {
        g2.remove_edge(vi, v_off).expect("direct pred edge");
        if !g2.has_edge(vi, sync) {
            g2.add_edge(vi, sync).expect("fresh sync edge");
        }
        for vj in g2.successors(vi).to_vec() {
            if vj == sync {
                continue;
            }
            g2.remove_edge(vi, vj).expect("snapshot edge");
            if !g2.has_edge(sync, vj) {
                g2.add_edge(sync, vj).expect("rerouted edge");
            }
        }
    }

    g2.add_edge(sync, v_off).expect("barrier edge");

    for vi in pred.iter().filter(|v| !direct_pred.contains(v)) {
        for vj in g2.successors(vi).to_vec() {
            if vj == sync || pred.contains(vj) {
                continue;
            }
            assert!(!succ.contains(vj), "transitive edge slipped through");
            g2.remove_edge(vi, vj).expect("snapshot edge");
            if !g2.has_edge(sync, vj) {
                g2.add_edge(sync, vj).expect("rerouted edge");
            }
        }
    }

    let mut par_nodes = BitSet::full(n);
    par_nodes.difference_with(&pred);
    par_nodes.difference_with(&succ);
    par_nodes.remove(v_off);

    (g2, sync, par_nodes)
}

fn assert_same_dag(new: &Dag, legacy: &Dag) {
    assert_eq!(new.node_count(), legacy.node_count(), "node count");
    assert_eq!(new.edge_count(), legacy.edge_count(), "edge count");
    for v in new.node_ids() {
        assert_eq!(new.wcet(v), legacy.wcet(v), "wcet of {v}");
        assert_eq!(new.label(v), legacy.label(v), "label of {v}");
        assert_eq!(
            new.successors(v),
            legacy.successors(v),
            "successor segment of {v}"
        );
        assert_eq!(
            new.predecessors(v),
            legacy.predecessors(v),
            "predecessor segment of {v}"
        );
    }
}

fn random_task(seed: u64, fraction: f64) -> HeteroDagTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generation succeeds");
    if dag.node_count() < 3 {
        return random_task(seed.wrapping_add(0x9e37_79b9), fraction);
    }
    make_hetero_task(
        dag,
        OffloadSelection::AnyInterior,
        CoffSizing::VolumeFraction(fraction),
        &mut rng,
    )
    .expect("offload assignment succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transform_matches_legacy_mutation_path(seed in 0u64..100_000, pct in 1u32..70) {
        let task = random_task(seed, f64::from(pct) / 100.0);
        let t = transform(&task).expect("transformable");
        let (legacy_g2, legacy_sync, legacy_par) = legacy_transform(&task);

        prop_assert_eq!(t.sync_node(), legacy_sync);
        assert_same_dag(t.transformed(), &legacy_g2);
        prop_assert_eq!(t.par_nodes().iter().collect::<Vec<_>>(),
                        legacy_par.iter().collect::<Vec<_>>());
        // Every offloaded node in G' hangs directly off the barrier.
        prop_assert!(t.transformed().has_edge(legacy_sync, task.offloaded()));
    }
}

/// Offloading *every* interior node of a fixed graph covers the edit-set
/// corners the uniform sampler rarely hits (off at a fork, at a join,
/// with shared parallel successors).
#[test]
fn transform_matches_legacy_for_every_offload_choice() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generates");
        let n = dag.node_count();
        for v in 0..n {
            let v = NodeId::from_index(v);
            if Some(v) == dag.source() || Some(v) == dag.sink() {
                continue;
            }
            let task = HeteroDagTask::new(dag.clone(), v, Ticks::new(10_000), Ticks::new(10_000))
                .expect("valid task");
            let t = transform(&task).expect("transformable");
            let (legacy_g2, legacy_sync, _) = legacy_transform(&task);
            assert_eq!(t.sync_node(), legacy_sync);
            assert_same_dag(t.transformed(), &legacy_g2);
        }
    }
}

/// `transform`'s numbers and lazily built graphs equal the materialized
/// reference's, bitwise.
fn assert_matches_reference(task: &HeteroDagTask) {
    let reach = Reachability::of(task.dag()).expect("acyclic");
    let reference = transform_with_reachability(task, &reach).expect("transformable");
    let lazy = transform(task).expect("transformable");
    let numbers = |t: &TransformedTask| {
        (
            t.len_transformed(),
            t.vol_transformed(),
            t.len_g_par(),
            t.vol_g_par(),
            t.off_on_critical_path(),
            t.is_degenerate(),
            t.sync_node(),
        )
    };
    assert_eq!(
        numbers(&lazy),
        numbers(&reference),
        "numbers with v_off = {}",
        task.offloaded()
    );
    assert_same_dag(lazy.transformed(), reference.transformed());
    assert_eq!(
        lazy.transformed().digest(),
        reference.transformed().digest()
    );
    assert_eq!(lazy.par_nodes(), reference.par_nodes());
    assert_same_dag(lazy.g_par(), reference.g_par());
    assert_eq!(lazy.g_par().digest(), reference.g_par().digest());
    for v in lazy.g_par().node_ids() {
        assert_eq!(lazy.g_par_original_id(v), reference.g_par_original_id(v));
    }
}

fn sized_task(params: &NfjParams, seed: u64, fraction: f64) -> HeteroDagTask {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let Ok(dag) = generate_nfj(params, &mut rng) else {
            continue;
        };
        if let Ok(task) = make_hetero_task(
            dag,
            OffloadSelection::AnyInterior,
            CoffSizing::VolumeFraction(fraction),
            &mut rng,
        ) {
            return task;
        }
    }
}

fn layered_task(params: &LayeredParams, seed: u64, fraction: f64) -> HeteroDagTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = generate_layered(params, &mut rng).expect("valid params");
    make_hetero_task(
        dag,
        OffloadSelection::AnyInterior,
        CoffSizing::VolumeFraction(fraction),
        &mut rng,
    )
    .expect("offload assignment succeeds")
}

/// `dag` without its source and sink: several sources and sinks, so some
/// paths of `G'` bypass the barrier (the generators' graphs have one
/// source, which every `v_off` but itself descends from).
fn without_terminals(dag: &Dag) -> Dag {
    let mut keep = BitSet::full(dag.node_count());
    for v in dag.node_ids() {
        if dag.in_degree(v) == 0 || dag.out_degree(v) == 0 {
            keep.remove(v);
        }
    }
    dag.induced_subgraph(&keep).0
}

/// Every node of `dag` as `v_off`, the source and sink included.
fn every_offload(dag: &Dag) -> impl Iterator<Item = HeteroDagTask> + '_ {
    dag.node_ids().map(|v| {
        HeteroDagTask::new(dag.clone(), v, Ticks::new(1_000_000), Ticks::new(1_000_000))
            .expect("valid task")
    })
}

const FRACTIONS: [f64; 3] = [0.1, 0.3, 0.6];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn numbers_match_reference_for_every_offload_of_small_tasks(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generates");
        for dag in [without_terminals(&dag), dag] {
            for task in every_offload(&dag) {
                assert_matches_reference(&task);
            }
        }
    }

    #[test]
    fn numbers_match_reference_at_fig8_and_paper_sizes(
        seed in 0u64..100_000, f in 0usize..3, paper in any::<bool>()
    ) {
        let (lo, hi) = if paper { (100, 250) } else { (60, 120) };
        let params = NfjParams::large_tasks().with_node_range(lo, hi);
        assert_matches_reference(&sized_task(&params, seed, FRACTIONS[f]));
    }

    #[test]
    fn numbers_match_reference_on_layered_graphs(seed in 0u64..100_000, f in 0usize..3) {
        let task = layered_task(&LayeredParams::default(), seed, FRACTIONS[f]);
        assert_matches_reference(&task);
        for dag in [without_terminals(task.dag()), task.dag().clone()] {
            for task in every_offload(&dag) {
                assert_matches_reference(&task);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn numbers_match_reference_on_the_10k_tier(seed in 0u64..100_000, f in 0usize..3) {
        assert_matches_reference(&sized_task(&NfjParams::large_graphs(10_000), seed, FRACTIONS[f]));
    }
}

/// The paper's Figures 1(a) and 3(a), every node offloaded in turn.
#[test]
fn numbers_match_reference_on_the_paper_figures() {
    let figure1 = {
        let mut b = hetrta_dag::DagBuilder::new();
        let v: Vec<NodeId> = [1, 4, 6, 2, 1, 4]
            .iter()
            .enumerate()
            .map(|(i, &c)| b.node(format!("v{}", i + 1), Ticks::new(c)))
            .collect();
        b.edges(
            [(0, 1), (0, 2), (0, 3), (3, 5), (1, 4), (2, 4), (5, 4)].map(|(f, t)| (v[f], v[t])),
        )
        .unwrap();
        b.build().unwrap()
    };
    let figure3 = {
        // v1 v2 v3 v7 v8 v9 v_off v10 v11 v12, all WCET 1.
        let mut b = hetrta_dag::DagBuilder::new();
        let v: Vec<NodeId> = (0..10)
            .map(|i| b.node(format!("n{i}"), Ticks::ONE))
            .collect();
        b.edges(
            [
                (0, 1),
                (0, 2),
                (0, 5),
                (2, 3),
                (2, 4),
                (4, 6),
                (4, 8),
                (5, 6),
                (1, 7),
                (3, 7),
                (6, 9),
                (8, 9),
                (7, 9),
            ]
            .map(|(f, t)| (v[f], v[t])),
        )
        .unwrap();
        b.build().unwrap()
    };
    for dag in [figure1, figure3] {
        for task in every_offload(&dag) {
            assert_matches_reference(&task);
        }
    }
}

/// Generated graphs are transitively reduced, so the boundary check never
/// fires on them: across the generator presets, for every offload choice,
/// no transformation reports a transitive edge.
#[test]
fn generator_presets_have_no_transitive_edge_at_the_boundary() {
    let mut graphs: Vec<Dag> = Vec::new();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        graphs.push(generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generates"));
        graphs.push(generate_layered(&LayeredParams::default(), &mut rng).expect("generates"));
    }
    for (seed, (lo, hi)) in [(60, 120), (100, 250), (100, 400)].into_iter().enumerate() {
        let params = NfjParams::large_tasks().with_node_range(lo, hi);
        for i in 0..4u64 {
            graphs.push(
                sized_task(&params, 1_000 * seed as u64 + i, 0.2)
                    .dag()
                    .clone(),
            );
        }
    }
    let mut transitive = 0usize;
    let mut checked = 0usize;
    for dag in &graphs {
        for task in every_offload(dag) {
            checked += 1;
            match transform(&task) {
                Ok(_) => {}
                Err(AnalysisError::Dag(DagError::TransitiveEdge(..))) => transitive += 1,
                Err(e) => panic!("unexpected transformation error: {e}"),
            }
        }
    }
    assert!(checked > 1_000, "only {checked} offload choices checked");
    assert_eq!(
        transitive, 0,
        "{transitive} of {checked} offload choices hit a transitive edge"
    );
}
