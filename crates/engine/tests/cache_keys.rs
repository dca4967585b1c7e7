//! Cache keys are part of the on-disk format: the disk cache and the sweep
//! journal store entries under them, so a key that changes value between
//! versions silently turns every existing entry into a miss. This suite
//! pins the keys of one fixed Figure-8-shaped job to the values an earlier
//! version computed, and checks the digest-based hashes against a
//! byte-at-a-time reference on random graphs.

use hetrta_api::{AnalysisInput, AnalysisRegistry};
use hetrta_dag::{Dag, HeteroDagTask, NodeId, Ticks};
use hetrta_engine::cache::{hash_dag_only, hash_input, hash_task, key_with_params, result_key};
use hetrta_engine::{GeneratorPreset, JobInput, SweepSpec};
use hetrta_gen::layered::{generate_layered, LayeredParams};
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::{generate_nfj, NfjParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The 128-bit FNV-1a stream the keys were first defined with, fed one
/// byte at a time — the reference the memoized digests must reproduce.
struct ReferenceFnv(u128);

impl ReferenceFnv {
    fn new() -> Self {
        ReferenceFnv(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }

    fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u128::from(byte);
            self.0 = self
                .0
                .wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    }

    fn write_dag(&mut self, dag: &Dag) {
        self.write_u64(dag.node_count() as u64);
        for v in dag.node_ids() {
            self.write_u64(dag.wcet(v).get());
            self.write_u64(dag.out_degree(v) as u64);
            for &s in dag.successors(v) {
                self.write_u64(s.index() as u64);
            }
        }
    }
}

fn reference_hash_dag(dag: &Dag) -> u128 {
    let mut h = ReferenceFnv::new();
    h.write_dag(dag);
    h.0
}

fn reference_hash_task(task: &HeteroDagTask) -> u128 {
    let mut h = ReferenceFnv::new();
    h.write_dag(task.dag());
    h.write_u64(task.offloaded().index() as u64);
    h.write_u64(task.period().get());
    h.write_u64(task.deadline().get());
    h.0
}

#[test]
fn cache_keys_keep_their_values_across_versions() {
    // Job 0 of a Figure-8-shaped sweep: a 117-node, 190-edge task at
    // m = 2, offload fraction 0.1.
    let spec = SweepSpec::fractions(
        GeneratorPreset::Custom(NfjParams::large_tasks().with_node_range(60, 120)),
        vec![2, 8],
        vec![0.1, 0.25],
        4,
        1,
    );
    let (_, jobs) = spec.expand();
    let job = &jobs[0];
    let JobInput::BatchTask {
        batch,
        fraction,
        task_index,
        ..
    } = &job.payload.input
    else {
        panic!("a fraction sweep expands into batch tasks");
    };
    let task = batch.task(*task_index, *fraction).expect("generates");
    assert_eq!(
        (
            task.dag().node_count(),
            task.dag().edge_count(),
            job.payload.params.m
        ),
        (117, 190, 2)
    );

    // Captured when NFJ attempts began to end once they pass `n_max`
    // (task stream 2), which made job 0 a different task and put the
    // stream version into its identity. The content keys' formulas are
    // those of commit be02324, from before graphs shared their storage and
    // memoized their digest.
    let dag = hash_dag_only(task.dag());
    let content = hash_task(&task);
    let input = hash_input(&AnalysisInput::Task(task.clone()));
    assert_eq!(dag, 0x6dc8_120a_e444_bfd0_5291_8404_46e6_38e4);
    assert_eq!(content, 0xce1d_afd0_2467_da84_eb52_5067_acb2_1641);
    assert_eq!(input, 0x9eb7_ab74_48b2_983d_cc7b_684a_fac6_4896);
    // The engine's transformation (0xF0) and derived-data (0xF1) memos.
    assert_eq!(
        key_with_params(content, 0xF0, 0),
        0xf5ab_64c7_1ce6_72d6_15ed_588d_c552_0551
    );
    assert_eq!(
        key_with_params(dag, 0xF1, 0),
        0x3fc9_74a3_ff63_9b71_c839_2c8e_a0c9_6653
    );
    let het = AnalysisRegistry::builtin()
        .get("het")
        .expect("builtin")
        .cache_params(&job.payload.params);
    assert_eq!(
        result_key(input, "het", het),
        0xf6c9_4acf_aa5e_f6df_6b47_1798_da24_4dbc
    );
    assert_eq!(
        job.payload.input.identity_hash(),
        0x35e2_55eb_7f58_afba_db68_33b1_1a60_ff9d
    );
}

fn random_task(seed: u64, layered: bool) -> HeteroDagTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = if layered {
        generate_layered(&LayeredParams::default(), &mut rng).expect("generates")
    } else {
        generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generates")
    };
    make_hetero_task(
        dag,
        OffloadSelection::AnyInterior,
        CoffSizing::VolumeFraction(0.2),
        &mut rng,
    )
    .expect("offloads")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn digest_hashes_match_the_byte_at_a_time_reference(
        seed: u64,
        layered: bool,
        pick: u64,
    ) {
        let task = random_task(seed, layered);
        prop_assert_eq!(hash_task(&task), reference_hash_task(&task));
        prop_assert_eq!(hash_dag_only(task.dag()), reference_hash_dag(task.dag()));

        // Editing a clone re-digests the clone and leaves the original,
        // whose digest is already memoized in the shared storage, alone.
        let original = task.dag().digest();
        let mut edited = task.dag().clone();
        let v = NodeId::from_index((pick % edited.node_count() as u64) as usize);
        edited.set_wcet(v, edited.wcet(v) + Ticks::ONE).expect("in range");
        prop_assert_ne!(edited.digest(), original);
        prop_assert_eq!(edited.digest(), reference_hash_dag(&edited));
        prop_assert_eq!(task.dag().digest(), original);
        prop_assert_eq!(hash_task(&task), reference_hash_task(&task));
    }
}
