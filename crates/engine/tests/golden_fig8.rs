//! Golden parity pin: the engine aggregate of a small Figure-8-style sweep
//! must stay **bitwise identical** to a captured output. The pin held from
//! the pre-refactor engine (nested `Vec<Vec>` adjacency, per-job
//! allocation, no derived-data sharing) through every refactor since, and
//! was captured anew once, when the task stream changed (see `GOLDEN`).
//!
//! Every floating-point constant below is an exact `f64::to_bits` pattern.
//! Any change to graph layout, kernel order of operations, caching, or
//! aggregation that moves a single mantissa bit fails this test.

use hetrta_engine::{CellKind, Engine, GeneratorPreset, SweepSpec};
use hetrta_gen::NfjParams;

/// One expected cell: `(m, grid-value bits, samples, scenario counts,
/// mean/max improvement bits, mean R_het/R_hom bits, schedulable counts)`.
type GoldenCell = (
    u64,
    u64,
    usize,
    [usize; 3],
    u64,
    u64,
    u64,
    u64,
    usize,
    usize,
);

/// Captured for the spec in `golden_spec()` when NFJ attempts began to
/// end once they pass `n_max` (task stream 2), which changed the spec's
/// tasks. The values of stream 1 had held since the pre-refactor engine
/// (commit 086983d).
const GOLDEN: [GoldenCell; 4] = [
    (
        2,
        0x3f94_7ae1_47ae_147b,
        8,
        [7, 0, 1],
        0xbfec_2f44_94f2_a2d8,
        0x3fee_631b_dcd8_2b62,
        0x40a1_67a0_0000_0000,
        0x40a1_3c00_0000_0000,
        8,
        8,
    ),
    (
        2,
        0x3fd0_0000_0000_0000,
        8,
        [0, 2, 6],
        0x4043_ed63_c0d4_94c0,
        0x4048_5c06_1d7d_b4f1,
        0x40a3_a5a0_0000_0000,
        0x40ab_03a0_0000_0000,
        8,
        8,
    ),
    (
        8,
        0x3f94_7ae1_47ae_147b,
        8,
        [7, 0, 1],
        0xc01d_e2e3_efce_8803,
        0xbffb_1e5f_7527_0d04,
        0x4091_db90_0000_0000,
        0x4090_61e0_0000_0000,
        8,
        8,
    ),
    (
        8,
        0x3fd0_0000_0000_0000,
        8,
        [0, 8, 0],
        0x4034_b662_d915_fac1,
        0x4040_4ca1_af28_6bca,
        0x409c_6c50_0000_0000,
        0x40a1_0428_0000_0000,
        8,
        8,
    ),
];

fn golden_spec() -> SweepSpec {
    SweepSpec::fractions(
        GeneratorPreset::Custom(NfjParams::large_tasks().with_node_range(60, 120)),
        vec![2, 8],
        vec![0.02, 0.25],
        8,
        0x8008_0002,
    )
}

fn assert_matches_golden(engine: &Engine) {
    let out = engine.run(&golden_spec()).expect("sweep succeeds");
    assert_eq!(out.aggregate.cells.len(), GOLDEN.len());
    for (cell, golden) in out.aggregate.cells.iter().zip(GOLDEN) {
        let (m, f_bits, samples, counts, mean_imp, max_imp, mean_het, mean_hom, sh, shm) = golden;
        let CellKind::Task(t) = &cell.kind else {
            panic!("fraction sweeps produce task cells")
        };
        assert_eq!(cell.m, m);
        assert_eq!(cell.grid_value.to_bits(), f_bits);
        assert_eq!(cell.samples, samples);
        assert_eq!(t.scenario_counts, counts);
        assert_eq!(t.mean_improvement.to_bits(), mean_imp, "mean improvement");
        assert_eq!(t.max_improvement.to_bits(), max_imp, "max improvement");
        assert_eq!(t.mean_r_het.to_bits(), mean_het, "mean R_het");
        assert_eq!(t.mean_r_hom.to_bits(), mean_hom, "mean R_hom");
        assert_eq!(t.schedulable_het, sh);
        assert_eq!(t.schedulable_hom, shm);
    }
}

#[test]
fn engine_aggregate_is_bitwise_identical_to_pre_refactor_output() {
    assert_matches_golden(&Engine::new(0));
}

#[test]
fn golden_parity_holds_single_threaded_and_warm() {
    // One thread, then a warm re-run on the same engine: the cached path
    // must replay the exact same bits.
    let engine = Engine::new(1);
    assert_matches_golden(&engine);
    assert_matches_golden(&engine);
}
