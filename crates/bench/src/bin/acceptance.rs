//! Acceptance-ratio experiment (extension): global FP / EDF / federated
//! schedulability of random heterogeneous task sets, homogeneous vs.
//! heterogeneous analysis, swept over normalized utilization.
//!
//! Runs on the batch-analysis engine: one job per generated task set,
//! spread across all cores, with content-addressed caching of the
//! six test verdicts. Seeding matches the serial
//! [`hetrta_sched::acceptance::acceptance_sweep`] path exactly.
//!
//! ```text
//! cargo run -p hetrta-bench --release --bin acceptance [-- --quick]
//! ```

use hetrta_bench::table::{pct, Table};
use hetrta_engine::{CellStat, Engine, SweepSpec, TestKind};
use hetrta_sched::taskset::TaskSetParams;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sets, cores_list) = if quick {
        (12, vec![4u64])
    } else {
        (100, vec![2u64, 4, 8, 16])
    };
    for cores in cores_list {
        // One engine per core count: set-job cache keys include `cores`,
        // so entries can never hit across iterations — a shared engine
        // would only accumulate dead memory.
        let engine = Engine::new(0);
        let spec = SweepSpec::acceptance(
            TaskSetParams::small(4, 1.0).with_offload_fraction(0.2, 0.45),
            vec![cores],
            (1..=9).map(|i| f64::from(i) / 10.0).collect(),
            4,
            sets,
            0xDAC_2018 ^ cores,
        );
        let out = engine.run(&spec).expect("sweep succeeds");

        println!("\n== acceptance ratios, m = {cores}, {sets} sets/point, offload 20-45% ==");
        let mut table = Table::new(
            std::iter::once("U/m".to_string())
                .chain(TestKind::ALL.iter().map(|t| t.label().to_string()))
                .collect(),
        );
        let ratio = |cell: &hetrta_engine::CellSummary, t| {
            cell.share(CellStat::accepted(t)).expect("acceptance cells")
        };
        for cell in &out.aggregate.cells {
            table.row(
                std::iter::once(format!("{:.2}", cell.grid_value))
                    .chain(TestKind::ALL.iter().map(|&t| pct(ratio(cell, t))))
                    .collect(),
            );
        }
        println!("{}", table.render());

        // Breakeven summary: last utilization where each test still
        // accepts at least half the sets.
        for t in TestKind::ALL {
            let breakeven = out
                .aggregate
                .cells
                .iter()
                .filter(|cell| ratio(cell, t) >= 0.5)
                .map(|cell| cell.grid_value)
                .fold(f64::NAN, f64::max);
            println!(
                "  {:>9}: 50% acceptance up to U/m ≈ {breakeven:.2}",
                t.label()
            );
        }
        println!("\n{}", out.stats.render());
    }
}
