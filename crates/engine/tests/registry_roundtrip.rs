//! Every registered analysis key round-trips `parse → run → outcome`, and
//! unknown keys fail helpfully at every layer (selection parsing, engine
//! validation, job execution).

use hetrta_api::{
    AnalysisInput, AnalysisOutcome, AnalysisRegistry, AnalysisRequest, DirectContext,
};
use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
use hetrta_engine::AnalysisSelection;

fn figure1_task() -> HeteroDagTask {
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
    HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(50), Ticks::new(50)).unwrap()
}

/// A valid input for each registered key.
fn request_for(key: &str) -> AnalysisRequest {
    let input = match key {
        "acceptance" => AnalysisInput::TaskSet(vec![figure1_task()]),
        "cond" => AnalysisInput::Cond(
            hetrta_cond::parse_expr("pre(4); if { kernel(26) | soft(30) }; fuse(3)").unwrap(),
        ),
        _ => AnalysisInput::Task(figure1_task()),
    };
    AnalysisRequest {
        input,
        params: hetrta_api::AnalysisParams::new(2),
    }
}

#[test]
fn every_registered_key_round_trips_parse_run_outcome() {
    let registry = AnalysisRegistry::builtin();
    for key in registry.keys() {
        // parse: the engine's selection parser accepts the key …
        let selection = AnalysisSelection::parse(key).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert!(selection.contains(key));
        // … run: the registry resolves and executes it …
        let outcome = registry
            .run(key, &request_for(key), &DirectContext)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        // … outcome: and the produced value carries the same tag back.
        assert_eq!(outcome.key(), key, "outcome tag must round-trip");
    }
}

#[test]
fn outcomes_carry_the_expected_figure1_values() {
    let registry = AnalysisRegistry::builtin();
    match registry
        .run("het", &request_for("het"), &DirectContext)
        .unwrap()
    {
        AnalysisOutcome::Het(h) => {
            assert_eq!((h.r_het, h.r_hom_original), (12.0, 13.0));
        }
        other => panic!("expected het outcome, got {other:?}"),
    }
    match registry
        .run("exact", &request_for("exact"), &DirectContext)
        .unwrap()
    {
        AnalysisOutcome::Exact(Some(e)) => assert_eq!(e.makespan, 8),
        other => panic!("expected solved exact outcome, got {other:?}"),
    }
}

#[test]
fn unknown_keys_fail_helpfully_everywhere() {
    let registry = AnalysisRegistry::builtin();
    let known: Vec<String> = registry.keys().iter().map(|&k| k.to_owned()).collect();

    // Registry resolution names every valid key.
    let err = registry.get("warp").unwrap_err().to_string();
    for key in &known {
        assert!(err.contains(key), "`{key}` missing from: {err}");
    }

    // Selection parsing mirrors that.
    let err = AnalysisSelection::parse("warp").unwrap_err();
    assert!(err.contains("unknown analysis kind `warp`"), "{err}");
    for key in &known {
        assert!(err.contains(key), "`{key}` missing from: {err}");
    }

    // Wrong-input requests are typed errors, not panics.
    let err = registry
        .run("acceptance", &request_for("het"), &DirectContext)
        .unwrap_err();
    assert!(err.to_string().contains("expects a task set"), "{err}");
}

#[test]
fn custom_analyses_flow_through_the_engine() {
    use hetrta_api::{Analysis, AnalysisContext, ApiError};
    use hetrta_engine::{CellStat, Engine, GeneratorPreset, SweepSpec};
    use std::sync::Arc;

    /// Reports the critical-path length as a `hom`-tagged scalar.
    #[derive(Debug)]
    struct CriticalPath;

    impl Analysis for CriticalPath {
        fn key(&self) -> &str {
            "len"
        }
        fn describe(&self) -> &str {
            "critical-path length of the task graph"
        }
        fn run(
            &self,
            request: &AnalysisRequest,
            _ctx: &dyn AnalysisContext,
        ) -> Result<AnalysisOutcome, ApiError> {
            let task = request.input.as_task(self.key())?;
            Ok(AnalysisOutcome::Hom {
                r_hom: task.critical_path_length().as_f64(),
            })
        }
    }

    let mut registry = AnalysisRegistry::builtin();
    registry.register(Arc::new(CriticalPath));
    let engine = Engine::with_registry(1, registry);
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 4, 3)
        .with_analyses(AnalysisSelection::from_keys(["len"]));
    let out = engine.run(&spec).expect("custom analysis runs");
    let mean_r_hom = out.aggregate.cells[0].real(CellStat::MeanRHom);
    assert!(
        mean_r_hom.expect("task cell") > 0.0,
        "custom scalar reduced into the cell"
    );
}
