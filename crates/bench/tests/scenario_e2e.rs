//! Non-paper registry scenarios must run end to end: campaign →
//! analysis index → full report, without panics, with every per-operator
//! artifact sized to the scenario's own panel.

use wheels_analysis::{report, AnalysisIndex};
use wheels_bench::ReproScale;
use wheels_campaign::stats::Table1;
use wheels_campaign::{Campaign, ScenarioSpec};

#[test]
fn non_paper_scenarios_run_end_to_end() {
    for spec in ScenarioSpec::registry() {
        if spec.name == "paper" {
            continue;
        }
        let campaign = Campaign::from_spec(&spec, ReproScale::Smoke.config(7)).expect("valid spec");
        let db = campaign.run_supervised_jobs(1).expect("campaign completes").db;
        assert!(!db.records.is_empty(), "{}: no records", spec.name);

        let ops = campaign.ops().to_vec();
        assert_eq!(ops.len(), spec.operators.len(), "{}", spec.name);

        let t1 = Table1::compute_for(&db, campaign.plan().route(), &ops);
        assert_eq!(t1.unique_cells.len(), ops.len());
        assert!(t1.unique_cells.iter().all(|&c| c > 0), "{}", spec.name);

        let ix = AnalysisIndex::build_for(&db, ops.clone());
        assert_eq!(ix.ops(), &ops[..]);
        let doc = report::generate_jobs(&ix, campaign.plan().route(), 2);
        for op in &ops {
            assert!(doc.contains(op.label()), "{}: {} missing", spec.name, op.label());
        }
    }
}
