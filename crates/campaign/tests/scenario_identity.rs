//! Specs must survive a JSON round trip without changing the campaign
//! they describe. (The paper world's bytes are pinned by
//! `golden_campaign.rs`.)

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};

#[test]
fn specs_survive_json_round_trip() {
    for spec in ScenarioSpec::registry() {
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec deserializes");
        assert_eq!(spec, back, "{} changed across the round trip", spec.name);
        back.validate().expect("round-tripped spec validates");
    }
}

#[test]
fn round_tripped_spec_runs_identical_campaign() {
    // The property behind `--scenario FILE.json`: a spec that went
    // through JSON drives the exact same campaign as the original.
    for spec in ScenarioSpec::registry() {
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec deserializes");
        let mut cfg = CampaignConfig::quick_network_only(9);
        cfg.scale = 0.01;
        cfg.passive_tick_s = 30.0;
        let run = |spec: &ScenarioSpec| {
            let campaign = Campaign::from_spec(spec, cfg.clone()).expect("registry spec is valid");
            campaign.run_supervised_jobs(1).expect("no fail-fast").db
        };
        let (a, b) = (run(&spec), run(&back));
        let a = wheels_xcal::export::to_json(&a).expect("original serializes");
        let b = wheels_xcal::export::to_json(&b).expect("round-tripped serializes");
        assert!(a == b, "{}: round-tripped spec ran a different campaign", spec.name);
    }
}
