//! The parallel executor's core guarantee: `run_supervised_jobs(n)`
//! produces a byte-identical exported dataset for every worker count, at
//! every seed.
//!
//! Work units derive their RNG streams from `(campaign_seed, unit key)`
//! and shards merge in canonical unit order, so thread count and
//! completion order must not leak into the output. These tests prove it
//! on the exported JSON — the strongest equality the dataset has.

use wheels_campaign::{Campaign, CampaignConfig, FaultProfile, UnitStatus};
use wheels_xcal::database::ConsolidatedDb;
use wheels_xcal::export::to_json;

/// A miniature campaign exercising every unit kind: drive cycles,
/// static city baselines, and passive loggers.
fn mini(seed: u64) -> Campaign {
    mini_faulted(seed, FaultProfile::None)
}

/// [`mini`] under an apparatus fault profile.
fn mini_faulted(seed: u64, profile: FaultProfile) -> Campaign {
    Campaign::new(mini_cfg(seed, profile))
}

fn mini_cfg(seed: u64, profile: FaultProfile) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick_network_only(seed);
    cfg.scale = 0.004;
    cfg.passive_tick_s = 120.0;
    cfg.fault_profile = profile;
    cfg
}

/// The dataset of `campaign` run on `jobs` workers (fail-fast is off, so
/// the run always completes).
fn run(campaign: &Campaign, jobs: usize) -> ConsolidatedDb {
    campaign.run_supervised_jobs(jobs).expect("tolerant by default").db
}

#[test]
fn sequential_equals_parallel_at_every_worker_count() {
    for seed in [11, 42] {
        let campaign = mini(seed);
        let baseline = to_json(&run(&campaign, 1)).expect("export");
        assert!(!baseline.is_empty());
        for jobs in [1, 2, 4] {
            let parallel = to_json(&run(&campaign, jobs)).expect("export");
            assert_eq!(
                baseline, parallel,
                "seed {seed}: jobs={jobs} diverged from sequential run"
            );
        }
    }
}

#[test]
fn parallel_covers_every_unit_kind() {
    let campaign = mini(11);
    let db = run(&campaign, 4);
    assert!(db.records.iter().any(|r| !r.is_static), "no drive records");
    assert!(db.records.iter().any(|r| r.is_static), "no static records");
    assert_eq!(db.passive.len(), 3, "one passive log per operator");
}

#[test]
fn merged_ids_are_strictly_increasing_and_time_sorted() {
    let db = run(&mini(42), 2);
    for (i, r) in db.records.iter().enumerate() {
        assert_eq!(r.id, i as u32, "ids are 0..n in final order");
    }
    for pair in db.records.windows(2) {
        assert!(
            pair[0].start_s <= pair[1].start_s,
            "records sorted by start time"
        );
    }
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // More workers than units: extra workers find the queue drained.
    let campaign = mini(42);
    let a = to_json(&run(&campaign, 64)).expect("export");
    let b = to_json(&run(&campaign, 1)).expect("export");
    assert_eq!(a, b);
}

#[test]
fn fault_injected_runs_are_byte_identical_at_every_worker_count() {
    // The determinism guarantee must survive injection: faults are keyed
    // by (seed, unit, attempt), never by worker or completion order, so
    // the export AND the integrity report match byte for byte.
    for profile in [FaultProfile::Paper, FaultProfile::Harsh] {
        for seed in [11, 42] {
            let campaign = mini_faulted(seed, profile);
            let base = campaign.run_supervised_jobs(1).expect("tolerant by default");
            let base_json = to_json(&base.db).expect("export");
            let base_report =
                serde_json::to_string_pretty(&base.integrity).expect("report export");
            for jobs in [2, 4, 64] {
                let par = campaign.run_supervised_jobs(jobs).expect("tolerant");
                assert_eq!(
                    base_json,
                    to_json(&par.db).expect("export"),
                    "{} seed {seed}: jobs={jobs} dataset diverged",
                    profile.label()
                );
                assert_eq!(
                    base_report,
                    serde_json::to_string_pretty(&par.integrity).expect("report export"),
                    "{} seed {seed}: jobs={jobs} integrity report diverged",
                    profile.label()
                );
            }
        }
    }
}

#[test]
fn harsh_profile_degrades_but_completes() {
    for seed in [11, 42] {
        let outcome = mini_faulted(seed, FaultProfile::Harsh)
            .run_supervised_jobs(1)
            .expect("tolerant by default");
        let hit = outcome
            .integrity
            .units
            .iter()
            .filter(|u| u.status != UnitStatus::Ok)
            .count();
        assert!(hit > 0, "seed {seed}: harsh profile left every unit clean");
        assert!(
            !outcome.db.records.is_empty(),
            "seed {seed}: campaign produced no data at all"
        );
    }
}

#[test]
fn fault_profiles_change_the_dataset_none_does_not() {
    let seed = 42;
    let clean = to_json(&run(&mini(seed), 1)).expect("export");
    // With no faults no unit is lost, so neither the retry budget nor
    // fail-fast may change a byte.
    let strict = {
        let mut cfg = mini_cfg(seed, FaultProfile::None);
        cfg.max_retries = 0;
        cfg.fail_fast = true;
        to_json(&run(&Campaign::new(cfg), 1)).expect("export")
    };
    assert_eq!(clean, strict, "fault machinery must be a no-op when off");
    let harsh = to_json(&run(&mini_faulted(seed, FaultProfile::Harsh), 1)).expect("export");
    assert_ne!(clean, harsh, "harsh faults should visibly cost data");
}
