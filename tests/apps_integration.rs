//! End-to-end app QoE over the simulated network (§7 at reduced scale).

use std::sync::OnceLock;

use wheels::campaign::{Campaign, CampaignConfig};
use wheels::xcal::database::{ConsolidatedDb, TestKind};

fn db() -> &'static ConsolidatedDb {
    static DB: OnceLock<ConsolidatedDb> = OnceLock::new();
    DB.get_or_init(|| {
        let mut cfg = CampaignConfig::quick(99);
        cfg.scale = 0.035;
        cfg.passive_tick_s = 60.0;
        cfg.run_passive = false;
        Campaign::new(cfg).run_supervised_jobs(1).expect("no fail-fast").db
    })
}

#[test]
fn every_app_kind_ran() {
    for kind in [
        TestKind::AppAr,
        TestKind::AppCav,
        TestKind::AppVideo,
        TestKind::AppGaming,
    ] {
        let n = db().records.iter().filter(|r| r.kind == kind).count();
        assert!(n >= 3, "{kind:?}: only {n} runs");
    }
}

#[test]
fn ar_metrics_within_model_bounds() {
    for r in db().records.iter().filter(|r| r.kind == TestKind::AppAr) {
        let a = r.app.expect("AR runs carry metrics");
        let e2e = a.e2e_ms_mean.unwrap();
        let fps = a.offload_fps.unwrap();
        let map = a.map_accuracy.unwrap();
        assert!(e2e > 30.0, "E2E {e2e}");
        assert!((0.0..=30.0).contains(&fps), "FPS {fps}");
        assert!((10.0..=38.5).contains(&map), "mAP {map}");
    }
}

#[test]
fn cav_never_meets_100ms() {
    // §7.1.2: the lowest E2E of the whole trip was 148 ms.
    for r in db().records.iter().filter(|r| r.kind == TestKind::AppCav) {
        let e2e = r.app.unwrap().e2e_ms_mean.unwrap();
        assert!(e2e > 100.0, "CAV E2E {e2e} beats the impossible budget");
    }
}

#[test]
fn video_qoe_bounded_and_sometimes_negative() {
    let qoes: Vec<f32> = db()
        .records
        .iter()
        .filter(|r| r.kind == TestKind::AppVideo && !r.is_static)
        .filter_map(|r| r.app?.qoe)
        .collect();
    assert!(!qoes.is_empty());
    for q in &qoes {
        assert!((-2_000.0..=100.0).contains(q), "QoE {q}");
    }
    // §7.2: a substantial share of driving sessions are negative.
    let neg = qoes.iter().filter(|q| **q < 0.0).count();
    assert!(neg * 10 >= qoes.len(), "only {neg}/{} negative", qoes.len());
}

#[test]
fn gaming_bitrate_capped_and_latency_floored() {
    for r in db().records.iter().filter(|r| r.kind == TestKind::AppGaming) {
        let a = r.app.unwrap();
        assert!(a.send_bitrate_mbps.unwrap() <= 100.0);
        assert!(a.net_latency_ms.unwrap() > 10.0);
        assert!((0.0..=0.30).contains(&a.frame_drop_frac.unwrap()));
    }
}

#[test]
fn compressed_and_raw_runs_both_present() {
    for kind in [TestKind::AppAr, TestKind::AppCav] {
        let comp = db()
            .records
            .iter()
            .filter(|r| r.kind == kind && r.app.unwrap().compressed == Some(true))
            .count();
        let raw = db()
            .records
            .iter()
            .filter(|r| r.kind == kind && r.app.unwrap().compressed == Some(false))
            .count();
        assert!(comp > 0 && raw > 0, "{kind:?}: comp {comp} raw {raw}");
    }
}
