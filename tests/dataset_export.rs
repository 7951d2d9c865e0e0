//! Dataset export round-trips: the paper publishes its dataset; ours must
//! survive JSON serialization and produce coherent CSV.

use wheels::campaign::{Campaign, CampaignConfig};
use wheels::xcal::database::ConsolidatedDb;
use wheels::xcal::export;

fn mini() -> ConsolidatedDb {
    let mut cfg = CampaignConfig::quick(55);
    cfg.scale = 0.008;
    cfg.run_static = false;
    cfg.passive_tick_s = 60.0;
    Campaign::new(cfg).run_supervised_jobs(1).expect("no fail-fast").db
}

#[test]
fn json_roundtrip_preserves_everything() {
    let db = mini();
    let json = export::to_json(&db).unwrap();
    let back = export::from_json(&json).unwrap();
    assert_eq!(db.records.len(), back.records.len());
    for (a, b) in db.records.iter().zip(&back.records) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.kpi.len(), b.kpi.len());
        assert_eq!(a.rtt_ms, b.rtt_ms);
        assert_eq!(a.handovers.len(), b.handovers.len());
        assert_eq!(
            a.app.map(|m| m.compressed),
            b.app.map(|m| m.compressed)
        );
    }
    assert_eq!(db.passive.len(), back.passive.len());
}

#[test]
fn csv_rows_match_throughput_sample_count() {
    let db = mini();
    let expected: usize = db
        .records
        .iter()
        .flat_map(|r| r.kpi.iter())
        .filter(|k| k.tput_mbps.is_some())
        .count();
    let mut buf = Vec::new();
    export::write_tput_csv(&db, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), expected + 1, "header + one row per sample");
    // Every row has the full column count.
    let cols = export::CSV_HEADER.split(',').count();
    for line in text.lines().skip(1) {
        assert_eq!(line.split(',').count(), cols, "{line}");
    }
}

#[test]
fn app_metrics_present_in_export() {
    let db = mini();
    let json = export::to_json(&db).unwrap();
    assert!(json.contains("qoe"), "video metrics exported");
    assert!(json.contains("map_accuracy"), "AR metrics exported");
}
