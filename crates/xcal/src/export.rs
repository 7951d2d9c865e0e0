//! Dataset export.
//!
//! The paper publishes its dataset and scripts; we export the consolidated
//! database as JSON (full fidelity) and a compact CSV of throughput
//! samples for spreadsheet-style analysis.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use serde::ser::JsonWriter;
use serde::Serialize;

use crate::database::{ConsolidatedDb, TestRecord};

/// Serialize the full database to pretty JSON.
pub fn to_json(db: &ConsolidatedDb) -> serde_json::Result<String> {
    serde_json::to_string_pretty(db)
}

/// Serialize the full database to pretty JSON as an ordered list of
/// fragments whose concatenation is byte-identical to [`to_json`].
///
/// `db.records` — by far the bulk of the document — is sharded into
/// `jobs` contiguous chunks serialized on `std::thread::scope` workers
/// (the ordered-slot pattern: workers claim chunk indices from an
/// atomic counter and park results in per-chunk slots, so the output
/// order is canonical regardless of scheduling). Callers stream the
/// fragments straight to a writer without concatenating them into a
/// second whole-file buffer.
pub fn to_json_parts(db: &ConsolidatedDb, jobs: usize) -> Vec<String> {
    if db.records.is_empty() {
        // An empty `records` array collapses to `[]` rather than the
        // multi-line envelope below; the plain streamed form is cheap here.
        #[expect(
            clippy::expect_used,
            reason = "D7: streaming into a String only fails on fmt::Error, which String's Write never returns"
        )]
        let json = to_json(db).expect("database serializes");
        return vec![json];
    }
    let n = db.records.len();
    let chunks = jobs.max(1).min(n);
    let mut parts = Vec::with_capacity(chunks + 2);
    parts.push(String::from("{\n  \"records\": ["));
    if chunks == 1 {
        parts.push(records_fragment(&db.records, 0));
    } else {
        let slots: Vec<OnceLock<String>> = (0..chunks).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..chunks {
                scope.spawn(|| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(c) else { break };
                    let lo = c * n / chunks;
                    let hi = (c + 1) * n / chunks;
                    // In range by construction: `c < chunks` implies `hi <= n`.
                    let Some(chunk) = db.records.get(lo..hi) else { break };
                    // Each index is claimed once, so the slot is empty.
                    let _ = slot.set(records_fragment(chunk, lo));
                });
            }
        });
        for slot in slots {
            #[expect(
                clippy::expect_used,
                reason = "D7: the workers fill every slot before the scope joins, and a worker panic re-raises at the join"
            )]
            let frag = slot.into_inner().expect("every chunk serialized");
            parts.push(frag);
        }
    }
    let mut tail = String::from("\n  ],\n  \"passive\": ");
    let mut w = JsonWriter::append_to(tail, Some(2), 1);
    db.passive.stream(&mut w);
    tail = w.finish();
    tail.push_str("\n}");
    parts.push(tail);
    parts
}

/// Pretty-print `records[lo..hi]` as the interior of the top-level
/// `"records"` array: each element at depth 2, preceded by `,` unless it
/// is the global first record.
fn records_fragment(records: &[TestRecord], global_start: usize) -> String {
    // One output buffer per fragment; JsonWriter reuses it across records.
    let mut buf = String::new();
    for (k, r) in records.iter().enumerate() {
        if global_start + k > 0 {
            buf.push(',');
        }
        buf.push_str("\n    ");
        let mut w = JsonWriter::append_to(buf, Some(2), 2);
        r.stream(&mut w);
        buf = w.finish();
    }
    buf
}

/// Deserialize a database from JSON.
pub fn from_json(s: &str) -> serde_json::Result<ConsolidatedDb> {
    serde_json::from_str(s)
}

/// CSV header for the throughput-sample export.
pub const CSV_HEADER: &str =
    "test_id,op,kind,static,time_s,tput_mbps,tech,rsrp_dbm,mcs,bler,ca,speed_mph,timezone,region,handovers";

/// Write all throughput samples as CSV rows.
///
/// Rows are formatted into one reused `String` and pushed through a
/// `BufWriter`, so per-sample cost is formatting only — no per-row
/// allocation and no per-row syscall even when `w` is unbuffered.
pub fn write_tput_csv<W: Write>(db: &ConsolidatedDb, w: W) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(w);
    writeln!(w, "{CSV_HEADER}")?;
    let mut row = String::with_capacity(160);
    for r in &db.records {
        write_record_rows(r, &mut w, &mut row)?;
    }
    w.flush()
}

fn write_record_rows<W: Write>(
    r: &TestRecord,
    w: &mut std::io::BufWriter<W>,
    row: &mut String,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    for k in &r.kpi {
        let Some(tput) = k.tput_mbps else { continue };
        row.clear();
        writeln!(
            row,
            "{},{},{},{},{:.3},{:.4},{},{:.1},{},{:.3},{},{:.1},{},{},{}",
            r.id,
            r.op.code(),
            r.kind.label(),
            u8::from(r.is_static),
            k.time_s,
            tput,
            k.tech.label(),
            k.rsrp_dbm,
            k.mcs,
            k.bler,
            k.ca,
            k.speed_mph(),
            k.timezone.label(),
            k.region.label(),
            k.handovers_in_window,
        )
        .map_err(std::io::Error::other)?;
        w.write_all(row.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TestKind;
    use crate::kpi::KpiSample;
    use wheels_geo::region::RegionKind;
    use wheels_geo::timezone::Timezone;
    use wheels_netsim::server::ServerKind;
    use wheels_radio::band::Technology;
    use wheels_ran::cell::CellId;
    use wheels_ran::operator::Operator;

    fn tiny_db() -> ConsolidatedDb {
        ConsolidatedDb {
            records: vec![TestRecord {
                id: 7,
                op: Operator::TMobile,
                kind: TestKind::ThroughputDl,
                start_s: 0.0,
                duration_s: 30.0,
                server_kind: ServerKind::Cloud,
                server_name: "EC2 Ohio".into(),
                is_static: false,
                start_odometer_m: 0.0,
                end_odometer_m: 100.0,
                timezone: Timezone::Central,
                frac_hs5g: 0.5,
                kpi: vec![KpiSample {
                    time_s: 0.5,
                    tput_mbps: Some(42.5),
                    tech: Technology::Nr5gMid,
                    cell: CellId(9),
                    rsrp_dbm: -90.0,
                    sinr_db: 15.0,
                    mcs: 20,
                    bler: 0.08,
                    ca: 2,
                    handovers_in_window: 0,
                    speed_mps: 30.0,
                    odometer_m: 10.0,
                    region: RegionKind::Highway,
                    timezone: Timezone::Central,
                    in_handover: false,
                }],
                rtt_ms: vec![],
                handovers: vec![],
                app: None,
            }],
            passive: vec![],
        }
    }

    #[test]
    fn json_roundtrip() {
        let db = tiny_db();
        let j = to_json(&db).unwrap();
        let back = from_json(&j).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].kpi[0].mcs, 20);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let db = tiny_db();
        let mut buf = Vec::new();
        write_tput_csv(&db, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("7,T,DL,0,"));
        assert!(lines[1].contains("5G-mid"));
    }

    #[test]
    fn parts_concat_matches_to_json_at_any_job_count() {
        // Build a db with several records so multi-chunk partitions are
        // exercised (including jobs > records, which clamps).
        let mut db = tiny_db();
        let proto = db.records[0].clone();
        for id in 8..12 {
            let mut r = proto.clone();
            r.id = id;
            r.kpi[0].time_s = id as f64 * 0.25;
            db.records.push(r);
        }
        db.passive.push((Operator::Verizon, Default::default()));
        let whole = to_json(&db).unwrap();
        for jobs in [1, 2, 3, 7] {
            assert_eq!(to_json_parts(&db, jobs).concat(), whole, "jobs={jobs}");
        }
    }

    #[test]
    fn parts_handle_empty_records() {
        let mut db = tiny_db();
        db.records.clear();
        assert_eq!(to_json_parts(&db, 4).concat(), to_json(&db).unwrap());
    }

    #[test]
    fn csv_skips_samples_without_throughput() {
        let mut db = tiny_db();
        db.records[0].kpi[0].tput_mbps = None;
        let mut buf = Vec::new();
        write_tput_csv(&db, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
    }
}
