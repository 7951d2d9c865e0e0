//! Export-pipeline benchmarks.
//!
//! The dataset export is the dominant post-campaign phase (the paper
//! publishes its dataset, so this is a first-class artifact, not a debug
//! dump). These benches pin the three layers the streaming serializer
//! rebuilt: whole-database `to_json` (streamed) against the historical
//! Value-tree path, the sharded `to_json_parts` fan-out, and the CSV
//! writer. A decode pair does the same for the reader: direct decoding
//! (what checkpoint resume runs) against the Value-tree path. The ci.sh bench stage records the end-to-end number
//! (`export_s` in BENCH_campaign.json); these isolate where it goes.
//!
//! Run with `cargo bench --bench export`.

#![expect(clippy::expect_used, reason = "D7 covers library code; a bench aborts on a failed step")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use serde::Serialize;
use wheels_bench::ReproScale;
use wheels_campaign::Campaign;
use wheels_xcal::database::ConsolidatedDb;
use wheels_xcal::export;

/// One smoke-scale database, shared across every bench in the group
/// (campaign setup dwarfs any single measurement otherwise).
fn smoke_db() -> ConsolidatedDb {
    let campaign = Campaign::new(ReproScale::Smoke.config(11));
    campaign.run_supervised_jobs(1).expect("no fail-fast").db
}

fn benches(c: &mut Criterion) {
    let db = smoke_db();
    // These iterations serialize ~50 MB each; a small sample count keeps
    // the group's wall time sane without losing the ~10x signal.
    let mut g = c.benchmark_group("export");
    g.sample_size(10);

    // The streamed serializer: derive-generated `stream` emission straight
    // into one buffer. This is what `repro --export` runs.
    g.bench_function("to_json_streamed_smoke", |b| {
        b.iter(|| black_box(export::to_json(&db).expect("database serializes").len()))
    });

    // The historical tree path: lower to a `Value` tree, then pretty-print
    // it. Kept alive for hand-written `Serialize` impls, and benchmarked so
    // the streamed path's advantage stays measured, not asserted.
    g.bench_function("to_json_tree_smoke", |b| {
        b.iter(|| {
            let mut out = String::new();
            serde_json::write_value(&db.to_value(), Some(2), 0, &mut out);
            black_box(out.len())
        })
    });

    // Decoding the same document: derive-generated `from_reader` straight
    // off the text (what `serde_json::from_str` and checkpoint resume
    // run), against the historical tree path — parse to `Value`, then
    // `from_value` — kept as the equivalence oracle.
    let text = export::to_json(&db).expect("database serializes");
    g.bench_function("from_json_smoke", |b| {
        b.iter(|| {
            let back: ConsolidatedDb = serde_json::from_str(&text).expect("export decodes");
            black_box(back.records.len())
        })
    });
    g.bench_function("from_json_tree_smoke", |b| {
        b.iter(|| {
            let back: ConsolidatedDb =
                serde_json::from_str_tree(&text).expect("export decodes");
            black_box(back.records.len())
        })
    });

    // The sharded fragment fan-out (byte-identity is proven by tests;
    // this measures the slot/scope overhead and any parallel win).
    g.bench_function("to_json_parts_smoke_j1", |b| {
        b.iter(|| {
            let parts = export::to_json_parts(&db, 1);
            black_box(parts.iter().map(String::len).sum::<usize>())
        })
    });
    g.bench_function("to_json_parts_smoke_j4", |b| {
        b.iter(|| {
            let parts = export::to_json_parts(&db, 4);
            black_box(parts.iter().map(String::len).sum::<usize>())
        })
    });

    // The CSV throughput-sample export (buffered writer, reused row buffer).
    g.bench_function("write_tput_csv_smoke", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            export::write_tput_csv(&db, &mut buf).expect("csv write");
            black_box(buf.len())
        })
    });
    g.finish();
}

criterion_group!(export_benches, benches);
criterion_main!(export_benches);
