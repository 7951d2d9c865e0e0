//! Report-pipeline benches: index construction and full-report generation
//! at 1 vs 4 worker threads. The parallel variant must produce the same
//! bytes (asserted here once before measuring) — the bench shows what the
//! fan-out and the shared columnar index buy in wall time.

#![expect(clippy::expect_used, reason = "D7 covers library code; a bench aborts on a failed step")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::OnceLock;

use wheels_analysis::{report, AnalysisIndex};
use wheels_bench::ReproScale;
use wheels_campaign::Campaign;
use wheels_xcal::database::ConsolidatedDb;

fn db() -> &'static (Campaign, ConsolidatedDb) {
    static DB: OnceLock<(Campaign, ConsolidatedDb)> = OnceLock::new();
    DB.get_or_init(|| {
        let campaign = Campaign::new(ReproScale::Smoke.config(2026));
        let db = campaign.run_supervised_jobs(1).expect("no fail-fast").db;
        (campaign, db)
    })
}

fn ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(&db().1))
}

fn bench_index_build(c: &mut Criterion) {
    let (_, database) = db();
    let mut g = c.benchmark_group("report");
    g.bench_function("index_build", |b| {
        b.iter(|| black_box(AnalysisIndex::build(database)))
    });
    g.finish();
}

fn bench_generate(c: &mut Criterion) {
    let (campaign, _) = db();
    let index = ix();
    let route = campaign.plan().route();
    let sequential = report::generate_jobs(index, route, 1);
    assert_eq!(
        sequential,
        report::generate_jobs(index, route, 4),
        "parallel report must be byte-identical"
    );
    let mut g = c.benchmark_group("report");
    g.sample_size(20);
    g.bench_function("generate_jobs_1", |b| {
        b.iter(|| black_box(report::generate_jobs(index, route, 1)))
    });
    g.bench_function("generate_jobs_4", |b| {
        b.iter(|| black_box(report::generate_jobs(index, route, 4)))
    });
    g.finish();
}

criterion_group!(benches, bench_index_build, bench_generate);
criterion_main!(benches);
