//! The paper's artifacts, rendered exactly as `repro` prints them, so the
//! output digest of a benchmark run equals the digest of `repro`'s stdout
//! for the same scale, seed and artifact list.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wheels_analysis::figures as figs;
use wheels_analysis::AnalysisIndex;
use wheels_campaign::stats::Table1;
use wheels_campaign::Campaign;

/// Render one artifact of the paper (an id of `wheels_bench::EXPERIMENTS`).
pub fn render(id: &str, campaign: &Campaign, ix: &AnalysisIndex<'_>) -> String {
    let db = ix.db();
    match id {
        "table1" => format!(
            "Table 1 — driving dataset statistics\n{}",
            Table1::compute_for(db, campaign.plan().route(), campaign.ops()).render()
        ),
        "fig1" => format!(
            "{}\n{}",
            figs::fig01_coverage_views::compute(ix).render(),
            wheels_analysis::map::render_fig1_maps_for(
                db,
                campaign.plan().route().total_m(),
                96,
                campaign.ops()
            )
        ),
        "fig2" => figs::fig02_coverage::compute(ix).render(),
        "fig3" => figs::fig03_static_driving::compute(ix).render(),
        "fig4" => figs::fig04_tech_perf::compute(ix).render(),
        "fig5" => figs::fig05_timezones::compute(ix).render(),
        "fig6" => figs::fig06_operator_diversity::compute(ix).render(),
        "fig7" => figs::fig07_speed_tput::compute(ix).render(),
        "fig8" => figs::fig08_speed_rtt::compute(ix).render(),
        "table2" => figs::table2_correlations::compute(ix).render(),
        "fig9" => figs::fig09_test_stats::compute(ix).render(),
        "fig10" => figs::fig10_hs5g::compute(ix).render(),
        "table3" => figs::table3_ookla::compute(ix).render(),
        "fig11" => figs::fig11_handovers::compute(ix).render(),
        "fig12" => figs::fig12_ho_impact::compute(ix).render(),
        "table4" => format!(
            "Table 4 — AR/CAV configuration\n{}",
            wheels_apps::config::render_table4()
        ),
        "table5" => render_table5(),
        "fig13" => figs::fig13_ar::compute(ix).render(),
        "fig14" => figs::fig14_cav::compute(ix).render(),
        "fig15" => figs::fig15_video::compute(ix).render(),
        "fig16" => figs::fig16_gaming::compute(ix).render(),
        other => format!("unknown experiment id: {other}"),
    }
}

fn render_table5() -> String {
    use wheels_apps::map_table::{MAP_NO_COMPRESSION, MAP_WITH_COMPRESSION};
    let mut s = String::from(
        "Table 5 — mAP vs E2E latency (frame times)\nbin   mAP w/o comp   mAP w/ comp\n",
    );
    let rows = MAP_NO_COMPRESSION.iter().zip(MAP_WITH_COMPRESSION.iter());
    for (i, (without, with)) in rows.enumerate() {
        s.push_str(&format!(
            "{:>2}-{:<2}   {:>8.2}      {:>8.2}\n",
            i,
            i + 1,
            without,
            with
        ));
    }
    s
}

/// Render `ids` on `jobs` workers (an atomic work queue, as `repro
/// --fig-jobs` does), returned in request order.
pub fn render_all(
    ids: &[&str],
    campaign: &Campaign,
    ix: &AnalysisIndex<'_>,
    jobs: usize,
) -> Vec<String> {
    let slots: Vec<Mutex<Option<String>>> = ids.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(ids.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (Some(id), Some(slot)) = (ids.get(i), slots.get(i)) else {
                    break;
                };
                let text = render(id, campaign, ix);
                *slot.lock().expect("a render worker panicked") = Some(text);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a render worker panicked")
                .expect("the queue hands out every index")
        })
        .collect()
}
