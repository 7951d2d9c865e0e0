//! One-call full report: every table and figure rendered into a single
//! markdown document (what `repro all` prints, with section headers).
//!
//! Sections are generated from a shared [`AnalysisIndex`] and can be
//! fanned out across worker threads ([`generate_jobs`]) with
//! [`wheels_netsim::par::map`], which hands the bodies back in
//! definition order — so the report is byte-identical at any job count.

use wheels_geo::route::Route;
use wheels_netsim::par;
use wheels_xcal::database::ConsolidatedDb;

use crate::figures as figs;
use crate::index::AnalysisIndex;
use crate::map::render_fig1_maps_for;

/// Section of the full report.
#[derive(Debug, Clone)]
pub struct Section {
    /// Paper artifact id ("fig3", "table2", ...).
    pub id: &'static str,
    /// Section heading.
    pub title: &'static str,
    /// Rendered body.
    pub body: String,
}

/// (id, title) of every report section, in presentation order.
pub const SECTION_DEFS: [(&str, &str); 19] = [
    ("fig1", "Fig. 1 — passive vs active coverage views"),
    ("fig2", "Fig. 2 — technology coverage"),
    ("fig3", "Fig. 3 — static vs driving performance"),
    ("fig4", "Fig. 4 — per-technology performance"),
    ("fig5", "Fig. 5 — throughput by timezone"),
    ("fig6", "Fig. 6 — operator diversity"),
    ("fig7", "Fig. 7 — throughput vs speed"),
    ("fig8", "Fig. 8 — RTT vs speed"),
    ("table2", "Table 2 — KPI correlations"),
    ("fig9", "Fig. 9 — per-test statistics"),
    ("fig10", "Fig. 10 — performance vs hs5G time"),
    ("table3", "Table 3 — Ookla comparison"),
    ("fig11", "Fig. 11 — handover statistics"),
    ("fig12", "Fig. 12 — handover impact"),
    ("fig13", "Fig. 13/18/19 — AR"),
    ("fig14", "Fig. 14/20 — CAV"),
    ("fig15", "Fig. 15/21 — 360° video"),
    ("fig16", "Fig. 16/22 — cloud gaming"),
    ("ext-mptcp", "Extension — MPTCP over three operators"),
];

/// Render the body of the report section `id` (one of [`SECTION_DEFS`])
/// from the shared index; `None` for any other id.
pub fn render_section(id: &str, ix: &AnalysisIndex<'_>, route: &Route) -> Option<String> {
    Some(match id {
        "fig1" => format!(
            "{}\n{}",
            figs::fig01_coverage_views::compute(ix).render(),
            render_fig1_maps_for(ix.db(), route.total_m(), 96, ix.ops())
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
        "fig13" => figs::fig13_ar::compute(ix).render(),
        "fig14" => figs::fig14_cav::compute(ix).render(),
        "fig15" => figs::fig15_video::compute(ix).render(),
        "fig16" => figs::fig16_gaming::compute(ix).render(),
        "ext-mptcp" => figs::ext_multipath::compute(ix).render(),
        _ => return None,
    })
}

/// Render every paper artifact (plus the coverage maps and the MPTCP
/// extension) from a shared analysis index, fanned out over `jobs`
/// worker threads. Output order (and bytes) is independent of `jobs`.
pub fn sections_jobs(ix: &AnalysisIndex<'_>, route: &Route, jobs: usize) -> Vec<Section> {
    par::map(&SECTION_DEFS, jobs, |&(id, title)| Section {
        id,
        title,
        body: render_section(id, ix, route).unwrap_or_default(),
    })
}

/// Render every section sequentially from a shared analysis index.
pub fn sections_from(ix: &AnalysisIndex<'_>, route: &Route) -> Vec<Section> {
    sections_jobs(ix, route, 1)
}

/// Render every section from a raw database (builds a temporary index).
pub fn sections(db: &ConsolidatedDb, route: &Route) -> Vec<Section> {
    sections_from(&AnalysisIndex::build(db), route)
}

/// Assemble rendered sections into the final markdown document.
fn assemble(secs: Vec<Section>) -> String {
    let mut out = String::from("# Campaign report\n\n");
    for s in secs {
        out.push_str(&format!("## {}\n\n```\n{}\n```\n\n", s.title, s.body.trim_end()));
    }
    out
}

/// The full report as one markdown string, generated with `jobs` worker
/// threads over a shared index. Byte-identical for every job count.
pub fn generate_jobs(ix: &AnalysisIndex<'_>, route: &Route, jobs: usize) -> String {
    assemble(sections_jobs(ix, route, jobs))
}

/// The full report as one markdown string (single-threaded).
pub fn generate(db: &ConsolidatedDb, route: &Route) -> String {
    assemble(sections(db, route))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::{network_db, network_ix};

    #[test]
    fn report_contains_every_artifact() {
        let db = network_db();
        let route = Route::cross_country();
        let secs = sections(db, &route);
        assert_eq!(secs.len(), 19);
        for (s, (id, title)) in secs.iter().zip(SECTION_DEFS) {
            assert!(!s.body.trim().is_empty(), "{} is empty", s.id);
            assert_eq!(s.id, id);
            assert_eq!(s.title, title);
        }
        let report = generate(db, &route);
        for title in ["Fig. 2", "Table 2", "Fig. 12", "MPTCP"] {
            assert!(report.contains(title), "missing {title}");
        }
    }

    #[test]
    fn render_section_knows_only_report_ids() {
        let ix = network_ix();
        let route = Route::cross_country();
        assert!(render_section("fig2", ix, &route).is_some());
        for id in ["table1", "table4", "ext-fleet", "report", "fig99"] {
            assert!(render_section(id, ix, &route).is_none(), "{id}");
        }
    }

    #[test]
    fn parallel_report_is_byte_identical() {
        let ix = network_ix();
        let route = Route::cross_country();
        let sequential = generate_jobs(ix, &route, 1);
        for jobs in [2, 4, 19] {
            assert_eq!(
                sequential,
                generate_jobs(ix, &route, jobs),
                "report differs at {jobs} jobs"
            );
        }
    }
}
