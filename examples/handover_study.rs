//! Handover deep-dive (§6): rates, durations, and throughput impact.
//!
//! Runs a network-only campaign and prints Fig. 11/12-style statistics,
//! including the ΔT₁/ΔT₂ decomposition around each handover.
//!
//! ```text
//! cargo run --release --example handover_study
//! ```

use wheels::analysis::figures::{fig11_handovers, fig12_ho_impact};
use wheels::analysis::AnalysisIndex;
use wheels::campaign::{Campaign, CampaignConfig};
use wheels::ran::{Direction, Operator};

fn main() {
    println!("== handover study (Fig. 11 / Fig. 12) ==\n");
    let mut cfg = CampaignConfig::quick_network_only(11);
    cfg.scale = 0.15;
    cfg.run_static = false;
    let db = Campaign::new(cfg).run_supervised_jobs(1).expect("no fail-fast").db;

    let ix = AnalysisIndex::build(&db);
    let stats = fig11_handovers::compute(&ix);
    println!("Handovers per mile (driving throughput tests):");
    for op in Operator::ALL {
        for dir in Direction::BOTH {
            let e = stats.per_mile_for(op, dir);
            if e.is_empty() {
                continue;
            }
            println!(
                "  {:<9} {}: median {:.1}, p75 {:.1}, max {:.1}",
                op.label(),
                dir.label(),
                e.median(),
                e.percentile(75.0),
                e.max()
            );
        }
    }

    println!("\nHandover interruption (ms):");
    for op in Operator::ALL {
        let e = stats.duration_for(op, Direction::Downlink);
        if e.is_empty() {
            continue;
        }
        println!(
            "  {:<9} median {:.0} ms, p75 {:.0} ms (paper: 53/76/58 and 73/107/74)",
            op.label(),
            e.median(),
            e.percentile(75.0)
        );
    }

    let impact = fig12_ho_impact::compute(&ix);
    println!("\nThroughput impact of a handover:");
    for op in Operator::ALL {
        let t1 = impact.t1_for(op, Direction::Downlink);
        let t2 = impact.t2_for(op, Direction::Downlink);
        if t1.is_empty() {
            continue;
        }
        println!(
            "  {:<9} dT1 median {:+.1} Mbps (negative {:.0}% of HOs) | dT2 median {:+.1} Mbps (post>pre {:.0}%)",
            op.label(),
            t1.median(),
            t1.frac_below(0.0) * 100.0,
            t2.median(),
            (1.0 - t2.frac_below(0.0)) * 100.0
        );
    }
    println!("\n§6's conclusion: handovers are too rare and too brief to move");
    println!("30-second throughput — which is why Table 2's HO column is ~0.");
}
