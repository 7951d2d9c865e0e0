//! Quickstart: run a miniature cross-country campaign and print the
//! headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wheels::analysis::figures::{fig02_coverage, fig03_static_driving, share_5g, share_hs5g};
use wheels::analysis::AnalysisIndex;
use wheels::campaign::stats::Table1;
use wheels::campaign::{Campaign, CampaignConfig};
use wheels::ran::Operator;

fn main() {
    println!("== wheels quickstart: miniature LA -> Boston campaign ==\n");
    let campaign = Campaign::new(CampaignConfig::quick(42));
    let db = campaign.run_supervised_jobs(1).expect("fail-fast is off").db;

    let t1 = Table1::compute(&db, campaign.plan().route());
    println!("{}", t1.render());

    let ix = AnalysisIndex::build(&db);
    let coverage = fig02_coverage::compute(&ix);
    println!("Technology coverage while driving (% of miles):");
    for op in Operator::ALL {
        let shares = coverage.overall_for(op);
        println!(
            "  {:<9} 5G {:>5.1}%  (high-speed 5G {:>4.1}%)",
            op.label(),
            share_5g(shares) * 100.0,
            share_hs5g(shares) * 100.0
        );
    }

    let perf = fig03_static_driving::compute(&ix);
    println!("\nStatic vs driving downlink medians (Mbps):");
    for op in Operator::ALL {
        let p = perf.for_op(op);
        println!(
            "  {:<9} static {:>7.0}   driving {:>6.1}",
            op.label(),
            p.static_dl.median(),
            p.driving_dl.median()
        );
    }
    println!(
        "\ndriving samples below 5 Mbps: {:.0}% (paper: ~35%)",
        perf.frac_driving_below_5mbps() * 100.0
    );
    println!("\nFor every table/figure: cargo run --release -p wheels-bench --bin repro -- all");
}
