//! # wheels
//!
//! Facade crate of the *Performance of Cellular Networks on the Wheels*
//! replication workspace. Re-exports every sub-crate under a short name
//! and offers a couple of one-call entry points.
//!
//! ```no_run
//! use wheels::campaign::{Campaign, CampaignConfig};
//!
//! // A miniature version of the paper's 8-day campaign:
//! let campaign = Campaign::new(CampaignConfig::quick(42));
//! let outcome = campaign.run_supervised_jobs(1).expect("fail-fast is off");
//! println!("{} tests", outcome.db.records.len());
//! ```
//!
//! See `examples/` for runnable scenarios and `wheels-bench`'s `repro`
//! binary for the full table/figure reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wheels_analysis as analysis;
pub use wheels_apps as apps;
pub use wheels_campaign as campaign;
pub use wheels_geo as geo;
pub use wheels_netsim as netsim;
pub use wheels_radio as radio;
pub use wheels_ran as ran;
pub use wheels_xcal as xcal;

use wheels_campaign::{Campaign, CampaignConfig};
use wheels_xcal::database::ConsolidatedDb;

/// Run a miniature campaign (all test kinds, statics, passive loggers)
/// and return its consolidated database. Takes a few seconds.
pub fn quick_campaign(seed: u64) -> ConsolidatedDb {
    run(CampaignConfig::quick(seed))
}

/// Run a miniature network-tests-only campaign (no apps): the fastest way
/// to get a dataset with throughput/RTT/handover records.
pub fn quick_network_campaign(seed: u64) -> ConsolidatedDb {
    run(CampaignConfig::quick_network_only(seed))
}

/// The dataset of a campaign whose config leaves fail-fast off, so no
/// lost unit can abort it.
fn run(cfg: CampaignConfig) -> ConsolidatedDb {
    let campaign = Campaign::new(cfg);
    campaign.run_supervised_jobs(1).expect("fail-fast is off").db
}
