//! Golden campaign digests: the hot-path regression tripwire.
//!
//! The campaign inner loop is under continuous optimization, and every
//! transformation there must be a *pure* speedup — same exported bytes,
//! faster. ci.sh proves that against a pre-refactor baseline binary, but
//! that gate only runs in CI; this test pins a digest of the smoke-scale
//! export at two seeds so a behavior change is caught at `cargo test`
//! speed, pointing at the exact seed that moved.
//!
//! When a change is *intended* to alter output (a model change, not an
//! optimization), refresh the pins with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wheels-campaign --test golden_campaign
//! ```
//!
//! and say so in the commit message — a digest refresh in an
//! "optimization" commit is a red flag by construction.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "D7 covers library code; a test aborts on a failed step"
)]

use std::fmt::Write as _;
use std::path::PathBuf;

use wheels_campaign::{atomic_write, Campaign, CampaignConfig};

const SEEDS: [u64; 2] = [11, 42];

/// `GOLDEN_REGEN=1` rewrites the snapshot instead of checking it.
#[expect(
    clippy::disallowed_methods,
    reason = "D3: a developer switch between checking and rewriting; it never reaches simulation state"
)]
fn regenerating() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smoke_digests.txt")
}

/// Smoke-scale config, mirroring `ReproScale::Smoke` in `wheels-bench`
/// (which depends on this crate, so the constants are restated here; the
/// ci.sh byte gate runs the real binary and keeps them honest).
fn smoke_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::full(seed);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 10.0;
    cfg
}

/// FNV-1a over the export bytes: dependency-free and stable across
/// platforms — digest equality here means byte equality of the export.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn current_digests() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let campaign = Campaign::new(smoke_config(seed));
        let db = campaign.run_supervised_jobs(1).expect("no fail-fast").db;
        let json = wheels_xcal::export::to_json(&db).expect("export serializes");
        writeln!(out, "{seed} {:016x}", fnv1a(json.as_bytes())).unwrap();
    }
    out
}

#[test]
fn smoke_export_digests_match_golden() {
    let got = current_digests();
    let path = golden_path();
    if regenerating() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        atomic_write(&path, got.as_bytes()).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "smoke export digests diverged from {} — if this change is an \
         intended output change, refresh with GOLDEN_REGEN=1; if it is an \
         optimization, it is not pure",
        path.display()
    );
}
