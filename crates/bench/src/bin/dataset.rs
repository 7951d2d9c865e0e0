//! Generate and export the dataset (the paper publishes its dataset and
//! scripts; this is ours).
//!
//! ```text
//! cargo run --release -p wheels-bench --bin dataset -- --out data/ --scale quarter
//! ```
//!
//! Writes:
//! * `dataset.json` — the full consolidated database;
//! * `throughput.csv` — one row per 500 ms throughput sample;
//! * `drm/XCAL_*.drm` — per-test binary XCAL logs (round-trip verified);
//! * `summary.txt` — Table-1-style statistics.

use std::fs;
use std::path::{Path, PathBuf};

use wheels_bench::ReproScale;
use wheels_campaign::stats::Table1;
use wheels_campaign::{atomic_write, atomic_write_with, write_all_chunked, Campaign};
use wheels_xcal::logger::XcalLogger;
use wheels_xcal::{drm, export};

/// Atomic write or exit 1 — a dataset file either appears whole or not
/// at all, even if this process dies mid-export.
fn write_or_die(path: &Path, bytes: &[u8]) {
    if let Err(e) = atomic_write(path, bytes) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Parse `[--out DIR] [--scale S] [--seed N]`.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "D7: CLI flag validation aborts at startup, before any campaign unit runs"
)]
fn parse_args(args: &[String]) -> (PathBuf, ReproScale, u64) {
    let mut out = PathBuf::from("dataset_out");
    let mut scale = ReproScale::Smoke;
    let mut seed = 2026u64;
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).expect("--out needs a path"));
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("full") => ReproScale::Full,
                    Some("quarter") => ReproScale::Quarter,
                    Some("smoke") => ReproScale::Smoke,
                    other => panic!("unknown scale {other:?}"),
                };
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).expect("--seed N");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    (out, scale, seed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, scale, seed) = parse_args(&args);

    eprintln!("running campaign at {scale:?} (seed {seed})...");
    let campaign = Campaign::new(scale.config(seed));
    let db = match campaign.run_supervised_jobs(1) {
        Ok(outcome) => outcome.db,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    #[expect(
        clippy::expect_used,
        reason = "D7: dev-tool setup; an unwritable output directory should abort before the export starts"
    )]
    fs::create_dir_all(out.join("drm")).expect("create output directory");

    // JSON, streamed straight into the atomic temp file — no whole-file
    // buffer even at full scale.
    let json_path = out.join("dataset.json");
    let parts = export::to_json_parts(&db, 1);
    let json_bytes: usize = parts.iter().map(String::len).sum();
    if let Err(e) = atomic_write_with(&json_path, |w| {
        for p in &parts {
            write_all_chunked(w, p.as_bytes())?;
        }
        Ok(())
    }) {
        eprintln!("cannot write {}: {e}", json_path.display());
        std::process::exit(1);
    }
    eprintln!("wrote dataset.json ({} MB)", json_bytes / 1_000_000);

    // CSV, same streaming discipline (write_tput_csv buffers internally).
    let csv_path = out.join("throughput.csv");
    if let Err(e) = atomic_write_with(&csv_path, |w| export::write_tput_csv(&db, w)) {
        eprintln!("cannot write {}: {e}", csv_path.display());
        std::process::exit(1);
    }
    let rows = db
        .records
        .iter()
        .flat_map(|r| &r.kpi)
        .filter(|k| k.tput_mbps.is_some())
        .count();
    eprintln!("wrote throughput.csv ({rows} rows)");

    // Binary .drm files, round-trip verified.
    let mut n_drm = 0usize;
    let mut drm_bytes = 0usize;
    for r in &db.records {
        let mut logger = XcalLogger::start(r.op, r.kind.label(), r.start_s);
        for k in &r.kpi {
            logger.log_sample(*k);
        }
        for h in &r.handovers {
            logger.log_handover(h);
        }
        let log = logger.finish(r.timezone);
        let bytes = drm::encode(&log);
        #[expect(
            clippy::expect_used,
            reason = "D7: round-trip self-check in a dev tool; a decode failure is a codec bug worth aborting on"
        )]
        let back = drm::decode(&bytes).expect("own encoding decodes");
        assert_eq!(back.samples.len(), log.samples.len(), "drm round trip");
        // Disambiguate concurrent per-operator files with the test id.
        let name = format!("{:06}_{}", r.id, log.file_name);
        drm_bytes += bytes.len();
        write_or_die(&out.join("drm").join(name), &bytes);
        n_drm += 1;
    }
    eprintln!("wrote {n_drm} .drm files ({} MB), all round-trip verified", drm_bytes / 1_000_000);

    // Summary.
    let t1 = Table1::compute(&db, campaign.plan().route());
    write_or_die(&out.join("summary.txt"), t1.render().as_bytes());
    eprintln!("wrote summary.txt");
    println!("{}", t1.render());
}
