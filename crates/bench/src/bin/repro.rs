//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p wheels-bench --bin repro -- all
//! cargo run --release -p wheels-bench --bin repro -- fig3 table2
//! cargo run --release -p wheels-bench --bin repro -- --scale quarter all
//! cargo run --release -p wheels-bench --bin repro -- --export dataset.json all
//! cargo run --release -p wheels-bench --bin repro -- --jobs 4 --fig-jobs 4 all
//! cargo run --release -p wheels-bench --bin repro -- --fault-profile harsh table1
//! cargo run --release -p wheels-bench --bin repro -- --timings all
//! cargo run --release -p wheels-bench --bin repro -- --scenario rail-corridor all
//! cargo run --release -p wheels-bench --bin repro -- --scenario my_world.json fig2
//! cargo run --release -p wheels-bench --bin repro -- --scenario paper --scenario-dump
//! cargo run --release -p wheels-bench --bin repro -- --list
//! ```
//!
//! `--scenario NAME|FILE.json` runs the campaign in a declarative world
//! from the scenario registry (or a JSON spec file); without the flag the
//! world is the `paper` scenario. `--scenario-dump` prints the active
//! scenario's JSON and exits; `--list` prints every artifact id and
//! registered scenario. An unknown artifact id exits 2 before any
//! campaign runs; a repeated id is rendered once, at its first position.
//!
//! `--jobs N` runs the campaign's work units on N worker threads;
//! `--fig-jobs N` fans figure/table rendering out the same way, and
//! `--export-jobs N` shards dataset serialization across N workers. The
//! dataset (and every figure) is byte-identical to the sequential run at
//! any job count.
//!
//! `--population N` seeds a panel-total fleet of N subscribers whose
//! aggregate demand drives the cell load every probe experiences
//! (`--population 0` or omitting the flag is the strict fleetless
//! baseline — byte-identical output). The fleet's ground truth is
//! rendered by the `ext-fleet` artifact.
//!
//! `--timings` prints a phase breakdown (campaign / index build / figures
//! / export) to stderr; `--timings-json FILE` writes the same breakdown
//! as JSON. Both ci.sh benchmark stages (`BENCH_report.json`,
//! `BENCH_campaign.json`) store this one canonical record shape.
//!
//! `--fault-profile none|paper|harsh` injects deterministic apparatus
//! faults (probe crashes, server outages, modem detaches, timeouts); the
//! supervisor retries failed units up to `--max-retries N` times and then
//! degrades instead of aborting — unless `--fail-fast` is given, in which
//! case a lost unit ends the run with a nonzero exit. With `--export
//! FILE`, the per-unit integrity report lands in `FILE.integrity.json`.
//!
//! `--checkpoint-dir DIR` makes the campaign crash-safe: every completed
//! work unit is appended (and fsynced) to `DIR/checkpoint.log` before the
//! run moves on. If the process dies mid-campaign, rerun with `--resume`:
//! valid checkpoints are restored, only missing or corrupt units are
//! recomputed, and the output — export, integrity report, stdout — is
//! byte-identical to an uninterrupted run. `--kill-after K` (K >= 1) is
//! the chaos hook behind the CI crash-resume gate: it aborts the run
//! (exit 137, like a SIGKILL) after the K-th durable unit commit.
//!
//! Every file this binary writes (export JSON, integrity report, timings
//! JSON, checkpoints) goes through an atomic temp-file + fsync + rename
//! write — no crash can leave a torn output under a final name.

use std::collections::BTreeSet;
use std::io::Write;
use std::time::Duration;

use wheels_analysis::figures::ext_fleet;
use wheels_analysis::{report, AnalysisIndex};
use wheels_bench::{ReproScale, EXPERIMENTS, EXTENSIONS};
use wheels_campaign::stats::Table1;
use wheels_campaign::{
    atomic_write, atomic_write_with, write_all_chunked, Campaign, CampaignConfig, CampaignError,
    CheckpointOptions, FaultProfile, ProcessKill, ScenarioSpec,
};
use wheels_netsim::par;

/// Wall-clock phase timer for `--timings` and the stderr progress lines.
/// Durations are reported only; they never reach simulation state.
#[expect(clippy::disallowed_types, reason = "D3: phase timing, reported only")]
struct Stopwatch(std::time::Instant);

impl Stopwatch {
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "D3: phase timing, reported only"
    )]
    fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Write `bytes` to `path` atomically, or exit 1 with the error on
/// stderr — an output file either appears whole or not at all.
fn write_or_die(path: &str, bytes: &[u8]) {
    if let Err(e) = atomic_write(std::path::Path::new(path), bytes) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Stream pre-serialized fragments to `path` atomically (no second
/// whole-file concatenation buffer), or exit 1.
fn write_parts_or_die(path: &str, parts: &[String]) {
    let r = atomic_write_with(std::path::Path::new(path), |w| {
        for p in parts {
            write_all_chunked(w, p.as_bytes())?;
        }
        Ok(())
    });
    if let Err(e) = r {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Resolve `--scenario NAME|FILE.json`: registry names first, then a JSON
/// spec file. Building the campaign validates the spec.
fn load_scenario(arg: &str) -> ScenarioSpec {
    if let Some(spec) = ScenarioSpec::find(arg) {
        spec
    } else if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).unwrap_or_else(|e| {
            eprintln!("cannot read scenario file {arg}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse scenario file {arg}: {e}");
            std::process::exit(2);
        })
    } else {
        eprintln!(
            "unknown scenario {arg:?}: not a registered name ({}) and not a file",
            ScenarioSpec::registry()
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join("|")
        );
        std::process::exit(2);
    }
}

/// `repro --list`: every artifact id and registered scenario.
fn print_list() {
    println!("artifacts:");
    for id in EXPERIMENTS {
        println!("  {id:<10} {}", artifact_blurb(id));
    }
    println!("  {:<10} full markdown report (all artifacts + maps)", "report");
    for id in EXTENSIONS {
        println!("  {id:<10} {}", artifact_blurb(id));
    }
    println!("scenarios (use with --scenario NAME):");
    for s in ScenarioSpec::registry() {
        println!("  {:<14} {}", s.name, s.description);
    }
}

fn artifact_blurb(id: &str) -> &'static str {
    match id {
        "table1" => "driving dataset statistics",
        "fig1" => "passive vs active coverage views + route maps",
        "fig2" => "technology coverage shares",
        "fig3" => "static vs driving performance CDFs",
        "fig4" => "per-technology performance",
        "fig5" => "throughput by timezone",
        "fig6" => "operator-pair throughput diversity",
        "fig7" => "throughput vs vehicle speed",
        "fig8" => "RTT vs vehicle speed",
        "table2" => "KPI-throughput Pearson correlations",
        "fig9" => "per-test mean/stddev statistics",
        "fig10" => "performance vs time on high-speed 5G",
        "table3" => "Ookla Q3 2022 comparison",
        "fig11" => "handover rates and durations",
        "fig12" => "throughput impact of handovers",
        "table4" => "AR/CAV offload configuration",
        "table5" => "mAP vs E2E latency table",
        "fig13" => "AR offloading results",
        "fig14" => "CAV offloading results",
        "fig15" => "360° video streaming results",
        "fig16" => "cloud gaming results",
        "ext-mptcp" => "MPTCP multi-operator what-if (extension)",
        "ext-fleet" => "probe panel vs subscriber-fleet ground truth (extension)",
        _ => "",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ReproScale::Full;
    let mut seed = 2026u64;
    let mut jobs = 1usize;
    let mut fig_jobs = 1usize;
    let mut export_jobs = 1usize;
    let mut timings = false;
    let mut timings_json: Option<String> = None;
    let defaults = CampaignConfig::default();
    let mut fault_profile = defaults.fault_profile;
    let mut max_retries = defaults.max_retries;
    let mut fail_fast = defaults.fail_fast;
    let mut export: Option<String> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut kill_after: Option<usize> = None;
    let mut population: Option<u64> = None;
    let mut scenario: Option<ScenarioSpec> = None;
    let mut scenario_dump = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--list" => {
                print_list();
                return;
            }
            "--scenario" => {
                i += 1;
                let arg = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--scenario needs a registry name or a JSON file path");
                    std::process::exit(2);
                });
                scenario = Some(load_scenario(&arg));
            }
            "--scenario-dump" => scenario_dump = true,
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("full") => ReproScale::Full,
                    Some("quarter") => ReproScale::Quarter,
                    Some("smoke") => ReproScale::Smoke,
                    other => {
                        eprintln!("unknown scale {other:?} (full|quarter|smoke)");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs a number");
                        std::process::exit(2);
                    });
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive worker count");
                        std::process::exit(2);
                    });
            }
            "--fig-jobs" => {
                i += 1;
                fig_jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--fig-jobs needs a positive worker count");
                        std::process::exit(2);
                    });
            }
            "--export-jobs" => {
                i += 1;
                export_jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--export-jobs needs a positive worker count");
                        std::process::exit(2);
                    });
            }
            "--timings" => timings = true,
            "--timings-json" => {
                i += 1;
                timings_json = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--timings-json needs a path");
                    std::process::exit(2);
                }));
            }
            "--fault-profile" => {
                i += 1;
                fault_profile = args
                    .get(i)
                    .and_then(|s| FaultProfile::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("unknown fault profile (none|paper|harsh)");
                        std::process::exit(2);
                    });
            }
            "--max-retries" => {
                i += 1;
                max_retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--max-retries needs a non-negative count");
                        std::process::exit(2);
                    });
            }
            "--fail-fast" => fail_fast = true,
            "--population" => {
                i += 1;
                population = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(
                    || {
                        eprintln!("--population needs a subscriber count");
                        std::process::exit(2);
                    },
                ));
            }
            "--checkpoint-dir" => {
                i += 1;
                checkpoint_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--checkpoint-dir needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--resume" => resume = true,
            "--kill-after" => {
                i += 1;
                kill_after = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&k| k >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("--kill-after needs a positive unit count");
                            std::process::exit(2);
                        }),
                );
            }
            "--export" => {
                i += 1;
                export = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--export needs a path");
                    std::process::exit(2);
                }));
            }
            "all" => wanted.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }
    let spec = scenario.unwrap_or_else(ScenarioSpec::paper);
    if scenario_dump {
        #[expect(
            clippy::expect_used,
            reason = "D7: ScenarioSpec derives Serialize with no fallible fields; to_string_pretty cannot fail"
        )]
        let json = serde_json::to_string_pretty(&spec).expect("scenario serializes");
        println!("{json}");
        return;
    }
    if wanted.is_empty() {
        eprintln!("usage: repro [--scale full|quarter|smoke] [--seed N] [--jobs N] \
                   [--population N] \
                   [--fig-jobs N] [--export-jobs N] [--timings] [--timings-json FILE] \
                   [--fault-profile none|paper|harsh] [--max-retries N] [--fail-fast] \
                   [--checkpoint-dir DIR] [--resume] [--kill-after K] \
                   [--scenario NAME|FILE.json] [--scenario-dump] [--list] \
                   [--export FILE] <id...|all>");
        eprintln!("ids: {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    let known: Vec<&str> = EXPERIMENTS
        .iter()
        .chain(["report"].iter())
        .chain(EXTENSIONS)
        .copied()
        .collect();
    if let Some(bad) = wanted.iter().find(|id| !known.contains(&id.as_str())) {
        eprintln!("unknown artifact id {bad:?}; known ids: all {}", known.join(" "));
        std::process::exit(2);
    }
    let mut seen = BTreeSet::new();
    wanted.retain(|id| seen.insert(id.clone()));
    if (resume || kill_after.is_some()) && checkpoint_dir.is_none() {
        eprintln!("--resume and --kill-after need --checkpoint-dir DIR");
        std::process::exit(2);
    }

    eprintln!(
        "running campaign (scale {scale:?}, seed {seed}, jobs {jobs}, faults {}, scenario {})...",
        fault_profile.label(),
        spec.name
    );
    let t0 = Stopwatch::start();
    let cfg = CampaignConfig {
        fault_profile,
        max_retries,
        fail_fast,
        population,
        ..scale.config(seed)
    };
    let campaign = Campaign::from_spec(&spec, cfg).unwrap_or_else(|e| {
        eprintln!("invalid scenario {}: {e}", spec.name);
        std::process::exit(2);
    });
    let checkpoint = checkpoint_dir.as_ref().map(|dir| {
        let opts = if resume {
            CheckpointOptions::resume(dir)
        } else {
            CheckpointOptions::fresh(dir)
        };
        match kill_after {
            Some(k) => opts.with_kill(ProcessKill::after_units(k)),
            None => opts,
        }
    });
    let run = match &checkpoint {
        Some(opts) => campaign.run_checkpointed_jobs(jobs, opts),
        None => campaign.run_supervised_jobs(jobs),
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(CampaignError::Killed { committed }) => {
            // The chaos hook "killed the process": exit the way a
            // SIGKILLed process would, with the completed units durable in
            // the checkpoint log and nothing exported.
            eprintln!(
                "killed after {committed} durable unit commits \
                 (checkpoints in {}; rerun with --resume)",
                checkpoint_dir.unwrap_or_default()
            );
            std::process::exit(137);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if let Some(r) = &outcome.resume {
        eprintln!(
            "resume: {} units restored from checkpoints, {} recomputed \
             ({} corrupt, {} foreign records rejected)",
            r.restored_units, r.recomputed_units, r.corrupt_records, r.foreign_records
        );
        for note in &r.notes {
            eprintln!("resume note: {note}");
        }
    }
    let fleet = outcome.fleet;
    let db = outcome.db;
    let integrity = outcome.integrity;
    let campaign_elapsed = t0.elapsed();
    let kpi_samples = db.records.iter().map(|r| r.kpi.len()).sum::<usize>();
    let fleet_population = fleet.as_ref().map_or(0, |f| f.population);
    let subscriber_hours: f64 = fleet
        .as_ref()
        .map_or(0.0, |f| f.per_op.iter().map(|(_, s)| s.sub_hours()).sum());
    eprintln!(
        "campaign done in {:.1?}: {} test records, {} KPI samples",
        campaign_elapsed,
        db.records.len(),
        kpi_samples
    );
    eprintln!("{}", integrity.summary());

    let t1 = Stopwatch::start();
    let ix = AnalysisIndex::build_for(&db, campaign.ops().to_vec());
    let index_elapsed = t1.elapsed();

    let t2 = Stopwatch::start();
    let mut export_elapsed = Duration::ZERO;
    if let Some(path) = export {
        let parts = wheels_xcal::export::to_json_parts(&db, export_jobs);
        write_parts_or_die(&path, &parts);
        #[expect(
            clippy::expect_used,
            reason = "D7: IntegrityReport's hand-written Serialize writes plain maps and numbers; it cannot fail"
        )]
        let report = serde_json::to_string_pretty(&integrity).expect("integrity report serializes");
        let report_path = format!("{path}.integrity.json");
        write_or_die(&report_path, report.as_bytes());
        eprintln!("dataset exported to {path}, integrity report to {report_path}");
        export_elapsed = t2.elapsed();
    }

    // Render the requested artifacts on `fig_jobs` workers, then print in
    // request order — stdout bytes are identical at any --fig-jobs value.
    let t3 = Stopwatch::start();
    let texts = par::map(&wanted, fig_jobs, |id| {
        render_one(id, &campaign, &ix, fleet.as_ref(), fig_jobs)
    });
    let figures_elapsed = t3.elapsed();

    let out = std::io::stdout();
    let mut out = out.lock();
    for text in texts {
        #[expect(
            clippy::expect_used,
            reason = "D7: a closed stdout leaves nowhere to report the artifact; abort is the only option"
        )]
        writeln!(out, "{text}").expect("stdout");
    }
    drop(out);

    if timings {
        eprintln!(
            "timings: campaign {:.3}s, index build {:.3}s, figures {:.3}s ({} ids, {} fig jobs), export {:.3}s",
            campaign_elapsed.as_secs_f64(),
            index_elapsed.as_secs_f64(),
            figures_elapsed.as_secs_f64(),
            wanted.len(),
            fig_jobs,
            export_elapsed.as_secs_f64(),
        );
        if fleet_population > 0 {
            eprintln!(
                "fleet: {fleet_population} subscribers, {subscriber_hours:.0} subscriber-hours \
                 ({:.0}/s)",
                subscriber_hours / campaign_elapsed.as_secs_f64()
            );
        }
    }
    if let Some(path) = timings_json {
        let total = campaign_elapsed + index_elapsed + figures_elapsed + export_elapsed;
        let json = format!(
            "{{\n  \"scale\": \"{scale:?}\",\n  \"seed\": {seed},\n  \"jobs\": {jobs},\n  \"fig_jobs\": {fig_jobs},\n  \"export_jobs\": {export_jobs},\n  \"population\": {fleet_population},\n  \"artifacts\": {},\n  \"campaign_s\": {:.6},\n  \"kpi_samples\": {kpi_samples},\n  \"samples_per_s\": {:.1},\n  \"subscriber_hours_per_s\": {:.1},\n  \"index_build_s\": {:.6},\n  \"figures_s\": {:.6},\n  \"export_s\": {:.6},\n  \"total_s\": {:.6}\n}}\n",
            wanted.len(),
            campaign_elapsed.as_secs_f64(),
            kpi_samples as f64 / campaign_elapsed.as_secs_f64(),
            subscriber_hours / campaign_elapsed.as_secs_f64(),
            index_elapsed.as_secs_f64(),
            figures_elapsed.as_secs_f64(),
            export_elapsed.as_secs_f64(),
            total.as_secs_f64(),
        );
        write_or_die(&path, json.as_bytes());
        eprintln!("timings written to {path}");
    }
}

/// One artifact's text. The ids the full report shares come from
/// [`report::render_section`]; the rest need the campaign itself, the
/// fleet summary, or no data at all.
fn render_one(
    id: &str,
    campaign: &Campaign,
    ix: &AnalysisIndex<'_>,
    fleet: Option<&wheels_campaign::FleetSummary>,
    fig_jobs: usize,
) -> String {
    let route = campaign.plan().route();
    match id {
        "table1" => format!(
            "Table 1 — driving dataset statistics\n{}",
            Table1::compute_for(ix.db(), route, campaign.ops()).render()
        ),
        "table4" => format!(
            "Table 4 — AR/CAV configuration\n{}",
            wheels_apps::config::render_table4()
        ),
        "table5" => render_table5(),
        "ext-fleet" => ext_fleet::compute(ix, fleet).render(),
        "report" => report::generate_jobs(ix, route, fig_jobs),
        // Ids are checked against the known list before the campaign runs.
        other => report::render_section(other, ix, route).unwrap_or_default(),
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
