//! The wheels benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-quarter --seed 2026 --seconds 45 --trace 0
//! ```
//!
//! `--trace 0` repeats the untraced pipeline for `--seconds` and reports
//! the end-to-end metrics as medians over the repetitions. `--trace 1`
//! runs the pipeline once untraced and once traced, and reports the
//! per-layer metrics. Either way every run's output is checked against
//! the reference for its seed, and the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, where
//! `failed / attempted` is the failed-unit ratio (units not `Ok`, plus
//! failed output checks, over units attempted). See `perfbench/README.md`.

mod check;
mod fingerprint;
mod render;
mod trace;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Pins;
use workload::{Job, Output, Phases, Workload, JOBS};

/// Extra world builds after each `--trace 0` repetition, on top of the
/// repetition's own, so the `setup_s` median rests on many samples spread
/// over the whole run.
const SETUP_REPS: usize = 10;
/// Seconds of analysis passes timed per `--trace 0` repetition (see
/// `workload::run_untraced`); `analysis_s` is the median of all of a run's
/// passes.
const ANALYSIS_BUDGET_S: f64 = 1.0;
/// Largest share of the traced wall time the spans may leave unattributed.
const RECONCILE_BOUND: f64 = 0.05;
const DEFAULT_SEED: u64 = 2026;

struct Args {
    workload: Workload,
    scale: wheels_bench::ReproScale,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: wheels-perfbench --workload paper-full|paper-quarter|crash-resume-export \
         [--seed N] [--seconds S] [--trace 0|1] [--scale full|quarter|smoke] [--reference FILE]"
    );
    std::process::exit(2);
}

fn parse_args(manifest_dir: &Path) -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut scale = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 45.0;
    let mut trace = false;
    let mut reference = manifest_dir.join("reference.tsv");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--scale" => {
                scale = Some(
                    workload::parse_scale(value)
                        .unwrap_or_else(|| usage(&format!("unknown scale {value:?}"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a number"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a non-negative number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace is 0 or 1"),
                }
            }
            "--reference" => reference = PathBuf::from(value),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        scale: scale.unwrap_or(workload.scale()),
        seed,
        seconds,
        trace,
        reference,
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The per-run work directory; removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every output of the run must equal.
struct Expected {
    digest: u64,
    kpi_samples: u64,
    records: u64,
    source: &'static str,
}

impl Expected {
    fn pinned(pins: &Pins) -> Option<Expected> {
        Some(Expected {
            digest: *pins.get("digest")?,
            kpi_samples: *pins.get("campaign.kpi_samples")?,
            records: *pins.get("campaign.records")?,
            source: "pinned in the reference file",
        })
    }

    fn of(out: &Output, source: &'static str) -> Expected {
        Expected {
            digest: out.digest,
            kpi_samples: out.kpi_samples,
            records: out.records,
            source,
        }
    }
}

/// Units attempted, failures counted against them, and why.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Count a run's units and check its output against `expected`.
    fn output(&mut self, label: &str, out: &Output, expected: &Expected, durable: bool) {
        self.attempted += out.units;
        self.failed += out.units_not_ok;
        if out.units_not_ok > 0 {
            self.notes
                .push(format!("{label}: {} units not ok", out.units_not_ok));
        }
        self.expect(out.digest == expected.digest, || {
            format!(
                "{label}: digest {:016x} differs from the reference {:016x}",
                out.digest, expected.digest
            )
        });
        self.expect(
            out.kpi_samples == expected.kpi_samples && out.records == expected.records,
            || {
                format!(
                    "{label}: {} KPI samples / {} records, reference {} / {}",
                    out.kpi_samples, out.records, expected.kpi_samples, expected.records
                )
            },
        );
        if durable {
            self.expect(out.restored >= out.units / 2, || {
                format!(
                    "{label}: only {} of {} units restored",
                    out.restored, out.units
                )
            });
        }
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(
    args: &Args,
    job: &Job,
    pins: Option<&Pins>,
    checks: &mut Checks,
) -> io::Result<Metrics> {
    let mut setups: Vec<f64> = Vec::new();
    let mut runs: Vec<Phases> = Vec::new();
    let mut outputs: Vec<Output> = Vec::new();
    let mut peak_mb = f64::NAN;
    let start = Instant::now();
    // Start another repetition while the run would end nearer the budget
    // with it than without it, so a run measures for about `--seconds`.
    while runs.is_empty() || {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / runs.len() as f64 / 2.0 < args.seconds
    } {
        let (phases, out) = workload::run_untraced(job, ANALYSIS_BUDGET_S)?;
        if runs.is_empty() {
            // The peak of one pipeline in a fresh process, as a user of
            // `repro` sees it; later repetitions would add the allocator's
            // fragmentation, which grows with their number.
            peak_mb = peak_rss_mb();
        }
        setups.push(phases.setup_s);
        runs.push(phases);
        outputs.push(out);
        setups.extend((0..SETUP_REPS).map(|_| workload::time_setup(job)));
    }

    let expected = match pins.and_then(Expected::pinned) {
        Some(e) => e,
        None => {
            let out = workload::run_reference(job)?;
            checks.expect(out.units_not_ok == 0, || {
                "reference run lost units".to_string()
            });
            Expected::of(&out, "an uninterrupted serial run")
        }
    };
    for (i, out) in outputs.iter().enumerate() {
        let label = format!("repetition {}", i + 1);
        checks.output(&label, out, &expected, args.workload.durable());
    }
    if let Some(out) = outputs.first() {
        println!(
            "output digest {:016x}, {} KPI samples, {} records; reference from {}",
            out.digest, out.kpi_samples, out.records, expected.source
        );
    }

    let column = |f: fn(&Phases) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let mut phases = vec![
        ("setup_s", setups.clone()),
        ("campaign_s", column(|p| p.campaign_s)),
    ];
    if args.workload.durable() {
        phases.push(("resume_s", column(|p| p.resume_s)));
    }
    // Every timed analysis pass of the run, pooled: passes are short, so
    // they are many, and their median spans the whole run.
    let analysis: Vec<f64> = runs
        .iter()
        .flat_map(|p| p.analysis_passes.iter().copied())
        .collect();
    phases.push(("analysis_s", analysis.clone()));
    if args.workload.durable() {
        phases.push(("export_s", column(|p| p.export_s)));
    }
    phases.push(("total_s", column(|p| p.total_s)));
    let per_rep: Vec<String> = runs
        .iter()
        .map(|p| format!("{:.3}", p.campaign_s))
        .collect();
    println!("campaign_s per repetition: {}", per_rep.join(" "));
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>4}",
        "phase", "median", "min", "max", "n"
    );
    for (name, values) in &phases {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(0.0, f64::max);
        println!(
            "{name:<12} {:>10.4} {min:>10.4} {max:>10.4} {:>4}",
            median(values),
            values.len()
        );
    }

    let campaign_s = median(&column(|p| p.campaign_s));
    Ok(vec![
        ("setup_s", median(&setups), "s"),
        ("campaign_s", campaign_s, "s"),
        (
            "kpi_samples_per_s",
            expected.kpi_samples as f64 / campaign_s,
            "1/s",
        ),
        ("analysis_s", median(&analysis), "s"),
        ("total_s", median(&column(|p| p.total_s)), "s"),
        ("peak_rss_mb", peak_mb, "MiB"),
    ])
}

fn per_layer(
    args: &Args,
    job: &Job,
    pins: Option<&Pins>,
    checks: &mut Checks,
) -> io::Result<Metrics> {
    let (phases, untraced) = workload::run_untraced(job, 0.0)?;
    let traced = workload::run_traced(job)?;
    let expected = match pins.and_then(Expected::pinned) {
        Some(e) => e,
        None if args.workload.durable() => {
            let out = workload::run_reference(job)?;
            checks.expect(out.units_not_ok == 0, || {
                "reference run lost units".to_string()
            });
            Expected::of(&out, "an uninterrupted serial run")
        }
        None => Expected::of(&traced.output, "the traced serial run"),
    };
    println!(
        "output digest {:016x} untraced, {:016x} traced; reference from {}",
        untraced.digest, traced.output.digest, expected.source
    );
    let durable = args.workload.durable();
    checks.output("untraced run", &untraced, &expected, durable);
    checks.output("traced run", &traced.output, &expected, durable);
    for (key, &pinned) in pins.into_iter().flatten() {
        if let Some(&counted) = traced.counts.get(key.as_str()) {
            checks.expect(counted == pinned, || {
                format!("count {key} = {counted}, pinned {pinned}")
            });
        }
    }

    let stats = traced.tracer.stats();
    let empty = trace::SpanStats::default();
    let span = |name: &str| stats.get(name).unwrap_or(&empty);
    let count = |name: &str| traced.counts.get(name).copied().unwrap_or(0) as f64;
    let attributed: f64 = stats.values().map(|s| s.self_s).sum();
    let share = attributed / traced.wall_s;
    checks.expect((1.0 - share).abs() <= RECONCILE_BOUND, || {
        format!(
            "spans attribute {attributed:.3} s of {:.3} s traced wall time, outside ±{}",
            traced.wall_s, RECONCILE_BOUND
        )
    });

    println!(
        "traced wall {:.3} s, span self time {attributed:.3} s ({:.2}%, bound ±{:.0}%); \
         traced pipeline {:.3} s vs untraced total {:.3} s: tracing overhead {:.3} s",
        traced.wall_s,
        100.0 * share,
        100.0 * RECONCILE_BOUND,
        traced.pipeline_s,
        phases.total_s,
        traced.pipeline_s - phases.total_s
    );
    println!(
        "{:<30} {:>6} {:>10} {:>10}",
        "span", "count", "total_s", "self_s"
    );
    for (name, s) in &stats {
        println!(
            "{name:<30} {:>6} {:>10.4} {:>10.4}",
            s.durations.len(),
            s.total_s(),
            s.self_s
        );
    }
    for (name, n) in &traced.counts {
        println!("count {name} = {n}");
    }

    let drive = span("campaign.unit.drive");
    let unit_s = drive.total_s()
        + span("campaign.unit.passive").total_s()
        + span("campaign.unit.static").total_s();
    let per =
        |span_name: &str, count_name: &str| span(span_name).total_s() * 1e9 / count(count_name);
    Ok(vec![
        ("geo.plan_s", median(&span("geo.plan").durations), "s"),
        ("ran.deploy_s", median(&span("ran.deploy").durations), "s"),
        ("campaign.unit.drive_s", drive.total_s(), "s"),
        ("campaign.unit.drive.p50_s", median(&drive.durations), "s"),
        ("campaign.unit.drive.max_s", drive.max_s(), "s"),
        (
            "campaign.unit.drive.count",
            drive.durations.len() as f64,
            "count",
        ),
        (
            "campaign.unit.passive_s",
            span("campaign.unit.passive").total_s(),
            "s",
        ),
        (
            "campaign.unit.passive.max_s",
            span("campaign.unit.passive").max_s(),
            "s",
        ),
        (
            "campaign.unit.static_s",
            span("campaign.unit.static").total_s(),
            "s",
        ),
        (
            "campaign.executor.efficiency",
            unit_s / (JOBS as f64 * phases.campaign_s),
            "ratio",
        ),
        (
            "ran.ue_step_ns",
            per("ran.ue_step", "ran.ue_step.count"),
            "ns",
        ),
        ("ran.ue_step.count", count("ran.ue_step.count"), "count"),
        ("ran.handovers", count("ran.handovers"), "count"),
        (
            "netsim.tcp_tick_ns",
            per("netsim.tcp_tick", "netsim.tcp_tick.count"),
            "ns",
        ),
        ("apps.session_s", span("apps.session").total_s(), "s"),
        ("campaign.merge_s", span("campaign.merge").total_s(), "s"),
        (
            "campaign.checkpoint.commit_s",
            span("campaign.checkpoint.commit").total_s(),
            "s",
        ),
        (
            "campaign.checkpoint.bytes",
            count("campaign.checkpoint.bytes"),
            "bytes",
        ),
        (
            "campaign.checkpoint.load_s",
            span("campaign.checkpoint.load").total_s(),
            "s",
        ),
        (
            "campaign.checkpoint.compact_s",
            span("campaign.checkpoint.compact").total_s(),
            "s",
        ),
        (
            "campaign.checkpoint.restored",
            count("campaign.checkpoint.restored"),
            "count",
        ),
        ("xcal.serialize_s", span("xcal.serialize").total_s(), "s"),
        ("xcal.export_bytes", count("xcal.export_bytes"), "bytes"),
        (
            "campaign.atomic_write_s",
            span("campaign.atomic_write").total_s(),
            "s",
        ),
        ("analysis.index_s", span("analysis.index").total_s(), "s"),
        ("analysis.render_s", span("analysis.render").total_s(), "s"),
        (
            "analysis.render.max_s",
            span("analysis.render").max_s(),
            "s",
        ),
        (
            "campaign.kpi_samples",
            count("campaign.kpi_samples"),
            "count",
        ),
        ("campaign.records", count("campaign.records"), "count"),
        ("trace.wall_s", traced.wall_s, "s"),
        ("trace.attributed_share", share, "ratio"),
        ("trace.overhead_s", traced.pipeline_s - phases.total_s, "s"),
    ])
}

fn main() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest_dir.parent().unwrap_or(manifest_dir);
    let args = parse_args(manifest_dir);

    let pins = match std::fs::read_to_string(&args.reference) {
        Ok(text) => check::parse_reference(&text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", args.reference.display());
            std::process::exit(2);
        }),
        Err(e) => {
            eprintln!(
                "cannot read reference file {}: {e}",
                args.reference.display()
            );
            std::process::exit(2);
        }
    };
    let key = (
        args.workload.name().to_string(),
        workload::scale_name(args.scale).to_string(),
        args.seed,
    );
    let work = WorkDir(
        root.join(".bench_work")
            .join(std::process::id().to_string()),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("cannot create {}: {e}", work.0.display());
        std::process::exit(1);
    }
    let job = Job {
        workload: args.workload,
        scale: args.scale,
        seed: args.seed,
        work: work.0.clone(),
    };
    println!(
        "workload {} (scale {}, seed {}, {} threads, trace {})",
        args.workload.name(),
        key.1,
        args.seed,
        JOBS,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint::json(root));

    let mut checks = Checks::default();
    let measured = if args.trace {
        per_layer(&args, &job, pins.get(&key), &mut checks)
    } else {
        end_to_end(&args, &job, pins.get(&key), &mut checks)
    };
    drop(work);
    let metrics = measured.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    });

    for note in &checks.notes {
        println!("check failed: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A non-finite value fails the run; print it as 0 to keep the JSON valid.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    let correct = checks.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}
