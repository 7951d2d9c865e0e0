//! The workloads, and the three ways a run executes one: untraced (the
//! end-to-end metrics), serial reference (the output check), and traced
//! (the per-layer metrics).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wheels_analysis::AnalysisIndex;
use wheels_apps::{ArApp, CavApp, ConstantLink, GamingSession, VideoSession};
use wheels_bench::{ReproScale, EXPERIMENTS};
use wheels_campaign::checkpoint::LOG_NAME;
use wheels_campaign::executor::UnitOutcome;
use wheels_campaign::{
    atomic_write, atomic_write_with, merge_shards, write_all_chunked, Campaign, CampaignConfig,
    CampaignError, CampaignOutcome, CheckpointOptions, CheckpointWriter, IntegrityReport,
    LoadedCheckpoints, ProcessKill, Shard, UnitReport, UnitStatus, WorkUnit,
};
use wheels_geo::DrivePlan;
use wheels_netsim::{Cubic, FluidTcp};
use wheels_ran::deployment::build_all;
use wheels_ran::ue::UeParams;
use wheels_ran::{Direction, TrafficDemand, UeRadio};
use wheels_xcal::export::to_json_parts;
use wheels_xcal::ConsolidatedDb;

use crate::check::{digest_files, digest_texts, Fnv};
use crate::render::{render, render_all};
use crate::trace::Tracer;

/// Worker threads for the campaign, figure rendering and export alike:
/// every workload runs with at most two threads at a time.
pub const JOBS: usize = 2;

/// World builds timed per traced run for `geo.plan_s` and `ran.deploy_s`.
const WORLD_REPS: usize = 5;
/// The fluid-TCP replay steps CUBIC at this interval, seconds.
const TCP_TICK_S: f64 = 0.02;
/// Propagation RTT of the fluid-TCP replay, seconds.
const TCP_BASE_RTT_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFull,
    PaperQuarter,
    CrashResumeExport,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFull,
        Workload::PaperQuarter,
        Workload::CrashResumeExport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper-full",
            Workload::PaperQuarter => "paper-quarter",
            Workload::CrashResumeExport => "crash-resume-export",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> ReproScale {
        match self {
            Workload::PaperFull => ReproScale::Full,
            Workload::PaperQuarter | Workload::CrashResumeExport => ReproScale::Quarter,
        }
    }

    /// The artifacts the analysis phase renders.
    pub fn artifacts(self) -> &'static [&'static str] {
        match self {
            Workload::CrashResumeExport => &["table1"],
            Workload::PaperFull | Workload::PaperQuarter => EXPERIMENTS,
        }
    }

    /// Whether the run is checkpointed, killed, resumed and exported.
    pub fn durable(self) -> bool {
        self == Workload::CrashResumeExport
    }
}

pub fn scale_name(scale: ReproScale) -> &'static str {
    match scale {
        ReproScale::Full => "full",
        ReproScale::Quarter => "quarter",
        ReproScale::Smoke => "smoke",
    }
}

pub fn parse_scale(name: &str) -> Option<ReproScale> {
    [ReproScale::Full, ReproScale::Quarter, ReproScale::Smoke]
        .into_iter()
        .find(|&s| scale_name(s) == name)
}

/// One run's inputs: which workload, at which scale, from which seed, and
/// the work directory its checkpoint log and export go to.
pub struct Job {
    pub workload: Workload,
    pub scale: ReproScale,
    pub seed: u64,
    pub work: PathBuf,
}

impl Job {
    fn config(&self) -> CampaignConfig {
        self.scale.config(self.seed)
    }

    fn checkpoint_dir(&self) -> PathBuf {
        self.work.join("checkpoints")
    }

    fn dataset_path(&self) -> PathBuf {
        self.work.join("dataset.json")
    }

    fn report_path(&self) -> PathBuf {
        self.work.join("dataset.json.integrity.json")
    }
}

fn failure(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Wall time of each phase of one untraced run, seconds. `resume_s` and
/// `export_s` are 0 on workloads without that phase. The first of
/// `analysis_passes` counts toward `total_s`; the rest are timed after it.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub setup_s: f64,
    pub campaign_s: f64,
    pub resume_s: f64,
    pub export_s: f64,
    pub total_s: f64,
    pub analysis_passes: Vec<f64>,
}

/// What a run produced, for the output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    pub digest: u64,
    pub kpi_samples: u64,
    pub records: u64,
    pub units: u64,
    pub units_not_ok: u64,
    /// Units restored from the checkpoint log (durable workload only).
    pub restored: u64,
}

impl Output {
    fn of(db: &ConsolidatedDb, integrity: &IntegrityReport, restored: usize, digest: u64) -> Self {
        Output {
            digest,
            kpi_samples: db.records.iter().map(|r| r.kpi.len() as u64).sum(),
            records: db.records.len() as u64,
            units: integrity.units.len() as u64,
            units_not_ok: integrity
                .units
                .iter()
                .filter(|u| u.status != UnitStatus::Ok)
                .count() as u64,
            restored: restored as u64,
        }
    }
}

fn write_parts(path: &Path, parts: &[String]) -> io::Result<()> {
    atomic_write_with(path, |w| {
        parts
            .iter()
            .try_for_each(|p| write_all_chunked(w, p.as_bytes()))
    })
}

/// Wall time of one world build (`Campaign::new`), seconds.
pub fn time_setup(job: &Job) -> f64 {
    let t = Instant::now();
    let campaign = black_box(Campaign::new(job.config()));
    let setup_s = t.elapsed().as_secs_f64();
    drop(campaign);
    setup_s
}

/// The end-to-end pipeline, untraced, on `JOBS` threads: world build,
/// campaign (on the durable workload: killed once half the units have
/// committed, then resumed), analysis, and export. After the export the
/// analysis is timed again over the same dataset until `analysis_budget_s`
/// of passes are timed (at least three when the budget is positive, one
/// otherwise).
pub fn run_untraced(job: &Job, analysis_budget_s: f64) -> io::Result<(Phases, Output)> {
    let t0 = Instant::now();
    let campaign = Campaign::new(job.config());
    let setup_s = t0.elapsed().as_secs_f64();

    let half = campaign.plan_units().len() / 2;
    let t1 = Instant::now();
    let (outcome, resume_s) = if job.workload.durable() {
        let dir = job.checkpoint_dir();
        let killed = CheckpointOptions::fresh(&dir).with_kill(ProcessKill::after_units(half));
        match campaign.run_checkpointed_jobs(JOBS, &killed) {
            Err(CampaignError::Killed { .. }) => {}
            Err(e) => return Err(failure(e)),
            Ok(_) => return Err(failure("the kill hook never fired")),
        }
        let t = Instant::now();
        let outcome = campaign
            .run_checkpointed_jobs(JOBS, &CheckpointOptions::resume(&dir))
            .map_err(failure)?;
        (outcome, t.elapsed().as_secs_f64())
    } else {
        (campaign.run_supervised_jobs(JOBS).map_err(failure)?, 0.0)
    };
    let campaign_s = t1.elapsed().as_secs_f64();

    let analyse = || {
        let t = Instant::now();
        let ix = AnalysisIndex::build_for(&outcome.db, campaign.ops().to_vec());
        let texts = render_all(job.workload.artifacts(), &campaign, &ix, JOBS);
        (t.elapsed().as_secs_f64(), texts)
    };
    let (first_analysis_s, texts) = analyse();

    let t3 = Instant::now();
    if job.workload.durable() {
        let parts = to_json_parts(&outcome.db, JOBS);
        write_parts(&job.dataset_path(), &parts)?;
        let report = serde_json::to_string_pretty(&outcome.integrity).map_err(failure)?;
        atomic_write(&job.report_path(), report.as_bytes())?;
    }
    let export_s = t3.elapsed().as_secs_f64();
    let total_s = t0.elapsed().as_secs_f64();
    // Analysis is a pure function of the dataset and short next to the
    // campaign, so it is timed again outside `total_s` for a steadier median.
    let mut analysis_passes = vec![first_analysis_s];
    while analysis_budget_s > 0.0
        && (analysis_passes.len() < 3 || analysis_passes.iter().sum::<f64>() < analysis_budget_s)
    {
        analysis_passes.push(analyse().0);
    }

    let digest = if job.workload.durable() {
        digest_files(&[&job.dataset_path(), &job.report_path()])?
    } else {
        digest_texts(&texts)
    };
    let restored = outcome.resume.as_ref().map_or(0, |r| r.restored_units);
    let phases = Phases {
        setup_s,
        campaign_s,
        resume_s,
        export_s,
        total_s,
        analysis_passes,
    };
    Ok((
        phases,
        Output::of(&outcome.db, &outcome.integrity, restored, digest),
    ))
}

/// The reference output for the job's seed: one uninterrupted campaign on
/// the caller's thread, no checkpoint, serialized in memory.
pub fn run_reference(job: &Job) -> io::Result<Output> {
    let campaign = Campaign::new(job.config());
    let CampaignOutcome { db, integrity, .. } = campaign.run_supervised_jobs(1).map_err(failure)?;
    let digest = if job.workload.durable() {
        let mut h = Fnv::new();
        for part in to_json_parts(&db, 1) {
            h.write(part.as_bytes());
        }
        h.write(
            serde_json::to_string_pretty(&integrity)
                .map_err(failure)?
                .as_bytes(),
        );
        h.finish()
    } else {
        let ix = AnalysisIndex::build_for(&db, campaign.ops().to_vec());
        let texts: Vec<String> = job
            .workload
            .artifacts()
            .iter()
            .map(|id| render(id, &campaign, &ix))
            .collect();
        digest_texts(&texts)
    };
    Ok(Output::of(&db, &integrity, 0, digest))
}

/// Everything the traced run measured.
pub struct TracedRun {
    pub tracer: Tracer,
    /// Wall time of the whole traced run, seconds.
    pub wall_s: f64,
    /// Wall time of the part that mirrors the untraced pipeline (world
    /// build through the last byte written), seconds.
    pub pipeline_s: f64,
    pub output: Output,
    /// Work counts, pure functions of the seed.
    pub counts: BTreeMap<&'static str, u64>,
}

/// The pipeline again, on one thread, with a span around every call into
/// a layer; then replays of the radio, transport and app layers.
pub fn run_traced(job: &Job) -> io::Result<TracedRun> {
    let cfg = job.config();
    let mut tr = Tracer::new();
    let mut counts = BTreeMap::new();
    let start = Instant::now();
    for _ in 0..WORLD_REPS {
        let plan = tr.span("geo.plan", |_| DrivePlan::cross_country(cfg.seed));
        let dbs = tr.span("ran.deploy", |_| build_all(plan.route(), cfg.seed));
        tr.span("bench.teardown", |_| drop((plan, dbs)));
    }

    let pipeline = Instant::now();
    let campaign = tr.span("campaign.new", |_| Campaign::new(cfg.clone()));
    let units = campaign.plan_units();
    let outcomes = if job.workload.durable() {
        traced_crash_resume(&mut tr, &campaign, &units, job, &mut counts)?
    } else {
        let outcomes: Vec<UnitOutcome> = units
            .iter()
            .map(|unit| run_unit(&mut tr, &campaign, unit))
            .collect();
        if let (Some(unit), Some(outcome)) = (units.first(), outcomes.first()) {
            traced_durability_probe(&mut tr, &campaign, unit, outcome, job, &mut counts)?;
        }
        outcomes
    };
    let mut shards: Vec<Shard> = Vec::with_capacity(outcomes.len());
    let mut reports: Vec<UnitReport> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        shards.push(
            outcome
                .shard
                .ok_or_else(|| failure("a unit produced no shard"))?,
        );
        reports.push(outcome.report);
    }
    let integrity = IntegrityReport {
        profile: cfg.fault_profile.label().to_string(),
        seed: cfg.seed,
        max_retries: cfg.max_retries,
        units: reports,
        resume: None,
    };
    let db = tr.span("campaign.merge", |_| merge_shards(shards));

    let ix = tr.span("analysis.index", |_| {
        AnalysisIndex::build_for(&db, campaign.ops().to_vec())
    });
    let texts: Vec<String> = job
        .workload
        .artifacts()
        .iter()
        .map(|id| tr.span("analysis.render", |_| render(id, &campaign, &ix)))
        .collect();
    tr.span("bench.teardown", |_| drop(ix));

    if job.workload.durable() {
        let parts = tr.span("xcal.serialize", |_| to_json_parts(&db, JOBS));
        counts.insert(
            "xcal.export_bytes",
            parts.iter().map(|p| p.len() as u64).sum(),
        );
        tr.span("campaign.atomic_write", |_| {
            write_parts(&job.dataset_path(), &parts)
        })?;
        let report = tr
            .span("campaign.integrity_report", |_| {
                serde_json::to_string_pretty(&integrity)
            })
            .map_err(failure)?;
        tr.span("campaign.atomic_write", |_| {
            atomic_write(&job.report_path(), report.as_bytes())
        })?;
        tr.span("bench.teardown", |_| drop(parts));
    }
    let pipeline_s = pipeline.elapsed().as_secs_f64();

    let digest = tr.span("bench.digest", |_| {
        if job.workload.durable() {
            digest_files(&[&job.dataset_path(), &job.report_path()])
        } else {
            Ok(digest_texts(&texts))
        }
    })?;
    let restored = counts
        .get("campaign.checkpoint.restored")
        .copied()
        .unwrap_or(0);
    let output = Output::of(&db, &integrity, restored as usize, digest);
    counts.insert("campaign.kpi_samples", output.kpi_samples);
    counts.insert("campaign.records", output.records);
    counts.insert(
        "campaign.checkpoint.bytes",
        std::fs::metadata(job.checkpoint_dir().join(LOG_NAME))?.len(),
    );
    tr.span("bench.teardown", |_| drop((db, texts)));

    traced_replays(&mut tr, &campaign, &cfg, &mut counts)?;
    tr.span("bench.teardown", |_| drop(campaign));
    Ok(TracedRun {
        tracer: tr,
        wall_s: start.elapsed().as_secs_f64(),
        pipeline_s,
        output,
        counts,
    })
}

/// One unit's payload under its kind's span, with the report the
/// supervisor writes for a fault-free first attempt.
fn run_unit(tr: &mut Tracer, campaign: &Campaign, unit: &WorkUnit) -> UnitOutcome {
    let name = match unit {
        WorkUnit::Drive { .. } => "campaign.unit.drive",
        WorkUnit::Static { .. } => "campaign.unit.static",
        WorkUnit::Passive { .. } => "campaign.unit.passive",
    };
    let shard = tr.span(name, |_| campaign.run_unit_payload(unit));
    let mut report = UnitReport::new(unit.label());
    report.attempts = 1;
    report.records_kept = shard.records.len();
    report.status = UnitStatus::Ok;
    UnitOutcome {
        shard: Some(shard),
        report,
    }
}

/// The durable workload's campaign: commit the first half of the schedule,
/// "die", then load, compact and restore the log, and compute and commit
/// the rest. Returns every outcome in canonical unit order.
fn traced_crash_resume(
    tr: &mut Tracer,
    campaign: &Campaign,
    units: &[WorkUnit],
    job: &Job,
    counts: &mut BTreeMap<&'static str, u64>,
) -> io::Result<Vec<UnitOutcome>> {
    let dir = job.checkpoint_dir();
    let key = campaign.checkpoint_key();
    let half = units.len() / 2;
    tr.span("campaign.kill_phase", |tr| -> io::Result<()> {
        let writer = tr.span("campaign.checkpoint.open", |_| {
            CheckpointWriter::open(&dir, key, true)
        })?;
        for unit in units.iter().take(half) {
            let outcome = run_unit(tr, campaign, unit);
            tr.span("campaign.checkpoint.commit", |_| {
                writer.commit(unit, &outcome)
            })?;
            tr.span("bench.teardown", |_| drop(outcome));
        }
        Ok(())
    })?;
    tr.span(
        "campaign.resume_phase",
        |tr| -> io::Result<Vec<UnitOutcome>> {
            let loaded = tr.span("campaign.checkpoint.load", |_| {
                LoadedCheckpoints::load(&dir, key)
            })?;
            tr.span("campaign.checkpoint.compact", |_| loaded.compact_to(&dir))?;
            counts.insert("campaign.checkpoint.restored", loaded.units.len() as u64);
            let mut restored: BTreeMap<[u64; 3], UnitOutcome> =
                tr.span("campaign.checkpoint.restore", |_| {
                    loaded
                        .units
                        .into_iter()
                        .map(|(words, ck)| (words, ck.into_outcome()))
                        .collect()
                });
            let writer = tr.span("campaign.checkpoint.open", |_| {
                CheckpointWriter::open(&dir, key, false)
            })?;
            let mut outcomes = Vec::with_capacity(units.len());
            for unit in units {
                if let Some(outcome) = restored.remove(&unit.fault_words()) {
                    outcomes.push(outcome);
                    continue;
                }
                let outcome = run_unit(tr, campaign, unit);
                tr.span("campaign.checkpoint.commit", |_| {
                    writer.commit(unit, &outcome)
                })?;
                outcomes.push(outcome);
            }
            Ok(outcomes)
        },
    )
}

/// The workloads without durability or export still measure those layers,
/// on one unit: commit it, load, compact and restore the log, and
/// serialize and write the restored unit's dataset.
fn traced_durability_probe(
    tr: &mut Tracer,
    campaign: &Campaign,
    unit: &WorkUnit,
    outcome: &UnitOutcome,
    job: &Job,
    counts: &mut BTreeMap<&'static str, u64>,
) -> io::Result<()> {
    let dir = job.checkpoint_dir();
    let key = campaign.checkpoint_key();
    let writer = tr.span("campaign.checkpoint.open", |_| {
        CheckpointWriter::open(&dir, key, true)
    })?;
    tr.span("campaign.checkpoint.commit", |_| {
        writer.commit(unit, outcome)
    })?;
    drop(writer);
    let loaded = tr.span("campaign.checkpoint.load", |_| {
        LoadedCheckpoints::load(&dir, key)
    })?;
    tr.span("campaign.checkpoint.compact", |_| loaded.compact_to(&dir))?;
    counts.insert("campaign.checkpoint.restored", loaded.units.len() as u64);
    let shards: Vec<Shard> = tr.span("campaign.checkpoint.restore", |_| {
        loaded
            .units
            .into_iter()
            .filter_map(|(_, ck)| ck.into_outcome().shard)
            .collect()
    });
    let db = tr.span("bench.probe_merge", |_| merge_shards(shards));
    let parts = tr.span("xcal.serialize", |_| to_json_parts(&db, JOBS));
    counts.insert(
        "xcal.export_bytes",
        parts.iter().map(|p| p.len() as u64).sum(),
    );
    tr.span("campaign.atomic_write", |_| {
        write_parts(&job.dataset_path(), &parts)
    })?;
    tr.span("bench.teardown", |_| drop((db, parts)));
    Ok(())
}

/// Replay the first operator's first drive day through `UeRadio::step` at
/// the campaign's snapshot tick, CUBIC over the capacities it produced,
/// and each app session on a good and a poor constant link.
fn traced_replays(
    tr: &mut Tracer,
    campaign: &Campaign,
    cfg: &CampaignConfig,
    counts: &mut BTreeMap<&'static str, u64>,
) -> io::Result<()> {
    let plan = campaign.plan();
    let (Some(&op), Some(day)) = (campaign.ops().first(), plan.days().first()) else {
        return Err(failure("the campaign has no operator or no drive day"));
    };
    let tick = cfg.snapshot_tick_s;
    let day_start = day.start_time_s as f64;
    let steps = ((day.end_time_s - day.start_time_s) as f64 / tick) as usize;
    let states: Vec<_> = tr.span("geo.state_at", |_| {
        (0..steps)
            .map(|i| plan.state_at(day_start + i as f64 * tick))
            .collect()
    });

    let mut ue = UeRadio::new(op, campaign.db_for(op), UeParams::default(), cfg.seed);
    let demand = TrafficDemand::Backlog(Direction::Downlink);
    let mut caps = Vec::with_capacity(steps);
    let mut handovers = 0u64;
    tr.span("ran.ue_step", |_| {
        for s in &states {
            let snap = ue.step(s.time_s, s, demand);
            handovers += u64::from(snap.handover.is_some());
            caps.push(snap.cap_dl_mbps);
        }
    });
    counts.insert("ran.ue_step.count", steps as u64);
    counts.insert("ran.handovers", handovers);

    let per_snapshot = (tick / TCP_TICK_S).round().max(1.0) as usize;
    let mut flow = FluidTcp::new(Box::new(Cubic::new()));
    tr.span("netsim.tcp_tick", |_| {
        for (i, &cap) in caps.iter().enumerate() {
            for k in 0..per_snapshot {
                let now = day_start + i as f64 * tick + k as f64 * TCP_TICK_S;
                black_box(flow.tick(now, TCP_TICK_S, cap, TCP_BASE_RTT_S));
            }
        }
    });
    counts.insert("netsim.tcp_tick.count", (caps.len() * per_snapshot) as u64);

    let mut sessions = 0u64;
    for mut link in [ConstantLink::good(), ConstantLink::poor()] {
        for compressed in [false, true] {
            tr.span("apps.session", |_| {
                black_box(ArApp::default().run(0.0, compressed, &mut link))
            });
            tr.span("apps.session", |_| {
                black_box(CavApp::default().run(0.0, compressed, &mut link))
            });
        }
        tr.span("apps.session", |_| {
            black_box(VideoSession::default().run(0.0, &mut link))
        });
        tr.span("apps.session", |_| {
            black_box(GamingSession::default().run(0.0, &mut link))
        });
        sessions += 6;
    }
    counts.insert("apps.session.count", sessions);
    tr.span("bench.teardown", |_| drop((states, caps)));
    Ok(())
}
