//! Deterministic parallel campaign execution, supervised.
//!
//! The campaign is split into independent [`WorkUnit`]s — one per
//! `(operator, drive day)`, `(operator, static site)`, and passive-logger
//! operator. Every random stream a unit consumes is derived from the
//! campaign seed and the unit's key (see [`wheels_netsim::rng`]), so a
//! unit's output is a pure function of `(config, unit)` and is identical
//! whether units run on one thread or many. [`wheels_netsim::par`] fans
//! the units out over worker threads and hands the outcomes back in unit
//! order, and [`merge_shards`] folds the shards together in that
//! canonical order — which makes [`Campaign::run_supervised_jobs`]
//! byte-identical for every worker count.
//!
//! Units run under a supervisor ([`Campaign::run_unit_supervised`]): the
//! configured [`FaultPlan`] may abort an attempt (server outage, timeout
//! overrun) or degrade its output (probe crash, modem detach), panics are
//! caught at the unit boundary, and failed attempts retry with bounded
//! *simulated-clock* backoff — pure accounting, no wall-clock, so the
//! determinism guarantee holds under injection too. A unit that exhausts
//! its retries is marked [`UnitStatus::Lost`] and the campaign carries
//! on without it, the way the paper's dataset carries gaps instead of
//! missing days.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

use wheels_fleet::FleetUnitSketch;
use wheels_netsim::faults::{Fault, FaultPlan};
use wheels_netsim::par;
use wheels_ran::operator::Operator;
use wheels_xcal::database::{ConsolidatedDb, TestRecord};
use wheels_xcal::handover_logger::PassiveLogger;

use crate::checkpoint::{CheckpointWriter, LoadedCheckpoints};
use crate::integrity::{ResumeReport, UnitError, UnitReport, UnitStatus};
use crate::runner::{Campaign, CampaignAborted, CampaignError, CampaignOutcome, CheckpointOptions};
use crate::static_tests::static_sites;

/// One independent slice of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkUnit {
    /// One operator's round-robin test cycles over one drive day.
    Drive {
        /// The phone's operator.
        op: Operator,
        /// Index into the drive plan's days.
        day: usize,
    },
    /// One operator's static city baseline at one site.
    Static {
        /// The phone's operator.
        op: Operator,
        /// Route odometer of the site, meters.
        site_od: f64,
    },
    /// One operator's all-day passive handover logger.
    Passive {
        /// The logger phone's operator.
        op: Operator,
    },
}

impl WorkUnit {
    /// The unit's fault-plan key: a kind tag plus the unit coordinates,
    /// unique across the schedule (site odometers are distinct reals, so
    /// their bit patterns are distinct words).
    pub fn fault_words(&self) -> [u64; 3] {
        match *self {
            WorkUnit::Drive { op, day } => [1, op as u64, day as u64],
            WorkUnit::Static { op, site_od } => [2, op as u64, site_od.to_bits()],
            WorkUnit::Passive { op } => [3, op as u64, 0],
        }
    }

    /// Human-readable unit key for integrity reports.
    pub fn label(&self) -> String {
        match *self {
            WorkUnit::Drive { op, day } => format!("drive/{op}/day{day}"),
            WorkUnit::Static { op, site_od } => format!("static/{op}/od{site_od:.0}"),
            WorkUnit::Passive { op } => format!("passive/{op}"),
        }
    }
}

/// The output of one [`WorkUnit`]: records carry shard-local ids
/// (`0..n` in generation order) until [`merge_shards`] reassigns them.
#[derive(Debug, Default)]
pub struct Shard {
    /// Test records produced by the unit.
    pub records: Vec<TestRecord>,
    /// Passive logger output (passive units only).
    pub passive: Option<(Operator, PassiveLogger)>,
    /// Streaming fleet-load summary folded over the unit's time span
    /// (drive units of fleet-enabled campaigns only).
    pub fleet: Option<FleetUnitSketch>,
}

/// A supervised unit's result: the shard (absent for lost units) plus its
/// integrity record.
#[derive(Debug)]
pub struct UnitOutcome {
    /// The unit's data, if any attempt completed.
    pub shard: Option<Shard>,
    /// What happened getting it.
    pub report: UnitReport,
}

impl Campaign {
    /// The canonical unit schedule: drive units (operator-major,
    /// day-minor), then static sites, then passive loggers. Merge order —
    /// and therefore the exported dataset — is defined by this sequence,
    /// never by worker completion order.
    pub fn plan_units(&self) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        for &op in &self.ops {
            for day in 0..self.plan.days().len() {
                units.push(WorkUnit::Drive { op, day });
            }
        }
        if self.cfg.run_static && self.sched.run_static {
            for &op in &self.ops {
                let db = self.db_for(op);
                for (_city, site_od, _tech) in static_sites(&db, self.plan.route()) {
                    units.push(WorkUnit::Static { op, site_od });
                }
            }
        }
        if self.cfg.run_passive && self.sched.run_passive {
            for &op in &self.ops {
                units.push(WorkUnit::Passive { op });
            }
        }
        units
    }

    /// One attempt at a unit. An abortive injected fault (server outage,
    /// timeout overrun) kills the attempt before it produces data; the
    /// payload itself runs under `catch_unwind`, so a panicking work unit
    /// surfaces as a typed [`UnitError`] instead of tearing down the
    /// campaign.
    pub(crate) fn run_unit(
        &self,
        unit: &WorkUnit,
        fault: Option<Fault>,
    ) -> Result<Shard, UnitError> {
        match fault {
            Some(Fault::ServerOutage { outage_s }) => {
                return Err(UnitError::ServerUnreachable { outage_s })
            }
            Some(Fault::TimeoutOverrun { overrun_s }) => {
                return Err(UnitError::TimeoutOverrun { overrun_s })
            }
            _ => {}
        }
        catch_unwind(AssertUnwindSafe(|| self.run_unit_payload(unit)))
            .map_err(|payload| UnitError::Panicked {
                message: panic_message(payload),
            })
    }

    /// Run one unit under the supervisor: retry abortive failures with
    /// bounded simulated-clock backoff, apply degrading faults to the
    /// surviving payload, and settle on an `Ok`/`Degraded`/`Lost` status.
    pub(crate) fn run_unit_supervised(&self, unit: &WorkUnit, plan: &FaultPlan) -> UnitOutcome {
        let words = unit.fault_words();
        let max_attempts = self.cfg.max_retries.saturating_add(1);
        let mut report = UnitReport::new(unit.label());
        let mut last_err: Option<UnitError> = None;
        for attempt in 0..max_attempts {
            report.attempts = attempt + 1;
            let fault = plan.fault_for(&words, attempt);
            if let Some(f) = &fault {
                report.faults.push(f.label().to_string());
            }
            match self.run_unit(unit, fault) {
                Ok(mut shard) => {
                    if let Some(f) = fault {
                        apply_degrading_fault(&f, &mut shard, &mut report);
                    }
                    report.records_kept = shard.records.len();
                    report.status = if report.lost_anything() {
                        UnitStatus::Degraded
                    } else {
                        UnitStatus::Ok
                    };
                    return UnitOutcome {
                        shard: Some(shard),
                        report,
                    };
                }
                Err(e) => {
                    if attempt + 1 < max_attempts {
                        report.backoff_s += plan.backoff_s(&words, attempt);
                    }
                    last_err = Some(e);
                }
            }
        }
        report.status = UnitStatus::Lost;
        report.error = last_err.map(|e| e.to_string());
        UnitOutcome {
            shard: None,
            report,
        }
    }

    /// The one campaign executor behind [`Campaign::run_supervised_jobs`]
    /// and [`Campaign::run_checkpointed_jobs`]: restore, open the log,
    /// execute, fold, and the fail-fast check, in that order.
    ///
    /// Units restored from the checkpoint log are neither re-run nor
    /// re-committed. Every newly computed outcome is committed — written
    /// and fsynced — **before** it counts as done; a commit failure stops
    /// the run with [`CampaignError::Io`] rather than continuing with a
    /// checkpoint stream that lies. The [`CheckpointOptions::kill`] chaos
    /// hook observes every durable commit and, when it fires, stops the
    /// run with [`CampaignError::Killed`] exactly as if the process had
    /// died, so tests can sweep kill points deterministically. Either stop
    /// keeps workers from claiming further units.
    pub(crate) fn execute(
        &self,
        jobs: usize,
        checkpoint: Option<&CheckpointOptions>,
    ) -> Result<CampaignOutcome, CampaignError> {
        let units = self.plan_units();
        let (restored, resume) = match checkpoint {
            Some(opts) if opts.resume => {
                let (restored, report) = self.restore(opts, &units)?;
                (restored, Some(report))
            }
            _ => (BTreeMap::new(), None),
        };
        let writer = checkpoint
            .map(|opts| {
                CheckpointWriter::open(&opts.dir, self.checkpoint_key(), !opts.resume).map_err(
                    io_error(format!("opening checkpoint log in {}", opts.dir.display())),
                )
            })
            .transpose()?;
        let kill = checkpoint.and_then(|opts| opts.kill.as_ref());
        let plan = FaultPlan::new(self.cfg.seed, self.cfg.fault_profile);
        let restored = Mutex::new(restored);
        let outcomes = par::try_map(&units, jobs, |unit| {
            if let Some(outcome) = restored.lock().remove(&unit.fault_words()) {
                return Ok(outcome);
            }
            let outcome = self.run_unit_supervised(unit, &plan);
            if let Some(w) = &writer {
                w.commit(unit, &outcome)
                    .map_err(io_error(format!("checkpoint commit for {}", unit.label())))?;
            }
            if let Some(k) = kill {
                if k.on_commit() {
                    return Err(CampaignError::Killed {
                        committed: k.committed(),
                    });
                }
            }
            Ok(outcome)
        })?;
        let mut outcome = self.fold_outcomes(&units, outcomes);
        if let Some(r) = resume {
            // Export the accounting only when the scan rejected records:
            // a clean resume's integrity report must stay byte-identical
            // to the uninterrupted run's (CI `cmp`s them).
            if r.saw_damage() {
                outcome.integrity.resume = Some(r.clone());
            }
            outcome.resume = Some(r);
        }
        if self.cfg.fail_fast {
            if let Some(u) = outcome
                .integrity
                .units
                .iter()
                .find(|u| u.status == UnitStatus::Lost)
            {
                return Err(CampaignError::Aborted(CampaignAborted {
                    unit: u.unit.clone(),
                    error: u.error.clone().unwrap_or_else(|| "unknown".into()),
                }));
            }
        }
        Ok(outcome)
    }

    /// Scan the checkpoint log in `opts.dir` for this campaign's records,
    /// keyed by [`WorkUnit::fault_words`]. A damaged log is compacted
    /// first so that newly appended records stay reachable; a clean scan
    /// leaves the log as it is, which saves rewriting and fsyncing every
    /// restored byte.
    fn restore(
        &self,
        opts: &CheckpointOptions,
        units: &[WorkUnit],
    ) -> Result<(BTreeMap<[u64; 3], UnitOutcome>, ResumeReport), CampaignError> {
        let dir = opts.dir.display();
        let loaded = LoadedCheckpoints::load(&opts.dir, self.checkpoint_key())
            .map_err(io_error(format!("scanning checkpoints in {dir}")))?;
        if !loaded.is_clean() {
            loaded
                .compact_to(&opts.dir)
                .map_err(io_error(format!("compacting checkpoint log in {dir}")))?;
        }
        let scheduled: BTreeSet<[u64; 3]> = units.iter().map(WorkUnit::fault_words).collect();
        let mut restored = BTreeMap::new();
        let mut foreign = loaded.foreign_records;
        let mut notes = loaded.notes;
        for (words, ck) in loaded.units {
            if scheduled.contains(&words) {
                restored.insert(words, ck.into_outcome());
            } else {
                // Matching key but no such unit: treat as foreign.
                foreign += 1;
                notes.push(format!("record for unscheduled unit {words:?}; ignored"));
            }
        }
        let report = ResumeReport {
            restored_units: restored.len(),
            recomputed_units: units.len() - restored.len(),
            corrupt_records: loaded.corrupt_records,
            foreign_records: foreign,
            notes,
        };
        Ok((restored, report))
    }
}

/// Map an I/O error to [`CampaignError::Io`] with what was being done.
fn io_error(context: String) -> impl FnOnce(std::io::Error) -> CampaignError {
    move |e| CampaignError::Io {
        context,
        error: e.to_string(),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The time span `[min start, max end]` covered by a shard's data, or
/// `None` for an empty shard.
fn shard_span(shard: &Shard) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in &shard.records {
        lo = lo.min(r.start_s);
        hi = hi.max(r.start_s + r.duration_s);
    }
    if let Some((_, log)) = &shard.passive {
        if let (Some(first), Some(last)) = (log.samples().first(), log.samples().last()) {
            lo = lo.min(first.time_s);
            hi = hi.max(last.time_s);
        }
    }
    (lo < hi).then_some((lo, hi))
}

/// Apply a non-abortive fault to a completed shard, charging the losses
/// to `report`. Pure in `(fault, shard)`, so parallel and sequential runs
/// degrade identically.
fn apply_degrading_fault(fault: &Fault, shard: &mut Shard, report: &mut UnitReport) {
    let Some((span0, span1)) = shard_span(shard) else {
        return;
    };
    let span = span1 - span0;
    match *fault {
        Fault::ProbeCrash { survive_frac } => {
            let t_crash = span0 + survive_frac * span;
            let before = shard.records.len();
            shard.records.retain(|r| r.start_s < t_crash);
            report.records_lost += before - shard.records.len();
            for r in &mut shard.records {
                report.kpi_samples_lost += r.truncate_streams_at(t_crash);
            }
            let kept: usize = shard.records.iter().map(|r| r.kpi.len()).sum();
            if report.kpi_samples_lost > 0 {
                report.truncated_kpi_frac =
                    report.kpi_samples_lost as f64 / (report.kpi_samples_lost + kept) as f64;
            }
            if let Some((_, log)) = &mut shard.passive {
                report.passive_samples_lost += log.truncate_after(t_crash);
            }
        }
        Fault::ModemDetach {
            start_frac,
            len_frac,
        } => {
            let w0 = span0 + start_frac * span;
            let w1 = (w0 + len_frac * span).min(span1);
            let before = shard.records.len();
            shard.records.retain(|r| !r.overlaps_window(w0, w1));
            report.records_lost += before - shard.records.len();
            if let Some((_, log)) = &mut shard.passive {
                report.passive_samples_lost += log.drop_window(w0, w1);
            }
        }
        // Abortive faults never reach a completed shard.
        Fault::ServerOutage { .. } | Fault::TimeoutOverrun { .. } => {}
    }
}

/// Fold per-unit shards (in canonical unit order) into one database.
///
/// Records are stably sorted by start time — ties keep unit order, so the
/// result is deterministic — and ids are reassigned `0..n` in final order.
/// Passive logs keep their unit (operator) order. The sort is total
/// (`f64::total_cmp`): a non-finite timestamp sorts deterministically
/// instead of panicking the merge.
pub fn merge_shards(shards: Vec<Shard>) -> ConsolidatedDb {
    let mut records: Vec<TestRecord> =
        Vec::with_capacity(shards.iter().map(|s| s.records.len()).sum());
    let mut passive = Vec::new();
    for shard in shards {
        records.extend(shard.records);
        if let Some(p) = shard.passive {
            passive.push(p);
        }
    }
    records.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    for (i, r) in records.iter_mut().enumerate() {
        r.id = i as u32;
    }
    ConsolidatedDb { records, passive }
}

/// [`merge_shards`] over supervised slots: lost units (`None`) contribute
/// nothing, surviving shards merge exactly as before — the dataset simply
/// has a gap where the unit's data would have been.
pub fn merge_shard_slots(slots: Vec<Option<Shard>>) -> ConsolidatedDb {
    merge_shards(slots.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use wheels_netsim::faults::FaultProfile;

    fn tiny(seed: u64, profile: FaultProfile) -> Campaign {
        let mut cfg = CampaignConfig::quick_network_only(seed);
        cfg.scale = 0.01;
        cfg.run_static = false;
        cfg.run_passive = false;
        cfg.fault_profile = profile;
        Campaign::new(cfg)
    }

    #[test]
    fn unit_keys_are_unique_across_the_schedule() {
        let campaign = tiny(42, FaultProfile::None);
        let units = campaign.plan_units();
        let mut words: Vec<[u64; 3]> = units.iter().map(WorkUnit::fault_words).collect();
        let mut labels: Vec<String> = units.iter().map(WorkUnit::label).collect();
        words.sort_unstable();
        words.dedup();
        labels.sort();
        labels.dedup();
        assert_eq!(words.len(), units.len(), "fault_words collide");
        assert_eq!(labels.len(), units.len(), "labels collide");
    }

    #[test]
    fn none_profile_is_all_ok() {
        let campaign = tiny(42, FaultProfile::None);
        let outcome = campaign.run_supervised_jobs(1).expect("no fail-fast");
        assert!(outcome
            .integrity
            .units
            .iter()
            .all(|u| u.status == UnitStatus::Ok && u.attempts == 1 && u.faults.is_empty()));
    }

    #[test]
    fn harsh_profile_survives_and_accounts_for_losses() {
        let campaign = tiny(42, FaultProfile::Harsh);
        let outcome = campaign.run_supervised_jobs(1).expect("tolerant by default");
        let report = &outcome.integrity;
        assert_eq!(report.units.len(), campaign.plan_units().len());
        assert!(
            report.degraded_count() + report.lost_count() > 0,
            "harsh profile injected nothing: {}",
            report.summary()
        );
        // Degraded units actually lost something; clean units didn't.
        for u in &report.units {
            match u.status {
                UnitStatus::Degraded => assert!(u.lost_anything(), "{:?}", u),
                UnitStatus::Ok => assert!(!u.lost_anything(), "{:?}", u),
                UnitStatus::Lost => assert!(u.error.is_some(), "{:?}", u),
            }
        }
    }

    #[test]
    fn zero_retries_plus_fail_fast_aborts_deterministically() {
        let mut cfg = CampaignConfig::quick_network_only(42);
        cfg.scale = 0.01;
        cfg.run_static = false;
        cfg.run_passive = false;
        cfg.fault_profile = FaultProfile::Harsh;
        cfg.max_retries = 0;
        cfg.fail_fast = true;
        let campaign = Campaign::new(cfg);
        // With no retry budget under harsh faults, some of the 24 drive
        // units is statistically certain to abort its only attempt.
        let a = campaign.run_supervised_jobs(1).expect_err("must abort");
        let b = campaign.run_supervised_jobs(4).expect_err("must abort");
        assert_eq!(a, b, "fail-fast abort must not depend on job count");
    }

    #[test]
    fn retries_are_bounded_by_budget() {
        let campaign = tiny(11, FaultProfile::Harsh);
        let outcome = campaign.run_supervised_jobs(1).expect("tolerant");
        for u in &outcome.integrity.units {
            assert!(u.attempts >= 1 && u.attempts <= campaign.cfg.max_retries + 1);
            if u.attempts == 1 {
                assert_eq!(u.backoff_s, 0.0, "no retry, no backoff: {u:?}");
            }
        }
    }

    #[test]
    fn merge_tolerates_missing_shards() {
        let campaign = tiny(42, FaultProfile::None);
        let units = campaign.plan_units();
        let shards: Vec<Option<Shard>> = units
            .iter()
            .enumerate()
            .map(|(i, u)| (i % 2 == 0).then(|| campaign.run_unit_payload(u)))
            .collect();
        let db = merge_shard_slots(shards);
        for (i, r) in db.records.iter().enumerate() {
            assert_eq!(r.id, i as u32);
        }
        for pair in db.records.windows(2) {
            assert!(pair[0].start_s <= pair[1].start_s);
        }
    }

    #[test]
    fn merge_never_panics_on_non_finite_times() {
        let campaign = tiny(42, FaultProfile::None);
        let units = campaign.plan_units();
        let mut shard = campaign.run_unit_payload(&units[0]);
        assert!(shard.records.len() >= 2, "need records to poison");
        shard.records[0].start_s = f64::NAN;
        shard.records[1].start_s = f64::INFINITY;
        let db = merge_shards(vec![shard]);
        for (i, r) in db.records.iter().enumerate() {
            assert_eq!(r.id, i as u32);
        }
    }
}
