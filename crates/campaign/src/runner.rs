//! The campaign runner: executes the paper's §3 methodology.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_apps::ar::ArApp;
use wheels_apps::cav::CavApp;
use wheels_apps::gaming::GamingSession;
use wheels_apps::video::VideoSession;
use wheels_geo::trip::DrivePlan;
use wheels_netsim::bulk::{BulkTransferTest, ThroughputSample};
use wheels_netsim::ping::{PingLinkState, RttTest};
use wheels_netsim::rtt::RttModel;
use wheels_netsim::server::{Server, ServerSelector};
use wheels_fleet::FleetUnitSketch;
use wheels_ran::cell::CellDb;
use wheels_ran::deployment::build_ops;
use wheels_ran::fleet::{FleetLoad, FleetParams};
use wheels_ran::handover::HandoverEvent;
use wheels_ran::load::LoadParams;
use wheels_ran::operator::Operator;
use wheels_ran::tuning::OperatorTuning;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::ue::{LinkSnapshot, UeParams, UeRadio};
use wheels_ran::Direction;
use wheels_xcal::database::{AppMetrics, ConsolidatedDb, TestKind, TestRecord};
use wheels_xcal::handover_logger::PassiveLogger;
use wheels_xcal::kpi::KpiSample;
use wheels_xcal::logger::{XcalLog, XcalLogger};
use wheels_xcal::sync::{AppLog, AppStampFormat};

use wheels_netsim::rng::{self, Domain};

use crate::checkpoint::{self, CheckpointKey};
use crate::config::CampaignConfig;
use crate::driver::{demand_for, tcp_base_rtt_s, AppLinkAdapter, LinkDriver};
use crate::executor::{merge_shard_slots, Shard, UnitOutcome, WorkUnit};
use crate::integrity::{IntegrityReport, ResumeReport};
use crate::scenario::{Schedule, ScenarioSpec};
use wheels_netsim::faults::ProcessKill;

/// One phone: a UE plus its RTT model.
struct Phone {
    op: Operator,
    ue: UeRadio,
    rtt: RttModel,
    /// Recycled snapshot storage, threaded through every test this phone
    /// runs (each [`LinkDriver`] adopts it; `finish` hands it back).
    snap_scratch: Vec<LinkSnapshot>,
}

impl Phone {
    fn new(op: Operator, db: Arc<CellDb>, params: UeParams, seed: u64) -> Self {
        Phone {
            op,
            ue: UeRadio::new(op, db, params, seed),
            #[expect(
                clippy::disallowed_methods,
                reason = "D4: `seed` is the unit's netsim::rng-derived phone-stream seed; the salt splits off the RTT sub-stream"
            )]
            rtt: RttModel::new(SmallRng::seed_from_u64(seed ^ 0x5EED_0FF1)),
            snap_scratch: Vec::new(),
        }
    }
}

/// The full result of a supervised campaign: the merged dataset plus the
/// per-unit integrity (data-completeness) report.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The consolidated dataset — with gaps where units were lost.
    pub db: ConsolidatedDb,
    /// Per-unit completeness accounting, canonical schedule order.
    pub integrity: IntegrityReport,
    /// Resume accounting when the run came from
    /// [`Campaign::run_checkpointed_jobs`] with `resume` set: how many
    /// units were restored versus recomputed and what the checkpoint scan
    /// rejected. `None` for non-checkpointed and fresh runs. (The copy in
    /// [`IntegrityReport::resume`] is exported only when the scan saw
    /// damage; this one is always present on resumed runs, for the CLI.)
    pub resume: Option<ResumeReport>,
    /// Merged fleet ground truth, `None` when the campaign ran without a
    /// subscriber population.
    pub fleet: Option<FleetSummary>,
}

/// The fleet's ground-truth load summary for a whole campaign: the
/// panel-total population plus one merged sketch per operator, canonical
/// panel order. Per-unit sketches fold in canonical unit order, so the
/// summary is byte-identical at any `--jobs` and across crash + resume.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Panel-total subscriber population.
    pub population: u64,
    /// Per-operator merged sketches, panel order.
    pub per_op: Vec<(Operator, FleetUnitSketch)>,
}

/// A fail-fast abort: some unit was lost and
/// [`CampaignConfig::fail_fast`](crate::CampaignConfig) is set.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAborted {
    /// The first lost unit, canonical schedule order.
    pub unit: String,
    /// Its terminal error.
    pub error: String,
}

impl std::fmt::Display for CampaignAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign aborted (fail-fast): unit {} lost — {}",
            self.unit, self.error
        )
    }
}

impl std::error::Error for CampaignAborted {}

/// How [`Campaign::run_checkpointed_jobs`] should treat the checkpoint
/// directory.
#[derive(Debug)]
pub struct CheckpointOptions {
    /// Directory holding the checkpoint log (created if missing).
    pub dir: std::path::PathBuf,
    /// Restore valid records before running (`false` = fresh run; any
    /// existing log is truncated).
    pub resume: bool,
    /// Chaos hook: simulate a process death after the k-th durable unit
    /// commit. Test/CI machinery — `None` in normal operation.
    pub kill: Option<ProcessKill>,
}

impl CheckpointOptions {
    /// A fresh checkpointed run writing to `dir`.
    pub fn fresh(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            resume: false,
            kill: None,
        }
    }

    /// Resume from (and keep appending to) the log in `dir`.
    pub fn resume(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            resume: true,
            kill: None,
        }
    }

    /// Install the kill-point chaos hook.
    pub fn with_kill(mut self, kill: ProcessKill) -> Self {
        self.kill = Some(kill);
        self
    }
}

/// Why a campaign run returned no outcome. Without a checkpoint log only
/// [`CampaignError::Aborted`] can occur.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// Fail-fast abort: a unit was lost (see [`CampaignAborted`]).
    Aborted(CampaignAborted),
    /// A checkpoint or output write could not be made durable.
    Io {
        /// What was being written.
        context: String,
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// The [`ProcessKill`] chaos hook fired mid-run. Completed units are
    /// durable in the checkpoint log; resume to finish the campaign.
    Killed {
        /// Durable unit commits when the hook fired.
        committed: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Aborted(a) => a.fmt(f),
            CampaignError::Io { context, error } => {
                write!(f, "campaign I/O failure ({context}): {error}")
            }
            CampaignError::Killed { committed } => {
                write!(
                    f,
                    "campaign killed after {committed} durable unit commits (resume to finish)"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CampaignAborted> for CampaignError {
    fn from(a: CampaignAborted) -> Self {
        CampaignError::Aborted(a)
    }
}

/// The raw logs behind a dataset, for log-sync verification.
#[derive(Debug, Default)]
pub struct CampaignLogs {
    /// XCAL logs, one per test.
    pub xcal: Vec<XcalLog>,
    /// App-side logs, one per test, in the same order.
    pub app: Vec<AppLog>,
}

impl CampaignLogs {
    /// Reconstruct what the two logging sides would have produced for
    /// each record of `db`, in record order (costs extra memory; use at
    /// reduced scale).
    pub fn of(db: &ConsolidatedDb) -> Self {
        let mut logs = CampaignLogs::default();
        for record in &db.records {
            let mut xl = XcalLogger::start(record.op, record.kind.label(), record.start_s);
            for k in &record.kpi {
                xl.log_sample(*k);
            }
            for h in &record.handovers {
                xl.log_handover(h);
            }
            logs.xcal.push(xl.finish(record.timezone));
            // Apps alternate stamp formats, like the paper's mixed tooling.
            let fmt = if record.id.is_multiple_of(2) {
                AppStampFormat::Utc
            } else {
                AppStampFormat::Local(record.timezone)
            };
            logs.app.push(AppLog::stamped(
                record.kind.label(),
                record.op,
                record.start_s,
                fmt,
            ));
        }
        logs
    }
}

/// The campaign: world construction + test execution.
///
/// All fields are immutable after construction (the cell databases sit
/// behind `Arc`), so a `Campaign` is `Sync` and its work units can run on
/// any number of worker threads — see [`crate::executor`].
pub struct Campaign {
    pub(crate) cfg: CampaignConfig,
    pub(crate) plan: DrivePlan,
    /// The operator panel, in schedule order.
    pub(crate) ops: Vec<Operator>,
    /// Per-operator edge-server entitlement, [`Campaign::ops`] order.
    pub(crate) edge: Vec<bool>,
    pub(crate) dbs: Vec<Arc<CellDb>>,
    /// Per-operator tuning (load scales), [`Campaign::ops`] order.
    pub(crate) tunings: Vec<OperatorTuning>,
    /// Per-operator fleet load models, [`Campaign::ops`] order; all
    /// `None` when the campaign has no subscriber population.
    pub(crate) fleet: Vec<Option<Arc<FleetLoad>>>,
    pub(crate) selector: ServerSelector,
    pub(crate) sched: Schedule,
    /// Hash of the world definition (scenario spec + output-affecting
    /// config), stamped on every checkpoint record — see
    /// [`checkpoint::world_hash`].
    pub(crate) world_hash: u64,
}

impl Campaign {
    /// Build the paper's world (route, drive plan, cell deployments) for
    /// `cfg`: [`Campaign::from_spec`] on [`ScenarioSpec::paper`].
    pub fn new(cfg: CampaignConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "D7: the built-in paper spec validates (scenario::tests checks every registry spec)"
        )]
        Self::from_spec(&ScenarioSpec::paper(), cfg).expect("the paper spec is valid")
    }

    /// Build the world a [`ScenarioSpec`] describes: its route, operator
    /// panel, server fleet, and schedule. An invalid spec is an `Err`
    /// naming the first problem ([`ScenarioSpec::validate`]).
    pub fn from_spec(spec: &ScenarioSpec, cfg: CampaignConfig) -> Result<Self, String> {
        let world = spec.build(cfg.seed)?;
        let panel: Vec<_> = world.ops.iter().map(|&(op, tuning, _)| (op, tuning)).collect();
        let dbs: Vec<Arc<CellDb>> = build_ops(world.plan.route(), cfg.seed, &panel)
            .into_iter()
            .map(Arc::new)
            .collect();
        let world_hash = checkpoint::world_hash(spec, &cfg);
        let ops: Vec<Operator> = world.ops.iter().map(|&(op, _, _)| op).collect();
        let fleet = build_fleet(&cfg, world.subscribers, &ops, &dbs);
        Ok(Campaign {
            cfg,
            plan: world.plan,
            edge: world.ops.iter().map(|&(_, _, e)| e).collect(),
            tunings: world.ops.iter().map(|&(_, t, _)| t).collect(),
            fleet,
            ops,
            dbs,
            selector: world.selector,
            sched: world.schedule,
            world_hash,
        })
    }

    /// The drive plan in use.
    pub fn plan(&self) -> &DrivePlan {
        &self.plan
    }

    /// The operator panel, in schedule order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Whether the app suite runs (config and scenario both opt in).
    pub(crate) fn apps_enabled(&self) -> bool {
        self.cfg.run_apps && self.sched.run_apps
    }

    /// `op`'s entry in a per-operator column (`dbs`, `tunings`, ...),
    /// which runs parallel to `ops`.
    #[expect(
        clippy::expect_used,
        reason = "D7: every work unit is generated from self.ops, so the operator is always on the panel"
    )]
    fn on_panel<'a, T>(&self, column: &'a [T], op: Operator) -> &'a T {
        self.ops
            .iter()
            .zip(column)
            .find_map(|(&o, v)| (o == op).then_some(v))
            .expect("operator in panel")
    }

    /// The cell database of one operator.
    pub fn db_for(&self, op: Operator) -> Arc<CellDb> {
        Arc::clone(self.on_panel(&self.dbs, op))
    }

    /// One operator's tuning.
    fn tuning_for(&self, op: Operator) -> &OperatorTuning {
        self.on_panel(&self.tunings, op)
    }

    /// One operator's fleet load model, when the campaign has one.
    fn fleet_for(&self, op: Operator) -> Option<Arc<FleetLoad>> {
        self.on_panel(&self.fleet, op).clone()
    }

    /// The panel-total subscriber population (0 without a fleet).
    pub fn fleet_population(&self) -> u64 {
        self.fleet
            .iter()
            .flatten()
            .map(|f| f.population())
            .sum()
    }

    /// One operator's edge-server entitlement.
    fn has_edge(&self, op: Operator) -> bool {
        *self.on_panel(&self.edge, op)
    }

    /// Execute the campaign on `jobs` worker threads, returning the
    /// dataset *and* the per-unit integrity report.
    ///
    /// The output is byte-identical for every `jobs` value: each unit's
    /// streams derive from the campaign seed and the unit key, and shards
    /// merge in canonical unit order (see `tests/parallel_equivalence.rs`).
    /// With [`CampaignConfig::fail_fast`] set, a campaign with any lost
    /// unit aborts with [`CampaignError::Aborted`] naming the first lost
    /// unit in canonical order (deterministic regardless of `jobs`);
    /// otherwise lost units degrade to gaps in the dataset and the run
    /// always succeeds.
    pub fn run_supervised_jobs(&self, jobs: usize) -> Result<CampaignOutcome, CampaignError> {
        self.execute(jobs, None)
    }

    /// Fold per-unit outcomes (canonical order) into the merged dataset
    /// and integrity report. Restored and freshly computed outcomes fold
    /// identically — this is where resume regains byte-identity.
    pub(crate) fn fold_outcomes(
        &self,
        units: &[WorkUnit],
        outcomes: Vec<UnitOutcome>,
    ) -> CampaignOutcome {
        let mut slots = Vec::with_capacity(outcomes.len());
        let mut reports = Vec::with_capacity(outcomes.len());
        // Fleet sketches merge in canonical unit order (`outcomes` is in
        // `units` order regardless of worker scheduling), grouped by the
        // unit's operator.
        let mut per_op: BTreeMap<Operator, FleetUnitSketch> = BTreeMap::new();
        for (unit, mut o) in units.iter().zip(outcomes) {
            if let Some(shard) = o.shard.as_mut() {
                if let Some(sketch) = shard.fleet.take() {
                    let op = match *unit {
                        WorkUnit::Drive { op, .. }
                        | WorkUnit::Static { op, .. }
                        | WorkUnit::Passive { op } => op,
                    };
                    per_op
                        .entry(op)
                        .and_modify(|acc| acc.merge(&sketch))
                        .or_insert(sketch);
                }
            }
            slots.push(o.shard);
            reports.push(o.report);
        }
        let fleet = if self.fleet.iter().any(Option::is_some) {
            Some(FleetSummary {
                population: self.fleet_population(),
                per_op: self
                    .ops
                    .iter()
                    .map(|&op| (op, per_op.remove(&op).unwrap_or_else(FleetUnitSketch::empty)))
                    .collect(),
            })
        } else {
            None
        };
        CampaignOutcome {
            db: merge_shard_slots(slots),
            integrity: IntegrityReport {
                profile: self.cfg.fault_profile.label().to_string(),
                seed: self.cfg.seed,
                max_retries: self.cfg.max_retries,
                units: reports,
                resume: None,
            },
            resume: None,
            fleet,
        }
    }

    /// The identity stamped on this campaign's checkpoint records: a
    /// record is restorable only if its world hash, seed, and scale all
    /// match — anything else is another run's data.
    pub fn checkpoint_key(&self) -> CheckpointKey {
        CheckpointKey {
            world_hash: self.world_hash,
            seed: self.cfg.seed,
            scale_bits: self.cfg.scale.to_bits(),
        }
    }

    /// [`Campaign::run_supervised_jobs`] with durable per-unit
    /// checkpoints — the crash-safe way to run a long campaign.
    ///
    /// Every completed unit is appended to
    /// `opts.dir/`[`checkpoint::LOG_NAME`] and fsynced before the next
    /// unit starts counting; if the process dies (or the
    /// [`CheckpointOptions::kill`] chaos hook fires), a later run with
    /// [`CheckpointOptions::resume`] set restores every valid record,
    /// recomputes only what's missing or corrupt, and returns a
    /// [`CampaignOutcome`] **byte-identical** to an uninterrupted run —
    /// unit outputs are pure functions of `(config, unit)`, so where the
    /// work happened (before the crash, after it, on which worker) leaves
    /// no trace in the dataset.
    ///
    /// Fresh runs (`resume == false`) truncate any existing log: a
    /// non-resume run must never inherit another run's records. Resumed
    /// runs first compact the log unless the scan was clean — corrupt,
    /// foreign, and torn-tail bytes are healed out (atomically) so newly
    /// appended records stay reachable. Scan damage is accounted in the returned
    /// [`CampaignOutcome::resume`] and, when records were actually
    /// rejected, in [`IntegrityReport::resume`].
    pub fn run_checkpointed_jobs(
        &self,
        jobs: usize,
        opts: &CheckpointOptions,
    ) -> Result<CampaignOutcome, CampaignError> {
        self.execute(jobs, Some(opts))
    }

    /// Run one work unit's payload to a shard. Deterministic in
    /// `(config, unit)`: every stream is derived from the campaign seed
    /// and the unit key. Fault injection and panic handling sit above
    /// this, in [`Campaign::run_unit`](crate::executor) — the payload
    /// itself never knows whether the world is hostile.
    ///
    /// Public so benchmarks and diagnostics can run one unit in isolation;
    /// campaign execution goes through the supervised path.
    pub fn run_unit_payload(&self, unit: &WorkUnit) -> Shard {
        match *unit {
            WorkUnit::Drive { op, day } => self.run_drive_day(op, day),
            WorkUnit::Static { op, site_od } => self.run_static_site(op, site_od),
            WorkUnit::Passive { op } => Shard {
                records: Vec::new(),
                passive: Some((op, self.run_passive(op))),
                fleet: None,
            },
        }
    }

    /// One operator's round-robin cycles over one drive day.
    fn run_drive_day(&self, op: Operator, day_idx: usize) -> Shard {
        let mut records = Vec::new();
        let mut next_id: u32 = 0;
        let mut phone = Phone::new(
            op,
            self.db_for(op),
            UeParams {
                load: LoadParams::driving().scaled(&self.tuning_for(op).load),
                fleet: self.fleet_for(op),
                ..Default::default()
            },
            rng::derive_seed(
                self.cfg.seed,
                Domain::Phone { op: op as u64, day: day_idx as u64 },
            ),
        );
        // The three phones sit in the same vehicle and run the same
        // round-robin simultaneously (§3), so the cycle-skip stream is
        // keyed by day only, NOT by operator — Fig. 6 compares operators
        // on concurrently collected samples, and all three Drive units of
        // a day replay the identical skip sequence.
        let mut cycle_rng = rng::stream(self.cfg.seed, Domain::Cycle { day: day_idx as u64 });
        let cycle_len = self.cycle_duration_s();
        // Total lookup: a day index past the plan yields an empty shard
        // (the work-unit generator only emits in-plan indices).
        let (day_start_s, day_end_s) = match self.plan.days().get(day_idx) {
            Some(day) => (day.start_time_s as f64, day.end_time_s as f64),
            None => (0.0, 0.0),
        };
        let mut t = day_start_s + 60.0;
        while t + cycle_len < day_end_s {
            if cycle_rng.gen::<f64>() < self.cfg.scale {
                t = self.run_cycle(&mut phone, t, None, &mut records, &mut next_id);
            } else {
                t += cycle_len;
            }
        }
        // The drive unit is the fleet's accounting unit: it folds the
        // operator's ground-truth load over the day's span (static and
        // passive units fold nothing, so campaign totals count each
        // subscriber-hour exactly once).
        let fleet = self.fleet_for(op).map(|f| {
            let mut sketch = FleetUnitSketch::empty();
            f.fold_span(day_start_s, day_end_s, &mut sketch);
            sketch
        });
        Shard {
            records,
            passive: None,
            fleet,
        }
    }

    /// Length of one full round-robin cycle including gaps, seconds.
    pub fn cycle_duration_s(&self) -> f64 {
        let g = self.cfg.gap_s;
        let s = &self.sched;
        let net = s.tput_s + g + s.tput_s + g + s.rtt_s + g;
        if self.apps_enabled() {
            net + 4.0 * (s.app_offload_s + g) + s.video_s + g + s.game_s + g
        } else {
            net
        }
    }

    fn run_cycle(
        &self,
        phone: &mut Phone,
        t0: f64,
        static_od: Option<f64>,
        records: &mut Vec<TestRecord>,
        next_id: &mut u32,
    ) -> f64 {
        let g = self.cfg.gap_s;
        let mut t = t0;
        for dir in Direction::BOTH {
            let r = self.run_tput(phone, *next_id, t, dir, static_od);
            t = r.start_s + r.duration_s + g;
            self.push(records, next_id, r);
        }
        let r = self.run_rtt(phone, *next_id, t, static_od);
        t = r.start_s + r.duration_s + g;
        self.push(records, next_id, r);
        if self.apps_enabled() {
            for (kind, compressed) in [
                (TestKind::AppAr, true),
                (TestKind::AppAr, false),
                (TestKind::AppCav, true),
                (TestKind::AppCav, false),
            ] {
                let r = self.run_offload_app(phone, *next_id, t, kind, compressed, static_od);
                t = r.start_s + r.duration_s + g;
                self.push(records, next_id, r);
            }
            let r = self.run_video(phone, *next_id, t, static_od);
            t = r.start_s + r.duration_s + g;
            self.push(records, next_id, r);
            let r = self.run_gaming(phone, *next_id, t, static_od);
            t = r.start_s + r.duration_s + g;
            self.push(records, next_id, r);
        }
        t
    }

    /// Append a record under the next shard-local id (final ids are
    /// reassigned at merge time).
    fn push(&self, records: &mut Vec<TestRecord>, next_id: &mut u32, record: TestRecord) {
        records.push(record);
        *next_id += 1;
    }

    fn server_for(&self, op: Operator, t0: f64, static_od: Option<f64>) -> Server {
        let (pos, tz) = match static_od {
            Some(od) => (
                self.plan.route().point_at(od).pos,
                self.plan.route().timezone_at(od),
            ),
            None => {
                let state = self.plan.state_at(t0);
                (state.pos, state.timezone)
            }
        };
        self.selector.select_for(self.has_edge(op), pos, tz)
    }

    fn run_tput(
        &self,
        phone: &mut Phone,
        id: u32,
        t0: f64,
        dir: Direction,
        static_od: Option<f64>,
    ) -> TestRecord {
        let server = self.server_for(phone.op, t0, static_od);
        let demand = TrafficDemand::Backlog(dir);
        let scratch = std::mem::take(&mut phone.snap_scratch);
        let mut driver = match static_od {
            Some(od) => LinkDriver::static_at(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s, od),
            None => LinkDriver::driving(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s),
        }
        .reusing(scratch);
        let plan = &self.plan;
        let static_pos = static_od.map(|od| plan.route().point_at(od).pos);
        let test = BulkTransferTest {
            duration_s: self.sched.tput_s,
            ..Default::default()
        };
        let samples = test.run(t0, |t| {
            let s = driver.at(t);
            let pos = match static_pos {
                Some(p) => p,
                None => plan.pos_at(t),
            };
            let cap = match dir {
                Direction::Downlink => s.cap_dl_mbps,
                Direction::Uplink => s.cap_ul_mbps,
            };
            (cap, tcp_base_rtt_s(&s, pos, &server))
        });
        let kind = match dir {
            Direction::Downlink => TestKind::ThroughputDl,
            Direction::Uplink => TestKind::ThroughputUl,
        };
        self.finish(
            id,
            phone.op,
            kind,
            t0,
            self.sched.tput_s,
            server,
            static_od,
            driver,
            Some(&samples),
            Vec::new(),
            None,
            &mut phone.snap_scratch,
        )
    }

    fn run_rtt(&self, phone: &mut Phone, id: u32, t0: f64, static_od: Option<f64>) -> TestRecord {
        let server = self.server_for(phone.op, t0, static_od);
        let scratch = std::mem::take(&mut phone.snap_scratch);
        let mut driver = match static_od {
            Some(od) => LinkDriver::static_at(&mut phone.ue, &self.plan, TrafficDemand::Ping, self.cfg.snapshot_tick_s, od),
            None => LinkDriver::driving(&mut phone.ue, &self.plan, TrafficDemand::Ping, self.cfg.snapshot_tick_s),
        }
        .reusing(scratch);
        let plan = &self.plan;
        let static_pos = static_od.map(|od| plan.route().point_at(od).pos);
        let rtt_model = &mut phone.rtt;
        let test = RttTest {
            duration_s: self.sched.rtt_s,
            ..Default::default()
        };
        let samples = test.run(t0, &server, rtt_model, |t| {
            let s = driver.at(t);
            let pos = match static_pos {
                Some(p) => p,
                None => plan.pos_at(t),
            };
            PingLinkState {
                pos,
                tech: s.tech,
                sinr_db: s.sinr_dl_db,
                speed_mps: s.speed_mps,
                in_handover: s.in_handover,
            }
        });
        let rtts: Vec<f32> = samples.iter().map(|s| s.rtt_ms as f32).collect();
        self.finish(
            id,
            phone.op,
            TestKind::Rtt,
            t0,
            self.sched.rtt_s,
            server,
            static_od,
            driver,
            None,
            rtts,
            None,
            &mut phone.snap_scratch,
        )
    }

    fn run_offload_app(
        &self,
        phone: &mut Phone,
        id: u32,
        t0: f64,
        kind: TestKind,
        compressed: bool,
        static_od: Option<f64>,
    ) -> TestRecord {
        let server = self.server_for(phone.op, t0, static_od);
        let demand = demand_for(kind);
        let scratch = std::mem::take(&mut phone.snap_scratch);
        let mut driver = match static_od {
            Some(od) => LinkDriver::static_at(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s, od),
            None => LinkDriver::driving(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s),
        }
        .reusing(scratch);
        let mut metrics = AppMetrics {
            compressed: Some(compressed),
            ..Default::default()
        };
        {
            let mut link = AppLinkAdapter {
                driver: &mut driver,
                rtt: &mut phone.rtt,
                server,
                efficiency: 0.85,
            };
            match kind {
                TestKind::AppAr => {
                    let r = ArApp::default().run(t0, compressed, &mut link);
                    metrics.e2e_ms_mean = Some(r.offload.e2e_mean_ms as f32);
                    metrics.e2e_ms_median = Some(r.offload.e2e_median_ms as f32);
                    metrics.offload_fps = Some(r.offload.offload_fps as f32);
                    metrics.map_accuracy = Some(r.map_accuracy as f32);
                }
                TestKind::AppCav => {
                    let r = CavApp::default().run(t0, compressed, &mut link);
                    metrics.e2e_ms_mean = Some(r.offload.e2e_mean_ms as f32);
                    metrics.e2e_ms_median = Some(r.offload.e2e_median_ms as f32);
                    metrics.offload_fps = Some(r.offload.offload_fps as f32);
                }
                #[expect(
                    clippy::unreachable,
                    reason = "D7: run_offload_app is dispatched only for the AR/CAV kinds matched above"
                )]
                _ => unreachable!("run_offload_app only handles AR/CAV"),
            }
        }
        self.finish(
            id,
            phone.op,
            kind,
            t0,
            self.sched.app_offload_s,
            server,
            static_od,
            driver,
            None,
            Vec::new(),
            Some(metrics),
            &mut phone.snap_scratch,
        )
    }

    fn run_video(&self, phone: &mut Phone, id: u32, t0: f64, static_od: Option<f64>) -> TestRecord {
        let server = self.server_for(phone.op, t0, static_od);
        let demand = demand_for(TestKind::AppVideo);
        let scratch = std::mem::take(&mut phone.snap_scratch);
        let mut driver = match static_od {
            Some(od) => LinkDriver::static_at(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s, od),
            None => LinkDriver::driving(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s),
        }
        .reusing(scratch);
        let summary = {
            let mut link = AppLinkAdapter {
                driver: &mut driver,
                rtt: &mut phone.rtt,
                server,
                efficiency: 0.85,
            };
            VideoSession::default().run(t0, &mut link)
        };
        let metrics = AppMetrics {
            qoe: Some(summary.qoe as f32),
            avg_bitrate_mbps: Some(summary.avg_bitrate_mbps as f32),
            rebuffer_frac: Some(summary.rebuffer_frac as f32),
            ..Default::default()
        };
        self.finish(
            id,
            phone.op,
            TestKind::AppVideo,
            t0,
            self.sched.video_s,
            server,
            static_od,
            driver,
            None,
            Vec::new(),
            Some(metrics),
            &mut phone.snap_scratch,
        )
    }

    fn run_gaming(&self, phone: &mut Phone, id: u32, t0: f64, static_od: Option<f64>) -> TestRecord {
        let server = self.server_for(phone.op, t0, static_od);
        let demand = demand_for(TestKind::AppGaming);
        let scratch = std::mem::take(&mut phone.snap_scratch);
        let mut driver = match static_od {
            Some(od) => LinkDriver::static_at(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s, od),
            None => LinkDriver::driving(&mut phone.ue, &self.plan, demand, self.cfg.snapshot_tick_s),
        }
        .reusing(scratch);
        let summary = {
            let mut link = AppLinkAdapter {
                driver: &mut driver,
                rtt: &mut phone.rtt,
                server,
                efficiency: 0.85,
            };
            GamingSession::default().run(t0, &mut link)
        };
        let metrics = AppMetrics {
            send_bitrate_mbps: Some(summary.send_bitrate_mbps as f32),
            net_latency_ms: Some(summary.net_latency_ms as f32),
            frame_drop_frac: Some(summary.frame_drop_frac as f32),
            ..Default::default()
        };
        self.finish(
            id,
            phone.op,
            TestKind::AppGaming,
            t0,
            self.sched.game_s,
            server,
            static_od,
            driver,
            None,
            Vec::new(),
            Some(metrics),
            &mut phone.snap_scratch,
        )
    }

    /// Assemble a [`TestRecord`] from a finished driver. The driver's
    /// snapshot buffer is handed back through `scratch` for the next test.
    #[expect(
        clippy::too_many_arguments,
        reason = "one call site; the parts of a finished test are its natural arguments"
    )]
    fn finish(
        &self,
        id: u32,
        op: Operator,
        kind: TestKind,
        t0: f64,
        duration_s: f64,
        server: Server,
        static_od: Option<f64>,
        driver: LinkDriver<'_>,
        tput: Option<&[ThroughputSample]>,
        rtt_ms: Vec<f32>,
        app: Option<AppMetrics>,
        scratch: &mut Vec<LinkSnapshot>,
    ) -> TestRecord {
        let frac_hs5g = driver.frac_hs5g() as f32;
        let kpi = kpi_windows(&driver.snapshots, &driver.handovers, t0, duration_s, tput, kind);
        let (start_od, end_od, tz) = match static_od {
            Some(od) => (od, od, self.plan.route().timezone_at(od)),
            None => {
                let s0 = self.plan.state_at(t0);
                (
                    s0.odometer_m,
                    self.plan.state_at(t0 + duration_s).odometer_m,
                    s0.timezone,
                )
            }
        };
        let record = TestRecord {
            id,
            op,
            kind,
            start_s: t0,
            duration_s,
            server_kind: server.kind,
            server_name: server.name.to_string(),
            is_static: static_od.is_some(),
            start_odometer_m: start_od,
            end_odometer_m: end_od,
            timezone: tz,
            frac_hs5g,
            kpi,
            rtt_ms,
            handovers: driver.handovers,
            app,
        };
        *scratch = driver.snapshots;
        scratch.clear();
        record
    }

    /// One operator's static baseline at one city site. Retries get
    /// fresh UEs (walking around looking for the beam, as the authors
    /// did); each attempt's streams are keyed by `(op, site, attempt)`.
    fn run_static_site(&self, op: Operator, site_od: f64) -> Shard {
        let db = self.db_for(op);
        let mut records = Vec::new();
        let mut next_id: u32 = 0;
        // Test while passing/parked near the city.
        let t_base = self
            .plan
            .time_at_odometer(site_od)
            .unwrap_or_else(|| {
                self.plan
                    .days()
                    .first()
                    .map_or(0.0, |d| d.start_time_s as f64)
            });
        for attempt in 0..3u64 {
            let seed = rng::derive_seed(
                self.cfg.seed,
                Domain::Static { op: op as u64, site: site_od as u64, attempt },
            );
            let mut phone = Phone::new(
                op,
                Arc::clone(&db),
                UeParams {
                    load: LoadParams::static_urban().scaled(&self.tuning_for(op).load),
                    clutter_scale: 0.25,
                    fleet: self.fleet_for(op),
                    ..Default::default()
                },
                seed,
            );
            // Probe run to check the operator actually elevates us.
            let probe = self.run_tput(&mut phone, next_id, t_base, Direction::Downlink, Some(site_od));
            if probe.frac_hs5g < 0.6 {
                continue;
            }
            self.push(&mut records, &mut next_id, probe);
            let mut t = t_base + self.sched.tput_s + self.cfg.gap_s;
            let r = self.run_tput(&mut phone, next_id, t, Direction::Uplink, Some(site_od));
            t = r.start_s + r.duration_s + self.cfg.gap_s;
            self.push(&mut records, &mut next_id, r);
            let r = self.run_rtt(&mut phone, next_id, t, Some(site_od));
            t = r.start_s + r.duration_s + self.cfg.gap_s;
            self.push(&mut records, &mut next_id, r);
            if self.apps_enabled() {
                for (kind, compressed) in [
                    (TestKind::AppAr, true),
                    (TestKind::AppAr, false),
                    (TestKind::AppCav, true),
                    (TestKind::AppCav, false),
                ] {
                    let r = self.run_offload_app(&mut phone, next_id, t, kind, compressed, Some(site_od));
                    t = r.start_s + r.duration_s + self.cfg.gap_s;
                    self.push(&mut records, &mut next_id, r);
                }
                let r = self.run_video(&mut phone, next_id, t, Some(site_od));
                t = r.start_s + r.duration_s + self.cfg.gap_s;
                self.push(&mut records, &mut next_id, r);
                let r = self.run_gaming(&mut phone, next_id, t, Some(site_od));
                self.push(&mut records, &mut next_id, r);
            }
            break;
        }
        Shard {
            records,
            passive: None,
            fleet: None,
        }
    }

    /// The passive handover-logger phone for one operator.
    fn run_passive(&self, op: Operator) -> PassiveLogger {
        let mut ue = UeRadio::new(
            op,
            self.db_for(op),
            UeParams {
                load: LoadParams::driving().scaled(&self.tuning_for(op).load),
                fleet: self.fleet_for(op),
                ..Default::default()
            },
            rng::derive_seed(self.cfg.seed, Domain::Passive { op: op as u64 }),
        );
        let mut log = PassiveLogger::new();
        for day in self.plan.days() {
            let mut t = day.start_time_s as f64;
            while t < day.end_time_s as f64 {
                let state = self.plan.state_at(t);
                let snap = ue.step(t, &state, TrafficDemand::Ping);
                log.log(&snap, state.pos.lon);
                t += self.cfg.passive_tick_s;
            }
        }
        log
    }
}

/// Compile the effective fleet template — the scenario's `subscribers`
/// axis overridden by [`CampaignConfig::population`] — into per-operator
/// load models. The panel total is apportioned evenly with the remainder
/// going to earlier slots (so the sum is exact), and each operator's
/// attachment stream is derived from the campaign seed under
/// [`Domain::Fleet`]. Returns all `None` (the strict no-op path)
/// when the effective population is zero.
fn build_fleet(
    cfg: &CampaignConfig,
    template: Option<FleetParams>,
    ops: &[Operator],
    dbs: &[Arc<CellDb>],
) -> Vec<Option<Arc<FleetLoad>>> {
    let params = match cfg.population {
        Some(0) => None,
        Some(n) => {
            let mut p = template.unwrap_or_default();
            p.population = n;
            Some(p)
        }
        None => template.filter(|p| p.population > 0),
    };
    let Some(params) = params else {
        return ops.iter().map(|_| None).collect();
    };
    let n = ops.len() as u64;
    let base = params.population / n;
    let rem = params.population % n;
    ops.iter()
        .zip(dbs)
        .enumerate()
        .map(|(i, (&op, db))| {
            let mut p = params.clone();
            p.population = base + u64::from((i as u64) < rem);
            let seed = rng::derive_seed(cfg.seed, Domain::Fleet { op: op as u64 });
            Some(Arc::new(FleetLoad::build(op, db, &p, seed)))
        })
        .collect()
}

/// Downsample raw snapshots into 500 ms KPI windows, joining throughput
/// samples and counting handovers per window.
fn kpi_windows(
    snapshots: &[LinkSnapshot],
    handovers: &[HandoverEvent],
    t0: f64,
    duration_s: f64,
    tput: Option<&[ThroughputSample]>,
    kind: TestKind,
) -> Vec<KpiSample> {
    const WINDOW_S: f64 = 0.5;
    let n = (duration_s / WINDOW_S).round() as usize;
    let mut out = Vec::with_capacity(n);
    let mut snap_i = 0usize;
    for w in 0..n {
        let w_end = t0 + (w + 1) as f64 * WINDOW_S;
        // Last snapshot at or before the window end.
        while snapshots
            .get(snap_i + 1)
            .is_some_and(|s| s.time_s <= w_end)
        {
            snap_i += 1;
        }
        let Some(snap) = snapshots.get(snap_i) else {
            break;
        };
        let hos = handovers
            .iter()
            .filter(|h| h.time_s > w_end - WINDOW_S && h.time_s <= w_end)
            .count() as u8;
        let tput_mbps = tput.and_then(|t| {
            t.iter()
                .find(|s| (s.time_s - w_end).abs() < WINDOW_S / 2.0)
                .map(|s| s.mbps as f32)
        });
        let sample = match kind.direction() {
            Some(Direction::Uplink) => KpiSample::from_snapshot_ul(snap, tput_mbps, hos),
            _ => KpiSample::from_snapshot_dl(snap, tput_mbps, hos),
        };
        out.push(KpiSample {
            time_s: w_end,
            ..sample
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        let mut cfg = CampaignConfig::quick_network_only(42);
        cfg.scale = 0.01;
        cfg.run_static = false;
        cfg.run_passive = false;
        Campaign::new(cfg)
    }

    fn run(campaign: &Campaign) -> ConsolidatedDb {
        campaign.run_supervised_jobs(1).expect("no fail-fast").db
    }

    #[test]
    fn tiny_run_produces_records() {
        let db = run(&tiny_campaign());
        assert!(!db.records.is_empty());
        // Every operator gets tests.
        for op in Operator::ALL {
            assert!(
                db.records.iter().any(|r| r.op == op),
                "no records for {op}"
            );
        }
    }

    #[test]
    fn tput_records_have_60_kpi_windows_with_throughput() {
        let db = run(&tiny_campaign());
        let r = db
            .records
            .iter()
            .find(|r| r.kind == TestKind::ThroughputDl)
            .expect("at least one DL test");
        assert_eq!(r.kpi.len(), 60);
        let with_tput = r.kpi.iter().filter(|k| k.tput_mbps.is_some()).count();
        assert!(with_tput >= 55, "{with_tput}");
    }

    #[test]
    fn rtt_records_have_100_samples() {
        let db = run(&tiny_campaign());
        let r = db
            .records
            .iter()
            .find(|r| r.kind == TestKind::Rtt)
            .expect("at least one RTT test");
        assert_eq!(r.rtt_ms.len(), 100);
        assert!(r.kpi.iter().all(|k| k.tput_mbps.is_none()));
    }

    #[test]
    fn deterministic_runs() {
        let a = run(&tiny_campaign());
        let b = run(&tiny_campaign());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.start_s, y.start_s);
            assert_eq!(x.mean_tput_mbps(), y.mean_tput_mbps());
        }
    }

    #[test]
    fn unknown_operator_slot_is_an_error() {
        let mut spec = ScenarioSpec::paper();
        spec.operators[0].slot = "sprint".to_string();
        let err = Campaign::from_spec(&spec, CampaignConfig::quick_network_only(1))
            .err()
            .expect("an unknown slot must not build");
        assert!(err.contains("sprint"), "{err}");
    }

    #[test]
    fn static_suite_produces_high_speed_baselines() {
        let mut cfg = CampaignConfig::quick_network_only(7);
        cfg.scale = 0.0; // static only
        cfg.run_passive = false;
        let db = run(&Campaign::new(cfg));
        let statics: Vec<_> = db.records.iter().filter(|r| r.is_static).collect();
        assert!(statics.len() >= 10, "{} static records", statics.len());
        for r in &statics {
            assert!(r.frac_hs5g >= 0.0);
        }
        // Accepted DL baselines are high-speed by construction.
        let dl: Vec<_> = statics
            .iter()
            .filter(|r| r.kind == TestKind::ThroughputDl)
            .collect();
        assert!(dl.iter().all(|r| r.frac_hs5g >= 0.6));
    }

    #[test]
    fn logs_match_via_correct_sync() {
        let mut cfg = CampaignConfig::quick_network_only(9);
        cfg.scale = 0.005;
        cfg.run_static = false;
        cfg.run_passive = false;
        let db = run(&Campaign::new(cfg));
        let logs = CampaignLogs::of(&db);
        assert_eq!(logs.xcal.len(), db.records.len());
        let matches = wheels_xcal::sync::match_logs(&logs.app, &logs.xcal);
        for (i, m) in matches.iter().enumerate() {
            assert_eq!(*m, Some(i), "app log {i} mismatched");
        }
    }
}
