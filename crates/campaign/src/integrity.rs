//! Per-unit data-completeness accounting.
//!
//! The paper's campaign lost data — probes crashed, servers went dark,
//! sessions aborted — and its analysis accounts for the gaps. This module
//! is the simulated analogue: every work unit ends the campaign with a
//! [`UnitReport`] saying whether it ran clean, ran [`UnitStatus::Degraded`]
//! (completed, but the injected apparatus fault cost it records or KPI
//! samples), or was [`UnitStatus::Lost`] outright after the supervisor's
//! retries were exhausted. The collected [`IntegrityReport`] is exported
//! alongside the dataset JSON and is deterministic: unit order is the
//! canonical schedule order and every field derives from
//! `(config, seed)`, so sequential and parallel runs emit identical
//! reports byte for byte.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Why one attempt at a work unit produced no shard.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitError {
    /// The measurement endpoint was unreachable; the test suite aborted.
    ServerUnreachable {
        /// How long the endpoint stayed dark, simulated seconds.
        outage_s: f64,
    },
    /// The unit overran its time budget and the supervisor killed it.
    TimeoutOverrun {
        /// Seconds past the budget when it was killed.
        overrun_s: f64,
    },
    /// The worker panicked inside the unit (caught at the unit boundary,
    /// never allowed to take down the campaign).
    Panicked {
        /// The panic payload, if it carried a message.
        message: String,
    },
}

impl UnitError {
    /// Short kebab-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            UnitError::ServerUnreachable { .. } => "server-unreachable",
            UnitError::TimeoutOverrun { .. } => "timeout-overrun",
            UnitError::Panicked { .. } => "panicked",
        }
    }
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::ServerUnreachable { outage_s } => {
                write!(f, "server unreachable ({outage_s:.1} s outage)")
            }
            UnitError::TimeoutOverrun { overrun_s } => {
                write!(f, "killed {overrun_s:.1} s past its time budget")
            }
            UnitError::Panicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for UnitError {}

/// How one work unit ended the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnitStatus {
    /// Completed with its full payload.
    Ok,
    /// Completed, but an injected fault cost it data (lost records,
    /// truncated KPI streams, or dropped passive samples).
    Degraded,
    /// Produced no data: every attempt failed.
    Lost,
}

/// One unit's completeness record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitReport {
    /// Human-readable unit key, e.g. `drive/Verizon/day3`.
    pub unit: String,
    /// Final status.
    pub status: UnitStatus,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// Labels of every fault injected across the attempts, in order.
    pub faults: Vec<String>,
    /// Test records that survived.
    pub records_kept: usize,
    /// Test records lost whole (probe dead before they started, or
    /// modem detached across their slot).
    pub records_lost: usize,
    /// KPI samples truncated out of surviving records.
    pub kpi_samples_lost: usize,
    /// `kpi_samples_lost` over all KPI samples the surviving records
    /// originally held (0 when nothing was truncated).
    pub truncated_kpi_frac: f64,
    /// Passive-logger samples lost (passive units only).
    pub passive_samples_lost: usize,
    /// Total simulated backoff the supervisor charged before retries.
    pub backoff_s: f64,
    /// Terminal error, for `Lost` units.
    pub error: Option<String>,
}

impl UnitReport {
    /// A fresh report for a unit that has not run yet.
    pub fn new(unit: String) -> Self {
        UnitReport {
            unit,
            status: UnitStatus::Lost,
            attempts: 0,
            faults: Vec::new(),
            records_kept: 0,
            records_lost: 0,
            kpi_samples_lost: 0,
            truncated_kpi_frac: 0.0,
            passive_samples_lost: 0,
            backoff_s: 0.0,
            error: None,
        }
    }

    /// True if any data went missing (whole records, KPI samples, or
    /// passive samples).
    pub fn lost_anything(&self) -> bool {
        self.records_lost > 0 || self.kpi_samples_lost > 0 || self.passive_samples_lost > 0
    }
}

/// What a `--resume` run found in the checkpoint log: how much work it
/// restored versus recomputed, and how many records it had to reject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResumeReport {
    /// Units restored from valid checkpoint records (not re-run).
    pub restored_units: usize,
    /// Units recomputed because no valid record covered them.
    pub recomputed_units: usize,
    /// Checkpoint records rejected as corrupt (torn frame, digest
    /// mismatch, undecodable payload); their units were recomputed.
    pub corrupt_records: usize,
    /// Byte-valid records stamped with a different world/seed/scale;
    /// ignored.
    pub foreign_records: usize,
    /// One human-readable note per rejected record, scan order.
    pub notes: Vec<String>,
}

impl ResumeReport {
    /// True if the scan rejected anything — the signal worth surfacing in
    /// the exported integrity report.
    pub fn saw_damage(&self) -> bool {
        self.corrupt_records > 0 || self.foreign_records > 0
    }
}

/// The campaign-wide completeness report, one entry per scheduled unit in
/// canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityReport {
    /// Fault profile the campaign ran under.
    pub profile: String,
    /// Campaign seed.
    pub seed: u64,
    /// Retry budget per unit.
    pub max_retries: u32,
    /// Per-unit reports, in canonical schedule order.
    pub units: Vec<UnitReport>,
    /// Resume accounting, present **only** when a `--resume` run rejected
    /// corrupt or foreign checkpoint records. A clean resume leaves this
    /// `None` so its exported report stays byte-identical to an
    /// uninterrupted run's — the determinism gates `cmp` these files.
    pub resume: Option<ResumeReport>,
}

// Hand-written (de)serialization: the vendored serde_derive has no
// `#[serde(skip_serializing_if)]`, and the `resume` field must vanish
// from the JSON entirely when `None` — emitting `"resume": null` would
// break byte-compatibility with every report written before this field
// existed and with the uninterrupted-run goldens.
impl Serialize for IntegrityReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("profile".to_string(), self.profile.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("max_retries".to_string(), self.max_retries.to_value()),
            ("units".to_string(), self.units.to_value()),
        ];
        if let Some(resume) = &self.resume {
            fields.push(("resume".to_string(), resume.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for IntegrityReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(IntegrityReport {
            profile: serde::de::field(v, "profile")?,
            seed: serde::de::field(v, "seed")?,
            max_retries: serde::de::field(v, "max_retries")?,
            units: serde::de::field(v, "units")?,
            // Missing deserializes as `None`: pre-checkpoint reports load.
            resume: serde::de::field(v, "resume")?,
        })
    }
}

impl IntegrityReport {
    /// Units that completed clean.
    pub fn ok_count(&self) -> usize {
        self.count(UnitStatus::Ok)
    }

    /// Units that completed with data loss.
    pub fn degraded_count(&self) -> usize {
        self.count(UnitStatus::Degraded)
    }

    /// Units that produced nothing.
    pub fn lost_count(&self) -> usize {
        self.count(UnitStatus::Lost)
    }

    fn count(&self, status: UnitStatus) -> usize {
        self.units.iter().filter(|u| u.status == status).count()
    }

    /// Total test records lost across the campaign (whole-record losses
    /// only; truncation is tracked per unit).
    pub fn records_lost(&self) -> usize {
        self.units.iter().map(|u| u.records_lost).sum()
    }

    /// Total retries the supervisor spent.
    pub fn total_retries(&self) -> u32 {
        self.units.iter().map(|u| u.attempts.saturating_sub(1)).sum()
    }

    /// One-line human summary for progress logs.
    pub fn summary(&self) -> String {
        format!(
            "integrity [{}]: {} units — {} ok, {} degraded, {} lost; {} records lost, {} retries",
            self.profile,
            self.units.len(),
            self.ok_count(),
            self.degraded_count(),
            self.lost_count(),
            self.records_lost(),
            self.total_retries(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(status: UnitStatus, records_lost: usize, attempts: u32) -> UnitReport {
        UnitReport {
            status,
            records_lost,
            attempts,
            ..UnitReport::new("drive/Verizon/day0".into())
        }
    }

    #[test]
    fn counts_by_status() {
        let r = IntegrityReport {
            profile: "harsh".into(),
            seed: 42,
            max_retries: 2,
            units: vec![
                unit(UnitStatus::Ok, 0, 1),
                unit(UnitStatus::Degraded, 3, 1),
                unit(UnitStatus::Lost, 0, 3),
                unit(UnitStatus::Ok, 0, 2),
            ],
            resume: None,
        };
        assert_eq!(r.ok_count(), 2);
        assert_eq!(r.degraded_count(), 1);
        assert_eq!(r.lost_count(), 1);
        assert_eq!(r.records_lost(), 3);
        assert_eq!(r.total_retries(), 3);
        let s = r.summary();
        assert!(s.contains("4 units"), "{s}");
        assert!(s.contains("1 lost"), "{s}");
    }

    #[test]
    fn fresh_report_is_a_lost_unit_until_proven_otherwise() {
        let u = UnitReport::new("passive/Att".into());
        assert_eq!(u.status, UnitStatus::Lost);
        assert_eq!(u.attempts, 0);
        assert!(!u.lost_anything());
    }

    #[test]
    fn errors_render_their_cause() {
        let e = UnitError::ServerUnreachable { outage_s: 120.0 };
        assert!(e.to_string().contains("120.0"));
        assert_eq!(e.label(), "server-unreachable");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = IntegrityReport {
            profile: "paper".into(),
            seed: 7,
            max_retries: 1,
            units: vec![unit(UnitStatus::Degraded, 2, 2)],
            resume: None,
        };
        let j = serde_json::to_string_pretty(&r).unwrap();
        let back: IntegrityReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn resume_field_is_absent_when_none_and_roundtrips_when_some() {
        let mut r = IntegrityReport {
            profile: "none".into(),
            seed: 11,
            max_retries: 2,
            units: vec![unit(UnitStatus::Ok, 0, 1)],
            resume: None,
        };
        let clean = serde_json::to_string_pretty(&r).unwrap();
        assert!(
            !clean.contains("resume"),
            "clean reports must not change shape: {clean}"
        );

        r.resume = Some(ResumeReport {
            restored_units: 3,
            recomputed_units: 2,
            corrupt_records: 1,
            foreign_records: 0,
            notes: vec!["digest mismatch at byte 72".into()],
        });
        assert!(r.resume.as_ref().unwrap().saw_damage());
        let j = serde_json::to_string_pretty(&r).unwrap();
        assert!(j.contains("\"corrupt_records\": 1"), "{j}");
        let back: IntegrityReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pre_checkpoint_reports_still_deserialize() {
        // A report written before the `resume` field existed.
        let legacy = r#"{"profile":"paper","seed":7,"max_retries":1,"units":[]}"#;
        let back: IntegrityReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.resume, None);
        assert_eq!(back.seed, 7);
    }
}
