//! Table 1: driving dataset statistics.

use wheels_geo::route::Route;
use wheels_ran::operator::Operator;
use wheels_xcal::database::{ConsolidatedDb, TestKind};

/// The dataset statistics of Table 1, computed from a campaign run.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The operator panel the per-operator columns refer to.
    pub ops: Vec<Operator>,
    /// Total geographic distance, km.
    pub distance_km: f64,
    /// States / major cities / counties-equivalent (we report waypoint
    /// towns) crossed.
    pub states: usize,
    /// Major cities on the route.
    pub major_cities: usize,
    /// Timezones crossed.
    pub timezones: usize,
    /// Unique cells connected per operator, [`Table1::ops`] order.
    pub unique_cells: Vec<usize>,
    /// Handovers per operator — from the passive loggers, like the
    /// paper's Table 1.
    pub handovers: Vec<usize>,
    /// Total data received across tests, GB.
    pub rx_gb: f64,
    /// Total data transmitted across tests, GB.
    pub tx_gb: f64,
    /// Cumulative experiment runtime per operator, minutes.
    pub runtime_min: Vec<f64>,
}

impl Table1 {
    /// Compute the table for the paper's three-operator panel.
    pub fn compute(db: &ConsolidatedDb, route: &Route) -> Self {
        Self::compute_for(db, route, &Operator::ALL)
    }

    /// Compute the table for an explicit operator panel. Geography counts
    /// (states, major cities, timezones) come from the route's own
    /// waypoints, so scenario routes report their own numbers.
    pub fn compute_for(db: &ConsolidatedDb, route: &Route, ops: &[Operator]) -> Self {
        let unique_cells: Vec<usize> = ops.iter().map(|&op| db.unique_cells(op)).collect();
        let handovers: Vec<usize> = ops
            .iter()
            .map(|&op| {
                db.passive_for(op)
                    .map(|p| p.cell_changes())
                    .unwrap_or_else(|| db.handover_count(op))
            })
            .collect();
        let runtime_min: Vec<f64> = ops
            .iter()
            .map(|&op| {
                db.records
                    .iter()
                    .filter(|r| r.op == op)
                    .map(|r| r.duration_s)
                    .sum::<f64>()
                    / 60.0
            })
            .collect();
        let mut rx_bytes = 0f64;
        let mut tx_bytes = 0f64;
        for r in &db.records {
            let bytes: f64 = r
                .tput_samples()
                .map(|mbps| mbps * 1e6 / 8.0 * 0.5)
                .sum();
            match r.kind {
                TestKind::ThroughputDl => rx_bytes += bytes,
                TestKind::ThroughputUl => tx_bytes += bytes,
                TestKind::AppVideo => {
                    if let Some(app) = &r.app {
                        if let Some(b) = app.avg_bitrate_mbps {
                            rx_bytes += b as f64 * 1e6 / 8.0 * r.duration_s;
                        }
                    }
                }
                TestKind::AppGaming => {
                    if let Some(app) = &r.app {
                        if let Some(b) = app.send_bitrate_mbps {
                            rx_bytes += b as f64 * 1e6 / 8.0 * r.duration_s;
                        }
                    }
                }
                TestKind::AppAr | TestKind::AppCav => {
                    if let Some(app) = &r.app {
                        if let (Some(fps), Some(compressed)) = (app.offload_fps, app.compressed) {
                            let cfg = if r.kind == TestKind::AppAr {
                                wheels_apps::AR_CONFIG
                            } else {
                                wheels_apps::CAV_CONFIG
                            };
                            tx_bytes +=
                                fps as f64 * r.duration_s * cfg.frame_bytes(compressed);
                        }
                    }
                }
                TestKind::Rtt => {}
            }
        }
        let mut states: Vec<&str> = route.cities().iter().map(|c| c.state).collect();
        states.sort_unstable();
        states.dedup();
        let mut tzs: Vec<_> = route.cities().iter().map(|c| c.timezone()).collect();
        tzs.sort();
        tzs.dedup();
        Table1 {
            ops: ops.to_vec(),
            distance_km: route.total_m() / 1_000.0,
            states: states.len(),
            major_cities: route.cities().iter().filter(|c| c.major).count(),
            timezones: tzs.len(),
            unique_cells,
            handovers,
            rx_gb: rx_bytes / 1e9,
            tx_gb: tx_bytes / 1e9,
            runtime_min,
        }
    }

    /// Join one per-operator column as `"v0 (C0), v1 (C1), ..."` using
    /// the operators' single-letter codes.
    fn per_op_row<T: std::fmt::Display>(&self, values: impl Iterator<Item = T>) -> String {
        values
            .zip(&self.ops)
            .map(|(v, op)| format!("{} ({})", v, op.code()))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Render in the paper's layout (operator columns follow the panel).
    pub fn render(&self) -> String {
        let operators = self
            .ops
            .iter()
            .map(|op| format!("{} ({})", op.label(), op.code()))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "Total geographical distance travelled | {:.0} km\n\
             States/major cities traveled          | {}/{}\n\
             Timezones traveled                    | {}\n\
             Operators                             | {}\n\
             # of unique cells connected           | {}\n\
             # of handovers                        | {}\n\
             Total cellular data used              | {:.1} GB (Rx), {:.1} GB (Tx)\n\
             Cumulative experiment runtime         | {}\n",
            self.distance_km,
            self.states,
            self.major_cities,
            self.timezones,
            operators,
            self.per_op_row(self.unique_cells.iter()),
            self.per_op_row(self.handovers.iter()),
            self.rx_gb,
            self.tx_gb,
            self.per_op_row(self.runtime_min.iter().map(|m| format!("{m:.0} min"))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::runner::Campaign;

    #[test]
    fn table1_from_tiny_campaign() {
        let mut cfg = CampaignConfig::quick_network_only(5);
        cfg.scale = 0.01;
        cfg.run_static = false;
        cfg.passive_tick_s = 20.0;
        let campaign = Campaign::new(cfg);
        let db = campaign.run_supervised_jobs(1).expect("no fail-fast").db;
        let t1 = Table1::compute(&db, campaign.plan().route());
        assert!((t1.distance_km - 5_711.0).abs() < 2.0);
        assert_eq!(t1.major_cities, 10);
        assert_eq!(t1.timezones, 4);
        assert!(t1.rx_gb > 0.0);
        assert!(t1.tx_gb > 0.0);
        assert!(t1.unique_cells.iter().all(|&c| c > 0));
        let rendered = t1.render();
        assert!(rendered.contains("5711 km"));
        assert!(rendered.contains("Verizon (V)"));
    }
}
