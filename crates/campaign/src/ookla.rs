//! Table 3: comparison against Ookla SpeedTest's Q3 2022 US report.
//!
//! The Speedtest column is *published* data (the paper cites Ookla's
//! Q3 2022 US market report); the "Our Data" column is the median of our
//! per-test means (the same statistic as Fig. 9). §5.6 explains why the
//! two differ: SpeedTest users are mostly static, the app picks nearby
//! servers, and it opens multiple TCP connections to measure peak
//! bandwidth. [`simulate_speedtest_style`] reproduces that methodology
//! inside our simulation as a check that those three factors do push the
//! numbers in Ookla's direction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_ran::operator::Operator;

/// Published medians from the Ookla Q3 2022 US report as cited in Table 3:
/// (downlink Mbps, uplink Mbps, RTT ms).
pub fn ookla_q3_2022(op: Operator) -> (f64, f64, f64) {
    match op {
        Operator::Verizon => (58.64, 8.30, 59.0),
        Operator::TMobile => (116.14, 10.91, 60.0),
        Operator::Att => (57.94, 7.55, 61.0),
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Operator.
    pub op: Operator,
    /// Our median per-test DL mean, Mbps.
    pub our_dl_mbps: f64,
    /// Published DL median, Mbps.
    pub speedtest_dl_mbps: f64,
    /// Our median per-test UL mean, Mbps.
    pub our_ul_mbps: f64,
    /// Published UL median, Mbps.
    pub speedtest_ul_mbps: f64,
    /// Our median per-test RTT mean, ms.
    pub our_rtt_ms: f64,
    /// Published RTT median, ms.
    pub speedtest_rtt_ms: f64,
}

/// A crude SpeedTest-style measurement over a sample of link capacities:
/// static user (no mobility penalty), nearby server (low RTT), multiple
/// parallel connections (captures peak rather than single-flow goodput).
///
/// Given the per-test single-flow means from the driving campaign, apply
/// the three methodology deltas and return the adjusted median — used by
/// the ablation bench to show the direction and rough magnitude of the
/// Ookla gap.
pub fn simulate_speedtest_style(driving_means_mbps: &[f64], seed: u64) -> f64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "D4: ablation-only helper; callers pass a seed already derived from the campaign seed"
    )]
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut adjusted: Vec<f64> = driving_means_mbps
        .iter()
        .map(|&m| {
            // Static vs driving: remove the mobility penalty (deep fades,
            // handovers, suburbs) — calibrated against our own static
            // baselines being several times the driving medians.
            let static_gain = rng.gen_range(1.6..3.0);
            // Multi-connection peak vs single CUBIC flow.
            let multi_conn = rng.gen_range(1.1..1.5);
            m * static_gain * multi_conn
        })
        .collect();
    adjusted.sort_by(f64::total_cmp);
    // Total: `len / 2 < len` for any nonempty slice, and the empty case
    // falls through to the 0.0 default.
    adjusted.get(adjusted.len() / 2).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_values_match_table3() {
        assert_eq!(ookla_q3_2022(Operator::Verizon).0, 58.64);
        assert_eq!(ookla_q3_2022(Operator::TMobile).0, 116.14);
        assert_eq!(ookla_q3_2022(Operator::Att).2, 61.0);
    }

    #[test]
    fn speedtest_style_inflates_dl() {
        let driving = vec![20.0, 30.0, 40.0, 25.0, 35.0];
        let st = simulate_speedtest_style(&driving, 1);
        assert!(st > 40.0, "{st}");
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(simulate_speedtest_style(&[], 1), 0.0);
    }
}
