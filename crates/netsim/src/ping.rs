//! The ICMP RTT test.
//!
//! §5: *"To measure the RTT between the UE and an edge/cloud server, we
//! used the ICMP-based ping utility. Each test ran for 20 s and sent one
//! ICMP packet every 200 ms."*

use wheels_geo::coord::LatLon;
use wheels_radio::band::Technology;

use crate::rtt::RttModel;
use crate::server::Server;

/// One ping result.
#[derive(Debug, Clone, Copy)]
pub struct RttSample {
    /// Absolute send time, seconds.
    pub time_s: f64,
    /// Round-trip time, milliseconds.
    pub rtt_ms: f64,
}

/// Link state the RTT model needs at one ping instant.
#[derive(Debug, Clone, Copy)]
pub struct PingLinkState {
    /// UE position.
    pub pos: LatLon,
    /// Serving technology.
    pub tech: Technology,
    /// Downlink wideband SINR, dB.
    pub sinr_db: f64,
    /// Vehicle speed, m/s.
    pub speed_mps: f64,
    /// Whether a handover interruption is in progress.
    pub in_handover: bool,
}

/// Configuration of an RTT test.
#[derive(Debug, Clone, Copy)]
pub struct RttTest {
    /// Test duration, seconds (paper: 20 s).
    pub duration_s: f64,
    /// Ping interval, seconds (paper: 0.2 s).
    pub interval_s: f64,
}

impl Default for RttTest {
    fn default() -> Self {
        RttTest {
            duration_s: 20.0,
            interval_s: 0.2,
        }
    }
}

impl RttTest {
    /// Run the test starting at `t0_s` against `server`, querying `link`
    /// for the UE state at each ping instant.
    pub fn run(
        &self,
        t0_s: f64,
        server: &Server,
        model: &mut RttModel,
        mut link: impl FnMut(f64) -> PingLinkState,
    ) -> Vec<RttSample> {
        let n = (self.duration_s / self.interval_s) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let t = t0_s + i as f64 * self.interval_s;
            let st = link(t);
            let rtt_ms = model.sample_ms(
                t,
                st.pos,
                server,
                st.tech,
                st.sinr_db,
                st.speed_mps,
                st.in_handover,
            );
            out.push(RttSample { time_s: t, rtt_ms });
        }
        out
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "D4: fixed-seed fixture RNGs; no campaign stream to derive from"
)]
mod tests {
    use super::*;
    use crate::server::CLOUD_OHIO;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn state() -> PingLinkState {
        PingLinkState {
            pos: LatLon::new(41.0, -96.0),
            tech: Technology::LteA,
            sinr_db: 15.0,
            speed_mps: 30.0,
            in_handover: false,
        }
    }

    #[test]
    fn hundred_samples_per_20s_test() {
        let test = RttTest::default();
        let mut model = RttModel::new(SmallRng::seed_from_u64(1));
        let samples = test.run(0.0, &CLOUD_OHIO, &mut model, |_| state());
        assert_eq!(samples.len(), 100);
    }

    #[test]
    fn samples_spaced_200ms() {
        let test = RttTest::default();
        let mut model = RttModel::new(SmallRng::seed_from_u64(1));
        let samples = test.run(50.0, &CLOUD_OHIO, &mut model, |_| state());
        assert!((samples[1].time_s - samples[0].time_s - 0.2).abs() < 1e-9);
        assert!((samples[0].time_s - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rtts_positive_and_bounded() {
        let test = RttTest::default();
        let mut model = RttModel::new(SmallRng::seed_from_u64(2));
        let samples = test.run(0.0, &CLOUD_OHIO, &mut model, |_| state());
        for s in samples {
            assert!(s.rtt_ms > 5.0 && s.rtt_ms <= 3_000.0, "{}", s.rtt_ms);
        }
    }
}
