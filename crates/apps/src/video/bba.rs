//! BBA: buffer-based rate adaptation (Huang et al., SIGCOMM'14).
//!
//! §D.1: *"We customized Puffer's ABR algorithm to run BBA, which only
//! relies on buffer size to choose a video bitrate and skips instances
//! when capacity estimation is not needed."* BBA-0 maps the playback
//! buffer level through a linear function between a reservoir and a
//! cushion: below the reservoir pick R_min, above the cushion pick R_max,
//! in between pick the highest rate below the linear ramp.

/// The BBA-0 rate map.
#[derive(Debug, Clone, Copy)]
pub struct Bba {
    /// Reservoir, seconds: below this always pick the minimum rate.
    pub reservoir_s: f64,
    /// Cushion end, seconds: above this always pick the maximum rate.
    pub cushion_s: f64,
}

impl Default for Bba {
    fn default() -> Self {
        // Reservoir/cushion sized against the player's 15 s buffer cap:
        // the cushion must end below the cap or R_max is never reachable.
        Bba {
            reservoir_s: 4.0,
            cushion_s: 11.0,
        }
    }
}

/// The lowest and highest rungs of a bitrate ladder.
///
/// # Panics
/// Panics if the ladder is empty.
#[expect(
    clippy::panic,
    reason = "D7: an empty ladder is a caller bug, and the panic is the documented contract"
)]
fn bounds(ladder: &[f64]) -> (f64, f64) {
    let (Some(&rmin), Some(&rmax)) = (ladder.first(), ladder.last()) else {
        panic!("bitrate ladder must not be empty");
    };
    (rmin, rmax)
}

impl Bba {
    /// The linear ramp value f(B) between R_min and R_max.
    fn ramp(&self, buffer_s: f64, rmin: f64, rmax: f64) -> f64 {
        rmin + (rmax - rmin) * (buffer_s - self.reservoir_s) / (self.cushion_s - self.reservoir_s)
    }

    /// Memoryless rate map: the highest rung not exceeding the ramp.
    /// Useful for analysis; playback should use [`Bba::pick`] (with the
    /// previous rate) to get BBA-0's switching hysteresis.
    pub fn pick_memoryless(&self, buffer_s: f64, ladder: &[f64]) -> f64 {
        let (rmin, rmax) = bounds(ladder);
        if buffer_s <= self.reservoir_s {
            return rmin;
        }
        if buffer_s >= self.cushion_s {
            return rmax;
        }
        let f = self.ramp(buffer_s, rmin, rmax);
        ladder
            .iter()
            .rev()
            .copied()
            .find(|&r| r <= f)
            .unwrap_or(rmin)
    }

    /// BBA-0 proper: stay at the previous rate unless the ramp crosses the
    /// next rung up (then jump up) or falls below the next rung down (then
    /// step down). The hysteresis prevents the rate ping-ponging that the
    /// QoE switch penalty would punish.
    ///
    /// # Panics
    /// Panics if the ladder is empty.
    pub fn pick(&self, buffer_s: f64, ladder: &[f64], prev: Option<f64>) -> f64 {
        let (rmin, rmax) = bounds(ladder);
        let Some(prev) = prev else {
            return self.pick_memoryless(buffer_s, ladder);
        };
        if buffer_s <= self.reservoir_s {
            return rmin;
        }
        if buffer_s >= self.cushion_s {
            return rmax;
        }
        let f = self.ramp(buffer_s, rmin, rmax);
        let next_up = ladder.iter().copied().find(|&r| r > prev);
        let next_down = ladder.iter().rev().copied().find(|&r| r < prev);
        if next_up.is_some_and(|up| f >= up) {
            // Jump to the highest rung the ramp supports.
            ladder
                .iter()
                .rev()
                .copied()
                .find(|&r| r <= f)
                .unwrap_or(rmin)
        } else if next_down.is_some_and(|dn| f <= dn) {
            // Only step down once the ramp falls to the rung below —
            // this is the hysteresis band.
            ladder
                .iter()
                .rev()
                .copied()
                .find(|&r| r <= f)
                .unwrap_or(rmin)
        } else {
            prev
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::BITRATES_MBPS;

    #[test]
    fn reservoir_forces_min() {
        let b = Bba::default();
        assert_eq!(b.pick(0.0, &BITRATES_MBPS, None), 5.0);
        assert_eq!(b.pick(3.9, &BITRATES_MBPS, Some(100.0)), 5.0);
    }

    #[test]
    fn cushion_allows_max() {
        let b = Bba::default();
        assert_eq!(b.pick(11.0, &BITRATES_MBPS, None), 100.0);
        assert_eq!(b.pick(14.0, &BITRATES_MBPS, Some(5.0)), 100.0);
    }

    #[test]
    fn memoryless_ramp_is_monotone() {
        let b = Bba::default();
        let mut last = 0.0;
        for i in 0..40 {
            let buf = i as f64 * 0.5;
            let r = b.pick_memoryless(buf, &BITRATES_MBPS);
            assert!(r >= last, "rate decreased at buffer {buf}");
            last = r;
        }
    }

    #[test]
    fn mid_buffer_picks_mid_rate() {
        let b = Bba::default();
        // At buffer 9 s the ramp value is 5 + 95*(9-4)/7 = 72.9 → 50.
        assert_eq!(b.pick(9.0, &BITRATES_MBPS, None), 50.0);
        // At 5 s: 5 + 95*(1/7) = 18.6 → 10.
        assert_eq!(b.pick(5.0, &BITRATES_MBPS, None), 10.0);
    }

    #[test]
    fn hysteresis_holds_rate_inside_band() {
        let b = Bba::default();
        // At buffer 6 s the ramp is 32.1; a flow already at 50 holds 50
        // (the rung below, 10, has not been crossed).
        assert_eq!(b.pick(6.0, &BITRATES_MBPS, Some(50.0)), 50.0);
        // ...but a flow at 10 does not jump up (ramp < next rung 50).
        assert_eq!(b.pick(6.0, &BITRATES_MBPS, Some(10.0)), 10.0);
        // Once the ramp crosses 50 (buffer 8 s -> 59.3), the flow jumps.
        assert_eq!(b.pick(8.0, &BITRATES_MBPS, Some(10.0)), 50.0);
        // Once the ramp falls below 10 (buffer 4.2 s -> 7.7), step down.
        assert_eq!(b.pick(4.2, &BITRATES_MBPS, Some(50.0)), 5.0);
    }

    #[test]
    fn no_ping_pong_at_constant_buffer() {
        let b = Bba::default();
        let mut rate = b.pick(7.0, &BITRATES_MBPS, None);
        for _ in 0..20 {
            let next = b.pick(7.0, &BITRATES_MBPS, Some(rate));
            assert_eq!(next, rate, "rate oscillated");
            rate = next;
        }
    }

    #[test]
    #[should_panic(expected = "ladder")]
    fn empty_ladder_panics() {
        Bba::default().pick(10.0, &[], None);
    }
}
