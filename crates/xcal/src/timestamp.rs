//! The trip's wall clock and the three timestamp formats of §B.
//!
//! Plan time 0 is 2022-08-08 00:00:00 EDT (the morning the drive left Los
//! Angeles, where it was still 21:00 on Aug 7 — exactly the kind of thing
//! that made the real log synchronization hard). Three formats appear in
//! the logs:
//!
//! * **UTC** — some applications logged in UTC;
//! * **local** — other applications and the XCAL `.drm` *filenames* used
//!   the vehicle's current local time;
//! * **EDT** — XCAL file *contents* were stamped in EDT regardless of
//!   where the vehicle was.
//!
//! The whole trip stays inside August 2022, so we can do date arithmetic
//! with day-of-month only (no month/year rollover), keeping this module
//! dependency-free and exactly as sophisticated as it needs to be.

use std::fmt;

use wheels_geo::timezone::Timezone;

/// Day-of-month in August 2022 on which plan time 0 falls (EDT).
pub const EPOCH_DAY_AUG: u32 = 8;

/// A point in trip time. Internally: seconds since 2022-08-08 00:00 EDT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timestamp {
    /// Seconds since the plan epoch (2022-08-08 00:00:00 EDT).
    pub plan_s: f64,
}

/// A broken-down civil time (always August 2022).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    /// Day of month (may run past 15 for late arrivals).
    pub day: u32,
    /// Hour 0-23.
    pub hour: u32,
    /// Minute 0-59.
    pub min: u32,
    /// Second 0-59.
    pub sec: u32,
    /// Milliseconds 0-999.
    pub ms: u32,
}

impl fmt::Display for Civil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "2022-08-{:02} {:02}:{:02}:{:02}.{:03}",
            self.day, self.hour, self.min, self.sec, self.ms
        )
    }
}

impl Timestamp {
    /// From plan seconds.
    pub fn from_plan_s(plan_s: f64) -> Self {
        Timestamp { plan_s }
    }

    /// Civil time in an arbitrary UTC offset (hours).
    fn civil_at_offset(&self, offset_from_edt_h: i32) -> Civil {
        let total_ms = ((self.plan_s + offset_from_edt_h as f64 * 3_600.0) * 1_000.0).round();
        // Offsets west of EDT can push the clock before the epoch midnight
        // (e.g. LA local time on the evening of Aug 7).
        let day_ms = 86_400_000.0;
        let mut day = EPOCH_DAY_AUG as i64;
        let mut rem = total_ms;
        while rem < 0.0 {
            rem += day_ms;
            day -= 1;
        }
        day += (rem / day_ms) as i64;
        let in_day = (rem % day_ms) as u64;
        Civil {
            day: day as u32,
            hour: (in_day / 3_600_000) as u32,
            min: (in_day / 60_000 % 60) as u32,
            sec: (in_day / 1_000 % 60) as u32,
            ms: (in_day % 1_000) as u32,
        }
    }

    /// Civil time in EDT (the timezone XCAL stamped file *contents* in).
    pub fn as_edt(&self) -> Civil {
        self.civil_at_offset(0)
    }

    /// Civil time in UTC (what some apps logged).
    pub fn as_utc(&self) -> Civil {
        self.civil_at_offset(4)
    }

    /// Civil time in the vehicle's current local timezone (what other apps
    /// and XCAL *filenames* used).
    pub fn as_local(&self, tz: Timezone) -> Civil {
        self.civil_at_offset(tz.offset_from_eastern_hours())
    }

    /// Parse a civil string (`2022-08-DD HH:MM:SS.mmm`) known to be in the
    /// given offset back to a [`Timestamp`]. Returns `None` on malformed
    /// input.
    fn parse_at_offset(s: &str, offset_from_edt_h: i32) -> Option<Timestamp> {
        let s = s.trim();
        let (date, time) = s.split_once(' ')?;
        let mut dp = date.split('-');
        let (y, m, d) = (dp.next()?, dp.next()?, dp.next()?);
        if y != "2022" || m != "08" {
            return None;
        }
        let day: i64 = d.parse().ok()?;
        let (hms, ms_str) = time.split_once('.').unwrap_or((time, "0"));
        let mut tp = hms.split(':');
        let h: i64 = tp.next()?.parse().ok()?;
        let mi: i64 = tp.next()?.parse().ok()?;
        let sec: i64 = tp.next()?.parse().ok()?;
        let ms: i64 = ms_str.parse().ok()?;
        if !(0..24).contains(&h) || !(0..60).contains(&mi) || !(0..60).contains(&sec) {
            return None;
        }
        let in_tz_s = ((day - EPOCH_DAY_AUG as i64) * 86_400 + h * 3_600 + mi * 60 + sec) as f64
            + ms as f64 / 1_000.0;
        Some(Timestamp {
            plan_s: in_tz_s - offset_from_edt_h as f64 * 3_600.0,
        })
    }

    /// Parse an EDT-stamped string.
    pub fn parse_edt(s: &str) -> Option<Timestamp> {
        Self::parse_at_offset(s, 0)
    }

    /// Parse a UTC-stamped string.
    pub fn parse_utc(s: &str) -> Option<Timestamp> {
        Self::parse_at_offset(s, 4)
    }

    /// Parse a local-time-stamped string given the timezone it was written
    /// in.
    pub fn parse_local(s: &str, tz: Timezone) -> Option<Timestamp> {
        Self::parse_at_offset(s, tz.offset_from_eastern_hours())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_midnight_edt() {
        let t = Timestamp::from_plan_s(0.0);
        assert_eq!(t.as_edt().to_string(), "2022-08-08 00:00:00.000");
    }

    #[test]
    fn epoch_in_utc_is_4am() {
        let t = Timestamp::from_plan_s(0.0);
        assert_eq!(t.as_utc().to_string(), "2022-08-08 04:00:00.000");
    }

    #[test]
    fn epoch_in_la_is_previous_evening() {
        // 2022-08-08 00:00 EDT == 2022-08-07 21:00 PDT — the footgun that
        // makes naive filename matching mis-date every Pacific-zone log.
        let t = Timestamp::from_plan_s(0.0);
        assert_eq!(
            t.as_local(Timezone::Pacific).to_string(),
            "2022-08-07 21:00:00.000"
        );
    }

    #[test]
    fn roundtrip_all_formats() {
        let t = Timestamp::from_plan_s(3.5 * 86_400.0 + 12_345.678);
        let edt = t.as_edt().to_string();
        let utc = t.as_utc().to_string();
        for tz in Timezone::ALL {
            let local = t.as_local(tz).to_string();
            let back = Timestamp::parse_local(&local, tz).unwrap();
            assert!((back.plan_s - t.plan_s).abs() < 0.002, "{tz}: {local}");
        }
        assert!((Timestamp::parse_edt(&edt).unwrap().plan_s - t.plan_s).abs() < 0.002);
        assert!((Timestamp::parse_utc(&utc).unwrap().plan_s - t.plan_s).abs() < 0.002);
    }

    #[test]
    fn cross_format_confusion_is_hours_off() {
        // Parsing an EDT string as if it were UTC shifts by 4 h — the bug
        // class the paper's sync software had to defend against.
        let t = Timestamp::from_plan_s(50_000.0);
        let edt = t.as_edt().to_string();
        let wrong = Timestamp::parse_utc(&edt).unwrap();
        assert!((wrong.plan_s - (t.plan_s - 4.0 * 3_600.0)).abs() < 0.002);
    }

    #[test]
    fn malformed_strings_rejected() {
        assert!(Timestamp::parse_edt("not a time").is_none());
        assert!(Timestamp::parse_edt("2021-08-08 00:00:00.000").is_none());
        assert!(Timestamp::parse_edt("2022-09-08 00:00:00.000").is_none());
        assert!(Timestamp::parse_edt("2022-08-08 25:00:00.000").is_none());
    }

    #[test]
    fn milliseconds_preserved() {
        let t = Timestamp::from_plan_s(1.234);
        assert_eq!(t.as_edt().ms, 234);
    }
}
