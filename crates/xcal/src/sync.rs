//! Log synchronization: matching app-layer logs to XCAL logs across
//! timestamp formats.
//!
//! §B: *"Some applications logged timestamps in UTC and others in local
//! time. On the other hand, XCAL saved the log files (.drm files) with
//! local timestamps in the filenames, whereas their contents had timestamps
//! in EDT. This made it difficult to match a corresponding app layer log
//! file with its XCAL counterpart. Crossing different timezones throughout
//! the trip further increased the complexity."*
//!
//! [`match_logs`] implements the correct procedure: normalize every
//! timestamp to plan time via its *declared* format, then pair each app log
//! with the nearest XCAL log within a tolerance. The tests also demonstrate
//! the failure mode of naive matching (using the filename stamp as if it
//! were EDT), which mis-pairs logs recorded west of the Eastern timezone.

use wheels_geo::timezone::Timezone;
use wheels_ran::operator::Operator;

use crate::logger::XcalLog;
use crate::timestamp::Timestamp;

/// Timestamp format an app declared for its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStampFormat {
    /// The app logged UTC strings.
    Utc,
    /// The app logged local-time strings (with the timezone it was in).
    Local(Timezone),
}

/// An application-layer log file to be matched with its XCAL counterpart.
#[derive(Debug, Clone)]
pub struct AppLog {
    /// App name (for diagnostics).
    pub app: &'static str,
    /// Which phone (operator) produced the log — the three phones run the
    /// same schedule, so time alone is ambiguous across operators.
    pub op: Operator,
    /// Start-time string as the app wrote it.
    pub start_stamp: String,
    /// The format the string is in.
    pub format: AppStampFormat,
}

impl AppLog {
    /// Create an app log record for a test that started at `plan_s`.
    pub fn stamped(app: &'static str, op: Operator, plan_s: f64, format: AppStampFormat) -> Self {
        let ts = Timestamp::from_plan_s(plan_s);
        let start_stamp = match format {
            AppStampFormat::Utc => ts.as_utc().to_string(),
            AppStampFormat::Local(tz) => ts.as_local(tz).to_string(),
        };
        AppLog {
            app,
            op,
            start_stamp,
            format,
        }
    }

    /// Recover the plan time from the stamp using the declared format.
    pub fn plan_s(&self) -> Option<f64> {
        let ts = match self.format {
            AppStampFormat::Utc => Timestamp::parse_utc(&self.start_stamp)?,
            AppStampFormat::Local(tz) => Timestamp::parse_local(&self.start_stamp, tz)?,
        };
        Some(ts.plan_s)
    }
}

/// Maximum start-time gap for a valid pairing, seconds. Tests are minutes
/// apart, so ±30 s is unambiguous.
pub const MATCH_TOLERANCE_S: f64 = 30.0;

/// Match each app log to the index of its XCAL log by normalized start
/// time. Returns `None` for app logs with no XCAL log within tolerance.
pub fn match_logs(app_logs: &[AppLog], xcal_logs: &[XcalLog]) -> Vec<Option<usize>> {
    // Normalize XCAL starts from their *contents* (EDT), the reliable field.
    let xcal_starts: Vec<Option<f64>> = xcal_logs
        .iter()
        .map(|x| Timestamp::parse_edt(&x.content_start_edt).map(|t| t.plan_s))
        .collect();
    app_logs
        .iter()
        .map(|a| {
            let t = a.plan_s()?;
            let mut best: Option<(usize, f64)> = None;
            for (i, xs) in xcal_starts.iter().enumerate() {
                if xcal_logs.get(i).is_none_or(|log| log.op != a.op) {
                    continue;
                }
                if let Some(x) = xs {
                    let d = (x - t).abs();
                    if d <= MATCH_TOLERANCE_S && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
            }
            best.map(|(i, _)| i)
        })
        .collect()
}

/// The naive (wrong) matcher: treats the XCAL filename's local-time stamp
/// as if it were EDT. Kept for the regression test demonstrating §B's
/// pitfall — do not use for real matching.
pub fn match_logs_naive(app_logs: &[AppLog], xcal_logs: &[XcalLog]) -> Vec<Option<usize>> {
    let xcal_starts: Vec<Option<f64>> = xcal_logs
        .iter()
        .map(|x| {
            // Parse "..._DD_HH-MM-SS.drm" back into a (mis-labelled) EDT time.
            let stem = x.file_name.strip_suffix(".drm")?;
            let mut parts = stem.rsplitn(3, '_');
            let hms = parts.next()?;
            let day = parts.next()?;
            let mut h = hms.split('-');
            let s = format!(
                "2022-08-{} {}:{}:{}.000",
                day,
                h.next()?,
                h.next()?,
                h.next()?
            );
            Timestamp::parse_edt(&s).map(|t| t.plan_s)
        })
        .collect();
    app_logs
        .iter()
        .map(|a| {
            let t = a.plan_s()?;
            let mut best: Option<(usize, f64)> = None;
            for (i, xs) in xcal_starts.iter().enumerate() {
                if xcal_logs.get(i).is_none_or(|log| log.op != a.op) {
                    continue;
                }
                if let Some(x) = xs {
                    let d = (x - t).abs();
                    if d <= MATCH_TOLERANCE_S && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
            }
            best.map(|(i, _)| i)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::XcalLogger;
    use wheels_ran::operator::Operator;

    fn xcal_at(plan_s: f64, tz: Timezone) -> XcalLog {
        XcalLogger::start(Operator::Verizon, "DL", plan_s).finish(tz)
    }

    #[test]
    fn correct_matcher_pairs_across_all_timezones() {
        let starts = [40_000.0, 47_000.0, 200_000.0, 300_000.0];
        let tzs = [
            Timezone::Pacific,
            Timezone::Mountain,
            Timezone::Central,
            Timezone::Eastern,
        ];
        let xcal: Vec<XcalLog> = starts
            .iter()
            .zip(tzs)
            .map(|(&s, tz)| xcal_at(s, tz))
            .collect();
        let apps: Vec<AppLog> = starts
            .iter()
            .zip(tzs)
            .map(|(&s, tz)| AppLog::stamped("nuttcp", Operator::Verizon, s + 1.0, AppStampFormat::Local(tz)))
            .collect();
        let m = match_logs(&apps, &xcal);
        assert_eq!(m, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn utc_stamped_apps_also_match() {
        let xcal = vec![xcal_at(50_000.0, Timezone::Mountain)];
        let apps = vec![AppLog::stamped("puffer", Operator::Verizon, 50_002.0, AppStampFormat::Utc)];
        assert_eq!(match_logs(&apps, &xcal), vec![Some(0)]);
    }

    #[test]
    fn naive_matcher_fails_west_of_eastern() {
        // A Pacific-zone test: filename is 3 h off EDT, so the naive
        // matcher misses the pairing entirely.
        let xcal = vec![xcal_at(40_000.0, Timezone::Pacific)];
        let apps = vec![AppLog::stamped("nuttcp", Operator::Verizon, 40_000.0, AppStampFormat::Utc)];
        assert_eq!(match_logs(&apps, &xcal), vec![Some(0)]);
        assert_eq!(match_logs_naive(&apps, &xcal), vec![None]);
    }

    #[test]
    fn naive_matcher_accidentally_works_in_eastern() {
        // In the Eastern zone local == EDT, so the naive matcher happens to
        // work — which is exactly why such bugs survive testing at home.
        let xcal = vec![xcal_at(300_000.0, Timezone::Eastern)];
        let apps = vec![AppLog::stamped("nuttcp", Operator::Verizon, 300_000.0, AppStampFormat::Utc)];
        assert_eq!(match_logs_naive(&apps, &xcal), vec![Some(0)]);
    }

    #[test]
    fn no_match_beyond_tolerance() {
        let xcal = vec![xcal_at(10_000.0, Timezone::Eastern)];
        let apps = vec![AppLog::stamped("nuttcp", Operator::Verizon, 10_000.0 + 120.0, AppStampFormat::Utc)];
        assert_eq!(match_logs(&apps, &xcal), vec![None]);
    }

    #[test]
    fn nearest_of_several_wins() {
        let xcal = vec![
            xcal_at(1_000.0, Timezone::Eastern),
            xcal_at(1_020.0, Timezone::Eastern),
        ];
        let apps = vec![AppLog::stamped("nuttcp", Operator::Verizon, 1_018.0, AppStampFormat::Utc)];
        assert_eq!(match_logs(&apps, &xcal), vec![Some(1)]);
    }
}
