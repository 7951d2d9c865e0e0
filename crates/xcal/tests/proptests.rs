//! Property tests for the logging substrate: timestamps and the `.drm`
//! codec under arbitrary content.

#![expect(clippy::indexing_slicing, reason = "D7 covers library code; a test aborts on a failed step")]

use proptest::prelude::*;

use wheels_geo::region::RegionKind;
use wheels_geo::timezone::Timezone;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::handover::{HandoverEvent, HandoverKind};
use wheels_ran::operator::Operator;
use wheels_xcal::drm;
use wheels_xcal::kpi::KpiSample;
use wheels_xcal::logger::XcalLogger;
use wheels_xcal::timestamp::Timestamp;

fn arb_op() -> impl Strategy<Value = Operator> {
    prop_oneof![
        Just(Operator::Verizon),
        Just(Operator::TMobile),
        Just(Operator::Att)
    ]
}

fn arb_tz() -> impl Strategy<Value = Timezone> {
    (0usize..4).prop_map(|i| Timezone::ALL[i])
}

fn arb_sample() -> impl Strategy<Value = KpiSample> {
    (
        0.0f64..700_000.0,
        prop::option::of(0.0f32..3_000.0),
        0usize..5,
        0u32..5_000_000,
        (-130.0f32..-40.0, -20.0f32..45.0),
        (0u8..28, 0.0f32..0.9, 1u8..9, 0u8..4),
        (0.0f32..40.0, 0.0f64..5_711_000.0, 0usize..4, 0usize..4, any::<bool>()),
    )
        .prop_map(
            |(time_s, tput, tech_i, cell, (rsrp, sinr), (mcs, bler, ca, hos), (speed, od, reg, tz, ho))| {
                KpiSample {
                    time_s,
                    tput_mbps: tput,
                    tech: Technology::ALL[tech_i],
                    cell: CellId(cell),
                    rsrp_dbm: rsrp,
                    sinr_db: sinr,
                    mcs,
                    bler,
                    ca,
                    handovers_in_window: hos,
                    speed_mps: speed,
                    odometer_m: od,
                    region: RegionKind::ALL[reg],
                    timezone: Timezone::ALL[tz],
                    in_handover: ho,
                }
            },
        )
}

proptest! {
    #[test]
    fn timestamp_formats_roundtrip(plan_s in -3600.0f64..9.0*86_400.0, tz_i in 0usize..4) {
        // Negative plan times occur for pre-dawn Pacific stamps.
        let tz = Timezone::ALL[tz_i];
        let t = Timestamp::from_plan_s(plan_s);
        let local = Timestamp::parse_local(&t.as_local(tz).to_string(), tz).unwrap();
        prop_assert!((local.plan_s - plan_s).abs() < 0.002);
        let edt = Timestamp::parse_edt(&t.as_edt().to_string()).unwrap();
        prop_assert!((edt.plan_s - plan_s).abs() < 0.002);
    }

    #[test]
    fn cross_format_misparse_shifts_by_whole_hours(plan_s in 4.0*3600.0f64..86_400.0) {
        let t = Timestamp::from_plan_s(plan_s);
        let wrong = Timestamp::parse_edt(&t.as_utc().to_string()).unwrap();
        let shift_h = (wrong.plan_s - plan_s) / 3_600.0;
        prop_assert!((shift_h - 4.0).abs() < 1e-6);
    }

    #[test]
    fn drm_roundtrips_arbitrary_logs(
        op in arb_op(),
        tz in arb_tz(),
        start in 0.0f64..600_000.0,
        samples in prop::collection::vec(arb_sample(), 0..40),
        hos in prop::collection::vec((0.0f64..600_000.0, 0u32..100, 0u32..100, 1.0f64..500.0), 0..8),
    ) {
        let mut logger = XcalLogger::start(op, "DL", start);
        for mut s in samples.clone() {
            s.time_s = s.time_s.max(start);
            logger.log_sample(s);
        }
        for (t, from, to, dur) in hos {
            logger.log_handover(&HandoverEvent {
                time_s: t,
                from: (CellId(from), Technology::Lte),
                to: (CellId(to), Technology::Nr5gMid),
                duration_ms: dur,
                kind: HandoverKind::Up4gTo5g,
            });
        }
        let log = logger.finish(tz);
        let bytes = drm::encode(&log);
        let back = drm::decode(&bytes).unwrap();
        prop_assert_eq!(back.op, log.op);
        prop_assert_eq!(back.samples.len(), log.samples.len());
        prop_assert_eq!(back.messages.len(), log.messages.len());
        for (a, b) in back.samples.iter().zip(&log.samples) {
            prop_assert_eq!(a.cell, b.cell);
            prop_assert_eq!(a.mcs, b.mcs);
            prop_assert_eq!(a.tput_mbps, b.tput_mbps);
            prop_assert_eq!(a.tech, b.tech);
            prop_assert!((a.rsrp_dbm - b.rsrp_dbm).abs() < 1e-6);
        }
    }

    #[test]
    fn drm_rejects_random_bit_flips(
        flip_at in 0usize..200,
        flip_bit in 0u8..8,
    ) {
        let log = XcalLogger::start(Operator::Verizon, "UL", 1_000.0).finish(Timezone::Central);
        let mut bytes = drm::encode(&log);
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        // Either the checksum catches it, or (if we flipped the checksum
        // itself... still caught). decode must never panic and never
        // silently accept.
        prop_assert!(drm::decode(&bytes).is_err());
    }

    #[test]
    fn drm_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = drm::decode(&data);
    }
}
