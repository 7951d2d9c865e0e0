//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;

use wheels::analysis::Ecdf;
use wheels::apps::video::bba::Bba;
use wheels::apps::video::BITRATES_MBPS;
use wheels::geo::coord::LatLon;
use wheels::geo::route::Route;
use wheels::geo::timezone::Timezone;
use wheels::netsim::cubic::Cubic;
use wheels::netsim::tcp::{CongestionControl, FluidTcp, MSS};
use wheels::radio::mcs::{mcs_from_sinr, spectral_efficiency, MAX_MCS};
use wheels::netsim::faults::{FaultPlan, FaultProfile};
use wheels::netsim::rng::{derive_seed, stream, Domain};
use wheels::ran::handover::A3Tracker;
use wheels::xcal::timestamp::Timestamp;

proptest! {
    #[test]
    fn rng_streams_never_collide_across_unit_keys(campaign_seed in 0u64..u64::MAX) {
        // Every work-unit key in every domain must map to its own stream:
        // a collision would make two units consume correlated randomness
        // and silently couple "independent" measurements.
        let mut keys = Vec::new();
        for op in 0u64..3 {
            keys.push(Domain::Passive { op });
            keys.push(Domain::Fleet { op });
            for day in 0u64..8 {
                keys.push(Domain::Phone { op, day });
                for attempt in 0u64..3 {
                    keys.push(Domain::Static { op, site: day * 100_000, attempt });
                }
            }
        }
        keys.extend((0u64..8).map(|day| Domain::Cycle { day }));
        let mut seen = std::collections::BTreeSet::new();
        for key in keys {
            prop_assert!(
                seen.insert(derive_seed(campaign_seed, key)),
                "stream collision at {:?}", key
            );
        }
    }

    #[test]
    fn rng_seed_perturbation_changes_every_stream(
        campaign_seed in 0u64..u64::MAX, bit in 0u32..64
    ) {
        // Flipping any single bit of the campaign seed must reroute every
        // derived stream — otherwise two campaigns could share a unit.
        let other = campaign_seed ^ (1u64 << bit);
        for op in 0u64..3 {
            for day in 0u64..8 {
                prop_assert_ne!(
                    derive_seed(campaign_seed, Domain::Phone { op, day }),
                    derive_seed(other, Domain::Phone { op, day }),
                    "op {} day {} stream unchanged under seed flip", op, day
                );
            }
        }
    }

    #[test]
    fn rng_stream_is_pure_and_key_order_sensitive(
        campaign_seed in 0u64..u64::MAX, a in 0u64..1000, b in 0u64..1000
    ) {
        use rand::RngCore;
        let mut x = stream(campaign_seed, Domain::Phone { op: a, day: b });
        let mut y = stream(campaign_seed, Domain::Phone { op: a, day: b });
        for _ in 0..16 {
            prop_assert_eq!(x.next_u64(), y.next_u64());
        }
        if a != b {
            prop_assert_ne!(
                derive_seed(campaign_seed, Domain::Phone { op: a, day: b }),
                derive_seed(campaign_seed, Domain::Phone { op: b, day: a }),
                "key words must not commute"
            );
        }
    }
    #[test]
    fn fault_plan_decisions_never_collide_across_units(campaign_seed in 0u64..u64::MAX) {
        // Every (unit-kind, operator, coordinate, attempt) must draw its
        // fault decision from its own derived seed: a collision would make
        // two "independent" units fail in lockstep. Mirrors the work-unit
        // key space: kind tags {1,2,3}, 3 operators, 8 days/sites, and the
        // supervisor's full retry budget.
        let plan = FaultPlan::new(campaign_seed, FaultProfile::Harsh);
        let mut seen = std::collections::BTreeSet::new();
        for kind in 1u64..=3 {
            for op in 0u64..3 {
                for coord in 0u64..8 {
                    for attempt in 0u32..4 {
                        prop_assert!(
                            seen.insert(plan.attempt_seed(&[kind, op, coord], attempt)),
                            "fault-decision collision at kind {kind} op {op} coord {coord} attempt {attempt}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fault_plan_flips_under_single_bit_seed_perturbation(
        campaign_seed in 0u64..u64::MAX, bit in 0u32..64
    ) {
        // Flipping any one bit of the campaign seed must reroute every
        // unit's fault stream, like the RNG streams above — otherwise two
        // campaigns could share a failure schedule.
        let a = FaultPlan::new(campaign_seed, FaultProfile::Harsh);
        let b = FaultPlan::new(campaign_seed ^ (1u64 << bit), FaultProfile::Harsh);
        for op in 0u64..3 {
            for day in 0u64..8 {
                prop_assert_ne!(
                    a.attempt_seed(&[1, op, day], 0),
                    b.attempt_seed(&[1, op, day], 0),
                    "op {} day {} fault stream unchanged under seed flip", op, day
                );
            }
        }
    }

    #[test]
    fn fault_plan_none_profile_is_inert(campaign_seed in 0u64..u64::MAX, attempt in 0u32..8) {
        let plan = FaultPlan::new(campaign_seed, FaultProfile::None);
        for kind in 1u64..=3 {
            for op in 0u64..3 {
                prop_assert_eq!(plan.fault_for(&[kind, op, 0], attempt), None);
            }
        }
    }

    #[test]
    fn haversine_is_a_metric(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
        lat3 in -80.0f64..80.0, lon3 in -179.0f64..179.0,
    ) {
        let a = LatLon::new(lat1, lon1);
        let b = LatLon::new(lat2, lon2);
        let c = LatLon::new(lat3, lon3);
        let ab = a.haversine_m(&b);
        let ba = b.haversine_m(&a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!(ab >= 0.0);
        // Triangle inequality (with float slack).
        prop_assert!(a.haversine_m(&c) <= ab + b.haversine_m(&c) + 1e-6);
    }

    #[test]
    fn route_point_at_stays_on_route(od in -1e6f64..7e6) {
        let route = Route::cross_country();
        let p = route.point_at(od);
        prop_assert!(p.odometer_m >= 0.0 && p.odometer_m <= route.total_m());
        prop_assert!((-90.0..=90.0).contains(&p.pos.lat));
        prop_assert!((-180.0..=180.0).contains(&p.pos.lon));
    }

    #[test]
    fn route_odometer_distance_dominates_geometry(
        od1 in 0.0f64..5.7e6, delta in 0.0f64..1e5
    ) {
        // Driving `delta` odometer meters cannot move you more than
        // `delta` great-circle meters (roads are never shorter than the
        // chord), modulo the road factor and float slack.
        let route = Route::cross_country();
        let a = route.point_at(od1);
        let b = route.point_at(od1 + delta);
        let geom = a.pos.haversine_m(&b.pos);
        prop_assert!(geom <= (b.odometer_m - a.odometer_m) + 2.0);
    }

    #[test]
    fn timestamps_roundtrip_any_format(plan_s in 0.0f64..8.0*86_400.0) {
        let t = Timestamp::from_plan_s(plan_s);
        for tz in Timezone::ALL {
            let s = t.as_local(tz).to_string();
            let back = Timestamp::parse_local(&s, tz).unwrap();
            prop_assert!((back.plan_s - plan_s).abs() < 0.002);
        }
        let utc = Timestamp::parse_utc(&t.as_utc().to_string()).unwrap();
        prop_assert!((utc.plan_s - plan_s).abs() < 0.002);
    }

    #[test]
    fn mcs_map_is_monotone_and_bounded(s1 in -30.0f64..50.0, s2 in -30.0f64..50.0) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let m_lo = mcs_from_sinr(lo);
        let m_hi = mcs_from_sinr(hi);
        prop_assert!(m_lo <= m_hi);
        prop_assert!(m_hi <= MAX_MCS);
        prop_assert!(spectral_efficiency(m_hi) >= spectral_efficiency(m_lo));
    }

    #[test]
    fn cubic_cwnd_positive_under_any_event_sequence(events in prop::collection::vec(0u8..3, 1..200)) {
        let mut c = Cubic::new();
        let mut t = 0.0;
        for e in events {
            t += 0.05;
            match e {
                0 => c.on_ack(t, c.cwnd_bytes(), 0.05),
                1 => c.on_loss(t),
                _ => c.on_timeout(t),
            }
            prop_assert!(c.cwnd_bytes() >= 2.0 * MSS - 1e-9);
            prop_assert!(c.cwnd_bytes().is_finite());
        }
    }

    #[test]
    fn fluid_tcp_never_outruns_the_link(caps in prop::collection::vec(0.0f64..500.0, 10..200)) {
        let mut flow = FluidTcp::new(Box::new(Cubic::new()));
        let dt = 0.05;
        let mut t = 0.0;
        let mut delivered = 0.0;
        let mut offered = 0.0;
        for cap in caps {
            let out = flow.tick(t, dt, cap, 0.04);
            delivered += out.delivered_bytes;
            offered += wheels::netsim::mbps_to_bps(cap) * dt;
            prop_assert!(out.delivered_bytes >= 0.0);
            t += dt;
        }
        prop_assert!(delivered <= offered + 1.0);
    }

    #[test]
    fn bba_rate_always_on_ladder(buffer in 0.0f64..40.0, prev_idx in 0usize..4) {
        let bba = Bba::default();
        let prev = BITRATES_MBPS[prev_idx];
        let r = bba.pick(buffer, &BITRATES_MBPS, Some(prev));
        prop_assert!(BITRATES_MBPS.contains(&r), "rate {r} not on ladder");
    }

    #[test]
    fn ecdf_percentiles_are_monotone(samples in prop::collection::vec(-1e5f64..1e5, 1..300)) {
        let e = Ecdf::new(samples);
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = e.percentile(p);
            prop_assert!(v >= last);
            last = v;
        }
        prop_assert!(e.frac_below(e.max()) == 1.0);
    }

    #[test]
    fn a3_never_triggers_without_sustained_advantage(
        rsrps in prop::collection::vec((-120.0f64..-60.0, -120.0f64..-60.0), 1..100)
    ) {
        // If the neighbor never exceeds serving + hysteresis, no trigger —
        // regardless of the sequence.
        let mut a3 = A3Tracker::default();
        let mut t = 0.0;
        for (serving, neighbor) in rsrps {
            t += 0.1;
            let capped = neighbor.min(serving + 2.9);
            let fired = a3.observe(t, serving, Some((wheels::ran::cell::CellId(1), capped)));
            prop_assert!(!fired);
        }
    }
}
