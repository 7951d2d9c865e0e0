//! Property tests for the shard merge: whatever the per-unit shards
//! contain, the merged database must come out canonically ordered.

use proptest::prelude::*;

use wheels_campaign::{merge_shard_slots, merge_shards, Shard};
use wheels_geo::timezone::Timezone;
use wheels_netsim::server::ServerKind;
use wheels_ran::operator::Operator;
use wheels_xcal::database::{TestKind, TestRecord};
use wheels_xcal::handover_logger::PassiveLogger;

fn record(local_id: u32, start_s: f64, op: Operator) -> TestRecord {
    TestRecord {
        id: local_id,
        op,
        kind: TestKind::Rtt,
        start_s,
        duration_s: 20.0,
        server_kind: ServerKind::Cloud,
        server_name: "us-west".to_string(),
        is_static: false,
        start_odometer_m: 0.0,
        end_odometer_m: 0.0,
        timezone: Timezone::Pacific,
        frac_hs5g: 0.0,
        kpi: Vec::new(),
        rtt_ms: Vec::new(),
        handovers: Vec::new(),
        app: None,
    }
}

/// Shards as the executor produces them: each with shard-local ids 0..n
/// and any start times (units overlap in time by construction).
fn arb_shards() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(0.0f64..700_000.0, 0..20),
        0..8,
    )
}

/// Timestamps as an adversary (or a corrupted fault-injected shard) could
/// produce them: finite values mixed with NaN and both infinities.
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..700_000.0,
        -1e9f64..1e9,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Supervised slot vectors: `None` is a lost unit's missing shard.
fn arb_slots() -> impl Strategy<Value = Vec<Option<Vec<f64>>>> {
    prop::collection::vec(
        prop::option::of(prop::collection::vec(arb_time(), 0..15)),
        0..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_reassigns_strictly_increasing_ids(start_times in arb_shards()) {
        let total: usize = start_times.iter().map(Vec::len).sum();
        let shards: Vec<Shard> = start_times
            .iter()
            .map(|times| Shard {
                records: times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| record(i as u32, t, Operator::ALL[i % 3]))
                    .collect(),
                passive: None,
                fleet: None,
            })
            .collect();
        let db = merge_shards(shards);

        // Count is conserved: merge drops and invents nothing.
        prop_assert_eq!(db.records.len(), total);
        // Ids are exactly 0..n in final order — strictly increasing.
        for (i, r) in db.records.iter().enumerate() {
            prop_assert_eq!(r.id, i as u32);
        }
        // Final order is time-sorted.
        for pair in db.records.windows(2) {
            prop_assert!(pair[0].start_s <= pair[1].start_s);
        }
    }

    #[test]
    fn merge_is_stable_for_equal_start_times(n_shards in 1usize..6, per_shard in 1usize..10) {
        // All records share one start time: the tie-break is shard
        // (canonical unit) order, so operators must appear in shard order.
        let shards: Vec<Shard> = (0..n_shards)
            .map(|s| Shard {
                records: (0..per_shard)
                    .map(|i| record(i as u32, 1_000.0, Operator::ALL[s % 3]))
                    .collect(),
                passive: None,
                fleet: None,
            })
            .collect();
        let db = merge_shards(shards);
        let expected: Vec<Operator> = (0..n_shards)
            .flat_map(|s| std::iter::repeat_n(Operator::ALL[s % 3], per_shard))
            .collect();
        let got: Vec<Operator> = db.records.iter().map(|r| r.op).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn merge_is_total_under_non_finite_times_and_missing_shards(slots in arb_slots()) {
        // The merge must never panic, lose records, or emit unstable
        // output — whatever the timestamps and however many shards were
        // lost to faults. `total_cmp` makes the sort total; `None` slots
        // contribute nothing.
        let total: usize = slots.iter().flatten().map(Vec::len).sum();
        let build = |slots: &Vec<Option<Vec<f64>>>| -> Vec<Option<Shard>> {
            slots
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|times| Shard {
                        records: times
                            .iter()
                            .enumerate()
                            .map(|(i, &t)| record(i as u32, t, Operator::ALL[i % 3]))
                            .collect(),
                        passive: None,
                        fleet: None,
                    })
                })
                .collect()
        };
        let db = merge_shard_slots(build(&slots));
        // Total: every surviving record is there, ids reassigned 0..n.
        prop_assert_eq!(db.records.len(), total);
        for (i, r) in db.records.iter().enumerate() {
            prop_assert_eq!(r.id, i as u32);
        }
        // Finite prefix is sorted (total_cmp order: NaN sorts above
        // +inf, so finite values stay mutually ordered).
        for pair in db.records.windows(2) {
            if pair[0].start_s.is_finite() && pair[1].start_s.is_finite() {
                prop_assert!(pair[0].start_s <= pair[1].start_s);
            }
        }
        // Stable: a second merge of identical input gives identical order.
        let again = merge_shard_slots(build(&slots));
        let a: Vec<(u32, Operator)> = db.records.iter().map(|r| (r.id, r.op)).collect();
        let b: Vec<(u32, Operator)> = again.records.iter().map(|r| (r.id, r.op)).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn merge_keeps_passive_unit_order(present in prop::collection::vec(any::<bool>(), 3..4)) {
        // Passive shards arrive in operator order; merge must not permute.
        let shards: Vec<Shard> = Operator::ALL
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(&op, _)| Shard {
                records: Vec::new(),
                passive: Some((op, PassiveLogger::new())),
                fleet: None,
            })
            .collect();
        let expected: Vec<Operator> = Operator::ALL
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(&op, _)| op)
            .collect();
        let db = merge_shards(shards);
        let got: Vec<Operator> = db.passive.iter().map(|(op, _)| *op).collect();
        prop_assert_eq!(got, expected);
    }
}
