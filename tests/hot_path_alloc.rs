//! Hot-path allocation gate (rule D8, DESIGN.md §8).
//!
//! The per-tick paths of the simulator run millions of times per
//! campaign, so they must not touch the heap once warmed up. A counting
//! global allocator records every allocation made on the current thread;
//! each test builds its fixture, warms the path up, then drives it and
//! asserts that the count did not move. Counters are thread-local, so the
//! tests can run in parallel without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use serde::ser::JsonWriter;
use serde::Serialize;
use wheels::campaign::{Campaign, CampaignConfig, FleetUnitSketch};
use wheels::geo::trip::DrivePlan;
use wheels::netsim::{Bbr, CongestionControl, Cubic, FluidTcp};
use wheels::radio::shadowing::{RhoMemo, ShadowingField};
use wheels::ran::deployment::build_cells;
use wheels::ran::ue::UeParams;
use wheels::ran::{Direction, FleetLoad, FleetParams, Operator, TrafficDemand, UeRadio};
use wheels::xcal::export::write_tput_csv;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn counter_sees_an_allocation() {
    let n = allocations(|| drop(std::hint::black_box(vec![1u8; 16])));
    assert_eq!(n, 1);
}

#[test]
fn ue_radio_step_never_allocates() {
    // `UeRadio::step` covers the candidate scan: `ShadowStore` /
    // `ShadowBank::advance_span` and `evaluate_layer_span`, plus the
    // fleet-load lookups when a fleet is attached.
    let plan = DrivePlan::cross_country(11);
    let demands = [
        TrafficDemand::Backlog(Direction::Downlink),
        TrafficDemand::Backlog(Direction::Uplink),
        TrafficDemand::Ping,
        TrafficDemand::Idle,
    ];
    for (i, op) in Operator::ALL.into_iter().enumerate() {
        let db = Arc::new(build_cells(plan.route(), op, 11, 0));
        let fleet = FleetParams { population: 10_000, ..FleetParams::default() };
        let params = UeParams {
            fleet: Some(Arc::new(FleetLoad::build(op, &db, &fleet, 11))),
            ..UeParams::default()
        };
        let mut ue = UeRadio::new(op, Arc::clone(&db), params, 11 + i as u64);
        let day = &plan.days()[i % plan.days().len()];
        let t0 = day.start_time_s as f64;
        // No warm-up: the shadowing banks are presized at construction.
        let mut counted = 0u64;
        for k in 0..80_000 {
            let t = t0 + f64::from(k) * 0.25;
            let state = plan.state_at(t);
            let demand = demands[(k / 2_000) as usize % demands.len()];
            counted += allocations(|| {
                std::hint::black_box(ue.step(t, &state, demand));
            });
        }
        assert_eq!(counted, 0, "{op:?}: UeRadio::step allocated");
    }
}

#[test]
fn shadowing_field_never_allocates() {
    let mut field = ShadowingField::new(6.0, 50.0, 7);
    let mut memo = RhoMemo::default();
    let mut span = [0.0f64; 64];
    let n = allocations(|| {
        let mut d = 0.0;
        for _ in 0..10_000 {
            d += 3.0;
            std::hint::black_box(field.at_memo(d, &mut memo));
        }
        for _ in 0..1_000 {
            field.fill_span(d, 1.0, &mut span);
            d += 64.0;
        }
    });
    assert_eq!(n, 0);
}

#[test]
fn fleet_fold_span_never_allocates_once_cells_are_known() {
    let plan = DrivePlan::cross_country(11);
    let db = build_cells(plan.route(), Operator::Verizon, 11, 0);
    let params = FleetParams { population: 100_000, ..FleetParams::default() };
    let fleet = FleetLoad::build(Operator::Verizon, &db, &params, 11);
    let mut sketch = FleetUnitSketch::empty();
    // Warm-up: the first fold inserts each observed cell.
    fleet.fold_span(0.0, 86_400.0, &mut sketch);
    let n = allocations(|| {
        for day in 0..3 {
            let t0 = f64::from(day) * 86_400.0;
            fleet.fold_span(t0 + 1_800.0, t0 + 30_000.0, &mut sketch);
        }
    });
    assert_eq!(n, 0);
}

fn tcp_ticks(cc: Box<dyn CongestionControl + Send>) -> u64 {
    let mut flow = FluidTcp::new(cc);
    let cap = |k: u32| match k % 500 {
        // Periodic blackouts drive the timeout path.
        0..=60 => 0.0,
        r => 20.0 + 180.0 * (f64::from(r) * 0.05).sin().abs(),
    };
    // Warm-up outlasts BBR's 10 s bandwidth and RTT filter windows, whose
    // sample buffers grow to their high-water mark once per flow.
    let warm_up = 1_000;
    for k in 0..warm_up {
        flow.tick(f64::from(k) * 0.02, 0.02, cap(k), 0.05);
    }
    allocations(|| {
        for k in warm_up..50_000 {
            std::hint::black_box(flow.tick(f64::from(k) * 0.02, 0.02, cap(k), 0.05));
        }
    })
}

#[test]
fn cubic_and_bbr_ticks_never_allocate() {
    assert_eq!(tcp_ticks(Box::new(Cubic::new())), 0, "CUBIC");
    assert_eq!(tcp_ticks(Box::new(Bbr::new())), 0, "BBR");
}

#[test]
fn export_row_writers_never_allocate_per_record() {
    let mut cfg = CampaignConfig::quick(11);
    cfg.scale = 0.008;
    cfg.run_static = false;
    cfg.passive_tick_s = 60.0;
    let db = Campaign::new(cfg).run_supervised_jobs(1).expect("no fail-fast").db;
    assert!(db.records.len() > 10, "fixture too small");

    // JSON: each record streams into a buffer reused across records,
    // exactly as the export fragment writer does.
    let mut buf = String::with_capacity(1 << 22);
    let n = allocations(|| {
        for r in &db.records {
            buf.clear();
            let mut w = JsonWriter::append_to(std::mem::take(&mut buf), Some(2), 2);
            r.stream(&mut w);
            buf = w.finish();
        }
    });
    assert_eq!(n, 0, "JSON record writer allocated");

    // CSV: one call sets up its writer and row buffer; every row after
    // that must be formatting only.
    let mut one = db.clone();
    one.records.truncate(1);
    let setup = allocations(|| write_tput_csv(&one, std::io::sink()).unwrap());
    let all = allocations(|| write_tput_csv(&db, std::io::sink()).unwrap());
    assert_eq!(all - setup, 0, "CSV row writer allocated");
}
