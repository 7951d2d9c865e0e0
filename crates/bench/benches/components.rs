//! Component microbenchmarks: the hot paths of the simulator.

#![expect(clippy::indexing_slicing, reason = "D7 covers library code; a bench aborts on a failed step")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use wheels_geo::route::Route;
use wheels_geo::trip::DrivePlan;
use wheels_netsim::cubic::Cubic;
use wheels_netsim::event::EventQueue;
use wheels_netsim::tcp::FluidTcp;
use wheels_ran::deployment::build_cells;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::ue::{UeParams, UeRadio};
use wheels_ran::{Direction, Operator};

fn bench_route(c: &mut Criterion) {
    let route = Route::cross_country();
    c.bench_function("route/point_at", |b| {
        let mut od = 0.0;
        b.iter(|| {
            od = (od + 1_234.5) % route.total_m();
            black_box(route.point_at(od))
        })
    });
    c.bench_function("route/region_at", |b| {
        let mut od = 0.0;
        b.iter(|| {
            od = (od + 1_234.5) % route.total_m();
            black_box(route.region_at(od))
        })
    });
}

fn bench_drive_plan(c: &mut Criterion) {
    c.bench_function("trip/generate_8day_plan", |b| {
        b.iter(|| black_box(DrivePlan::cross_country(7)))
    });
    let plan = DrivePlan::cross_country(7);
    c.bench_function("trip/state_at", |b| {
        let mut t = 30_000.0;
        b.iter(|| {
            t += 17.0;
            if t > 500_000.0 {
                t = 30_000.0;
            }
            black_box(plan.state_at(t))
        })
    });
}

fn bench_deployment(c: &mut Criterion) {
    let route = Route::cross_country();
    c.bench_function("ran/build_cells_verizon", |b| {
        b.iter(|| black_box(build_cells(&route, Operator::Verizon, 7, 0)))
    });
}

fn bench_ue_step(c: &mut Criterion) {
    let plan = DrivePlan::cross_country(7);
    let db = Arc::new(build_cells(plan.route(), Operator::TMobile, 7, 0));
    c.bench_function("ran/ue_step_100ms", |b| {
        let mut ue = UeRadio::new(Operator::TMobile, Arc::clone(&db), UeParams::default(), 9);
        let t0 = plan.days()[0].start_time_s as f64;
        let mut t = t0;
        b.iter(|| {
            t += 0.1;
            let state = plan.state_at(t);
            black_box(ue.step(t, &state, TrafficDemand::Backlog(Direction::Downlink)))
        })
    });
}

fn bench_tcp(c: &mut Criterion) {
    c.bench_function("netsim/fluid_tcp_tick", |b| {
        let mut flow = FluidTcp::new(Box::new(Cubic::new()));
        let mut t = 0.0;
        b.iter(|| {
            t += 0.02;
            black_box(flow.tick(t, 0.02, 120.0, 0.05))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("netsim/event_queue_push_pop", |b| {
        let mut q = EventQueue::new();
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            q.schedule(t + 10.0, 42u32);
            q.schedule(t + 5.0, 43u32);
            black_box(q.pop())
        })
    });
}

criterion_group!(
    benches,
    bench_route,
    bench_drive_plan,
    bench_deployment,
    bench_ue_step,
    bench_tcp,
    bench_event_queue
);
criterion_main!(benches);
