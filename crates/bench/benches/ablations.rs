//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each bench prints the comparison (the quantity of interest) once, then
//! criterion-times the underlying run so regressions in either result or
//! cost are visible.

#![expect(clippy::indexing_slicing, reason = "D7 covers library code; a bench aborts on a failed step")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use wheels_apps::video::bba::Bba;
use wheels_apps::video::{VideoSession, BITRATES_MBPS};
use wheels_apps::{ar::ArApp, cav::CavApp, AppLink, ConstantLink, LinkObs};
use wheels_geo::trip::DrivePlan;
use wheels_netsim::bulk::BulkTransferTest;
use wheels_netsim::bbr::Bbr;
use wheels_netsim::cubic::Cubic;
use wheels_netsim::reno::Reno;
use wheels_netsim::rtt::RttModel;
use wheels_netsim::server::{ServerKind, ServerSelector, CLOUD_OHIO};
use wheels_ran::deployment::build_cells;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::ue::{UeParams, UeRadio};
use wheels_ran::{Direction, Operator};

/// A sawtooth driving-like link for controlled comparisons: high-BDP
/// phases (where CUBIC's cubic recovery beats Reno's AIMD) alternating
/// with deep fades.
fn sawtooth_link(t: f64) -> (f64, f64) {
    let phase = (t / 6.0) as u64 % 3;
    let cap = match phase {
        0 => 650.0,
        1 => 40.0,
        _ => 260.0,
    };
    (cap, 0.12)
}

/// Ablation: CUBIC vs Reno vs BBR over the driving-like link (§5's choice
/// of the default CUBIC matters for high-BDP recovery; BBR is the
/// what-if for the bufferbloat the RTT figures show).
fn ablate_cc(c: &mut Criterion) {
    let run = |name: &str| {
        let test = BulkTransferTest::default();
        let cc: Box<dyn wheels_netsim::tcp::CongestionControl + Send> = match name {
            "cubic" => Box::new(Cubic::new()),
            "reno" => Box::new(Reno::new()),
            _ => Box::new(Bbr::new()),
        };
        let samples = test.run_with(0.0, cc, sawtooth_link);
        BulkTransferTest::mean_mbps(&samples)
    };
    eprintln!(
        "[ablation] sawtooth link: CUBIC {:.1} / Reno {:.1} / BBR {:.1} Mbps",
        run("cubic"),
        run("reno"),
        run("bbr")
    );
    c.bench_function("ablation/cc_compare", |b| {
        b.iter(|| black_box((run("cubic"), run("reno"), run("bbr"))))
    });
}

/// Ablation: edge vs cloud server placement for RTT (§5.2's Wavelength
/// result).
fn ablate_edge(c: &mut Criterion) {
    let selector = ServerSelector::new();
    let boston = wheels_geo::coord::LatLon::new(42.36, -71.06);
    let edge = selector.select(Operator::Verizon, boston, wheels_geo::timezone::Timezone::Eastern);
    assert_eq!(edge.kind, ServerKind::Edge);
    let sample_median = |server: &wheels_netsim::server::Server| {
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: fixed-seed bench fixture; no campaign stream to derive from"
        )]
        let mut m = RttModel::new(rand::SeedableRng::seed_from_u64(5));
        let mut v: Vec<f64> = (0..2_000)
            .map(|i| {
                m.sample_ms(
                    i as f64 * 0.2,
                    boston,
                    server,
                    wheels_radio::band::Technology::Nr5gMmWave,
                    18.0,
                    2.0,
                    false,
                )
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    eprintln!(
        "[ablation] mmWave RTT median: edge {:.1} ms vs cloud {:.1} ms",
        sample_median(&edge),
        sample_median(&CLOUD_OHIO)
    );
    c.bench_function("ablation/edge_vs_cloud_rtt", |b| {
        b.iter(|| black_box((sample_median(&edge), sample_median(&CLOUD_OHIO))))
    });
}

/// Ablation: AR/CAV frame compression on vs off (§7.1's app-level
/// optimization finding).
fn ablate_compression(c: &mut Criterion) {
    let mut link = ConstantLink::poor();
    let ar_with = ArApp::default().run(0.0, true, &mut link);
    let ar_without = ArApp::default().run(0.0, false, &mut link);
    let cav_with = CavApp::default().run(0.0, true, &mut link);
    let cav_without = CavApp::default().run(0.0, false, &mut link);
    eprintln!(
        "[ablation] AR E2E median: comp {:.0} ms vs raw {:.0} ms; CAV: comp {:.0} ms vs raw {:.0} ms",
        ar_with.offload.e2e_median_ms,
        ar_without.offload.e2e_median_ms,
        cav_with.offload.e2e_median_ms,
        cav_without.offload.e2e_median_ms
    );
    c.bench_function("ablation/frame_compression", |b| {
        b.iter(|| {
            let mut l = ConstantLink::poor();
            black_box(ArApp::default().run(0.0, true, &mut l))
        })
    });
}

/// Ablation: BBA reservoir sensitivity (the buffering that decouples video
/// QoE from handovers).
fn ablate_bba_reservoir(c: &mut Criterion) {
    struct Wobbly;
    impl AppLink for Wobbly {
        fn sample(&mut self, t_s: f64) -> LinkObs {
            let cap = if ((t_s / 12.0) as u64).is_multiple_of(2) { 60.0 } else { 6.0 };
            LinkObs {
                dl_mbps: cap,
                ul_mbps: 5.0,
                rtt_ms: 60.0,
                in_handover: false,
            }
        }
    }
    // Report how the rate map behaves at a mid buffer for different
    // reservoirs, plus a full session QoE.
    for reservoir in [2.0, 5.0, 10.0] {
        let bba = Bba {
            reservoir_s: reservoir,
            cushion_s: reservoir + 10.0,
        };
        let rate = bba.pick(8.0, &BITRATES_MBPS, None);
        eprintln!("[ablation] BBA reservoir {reservoir}s -> rate at 8s buffer = {rate} Mbps");
    }
    let qoe = VideoSession::default().run(0.0, &mut Wobbly).qoe;
    eprintln!("[ablation] default-BBA session QoE on wobbly link: {qoe:.1}");
    c.bench_function("ablation/bba_session", |b| {
        b.iter(|| black_box(VideoSession::default().run(0.0, &mut Wobbly)))
    });
}

/// Ablation: passive vs active coverage probing (the Fig. 1 methodology
/// result), measured directly on the UE policy.
fn ablate_probing(c: &mut Criterion) {
    let plan = DrivePlan::cross_country(7);
    let db = Arc::new(build_cells(plan.route(), Operator::Verizon, 7, 0));
    let share_5g = |demand: TrafficDemand| {
        let mut ue = UeRadio::new(Operator::Verizon, Arc::clone(&db), UeParams::default(), 3);
        let t0 = plan.days()[0].start_time_s as f64;
        let mut n5g = 0usize;
        let mut n = 0usize;
        for i in 0..20_000 {
            let t = t0 + i as f64;
            let s = ue.step(t, &plan.state_at(t), demand);
            if s.tech.is_5g() {
                n5g += 1;
            }
            n += 1;
        }
        n5g as f64 / n as f64
    };
    eprintln!(
        "[ablation] Verizon 5G share: passive ping {:.1}% vs DL backlog {:.1}%",
        share_5g(TrafficDemand::Ping) * 100.0,
        share_5g(TrafficDemand::Backlog(Direction::Downlink)) * 100.0
    );
    c.bench_function("ablation/passive_vs_active_probe", |b| {
        b.iter(|| black_box(share_5g(TrafficDemand::Ping)))
    });
}

criterion_group!(
    benches,
    ablate_cc,
    ablate_edge,
    ablate_compression,
    ablate_bba_reservoir,
    ablate_probing
);
criterion_main!(benches);
