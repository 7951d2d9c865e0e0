//! # wheels-netsim
//!
//! End-to-end network simulation for the *Cellular Networks on the Wheels*
//! replication: the measurement servers (AWS EC2 cloud instances in
//! California and Ohio, Amazon Wavelength edge servers in five cities), the
//! end-to-end RTT model, and a fluid TCP model (CUBIC, plus Reno as an
//! ablation baseline) driven by the RAN's time-varying link capacity.
//!
//! The paper's throughput tests are nuttcp with default CUBIC over a single
//! TCP connection (§5); its RTT tests are ICMP pings every 200 ms for 20 s.
//! [`bulk::BulkTransferTest`] and [`ping::RttTest`] reproduce both against
//! a [`server::Server`] chosen by [`server::ServerSelector`] exactly as the
//! paper describes (edge only for Verizon, only in the five Wavelength
//! cities).
//!
//! Design note: per the networking guides, this is a deterministic,
//! synchronous, event-/tick-driven simulator (smoltcp style) — no async
//! runtime, because the workload is CPU-bound and reproducibility is a
//! requirement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbr;
pub mod bulk;
pub mod cubic;
pub mod event;
pub mod faults;
pub mod mptcp;
pub mod par;
pub mod ping;
pub mod reno;
pub mod rng;
pub mod rtt;
pub mod server;
pub mod tcp;

pub use bbr::Bbr;
pub use bulk::{BulkTransferTest, ThroughputSample};
pub use cubic::Cubic;
pub use event::EventQueue;
pub use faults::{Fault, FaultPlan, FaultProfile};
pub use mptcp::{MptcpMode, MultipathFlow};
pub use ping::{RttSample, RttTest};
pub use reno::Reno;
pub use rtt::RttModel;
pub use server::{Server, ServerKind, ServerSelector};
pub use tcp::{CongestionControl, FluidTcp};

/// Convert Mbps to bytes/second.
#[inline]
pub fn mbps_to_bps(mbps: f64) -> f64 {
    mbps * 1e6 / 8.0
}

/// Convert bytes/second to Mbps.
#[inline]
pub fn bps_to_mbps(bytes_per_s: f64) -> f64 {
    bytes_per_s * 8.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_roundtrip() {
        for v in [0.1, 5.0, 100.0, 2_500.0] {
            assert!((bps_to_mbps(mbps_to_bps(v)) - v).abs() < 1e-9);
        }
    }
}
