//! Deterministic per-component RNG stream derivation.
//!
//! The campaign executor splits the 8-day drive into independent work
//! units — `(operator, day)` drive segments, `(operator, site)` static
//! baselines, per-operator passive loggers — that may run on any worker
//! thread in any order. Every random stream a unit consumes is therefore
//! derived *ahead of time* from the campaign seed plus the unit's key via
//! a SplitMix64 absorb chain, never from shared mutable RNG state. The
//! sequential executor uses the same derivation, which is what makes
//! sequential and parallel runs byte-identical.
//!
//! A stream is named by a [`Domain`] whose variant carries exactly the
//! key words that domain is keyed by, so a call site cannot key a domain
//! with the wrong words or pass a bare tag (rule D9, DESIGN.md §8):
//!
//! ```compile_fail
//! use wheels_netsim::rng::{derive_seed, Domain};
//! // A phone stream is keyed by operator *and* day.
//! let _ = derive_seed(42, Domain::Phone { op: 0 });
//! ```
//!
//! ```compile_fail
//! use wheels_netsim::rng::derive_seed;
//! // Bare domain tags and word lists are not accepted.
//! let _ = derive_seed(42, 0x5048_4F4E_4531_0001, &[0, 1]);
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "D4: this module is the stream-derivation layer every other RNG comes from"
)]

use rand::rngs::SmallRng;
use rand::{splitmix64, SeedableRng};

/// Tag for the per-`(operator, day)` phone (UE + RTT model).
const DOMAIN_PHONE: u64 = 0x5048_4F4E_4531_0001; // "PHONE1"
/// Tag for the per-day cycle-skip stream.
const DOMAIN_CYCLE: u64 = 0x4359_434C_4531_0002; // "CYCLE1"
/// Tag for static-baseline phones.
const DOMAIN_STATIC: u64 = 0x5354_4154_4943_0003; // "STATIC"
/// Tag for the per-operator passive handover logger.
const DOMAIN_PASSIVE: u64 = 0x5041_5353_4956_0004; // "PASSIV"
/// Tag for fault-injection decisions.
const DOMAIN_FAULT: u64 = 0x4641_554C_5453_0005; // "FAULTS"
/// Tag for the subscriber-fleet attachment process.
const DOMAIN_FLEET: u64 = 0x464C_4545_5431_0006; // "FLEET1"

/// One random stream of a campaign: a domain and the key words that
/// select the stream within it. Words are absorbed in field order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain<'a> {
    /// The phone of one `(operator, day)` drive unit (UE + RTT model).
    Phone {
        /// Operator index.
        op: u64,
        /// Drive day index.
        day: u64,
    },
    /// The per-day cycle-skip stream. Operator-independent: the three
    /// phones share one vehicle and one round-robin schedule.
    Cycle {
        /// Drive day index.
        day: u64,
    },
    /// One attempt of a static-baseline phone.
    Static {
        /// Operator index.
        op: u64,
        /// Site odometer, whole metres.
        site: u64,
        /// Placement attempt.
        attempt: u64,
    },
    /// The per-operator passive handover logger.
    Passive {
        /// Operator index.
        op: u64,
    },
    /// The per-operator subscriber-fleet attachment process (per-cell
    /// draws are split off inside the RAN).
    Fleet {
        /// Operator index.
        op: u64,
    },
    /// Fault-injection decisions for one `(unit, attempt)`, keyed by a
    /// variable-length word list (see [`crate::faults`]).
    Fault(&'a [u64]),
}

impl Domain<'_> {
    /// The domain's tag, absorbed before the key words.
    fn tag(&self) -> u64 {
        match self {
            Domain::Phone { .. } => DOMAIN_PHONE,
            Domain::Cycle { .. } => DOMAIN_CYCLE,
            Domain::Static { .. } => DOMAIN_STATIC,
            Domain::Passive { .. } => DOMAIN_PASSIVE,
            Domain::Fleet { .. } => DOMAIN_FLEET,
            Domain::Fault(_) => DOMAIN_FAULT,
        }
    }
}

/// Derive a stream seed from the campaign seed and a keyed domain.
///
/// Each input is absorbed through one SplitMix64 step — the campaign
/// seed, the domain tag, then the key words in order — so every bit of
/// the input diffuses into the output: perturbing the campaign seed
/// changes every derived stream, and distinct keys give independent
/// streams (collisions are the generic 64-bit birthday bound, far beyond
/// the handful of units a campaign schedules).
pub fn derive_seed(campaign_seed: u64, domain: Domain<'_>) -> u64 {
    let mut state = campaign_seed;
    let mut out = splitmix64(&mut state);
    let mut absorb = |word: u64| {
        state = out ^ word;
        out = splitmix64(&mut state);
    };
    absorb(domain.tag());
    match domain {
        Domain::Phone { op, day } => {
            absorb(op);
            absorb(day);
        }
        Domain::Cycle { day } => absorb(day),
        Domain::Static { op, site, attempt } => {
            absorb(op);
            absorb(site);
            absorb(attempt);
        }
        Domain::Passive { op } | Domain::Fleet { op } => absorb(op),
        Domain::Fault(words) => words.iter().for_each(|&w| absorb(w)),
    }
    out
}

/// A [`SmallRng`] positioned at the start of the derived stream.
pub fn stream(campaign_seed: u64, domain: Domain<'_>) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(campaign_seed, domain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    /// Reference absorb chain over a raw tag and word list.
    fn chain(campaign_seed: u64, tag: u64, words: &[u64]) -> u64 {
        let mut state = campaign_seed;
        let mut out = splitmix64(&mut state);
        for &w in std::iter::once(&tag).chain(words) {
            state = out ^ w;
            out = splitmix64(&mut state);
        }
        out
    }

    #[test]
    fn typed_domains_reproduce_the_tagged_chain() {
        // Pinned outputs of the tag-and-word-list derivation: every
        // campaign's streams (and so every golden export) hang off them.
        let pinned = [
            (Domain::Phone { op: 1, day: 3 }, 0x06f5_2149_b5f9_92b7),
            (Domain::Cycle { day: 5 }, 0xa763_88f0_45cd_a5d6),
            (Domain::Static { op: 2, site: 1234, attempt: 1 }, 0xd1b8_deb3_fe3e_5529),
            (Domain::Passive { op: 0 }, 0xbca8_b83b_9354_f4d5),
            (Domain::Fleet { op: 2 }, 0x03fb_3534_c1b5_211d),
            (Domain::Fault(&[1, 2, 3, 0]), 0xf409_4a48_2f93_cf33),
        ];
        for (domain, want) in pinned {
            assert_eq!(derive_seed(42, domain), want, "{domain:?}");
        }
        assert_eq!(chain(42, DOMAIN_PHONE, &[1, 3]), 0x06f5_2149_b5f9_92b7);
        for seed in [0, 7, 42, u64::MAX] {
            for op in 0..3 {
                assert_eq!(
                    derive_seed(seed, Domain::Static { op, site: 9, attempt: 2 }),
                    chain(seed, DOMAIN_STATIC, &[op, 9, 2])
                );
                assert_eq!(
                    derive_seed(seed, Domain::Fleet { op }),
                    chain(seed, DOMAIN_FLEET, &[op])
                );
            }
        }
    }

    #[test]
    fn distinct_keys_distinct_streams() {
        let base = derive_seed(42, Domain::Phone { op: 0, day: 0 });
        assert_ne!(base, derive_seed(42, Domain::Phone { op: 0, day: 1 }));
        assert_ne!(base, derive_seed(42, Domain::Phone { op: 1, day: 0 }));
        assert_ne!(base, derive_seed(42, Domain::Fault(&[0, 0])));
        assert_ne!(base, derive_seed(43, Domain::Phone { op: 0, day: 0 }));
        // Same key words, different domains.
        assert_ne!(
            derive_seed(42, Domain::Passive { op: 1 }),
            derive_seed(42, Domain::Fleet { op: 1 })
        );
    }

    #[test]
    fn derivation_is_pure() {
        let key = Domain::Static { op: 1, site: 2, attempt: 3 };
        assert_eq!(derive_seed(7, key), derive_seed(7, key));
        let mut a = stream(7, Domain::Passive { op: 2 });
        let mut b = stream(7, Domain::Passive { op: 2 });
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn word_count_matters() {
        // [x] and [x, 0] must not collide: the chain absorbs length
        // implicitly because every extra word adds a mixing round.
        let one = derive_seed(9, Domain::Fault(&[5]));
        let two = derive_seed(9, Domain::Fault(&[5, 0]));
        assert_ne!(one, two);
        let mut r = stream(9, Domain::Fault(&[5]));
        assert!((0.0..1.0).contains(&r.gen::<f64>()));
    }
}
