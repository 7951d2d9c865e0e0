//! Property tests for spec compilation: a mutated registry spec either
//! builds a campaign or is rejected with an error, and never panics.
//! `--scenario FILE.json` feeds user-written specs straight into
//! [`Campaign::from_spec`], so every malformed field must surface as an
//! `Err` the CLI can report.

#![expect(clippy::indexing_slicing, reason = "D7 covers library code; a test aborts on a failed step")]

use proptest::prelude::*;

use wheels_campaign::scenario::TechScale;
use wheels_campaign::{Campaign, CampaignConfig, LoadScaleSpec, ScenarioSpec};

/// Operator slot strings: the three valid slots plus near misses.
const SLOTS: [&str; 7] = ["verizon", "tmobile", "att", "sprint", "", "Verizon", "att "];

/// Technology keys: every valid label plus near misses.
const TECHS: [&str; 8] = ["LTE", "LTE-A", "5G-low", "5G-mid", "5G-mmWave", "5G", "lte", ""];

/// Scale values: neutral, in range, and the out-of-range kinds.
const SCALES: [f64; 7] = [1.0, 0.5, 2.0, 0.0, -1.0, f64::NAN, f64::INFINITY];

/// One edit to a registry spec. Index fields pick a target modulo the
/// length of whatever list they address.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Replace operator `op`'s slot with `SLOTS[value]`.
    Slot { op: usize, value: usize },
    /// Set (or append) a scale entry's tech key to `TECHS[value]`.
    Tech { op: usize, entry: usize, value: usize },
    /// Set one field (coverage, spacing, promotion) of a scale entry.
    TechScale { op: usize, field: usize, value: usize },
    /// Set operator `op`'s load scale fields to `SCALES[value]`.
    LoadScale { op: usize, value: usize },
    /// Set route city `city`'s size scale to `SCALES[value]`.
    CityScale { city: usize, value: usize },
    /// Replace the overnight list with `picks` route cities (by index,
    /// in the given order), or add a city not on the route.
    Overnight { picks: (usize, usize, usize), len: usize, foreign: bool },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..4, 0usize..SLOTS.len()).prop_map(|(op, value)| Mutation::Slot { op, value }),
        (0usize..4, 0usize..6, 0usize..TECHS.len())
            .prop_map(|(op, entry, value)| Mutation::Tech { op, entry, value }),
        (0usize..4, 0usize..3, 0usize..SCALES.len())
            .prop_map(|(op, field, value)| Mutation::TechScale { op, field, value }),
        (0usize..4, 0usize..SCALES.len()).prop_map(|(op, value)| Mutation::LoadScale { op, value }),
        (0usize..40, 0usize..SCALES.len())
            .prop_map(|(city, value)| Mutation::CityScale { city, value }),
        ((0usize..40, 0usize..40, 0usize..40), 0usize..4, 0u8..4).prop_map(
            |(picks, len, foreign)| Mutation::Overnight {
                picks,
                len,
                foreign: foreign == 0,
            }
        ),
    ]
}

fn apply(spec: &mut ScenarioSpec, m: Mutation) {
    let n_ops = spec.operators.len();
    match m {
        Mutation::Slot { op, value } => spec.operators[op % n_ops].slot = SLOTS[value].to_string(),
        Mutation::Tech { op, entry, value } => {
            let scales = &mut spec.operators[op % n_ops].scales;
            let tech = TECHS[value].to_string();
            match scales.get_mut(entry) {
                Some(s) => s.tech = tech,
                None => scales.push(TechScale {
                    tech,
                    coverage: 1.0,
                    spacing: 1.0,
                    promotion: 1.0,
                }),
            }
        }
        Mutation::TechScale { op, field, value } => {
            let scales = &mut spec.operators[op % n_ops].scales;
            if scales.is_empty() {
                scales.push(TechScale {
                    tech: "LTE".to_string(),
                    coverage: 1.0,
                    spacing: 1.0,
                    promotion: 1.0,
                });
            }
            let s = &mut scales[0];
            let v = SCALES[value];
            match field {
                0 => s.coverage = v,
                1 => s.spacing = v,
                _ => s.promotion = v,
            }
        }
        Mutation::LoadScale { op, value } => {
            let v = SCALES[value];
            spec.operators[op % n_ops].load = Some(LoadScaleSpec {
                median: v,
                sigma: v,
                congestion: v,
            });
        }
        Mutation::CityScale { city, value } => {
            let n = spec.route.cities.len();
            spec.route.cities[city % n].scale = SCALES[value];
        }
        Mutation::Overnight {
            picks,
            len,
            foreign,
        } => {
            let cities = &spec.route.cities;
            let mut overnights: Vec<String> = [picks.0, picks.1, picks.2]
                .into_iter()
                .take(len)
                .map(|i| cities[i % cities.len()].name.clone())
                .collect();
            if foreign {
                overnights.push("Atlantis".to_string());
            }
            spec.trip.overnight_cities = overnights;
        }
    }
}

fn cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::quick_network_only(5);
    cfg.scale = 0.002;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutated_specs_build_or_err_without_panicking(
        which in 0usize..3,
        first in arb_mutation(),
        second in arb_mutation(),
    ) {
        let mut registry = ScenarioSpec::registry();
        let mut spec = registry.swap_remove(which % registry.len());
        apply(&mut spec, first);
        apply(&mut spec, second);
        let valid = spec.validate();
        let built = Campaign::from_spec(&spec, cfg());
        // `from_spec` rejects exactly the specs `validate` rejects, with
        // the same first problem.
        prop_assert_eq!(built.as_ref().err(), valid.as_ref().err(), "{:?} then {:?}", first, second);
        if let Ok(campaign) = built {
            prop_assert!(!campaign.plan().days().is_empty());
            prop_assert_eq!(campaign.ops().len(), spec.operators.len());
        }
    }
}
