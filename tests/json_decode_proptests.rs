//! Property tests for the direct JSON decoder.
//!
//! `serde_json::from_str` decodes straight from the text
//! (`Deserialize::from_reader`); `serde_json::from_str_tree` is the
//! historical path (parse to a `Value` tree, then `from_value`), kept as
//! the oracle. These properties pin the two together:
//!
//! 1. on the derived shapes the checkpoint payload uses — named, tuple,
//!    newtype and unit structs, every enum variant kind, `Option`, `Vec`,
//!    tuples, integers at their extremes, and floats including `-0.0`,
//!    subnormals and extreme `f32` values — both decode every serialized
//!    value to the same value, and that value re-serializes to the input;
//! 2. on real checkpoint payloads (`UnitCheckpoint` records read from a
//!    checkpoint log) both decode to the same value;
//! 3. on byte soup, on mutated documents and on every truncation, both
//!    succeed together or fail together (and agree when they succeed).
//!
//! Decoded values are compared through their re-serialization: the
//! writer prints every finite float as its shortest round-trip form, so
//! equal bytes mean bit-equal floats, `-0.0` included.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wheels_campaign::checkpoint::{record_spans, UnitCheckpoint, HEADER_LEN, LOG_NAME};
use wheels_campaign::{Campaign, CampaignConfig, CheckpointOptions};

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Tag {
    Plain,
    Wrapped(f32),
    Pair(u8, i16),
    Named { x: f64, note: Option<String> },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Point(f64, f32);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Sample {
    id: u32,
    delta: i64,
    big: u64,
    small: i8,
    x: f64,
    y: f32,
    xs: Vec<f64>,
    ys: Vec<f32>,
    maybe: Option<f32>,
    label: String,
    flag: bool,
    tags: Vec<Tag>,
    point: Point,
    odometer: Meters,
    pair: (u8, String),
    marker: Marker,
    matrix: Vec<Vec<u16>>,
    inner: Option<Inner>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Inner {
    kpi: Vec<(f64, Option<f32>)>,
    tag: Tag,
}

const F64_EDGES: &[f64] = &[
    0.0,
    -0.0,
    5e-324,                     // smallest subnormal
    2.225_073_858_507_201e-308, // largest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    0.1,
    1e15,
    -1e16,
];

const F32_EDGES: &[f32] = &[
    0.0,
    -0.0,
    1e-45,           // smallest subnormal
    1.175_494_2e-38, // largest subnormal
    f32::MIN_POSITIVE,
    f32::MAX,
    f32::MIN,
    f32::EPSILON,
    16_777_216.0,
    0.1,
    -3.5e-9,
];

const STRINGS: &[&str] = &[
    "",
    "plain",
    "quote\"back\\slash",
    "line\nbreak\u{1}",
    "héllo → 😀",
];

fn f64_of(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..3) {
        0 => F64_EDGES[rng.gen_range(0..F64_EDGES.len())],
        1 => rng.gen_range(-1.0e6..1.0e6),
        _ => {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                x
            } else {
                -0.0
            }
        }
    }
}

fn f32_of(rng: &mut SmallRng) -> f32 {
    match rng.gen_range(0..3) {
        0 => F32_EDGES[rng.gen_range(0..F32_EDGES.len())],
        1 => rng.gen_range(-1.0e4f32..1.0e4),
        _ => {
            let x = f32::from_bits(rng.gen());
            if x.is_finite() {
                x
            } else {
                f32::MIN_POSITIVE
            }
        }
    }
}

fn string_of(rng: &mut SmallRng) -> String {
    STRINGS[rng.gen_range(0..STRINGS.len())].to_string()
}

fn tag_of(rng: &mut SmallRng) -> Tag {
    match rng.gen_range(0..4) {
        0 => Tag::Plain,
        1 => Tag::Wrapped(f32_of(rng)),
        2 => Tag::Pair(rng.gen(), rng.gen::<u16>() as i16),
        _ => Tag::Named {
            x: f64_of(rng),
            note: (rng.gen_range(0..2) == 0).then(|| string_of(rng)),
        },
    }
}

struct ArbSample;

impl Strategy for ArbSample {
    type Value = Sample;

    fn generate(&self, rng: &mut SmallRng) -> Sample {
        let n = |rng: &mut SmallRng| rng.gen_range(0..4usize);
        let xs = (0..n(rng)).map(|_| f64_of(rng)).collect();
        let ys = (0..n(rng)).map(|_| f32_of(rng)).collect();
        let tags = (0..n(rng)).map(|_| tag_of(rng)).collect();
        let matrix = (0..n(rng))
            .map(|_| (0..n(rng)).map(|_| rng.gen()).collect())
            .collect();
        let inner = (rng.gen_range(0..2) == 0).then(|| Inner {
            kpi: (0..n(rng))
                .map(|_| (f64_of(rng), (rng.gen_range(0..2) == 0).then(|| f32_of(rng))))
                .collect(),
            tag: tag_of(rng),
        });
        Sample {
            id: rng.gen(),
            delta: rng.gen::<u64>() as i64,
            big: if rng.gen_range(0..2) == 0 {
                u64::MAX
            } else {
                rng.gen()
            },
            small: rng.gen::<u8>() as i8,
            x: f64_of(rng),
            y: f32_of(rng),
            xs,
            ys,
            maybe: (rng.gen_range(0..2) == 0).then(|| f32_of(rng)),
            label: string_of(rng),
            flag: rng.gen_range(0..2) == 0,
            tags,
            point: Point(f64_of(rng), f32_of(rng)),
            odometer: Meters(f64_of(rng)),
            pair: (rng.gen(), string_of(rng)),
            marker: Marker,
            matrix,
            inner,
        }
    }
}

/// Both decoders on one text: their results must agree in success, and
/// in value when they succeed. Returns the direct result.
fn agree<T: Serialize + Deserialize>(text: &str) -> Option<T> {
    let direct = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str_tree::<T>(text);
    match (direct, tree) {
        (Ok(d), Ok(t)) => {
            let (d_json, t_json) = (json(&d), json(&t));
            assert_eq!(d_json, t_json, "decoders disagree on {text:?}");
            Some(d)
        }
        (Err(_), Err(_)) => None,
        (d, t) => panic!(
            "direct ok={} but tree ok={} on {text:?}",
            d.is_ok(),
            t.is_ok()
        ),
    }
}

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("value serializes")
}

/// A copy of `text` with a few bytes replaced, inserted or deleted, drawn
/// from JSON punctuation and the digits (mutations stay ASCII, so the
/// result is still a `&str`).
#[expect(
    clippy::disallowed_methods,
    reason = "D4: fixture RNG seeded by proptest's own input, not a campaign stream"
)]
fn fixture_rng(seed: u64) -> SmallRng {
    rand::SeedableRng::seed_from_u64(seed)
}

fn mutate(text: &str, rng: &mut SmallRng) -> String {
    const ALPHABET: &[u8] = b"{}[]:,\"\\ -+.eE0123456789ntrufals";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let at = rng.gen_range(0..bytes.len() + 1);
        let b = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..3) {
            0 if at < bytes.len() && bytes[at].is_ascii() => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ if at < bytes.len() && bytes[at].is_ascii() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8(bytes).unwrap_or_default()
}

/// Real checkpoint payloads: every record of a small checkpointed run
/// with drive, static and passive units and a subscriber fleet.
fn payloads() -> &'static [String] {
    static P: OnceLock<Vec<String>> = OnceLock::new();
    P.get_or_init(|| {
        let mut cfg = CampaignConfig::quick_network_only(7);
        cfg.scale = 0.01;
        cfg.passive_tick_s = 60.0;
        cfg.population = Some(300);
        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("decode-payloads");
        let _ = std::fs::remove_dir_all(&dir);
        Campaign::new(cfg)
            .run_checkpointed_jobs(1, &CheckpointOptions::fresh(&dir))
            .expect("small checkpointed run completes");
        let log = std::fs::read(dir.join(LOG_NAME)).expect("log exists");
        record_spans(&log)
            .into_iter()
            .map(|s| String::from_utf8(log[s.start + HEADER_LEN..s.end].to_vec()).expect("utf8"))
            .collect()
    })
}

proptest! {
    #[test]
    fn direct_and_tree_decode_agree_and_roundtrip(s in ArbSample) {
        for text in [json(&s), serde_json::to_string_pretty(&s).expect("pretty")] {
            let back: Sample = agree(&text).expect("own output decodes");
            prop_assert_eq!(json(&back), json(&s));
        }
    }

    #[test]
    fn every_truncation_fails_or_succeeds_on_both_paths(s in ArbSample) {
        let text = json(&s);
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            agree::<Sample>(&text[..cut]);
        }
    }

    #[test]
    fn mutated_documents_fail_or_succeed_on_both_paths(s in ArbSample, seed in any::<u64>()) {
        let mut rng = fixture_rng(seed);
        let text = json(&s);
        for _ in 0..32 {
            agree::<Sample>(&mutate(&text, &mut rng));
        }
    }

    #[test]
    fn byte_soup_fails_or_succeeds_on_both_paths(seed in any::<u64>()) {
        const PIECES: &[&str] = &[
            "{", "}", "[", "]", ":", ",", " ", "\"", "\\", "null", "true", "false",
            "-", "0", "7", ".5", "e3", "\"Plain\"", "\"Pair\"", "\"Named\"", "\"x\"",
            "\"note\"", "\"id\"", "\"\\u00e9\"", "\"\\ud83d\\ude00\"", "1.0", "-0.0",
        ];
        let mut rng = fixture_rng(seed);
        for _ in 0..64 {
            let n = rng.gen_range(0..12);
            let soup: String = (0..n).map(|_| PIECES[rng.gen_range(0..PIECES.len())]).collect();
            agree::<Tag>(&soup);
            agree::<Vec<Tag>>(&soup);
            agree::<Option<(f32, bool)>>(&soup);
            agree::<Inner>(&soup);
            agree::<serde::Value>(&soup);
        }
    }

    #[test]
    fn checkpoint_payload_mutations_fail_or_succeed_on_both_paths(seed in any::<u64>()) {
        let mut rng = fixture_rng(seed);
        let all = payloads();
        let text = &all[rng.gen_range(0..all.len())];
        let cut = rng.gen_range(0..text.len());
        if text.is_char_boundary(cut) {
            agree::<UnitCheckpoint>(&text[..cut]);
        }
        agree::<UnitCheckpoint>(&mutate(text, &mut rng));
    }
}

#[test]
fn real_checkpoint_payloads_decode_identically_on_both_paths() {
    let all = payloads();
    assert!(all.len() >= 4, "the run commits every unit kind");
    let mut with_records = 0;
    let mut with_passive = 0;
    let mut with_fleet = 0;
    for text in all {
        let ck: UnitCheckpoint = agree(text).expect("payload decodes");
        assert_eq!(&json(&ck), text, "payload re-serializes byte for byte");
        with_records += usize::from(!ck.records.is_empty());
        with_passive += usize::from(ck.passive.is_some());
        with_fleet += usize::from(ck.fleet.is_some());
    }
    assert!(with_records > 0 && with_passive > 0 && with_fleet > 0);
}

#[test]
fn nesting_limit_is_shared() {
    // The outermost value sits at depth 0; nothing deeper than 128 parses.
    let nested = |n: usize, leaf: &str| format!("{}{leaf}{}", "[".repeat(n), "]".repeat(n));
    assert!(agree::<serde::Value>(&nested(128, "0")).is_some());
    assert!(agree::<serde::Value>(&nested(129, "")).is_some());
    assert!(agree::<serde::Value>(&nested(129, "0")).is_none());
    assert!(agree::<serde::Value>(&nested(130, "")).is_none());
    // An unknown key's value is skipped, but its depth still counts.
    let deep = |n: usize| {
        format!(
            "{{\"kpi\":[],\"tag\":\"Plain\",\"deep\":{}}}",
            nested(n, "")
        )
    };
    assert!(agree::<Inner>(&deep(128)).is_some());
    assert!(agree::<Inner>(&deep(129)).is_none());
}

#[test]
fn missing_option_field_decodes_to_none() {
    let text = r#"{"kpi":[[1.5,null]],"tag":"Plain"}"#;
    let inner: Inner = agree(text).expect("decodes");
    assert_eq!(inner.kpi.len(), 1);
    let tag: Tag = agree(r#"{"Named":{"x":2.0}}"#).expect("decodes");
    assert!(matches!(tag, Tag::Named { note: None, .. }));
    // A missing non-Option field is an error on both paths.
    assert!(agree::<Inner>(r#"{"tag":"Plain"}"#).is_none());
}

#[test]
fn unknown_keys_are_skipped() {
    let text = r#"{"zzz":{"a":[1,2,{"b":null}]},"kpi":[],"extra":"\u00e9","tag":"Plain"}"#;
    assert!(agree::<Inner>(text).is_some());
    // ...but still validated: a bad number inside one fails both paths.
    assert!(agree::<Inner>(r#"{"zzz":[1e],"kpi":[],"tag":"Plain"}"#).is_none());
}

#[test]
fn first_duplicate_key_wins() {
    let text = r#"{"kpi":[[1.0,2.0]],"tag":"Plain","kpi":[],"tag":{"Wrapped":3.0}}"#;
    let inner: Inner = agree(text).expect("decodes");
    assert_eq!(inner.kpi.len(), 1);
    assert!(matches!(inner.tag, Tag::Plain));
    // The ignored duplicate need not even have the field's type.
    let text = r#"{"kpi":[],"tag":"Plain","tag":17}"#;
    assert!(agree::<Inner>(text).is_some());
}

#[test]
fn f32_tokens_parse_directly_without_f64_rounding() {
    // Just above the midpoint between 1.0f32 and its successor: rounding
    // the token to f64 first lands exactly on the midpoint, and the
    // second rounding (ties to even) would give 1.0.
    let token = "1.000000059604644775390625001";
    assert_eq!(token.parse::<f64>().unwrap() as f32, 1.0);
    for text in [token.to_string(), format!("[{token}]")] {
        let direct = if text.starts_with('[') {
            serde_json::from_str::<Vec<f32>>(&text).unwrap()[0]
        } else {
            serde_json::from_str::<f32>(&text).unwrap()
        };
        assert_eq!(direct.to_bits(), 0x3F80_0001, "{text}");
    }
    let tree: f32 = serde_json::from_str_tree(token).unwrap();
    assert_eq!(tree.to_bits(), 0x3F80_0001);
}
