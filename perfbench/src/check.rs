//! Output checks: FNV-1a digests of what a run produced, and the pinned
//! reference values they are compared with.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::path::Path;

/// Streaming FNV-1a 64, byte-for-byte the digest of
/// `wheels_campaign::checkpoint::fnv1a64` over the concatenated input.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of rendered artifacts as `repro` prints them: each text
/// followed by a newline.
pub fn digest_texts(texts: &[String]) -> u64 {
    let mut h = Fnv::new();
    for t in texts {
        h.write(t.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Digest of the concatenated contents of `paths`, read back from disk.
pub fn digest_files(paths: &[&Path]) -> io::Result<u64> {
    let mut h = Fnv::new();
    let mut buf = vec![0u8; 1 << 20];
    for path in paths {
        let mut f = std::fs::File::open(path)?;
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                break;
            }
            h.write(buf.get(..n).unwrap_or_default());
        }
    }
    Ok(h.finish())
}

/// Pinned values for one `(workload, scale, seed)`: the output digest and
/// the counts that are pure functions of the seed.
pub type Pins = BTreeMap<String, u64>;

/// Parse a reference file. Each non-comment line is
/// `workload scale seed key=value...`; `digest` is hexadecimal, every
/// other value decimal.
pub fn parse_reference(text: &str) -> Result<BTreeMap<(String, String, u64), Pins>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("reference line {}: {what}: {line:?}", n + 1);
        let mut words = line.split_whitespace();
        let (Some(workload), Some(scale), Some(seed)) = (words.next(), words.next(), words.next())
        else {
            return Err(bad("expected workload, scale and seed"));
        };
        let seed: u64 = seed.parse().map_err(|_| bad("seed is not a number"))?;
        let mut pins = Pins::new();
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| bad("expected key=value"))?;
            let value = if key == "digest" {
                u64::from_str_radix(value, 16)
            } else {
                value.parse()
            }
            .map_err(|_| bad("value is not a number"))?;
            pins.insert(key.to_string(), value);
        }
        out.insert((workload.to_string(), scale.to_string(), seed), pins);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_campaign::checkpoint::fnv1a64;

    #[test]
    fn streaming_digest_matches_campaign_fnv() {
        let texts = vec!["Table 1\nrow".to_string(), String::new(), "ü".to_string()];
        assert_eq!(
            digest_texts(&texts),
            fnv1a64("Table 1\nrow\n\nü\n".as_bytes())
        );
        assert_eq!(Fnv::new().finish(), fnv1a64(b""));
    }

    #[test]
    fn reference_lines_parse_and_reject_garbage() {
        let refs = parse_reference("# c\npaper-full full 7 digest=ff campaign.records=3\n")
            .expect("valid file");
        let pins = &refs[&("paper-full".to_string(), "full".to_string(), 7)];
        assert_eq!(pins["digest"], 255);
        assert_eq!(pins["campaign.records"], 3);
        assert!(parse_reference("paper-full full x digest=ff").is_err());
        assert!(parse_reference("paper-full full 7 digest").is_err());
        assert!(parse_reference("paper-full full 7 digest=zz").is_err());
    }
}
