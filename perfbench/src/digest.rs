//! Output digests and the pinned values they are checked against.

use std::collections::BTreeMap;

/// 64-bit FNV-1a of `bytes`, as 16 hex digits. Stable across toolchains,
/// unlike the standard library's hasher.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The seed whose digests are pinned in `pins.txt`.
pub const PINNED_SEED: u64 = 1;

/// The digests pinned for [`PINNED_SEED`], built into the binary.
pub const BUILTIN_PINS: &str = include_str!("../pins.txt");

/// Parses pin text: one `<operation> <digest>` per line; blank lines and
/// `#` comments are skipped.
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut pins = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(op), Some(digest), None) => {
                if pins.insert(op.to_string(), digest.to_string()).is_some() {
                    return Err(format!("pins line {}: `{op}` pinned twice", i + 1));
                }
            }
            _ => {
                return Err(format!(
                    "pins line {}: expected `<operation> <digest>`",
                    i + 1
                ))
            }
        }
    }
    Ok(pins)
}

/// What each operation's digest is checked against.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The pinned seed: every operation must match its pin.
    Pinned(BTreeMap<String, String>),
    /// Any other seed: every repetition must match the first one seen in
    /// this process.
    FirstSeen(BTreeMap<String, String>),
}

impl Expect {
    /// The check for `seed`, given the pins.
    pub fn for_seed(seed: u64, pins: BTreeMap<String, String>) -> Self {
        if seed == PINNED_SEED {
            Expect::Pinned(pins)
        } else {
            Expect::FirstSeen(BTreeMap::new())
        }
    }

    /// Checks one operation's digest; `Err` names the mismatch.
    pub fn check(&mut self, op: &str, digest: &str) -> Result<(), String> {
        let (want, what) = match self {
            Expect::Pinned(pins) => match pins.get(op) {
                Some(w) => (w.clone(), "pinned"),
                None => return Err(format!("{op}: no pinned digest")),
            },
            Expect::FirstSeen(seen) => (
                seen.entry(op.to_string())
                    .or_insert_with(|| digest.to_string())
                    .clone(),
                "first-run",
            ),
        };
        if want == digest {
            Ok(())
        } else {
            Err(format!("{op}: digest {digest} != {what} {want}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_eq!(fnv64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn pins_parse_and_reject() {
        let p = parse_pins("# c\n\na 1\nb 2\n").unwrap();
        assert_eq!(p.len(), 2);
        assert!(parse_pins("a 1 2\n").is_err());
        assert!(parse_pins("a 1\na 2\n").is_err());
    }

    #[test]
    fn builtin_pins_parse() {
        assert!(!parse_pins(BUILTIN_PINS).unwrap().is_empty());
    }

    #[test]
    fn first_seen_pins_the_first_digest() {
        let mut e = Expect::for_seed(PINNED_SEED + 1, BTreeMap::new());
        assert!(e.check("x", "aa").is_ok());
        assert!(e.check("x", "aa").is_ok());
        assert!(e.check("x", "bb").is_err());
        let mut p = Expect::for_seed(PINNED_SEED, parse_pins("x aa").unwrap());
        assert!(p.check("x", "aa").is_ok());
        assert!(p.check("x", "bb").is_err());
        assert!(p.check("y", "aa").is_err());
    }
}
