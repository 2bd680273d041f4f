//! Never-panic properties for the hand-written input parsers: scenario
//! manifests, the JSON-lines trace reader and the fault-config builder.
//! Malformed input must come back as a typed error (or `None`), never as a
//! panic. Besides arbitrary bytes, each parser is fed byte-level mutations
//! of real inputs (the `scenarios/` corpus and the checked-in trace
//! fixtures), which reach far deeper into the grammar than noise does.

use std::path::Path;
use std::sync::OnceLock;

use jmb::obs::Event;
use jmb::sim::{FaultConfig, FaultError};
use jmb_scenario::Manifest;
use proptest::prelude::*;

/// Tokens a mutation may splice in, space-separated: numeric edge cases
/// and the punctuation the two grammars branch on.
const TOKENS: &str = "nan -inf -1 0 1e309 18446744073709551616 \n[faults]\n \" : , { }";

/// Applies one byte-level edit per op to `seed`: overwrite, insert or
/// delete a byte, or splice in one of [`TOKENS`], at a position the op
/// picks. Invalid UTF-8 is replaced, as a reader of untrusted text would.
fn mutate(seed: &[u8], ops: &[u64]) -> String {
    let tokens: Vec<&str> = TOKENS.split(' ').collect();
    let mut b = seed.to_vec();
    for &op in ops {
        let pos = (op >> 16) as usize % (b.len() + 1);
        let byte = op as u8;
        match (op >> 8) % 4 {
            0 if pos < b.len() => b[pos] = byte,
            1 => b.insert(pos, byte),
            2 if pos < b.len() => {
                b.remove(pos);
            }
            _ => {
                let token = tokens[usize::from(byte) % tokens.len()];
                b.splice(pos..pos, token.bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// The bytes of every `*.{ext}` file in `dir` (relative to the repository
/// root), in name order.
fn inputs(dir: &str, ext: &str) -> Vec<Vec<u8>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("readable input directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no *.{ext} files in {}", dir.display());
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("readable input"))
        .collect()
}

/// The `scenarios/*.scn` corpus manifests.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| inputs("scenarios", "scn"))
}

/// Every line of the checked-in `*.jsonl` trace fixtures.
fn trace_lines() -> &'static [Vec<u8>] {
    static LINES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    LINES.get_or_init(|| {
        let files = inputs("crates/bench/tests/fixtures", "jsonl");
        files
            .iter()
            .flat_map(|f| f.split(|&c| c == b'\n'))
            .map(<[u8]>::to_vec)
            .collect()
    })
}

/// Whole-domain `f64`s, weighted towards the values a probability check
/// must reject or just accept: NaN, ±∞, negatives, values above 1, and the
/// interval ends.
fn any_f64() -> impl Strategy<Value = f64> {
    (0u8..8, any::<u64>()).prop_map(|(pick, bits)| {
        let unit = bits as f64 / u64::MAX as f64;
        match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -unit,
            4 => 1.0 + unit * 1e3,
            5 => unit,
            6 => [0.0, -0.0, 1.0, f64::MIN_POSITIVE][(bits % 4) as usize],
            _ => f64::from_bits(bits),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn manifest_parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(m) = Manifest::parse(&text) { m.to_text(); }
    }

    #[test]
    fn manifest_parse_never_panics_on_mutated_corpus(
        pick in any::<usize>(),
        ops in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let corpus = corpus();
        let text = mutate(&corpus[pick % corpus.len()], &ops);
        if let Ok(m) = Manifest::parse(&text) { m.to_text(); }
    }

    #[test]
    fn event_from_json_never_panics_on_arbitrary_lines(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        if let Some(e) = Event::from_json(&line) { e.to_json(); }
    }

    #[test]
    fn event_from_json_never_panics_on_mutated_trace_lines(
        pick in any::<usize>(),
        ops in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let lines = trace_lines();
        let line = mutate(&lines[pick % lines.len()], &ops);
        if let Some(e) = Event::from_json(&line) { e.to_json(); }
    }

    /// The builder accepts exactly the configs whose probabilities all lie
    /// in `[0, 1]`, and names one of the offending values otherwise.
    #[test]
    fn fault_builder_returns_ok_or_a_fault_error(
        p in prop::collection::vec(any_f64(), 5),
        slave in 0usize..8,
    ) {
        let built = FaultConfig::builder()
            .drop_chance(p[0])
            .corrupt_chance(p[1])
            .sync_loss_chance(p[2])
            .meas_loss_chance(p[3])
            .per_slave_sync_loss(slave, p[4])
            .build();
        let valid = p.iter().all(|x| (0.0..=1.0).contains(x));
        match built {
            Ok(_) => prop_assert!(valid, "accepted {:?}", p),
            Err(FaultError::Probability(name, v)) => prop_assert!(
                !valid && p.iter().any(|x| x.to_bits() == v.to_bits()),
                "rejected {} = {} from {:?}", name, v, p
            ),
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}
