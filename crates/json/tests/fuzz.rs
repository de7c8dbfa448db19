//! Fuzz-style property coverage for the JSON writer/parser pair.
//!
//! Two properties, both load-bearing for the server's cache (result payloads
//! are compared byte-for-byte after a write/parse round trip):
//!
//! * **Round trip** — any tree of [`Value`]s survives `to_string` → `parse`
//!   up to the documented number canonicalisation (whole non-negative
//!   floats print as integer tokens and re-parse as [`Value::Uint`]).
//! * **No panics** — random byte-level mutations of valid documents (bit
//!   flips, insertions, deletions) either parse or return a [`ParseError`];
//!   the parser never panics, hangs, or overflows the stack.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use qsdd_json::{parse, Value, MAX_DEPTH};
use rand::Rng;

/// Characters the string generator draws from: JSON syntax, escapes,
/// controls, multi-byte UTF-8 — everything the writer must escape or pass
/// through and the parser must take back.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '{', '}', '[', ']',
    ':', ',', '-', '.', 'e', 'é', 'Ω', '中', '🦀', '\u{7f}', '\u{80}', '\u{fffd}',
];

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

fn gen_value(rng: &mut TestRng, depth: usize) -> Value {
    // Containers only below the depth budget; scalars otherwise.
    let kind = if depth > 0 {
        rng.gen_range(0..8u8)
    } else {
        rng.gen_range(0..6u8)
    };
    match kind {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(0..2u8) == 0),
        2 => Value::Uint(rng.gen::<u64>() >> rng.gen_range(0..64u32)),
        3 => Value::Number(rng.gen_range(-1e12..1e12)),
        4 => {
            // Numbers prone to formatting edge cases: whole, tiny, huge.
            match rng.gen_range(0..4u8) {
                0 => Value::Number(rng.gen_range(-1e6..1e6f64).trunc()),
                1 => Value::Number(rng.gen_range(-1.0..1.0f64) * 1e-300),
                2 => Value::Number(rng.gen_range(-1.0..1.0f64) * 1e300),
                _ => Value::Number(-0.0),
            }
        }
        5 => Value::String(gen_string(rng)),
        6 => {
            let len = rng.gen_range(0..5usize);
            Value::Array((0..len).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..5usize);
            Value::Object(
                (0..len)
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Strategy producing random JSON value trees up to 4 container levels.
struct ArbValue;

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        gen_value(rng, 4)
    }
}

/// The value the parser is specified to return for a written document:
/// identical up to number canonicalisation — a whole non-negative float
/// small enough to print as an integer token re-parses as `Uint`.
fn canonical(value: &Value) -> Value {
    match value {
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
            Value::Uint(*n as u64)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonical).collect()),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), canonical(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compact and pretty renderings of random value trees both parse back
    /// to the canonical form of the original tree.
    #[test]
    fn random_values_round_trip(value in ArbValue) {
        let expected = canonical(&value);
        let compact = value.to_string();
        let parsed = parse(&compact)
            .unwrap_or_else(|e| panic!("compact form failed to parse: {e}\n{compact}"));
        prop_assert_eq!(&parsed, &expected, "compact round trip diverged");
        let pretty = value.to_pretty_string();
        let parsed = parse(&pretty)
            .unwrap_or_else(|e| panic!("pretty form failed to parse: {e}\n{pretty}"));
        prop_assert_eq!(&parsed, &expected, "pretty round trip diverged");
        // Idempotence: re-serialising the parsed tree is byte-stable (the
        // property the server's content-addressed cache relies on).
        prop_assert_eq!(parsed.to_string(), expected.to_string());
    }

    /// Byte-level mutations of a valid document never panic the parser:
    /// every mutant either parses or reports a structured error.
    #[test]
    fn mutated_documents_never_panic(
        value in ArbValue,
        mutations in proptest::collection::vec((0..4096usize, 0..=255u8, 0..3u8), 1..16),
    ) {
        let mut bytes = value.to_string().into_bytes();
        for (position, byte, op) in mutations {
            if bytes.is_empty() {
                bytes.push(byte);
                continue;
            }
            let at = position % bytes.len();
            match op {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        // Mutations can break UTF-8; the parser takes `&str`, so feed it
        // the lossy decoding (what any caller would have to do).
        let source = String::from_utf8_lossy(&bytes);
        match parse(&source) {
            Ok(reparsed) => {
                // If the mutant still parses, it must also re-serialise and
                // re-parse cleanly (the value is internally consistent).
                let rendered = reparsed.to_string();
                prop_assert_eq!(
                    parse(&rendered).expect("re-rendered mutant parses"),
                    reparsed
                );
            }
            Err(error) => {
                // Offsets index the (lossy-decoded) source the parser saw.
                prop_assert!(
                    error.offset <= source.len(),
                    "error offset {} beyond document length {}",
                    error.offset,
                    source.len()
                );
            }
        }
    }
}

#[test]
fn hostile_nesting_is_rejected_not_overflowed() {
    // A tiny document with pathological nesting must come back as a parse
    // error — never a recursion-induced stack overflow.
    for open in ["[", "{\"k\":"] {
        let source = open.repeat(MAX_DEPTH + 10);
        let error = parse(&source).expect_err("over-deep document rejected");
        assert!(
            error.message.contains("nesting"),
            "unexpected error: {error}"
        );
    }
    // At exactly the limit the document is still accepted.
    let balanced = format!("{}null{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    parse(&balanced).expect("nesting at the limit parses");
}

#[test]
fn truncated_documents_error_cleanly() {
    let document = r#"{"counts":{"0":512,"15":488},"estimates":[0.5,-1.25e-3],"ok":true}"#;
    for cut in 0..document.len() {
        let truncated = &document[..cut];
        if truncated.is_empty() {
            continue;
        }
        // Every strict prefix is incomplete; none may panic, and only the
        // full document parses.
        assert!(
            parse(truncated).is_err(),
            "prefix of length {cut} unexpectedly parsed"
        );
    }
    parse(document).expect("the full document parses");
}

/// Long strings parse in time linear in their length: a document holding an
/// 8 MiB string (multi-byte characters and escapes spread through it) and
/// an array of 100 000 short strings round-trips. Decoding that validates
/// the whole remaining input per character is quadratic and never gets
/// through it.
#[test]
fn long_strings_round_trip() {
    let chunk = "plain text, é中🦀 and an \"escaped\" \\ line\n";
    let long: String = chunk.repeat(8 << 20 >> 5).chars().take(8 << 20).collect();
    let short = (0..100_000).map(|i| Value::String(format!("s{i}")));
    let document = Value::Object(vec![
        ("long".to_string(), Value::String(long)),
        ("short".to_string(), Value::Array(short.collect())),
    ]);
    let parsed = parse(&document.to_string()).expect("the document parses");
    assert_eq!(parsed, document);
}
