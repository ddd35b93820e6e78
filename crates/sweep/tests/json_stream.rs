//! The streaming JSON encoder against the tree encoder it replaced.
//!
//! `serde_json` serializes by streaming each value straight into one
//! text sink. These tests keep the former encoder — render the value's
//! `serialize_value()` tree, then print the tree — as an oracle, and
//! demand byte equality with it: for random value trees (every float
//! edge, escapes, non-string keys, nesting) and for the sweep's real
//! export types. They also check that a writer failing mid-export turns
//! into an `Err`, never a panic.

use omptune_core::{Arch, TuningConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Serialize, Value};
use std::io::{self, Write};
use sweep::{
    provenance_of, write_provenance_jsonl, RunManifest, Scope, SettingData, SweepSpec, SweepStats,
};

// ---------------------------------------------------------------------------
// Oracle: the tree encoder
// ---------------------------------------------------------------------------

fn tree_json(v: &Value, out: &mut String) {
    match v {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => tree_f64(*x, out),
        Value::Str(s) => tree_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                tree_json(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                tree_key(k, out);
                out.push(':');
                tree_json(val, out);
            }
            out.push('}');
        }
    }
}

fn tree_pretty(v: &Value, out: &mut String, indent: usize) {
    let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                tree_pretty(item, out, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                tree_key(k, out);
                out.push_str(": ");
                tree_pretty(val, out, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => tree_json(other, out),
    }
}

fn tree_key(k: &Value, out: &mut String) {
    match k {
        Value::Str(s) => tree_str(s, out),
        other => {
            let mut inner = String::new();
            tree_json(other, &mut inner);
            tree_str(&inner, out);
        }
    }
}

fn tree_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1.0e15 {
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn tree_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn oracle<T: Serialize + ?Sized>(x: &T) -> String {
    let mut out = String::new();
    tree_json(&x.serialize_value(), &mut out);
    out
}

fn oracle_pretty<T: Serialize + ?Sized>(x: &T) -> String {
    let mut out = String::new();
    tree_pretty(&x.serialize_value(), &mut out, 0);
    out
}

/// Every streaming entry point agrees with the oracle on `x`.
fn assert_streams_like_the_tree<T: Serialize + ?Sized>(x: &T) {
    let want = oracle(x);
    assert_eq!(serde_json::to_string(x).unwrap(), want);
    assert_eq!(serde_json::to_vec(x).unwrap(), want.as_bytes());
    let mut written = Vec::new();
    serde_json::to_writer(&mut written, x).unwrap();
    assert_eq!(written, want.as_bytes());
    assert_eq!(serde_json::to_string_pretty(x).unwrap(), oracle_pretty(x));
}

// ---------------------------------------------------------------------------
// Random value trees
// ---------------------------------------------------------------------------

/// Floats the text rules treat specially, plus ordinary ones.
const EDGE_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -3.0,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    1.0e15,
    -1.0e15,
    1.0e15 + 2.0,
    1.0e16,
    1.0e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 3.0,
    5.0e-324,
    -5.0e-324,
    0.1,
    1.5,
    2.5e-7,
];

/// Characters covering every escape class and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', ':', ',', '{', ']', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}',
    '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '日', '\u{2028}', '🎉',
];

/// Random `Value` trees up to a nesting depth.
struct ArbValue {
    depth: u32,
}

impl ArbValue {
    fn string(rng: &mut TestRng) -> String {
        let len = rng.below(8);
        (0..len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn float(rng: &mut TestRng) -> f64 {
        match rng.below(4) {
            0 | 1 => EDGE_FLOATS[rng.below(EDGE_FLOATS.len() as u64) as usize],
            // Any bit pattern: subnormals, huge and tiny exponents.
            2 => f64::from_bits(rng.next_u64()),
            // Integral values on both sides of 1e15.
            _ => {
                let x = (rng.below(4_000_000_000_000_000) as f64) - 2.0e15;
                x.trunc()
            }
        }
    }

    fn value(rng: &mut TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Value::Unit,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::I64(rng.next_u64() as i64),
            3 => Value::U64(rng.next_u64() >> rng.below(64)),
            4 => Value::F64(ArbValue::float(rng)),
            5 => Value::Str(ArbValue::string(rng)),
            6 => {
                let n = rng.below(4);
                Value::Seq((0..n).map(|_| ArbValue::value(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.below(4);
                Value::Map(
                    (0..n)
                        .map(|_| {
                            // Mostly string keys, but every kind occurs.
                            let key = if rng.below(3) == 0 {
                                ArbValue::value(rng, depth - 1)
                            } else {
                                Value::Str(ArbValue::string(rng))
                            };
                            (key, ArbValue::value(rng, depth - 1))
                        })
                        .collect(),
                )
            }
        }
    }
}

impl Strategy for ArbValue {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        ArbValue::value(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_values_stream_like_the_tree(v in ArbValue { depth: 4 }) {
        assert_streams_like_the_tree(&v);
    }

    #[test]
    fn floats_stream_like_the_tree(bits in any::<u64>(), pick in 0usize..EDGE_FLOATS.len()) {
        for x in [f64::from_bits(bits), EDGE_FLOATS[pick], -EDGE_FLOATS[pick]] {
            assert_streams_like_the_tree(&x);
            assert_streams_like_the_tree(&vec![x, x]);
        }
    }
}

#[test]
fn every_edge_float_and_escape_is_covered() {
    for &x in EDGE_FLOATS {
        assert_streams_like_the_tree(&x);
    }
    let every_char: String = CHARS.iter().collect();
    assert_streams_like_the_tree(&every_char);
    // Non-string keys, compound ones included, quote their JSON text.
    let key_kinds = Value::Map(vec![
        (Value::U64(7), Value::Unit),
        (Value::I64(-7), Value::Bool(true)),
        (Value::F64(f64::NAN), Value::F64(2.0)),
        (Value::Bool(false), Value::Seq(vec![])),
        (Value::Unit, Value::Map(vec![])),
        (
            Value::Seq(vec![Value::Str("a\"b".into()), Value::F64(1.0)]),
            Value::Str("v".into()),
        ),
        (
            Value::Map(vec![(
                Value::Map(vec![(Value::U64(1), Value::Str("\\".into()))]),
                Value::Seq(vec![Value::Unit]),
            )]),
            Value::Map(vec![(Value::Str("k".into()), Value::Seq(vec![]))]),
        ),
    ]);
    assert_streams_like_the_tree(&key_kinds);
    assert_streams_like_the_tree(&vec![key_kinds.clone(), key_kinds]);
}

// ---------------------------------------------------------------------------
// Real export types
// ---------------------------------------------------------------------------

fn spec() -> SweepSpec {
    SweepSpec {
        scope: Scope::Strided(60),
        reps: 3,
        seed: 23,
        failure_rate: 0.1,
        ..SweepSpec::default()
    }
}

fn batches(spec: &SweepSpec) -> Vec<SettingData> {
    [
        (Arch::Skylake, "cg"),
        (Arch::Milan, "alignment"),
        (Arch::A64fx, "lulesh"),
    ]
    .into_iter()
    .map(|(arch, name)| {
        let app = workloads::app(name).expect("catalog app");
        let setting = workloads::settings_for(app, arch)[0];
        sweep::sweep_setting(arch, app, setting, 0, spec)
    })
    .collect()
}

#[test]
fn export_types_stream_like_the_tree() {
    let spec = spec();
    let batches = batches(&spec);
    assert!(
        batches
            .iter()
            .flat_map(|b| &b.samples)
            .any(|s| s.runtimes.iter().any(|r| r.is_nan())),
        "failed reps (NaN -> null) must be exercised"
    );
    assert_streams_like_the_tree(&batches);
    for data in &batches {
        assert_streams_like_the_tree(data);
        assert_streams_like_the_tree(&data.samples[0].config);
    }
    let provenance = provenance_of(&batches, &spec);
    assert_streams_like_the_tree(&provenance);
    assert_streams_like_the_tree(&provenance[0]);
    for arch in Arch::ALL {
        for threads in [1, 12, 48] {
            assert_streams_like_the_tree(&TuningConfig::default_for(arch, threads));
        }
    }
    let mut manifest = RunManifest::new(&spec);
    let mut latency = omptel::Histogram::new();
    latency.record(1_500);
    latency.record(3_000_000);
    let stats = SweepStats {
        sample_hits: 4,
        sample_misses: 9,
        steals: 2,
        units: 6,
        ..SweepStats::default()
    };
    manifest.push_arch(Arch::Skylake, &batches[..1], 1, 0.125, stats, latency);
    manifest.push_arch(
        Arch::Milan,
        &batches[1..2],
        0,
        2.0,
        SweepStats::default(),
        omptel::Histogram::new(),
    );
    assert_streams_like_the_tree(&manifest);
}

// ---------------------------------------------------------------------------
// Failing writers
// ---------------------------------------------------------------------------

/// Accepts `left` bytes, then fails every write.
struct FailAfter {
    left: usize,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_writer_failing_midway_is_an_error_not_a_panic() {
    let spec = spec();
    let batches = batches(&spec);
    let provenance = provenance_of(&batches, &spec);
    let mut raw = Vec::new();
    sweep::export::write_raw_json(&batches, &mut raw).unwrap();
    let mut prov = Vec::new();
    write_provenance_jsonl(&provenance, &mut prov).unwrap();
    // Both exports span several 64 KiB flushes.
    assert!(raw.len() > 3 * 65_536 && prov.len() > 3 * 65_536);
    for k in [0, 1, 4_095, 65_535, 65_536, 65_537, 200_000] {
        let mut w = FailAfter { left: k };
        assert!(
            sweep::export::write_raw_json(&batches, &mut w).is_err(),
            "raw JSON, fail after {k} bytes"
        );
        let mut w = FailAfter { left: k };
        assert!(
            write_provenance_jsonl(&provenance, &mut w).is_err(),
            "provenance, fail after {k} bytes"
        );
    }
    // Room for exactly the export succeeds.
    let mut w = FailAfter { left: raw.len() };
    sweep::export::write_raw_json(&batches, &mut w).unwrap();
    let mut w = FailAfter { left: prov.len() };
    write_provenance_jsonl(&provenance, &mut w).unwrap();
}
