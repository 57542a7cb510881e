//! Round-trip property tests for `tm_telemetry::Json` — the single
//! serializer behind both wire formats (the NDJSON event stream and
//! tmbench's result lines) and the substrate of the tm-obs consumer's
//! parser.
//!
//! The property: for every document, `parse(display(doc))` equals
//! `quantize(doc)`, where quantization is the one lossy step the
//! format admits — floats print at millisecond-scale (`{:.3}`)
//! precision and non-finite floats print as `null`. For documents
//! containing no floats the round trip is exact.

use tm_telemetry::Json;

/// The serializer's value of a document after one emit/parse cycle:
/// floats quantized to the printed precision (re-parsed, so a float
/// that prints without a fraction stays `Num` only via its `.3`
/// digits), non-finite floats collapsed to `Null`.
fn quantize(doc: &Json) -> Json {
    match doc {
        Json::Num(x) if !x.is_finite() => Json::Null,
        Json::Num(x) => Json::Num(format!("{x:.3}").parse().expect("printed float reparses")),
        Json::Arr(items) => Json::Arr(items.iter().map(quantize).collect()),
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), quantize(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn assert_round_trips(doc: &Json) {
    let text = doc.to_string();
    let parsed = Json::parse(&text)
        .unwrap_or_else(|e| panic!("serialized document must reparse ({e}): {text}"));
    assert_eq!(parsed, quantize(doc), "round trip diverged for: {text}");
    // Emission is canonical: a second cycle is byte-stable.
    assert_eq!(parsed.to_string(), quantize(doc).to_string());
}

/// A tiny deterministic generator (xorshift64*), so the property runs
/// over hundreds of structured documents without a randomness
/// dependency and failures reproduce exactly.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.0 = s;
        s.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        let len = self.below(8);
        (0..len)
            .map(|_| {
                // Bias toward the characters the escaper must handle.
                match self.below(10) {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\t',
                    4 => '\u{1}',  // control char → 
                    5 => 'λ',      // multi-byte UTF-8
                    6 => '\u{1F}', // last control char
                    _ => (b'a' + (self.below(26) as u8)) as char,
                }
            })
            .collect()
    }

    fn value(&mut self, depth: usize) -> Json {
        let choices = if depth == 0 { 5 } else { 7 };
        match self.below(choices) {
            0 => Json::Null,
            1 => Json::Bool(self.next().is_multiple_of(2)),
            2 => Json::Int(self.next() as i64),
            3 => Json::Num(f64::from_bits(self.next() % (1u64 << 62)) % 1e9),
            4 => Json::Str(self.string()),
            5 => Json::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(4))
                    .map(|i| (format!("{}{i}", self.string()), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

#[test]
fn property_generated_documents_round_trip() {
    let mut gen = Gen(0x9E3779B97F4A7C15);
    for _ in 0..500 {
        assert_round_trips(&gen.value(3));
    }
}

#[test]
fn string_escape_edge_cases_round_trip() {
    for s in [
        "",
        "\"",
        "\\",
        "\\\\\"",
        "\n\t",
        "\u{0}\u{1}\u{1f}",
        "already \\u0041 escaped-looking",
        "mixed λ unicode → arrows",
        "trailing backslash \\",
        "quote\"in\\the\nmiddle",
    ] {
        assert_round_trips(&Json::Str(s.to_string()));
        // Also as an object key, which goes through the same escaper.
        assert_round_trips(&Json::Obj(vec![(s.to_string(), Json::Int(1))]));
    }
}

#[test]
fn number_edge_cases_round_trip() {
    for i in [0, 1, -1, i64::MAX, i64::MIN, 1_000_000_007] {
        assert_round_trips(&Json::Int(i));
    }
    for x in [
        0.0,
        -0.0,
        0.0005, // rounds to 0.001 at the wire precision
        1.5,
        -273.15,
        1e9,
        -1e9,
        123456789.123456, // truncated to .123
        f64::NAN,         // emits as null
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_round_trips(&Json::Num(x));
    }
    // Exponent forms parse (as floats) even though emission never
    // produces them.
    assert_eq!(Json::parse("1e3"), Ok(Json::Num(1000.0)));
    assert_eq!(Json::parse("-2.5E-1"), Ok(Json::Num(-0.25)));
}

#[test]
fn nested_structures_round_trip() {
    assert_round_trips(&Json::Arr(vec![]));
    assert_round_trips(&Json::Obj(vec![]));
    assert_round_trips(&Json::Arr(vec![
        Json::Arr(vec![Json::Arr(vec![Json::Null])]),
        Json::Obj(vec![(
            "deep".into(),
            Json::Obj(vec![("er".into(), Json::Arr(vec![Json::Bool(false)]))]),
        )]),
    ]));
    // Duplicate keys are preserved positionally (first wins on get).
    let dup = Json::Obj(vec![("k".into(), Json::Int(1)), ("k".into(), Json::Int(2))]);
    assert_round_trips(&dup);
    assert_eq!(dup.get("k"), Some(&Json::Int(1)));
}
