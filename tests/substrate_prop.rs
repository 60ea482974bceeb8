//! One property/fuzz suite per shared wire and persistence primitive of
//! `hsbp_collections`: the JSON codec, the record frame, FNV-1a, and the
//! fault-plan directive grammar (through all three plans built on it).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::collections::fnv::{self, Fnv1a};
use hsbp::collections::json::{self, num_u, obj, parse, Json, MAX_DEPTH};
use hsbp::collections::record::{frame, header_seq, read_frame, FrameError, HEADER_LEN};
use hsbp::serve::ServeFaultPlan;
use hsbp::shard::{AttemptSelector, FaultKind, FaultPlan, NetFaultPlan};
use proptest::prelude::*;

/// Characters that exercise every branch of the JSON grammar, plus
/// multi-byte and control characters.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ',', ':', '\\', ' ', '\n', '0', '1', '9', '-', '+', '.', 'e', 'E',
    't', 'r', 'u', 'f', 'a', 'l', 's', 'n', '/', 'b', 'x', 'é', '€', '😀', '\u{1}', '\u{7f}',
];

fn soup(picks: &[u8]) -> String {
    picks
        .iter()
        .map(|&i| ALPHABET[i as usize % ALPHABET.len()])
        .collect()
}

/// A JSON tree drawn from a word stream, at most `depth` containers deep.
/// Numbers are finite (NaN and ±∞ serialize as `null` by design).
fn tree(words: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let w = words.next().unwrap_or(0);
    let text = |w: u64| soup(&w.to_le_bytes()[..(w % 7) as usize]);
    match w % if depth == 0 { 4 } else { 6 } {
        0 => Json::Null,
        1 => Json::Bool(w & 8 == 0),
        2 => {
            let bits = words.next().unwrap_or(0);
            let x = f64::from_bits(bits);
            Json::Num(if x.is_finite() {
                x
            } else {
                (bits >> 20) as f64 - 1e6
            })
        }
        3 => Json::Str(text(w >> 8)),
        4 => Json::Arr((0..w % 4).map(|_| tree(words, depth - 1)).collect()),
        _ => Json::Obj(
            (0..w % 4)
                .map(|i| (text(w >> (8 + i)), tree(words, depth - 1)))
                .collect(),
        ),
    }
}

fn same_json(a: &Json, b: &Json) -> bool {
    match (a, b) {
        // -0.0 prints as the integer 0.
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_json(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_json(x, y))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_parse_never_panics_on_token_soup(picks in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = parse(&soup(&picks));
    }

    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_parse_never_panics_on_damaged_documents(
        words in proptest::collection::vec(any::<u64>(), 1..40),
        cut in any::<usize>(),
        pick in any::<u8>(),
    ) {
        let text = tree(&mut words.into_iter(), 4).to_line();
        let cut = (0..=cut % (text.len() + 1)).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        let _ = parse(&text[..cut]);
        let mut spliced = text[..cut].to_string();
        spliced.push(ALPHABET[pick as usize % ALPHABET.len()]);
        spliced.push_str(&text[cut..]);
        let _ = parse(&spliced);
    }

    #[test]
    fn json_line_and_pretty_roundtrip(words in proptest::collection::vec(any::<u64>(), 1..60)) {
        let value = tree(&mut words.into_iter(), 4);
        let line = value.to_line();
        prop_assert!(!line.contains('\n'), "{}", line);
        prop_assert!(same_json(&parse(&line).unwrap(), &value), "{}", line);
        let pretty = value.to_pretty();
        prop_assert!(same_json(&parse(&pretty).unwrap(), &value), "{}", pretty);
    }

    #[test]
    fn frame_roundtrips_through_read_frame(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        trailing in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut bytes = frame(seq, &payload);
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        prop_assert_eq!(header_seq(&bytes), Some(seq));
        bytes.extend_from_slice(&trailing);
        let (got_seq, got, used) = read_frame(&bytes).unwrap();
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, &payload[..]);
        prop_assert_eq!(used, HEADER_LEN + payload.len());
    }

    #[test]
    fn read_frame_never_panics_and_flags_damage(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..80),
        cut in any::<usize>(),
        pos in any::<usize>(),
        mask_source in 0u8..255,
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = read_frame(&noise);
        let bytes = frame(seq, &payload);
        let keep = cut % bytes.len();
        prop_assert_eq!(read_frame(&bytes[..keep]), Err(FrameError::Truncated));
        let mut damaged = bytes.clone();
        damaged[HEADER_LEN + pos % payload.len()] ^= mask_source.wrapping_add(1);
        prop_assert_eq!(read_frame(&damaged), Err(FrameError::BadChecksum));
    }

    #[test]
    fn fnv_detects_every_single_byte_corruption(
        bytes in proptest::collection::vec(any::<u8>(), 1..100),
        pos in any::<usize>(),
        mask_source in 0u8..255,
    ) {
        let mut damaged = bytes.clone();
        damaged[pos % bytes.len()] ^= mask_source.wrapping_add(1);
        prop_assert_ne!(fnv::hash(&bytes), fnv::hash(&damaged));
    }

    #[test]
    fn fnv_streaming_matches_one_shot(
        bytes in proptest::collection::vec(any::<u8>(), 0..100),
        split in any::<usize>(),
    ) {
        let at = split % (bytes.len() + 1);
        let streamed = Fnv1a::new().bytes(&bytes[..at]).bytes(&bytes[at..]).finish();
        prop_assert_eq!(streamed, fnv::hash(&bytes));
    }

    #[test]
    fn serve_fault_plan_roundtrips(raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let (mask, a, b, c, d) = raw;
        let plan = ServeFaultPlan {
            crash_after_wal: (mask & 1 != 0).then_some(a),
            torn_write: (mask & 2 != 0).then_some(b),
            crash_before_rename: (mask & 4 != 0).then_some(c.max(1)),
            slow_apply: (mask & 8 != 0).then_some((d, a ^ d)),
        };
        prop_assert_eq!(ServeFaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn shard_fault_plan_roundtrips(raw in proptest::collection::vec((0usize..64, 0usize..5, 0u8..3, 0u32..100_000), 0..8)) {
        let mut plan = FaultPlan::none();
        for (shard, attempt, kind, secs) in raw {
            let attempts = if attempt == 0 { AttemptSelector::Every } else { AttemptSelector::On(attempt) };
            let kind = match kind {
                0 => FaultKind::Panic,
                1 => FaultKind::Corrupt,
                _ => FaultKind::Delay(f64::from(secs) / 7.0),
            };
            plan = plan.with(shard, attempts, kind);
        }
        prop_assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn net_fault_plan_roundtrips(
        seed in any::<u64>(),
        rates in proptest::collection::vec(0u32..4, 5),
        delay_rounds in 1u64..9,
        silent in proptest::collection::vec((0usize..16, 0u64..100), 0..3),
        desync in proptest::collection::vec((0usize..16, 0u64..100), 0..3),
    ) {
        let rate = |i: usize| f64::from(rates[i]) / 3.0;
        let plan = NetFaultPlan {
            seed,
            drop: rate(0),
            dup: rate(1),
            reorder: rate(2),
            corrupt: rate(3),
            delay: rate(4),
            // Display omits the delay directive when it cannot fire.
            delay_rounds: if rate(4) > 0.0 { delay_rounds } else { 1 },
            silent,
            desync,
        };
        prop_assert_eq!(NetFaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }
}

#[test]
fn json_reads_protocol_and_report_documents() {
    let line = r#"{"op":"add_edges","edges":[[0,1,2],[3,4,1]],"note":"a\"b"}"#;
    let parsed = parse(line).unwrap();
    assert_eq!(parsed.get("op").and_then(Json::as_str), Some("add_edges"));
    let edges = parsed.get("edges").and_then(Json::as_arr).unwrap();
    assert_eq!(edges.len(), 2);
    assert_eq!(edges[0].as_arr().unwrap()[2].as_u64(), Some(2));
    assert_eq!(parse(&parsed.to_line()).unwrap(), parsed);

    let doc = r#"{"a": [1, -2.5e3, "x\ny\"z"], "b": {"c": true, "d": null}}"#;
    let v = parse(doc).unwrap();
    let a = v.get("a").and_then(Json::as_arr).unwrap();
    assert_eq!(a[1].as_f64(), Some(-2500.0));
    assert_eq!(a[2].as_str(), Some("x\ny\"z"));
    assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
    assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
    assert_eq!(parse(r#""\u00e9\u20ac""#).unwrap(), Json::Str("é€".into()));
}

#[test]
fn json_rejects_garbage() {
    for bad in [
        "",
        "{",
        "[1,2",
        "[1,]",
        "{\"a\":}",
        "{} trailing",
        "\"unterminated",
        "\"bad \\q escape\"",
        "\"\\u12\"",
        "tru",
        "-",
        "{1:2}",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn json_numbers_follow_the_wire_rule() {
    assert_eq!(num_u(1_000_000).to_line(), "1000000");
    assert_eq!(Json::Num(400.0).to_line(), "400");
    assert_eq!(Json::Num(0.5).to_line(), "0.5");
    assert_eq!(Json::Num(-2.25).to_line(), "-2.25");
    assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    assert_eq!(Json::Num(f64::INFINITY).to_pretty(), "null\n");
    assert_eq!(Json::Num(1.5e8).to_line(), "150000000");
    assert_eq!(parse(&Json::Num(1e-7).to_line()).unwrap(), Json::Num(1e-7));
}

#[test]
fn json_pretty_layout() {
    let doc = obj(vec![
        ("schema_version", num_u(4)),
        ("name", Json::Str("g".into())),
        ("threads", Json::Arr(vec![num_u(1), num_u(4)])),
        ("empty", Json::Arr(vec![])),
        ("none", Json::Obj(vec![])),
        (
            "rows",
            Json::Arr(vec![
                obj(vec![("a", Json::Num(0.5)), ("b", Json::Null)]),
                obj(vec![("a", Json::Bool(true))]),
            ]),
        ),
    ]);
    assert_eq!(
        doc.to_pretty(),
        "{\n  \"schema_version\": 4,\n  \"name\": \"g\",\n  \"threads\": [1, 4],\n  \
         \"empty\": [],\n  \"none\": {},\n  \"rows\": [\n    {\n      \"a\": 0.5,\n      \
         \"b\": null\n    },\n    {\n      \"a\": true\n    }\n  ]\n}\n"
    );
    assert_eq!(
        doc.to_line(),
        r#"{"schema_version":4,"name":"g","threads":[1,4],"empty":[],"none":{},"rows":[{"a":0.5,"b":null},{"a":true}]}"#
    );
}

#[test]
fn json_nesting_is_bounded() {
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    // Far past any stack: rejected at the bound, not by overflowing.
    assert!(parse(&"[".repeat(100_000)).is_err());
    assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
}

#[test]
fn json_serve_path_is_the_shared_codec() {
    // `hsbp_serve::json` is the shared module, not a copy of it.
    let v: json::Json = hsbp::serve::json::parse("[1]").unwrap();
    assert_eq!(v, Json::Arr(vec![num_u(1)]));
}

#[test]
fn fnv_known_answers() {
    assert_eq!(fnv::hash(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv::hash(b"foobar"), 0x8594_4171_f739_67e8);
    // The word step folds a whole word in one xor-multiply.
    let w = 0x0123_4567_89ab_cdef_u64;
    assert_eq!(
        Fnv1a::new().word(w).finish(),
        (fnv::OFFSET ^ w).wrapping_mul(fnv::PRIME)
    );
}

#[test]
fn directive_whitespace_around_colon_is_accepted() {
    assert_eq!(
        NetFaultPlan::parse(" seed : 3 , drop : 0.05 ,").unwrap(),
        NetFaultPlan::parse("seed:3,drop:0.05").unwrap()
    );
    assert_eq!(
        FaultPlan::parse("panic : 0@1, delay :1@2=5").unwrap(),
        FaultPlan::parse("panic:0@1,delay:1@2=5").unwrap()
    );
    assert_eq!(
        ServeFaultPlan::parse("torn-write : 4").unwrap(),
        ServeFaultPlan::parse("torn-write:4").unwrap()
    );
    // Whitespace anywhere else is still an error.
    for bad in ["panic:0 @1", "panic:0@ 1", "delay:0@1 =5"] {
        assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
    }
    for bad in ["silent:1 @2", "drop:0.5 x", "dro p:0.5"] {
        assert!(NetFaultPlan::parse(bad).is_err(), "accepted `{bad}`");
    }
    assert!(ServeFaultPlan::parse("torn write:4").is_err());
}
