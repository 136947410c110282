//! Seeded random-mutation harnesses for the parsers that take untrusted
//! input: the rule language (`uniclean::rules::parse_rules`, fed by
//! `uniclean clean --rules` and the daemon's `open`), the wire protocol
//! (`uniclean::server::protocol::parse_request`), and the two layers of the
//! daemon's durable files and replication stream — the frame codec
//! (`uniclean::model::frame`) and the WAL record grammar
//! (`uniclean::server::wal::WalRecord::parse`).
//!
//! Each harness starts from golden inputs that cover the grammar, applies
//! stacked mutations (byte replace / insert / delete / truncate, and word
//! swaps) drawn from a fixed seed, and requires every mutant to come back as
//! `Ok` or as a typed error — never as a panic — and to meet the harness's
//! own invariants. A failure lists the offending inputs, so a reproduction
//! is one copy-paste away.

use std::panic::{catch_unwind, AssertUnwindSafe};

use uniclean::model::frame::{encode_frame, scan_frames, sole_frame, FrameScan};
use uniclean::model::{Json, Schema};
use uniclean::rules::{parse_rules, RuleSet};
use uniclean::server::protocol::parse_request;
use uniclean::server::wal::{batch_record, WalRecord};

/// Mutants per harness.
const MUTANTS: usize = 100_000;

/// SplitMix64: a fixed-seed stream, so every run tries the same mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A byte worth inserting: mostly the grammars' own punctuation and
/// keywords' letters, sometimes digits, whitespace or a non-ASCII byte.
fn interesting_byte(rng: &mut Rng, alphabet: &[u8]) -> u8 {
    match rng.below(8) {
        0 => b"0123456789-."[rng.below(12)],
        1 => b" \t\n\r"[rng.below(4)],
        2 => 0x80 | rng.below(0x80) as u8,
        _ => alphabet[rng.below(alphabet.len())],
    }
}

/// Byte ranges of the identifier-like words (ASCII alphanumeric runs) in
/// `bytes`.
fn words(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, b) in bytes.iter().chain([&b' ']).enumerate() {
        match (b.is_ascii_alphanumeric(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// One to four stacked mutations of `seed`. Most are byte-level (replace /
/// insert / delete / truncate); one kind overwrites a word with another
/// word of the same input, which reaches shapes no byte flip finds in
/// reasonable time — a rule naming an attribute twice, a request
/// repeating a key.
fn mutate(rng: &mut Rng, seed: &[u8], alphabet: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = interesting_byte(rng, alphabet),
            1 => bytes.insert(at, interesting_byte(rng, alphabet)),
            2 if at < bytes.len() => {
                let len = 1 + rng.below(4).min(bytes.len() - at - 1);
                bytes.drain(at..at + len);
            }
            3 => bytes.truncate(at),
            4 => {
                let words = words(&bytes);
                if !words.is_empty() {
                    let to = words[rng.below(words.len())].clone();
                    let from = bytes[words[rng.below(words.len())].clone()].to_vec();
                    bytes.splice(to, from);
                }
            }
            _ => {}
        }
    }
    bytes
}

/// Run `check` over [`MUTANTS`] mutants of `seeds`; fail listing every
/// input that panicked or broke one of `check`'s assertions.
fn run<S: AsRef<[u8]>>(seed: u64, seeds: &[S], alphabet: &[u8], check: impl Fn(&[u8])) {
    let mut rng = Rng(seed);
    let mut failed = Vec::new();
    for golden in seeds {
        let golden = golden.as_ref();
        assert!(
            catch_unwind(AssertUnwindSafe(|| check(golden))).is_ok(),
            "golden input failed: {:?}",
            String::from_utf8_lossy(golden)
        );
    }
    for _ in 0..MUTANTS {
        let golden = seeds[rng.below(seeds.len())].as_ref();
        let input = mutate(&mut rng, golden, alphabet);
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            failed.push(String::from_utf8_lossy(&input).into_owned());
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {MUTANTS} mutants failed, e.g. {:?}",
        failed.len(),
        &failed[..failed.len().min(5)]
    );
}

/// [`run`] for the text parsers: each mutant is decoded lossily, so the
/// parser always sees a `&str`.
fn run_text(seed: u64, seeds: &[&str], alphabet: &[u8], check: impl Fn(&str)) {
    run(seed, seeds, alphabet, |bytes| {
        check(&String::from_utf8_lossy(bytes))
    });
}

const RULE_SEEDS: &[&str] = &[
    "cfd phi1: tran([AC=131] -> [city=Edi])",
    "cfd phi3: tran([city, phn] -> [St, AC, post])\ncfd phi4: tran([FN=Bob] -> [FN=Robert])",
    r#"cfd q: tran([city="New York, NY", AC=212] -> [St="Main St #4"]) # comment"#,
    "md psi: tran[LN] = card[LN] AND tran[city] = card[city] -> tran[FN] <=> card[FN], tran[phn] <=> card[tel]",
    "md l: tran[FN] ~lev(2) card[FN] -> tran[phn] <=> card[tel]",
    "md j: tran[FN] ~jw(0.9) card[FN] AND tran[LN] ~jaro(0.8) card[LN] -> tran[St] <=> card[St]",
    "md q: tran[LN] ~qgram(2,0.5) card[LN] AND tran[AC] = card[AC] -> tran[post] <=> card[zip]",
    "neg psi1: tran[gd] != card[gd] -> tran[FN] <!> card[FN]",
    "cfd a: tran([AC=020] -> [city=Ldn])\nmd m: tran[LN] = card[LN] -> tran[phn] <=> card[tel]\nneg n: tran[gd] != card[gd] -> tran[LN] <!> card[LN]",
];

/// Every mutant of a rule file parses to rules or to a `ParseError`; what
/// parses also assembles into a rule set (or a typed `RuleSetError`)
/// without a panic, as the daemon's `open` does next.
#[test]
fn rule_parser_never_panics_on_mutated_rule_files() {
    let tran = Schema::of_strings(
        "tran",
        &["FN", "LN", "city", "AC", "post", "phn", "gd", "St"],
    );
    let card = Schema::of_strings(
        "card",
        &["FN", "LN", "city", "AC", "zip", "tel", "gd", "St"],
    );
    let alphabet = b"[](),:=~<>!-\"#_ acdfgjlmnqrtvwABCFLNPSTWcardtranphnpost";
    run_text(0x5eed_0001, RULE_SEEDS, alphabet, |text| {
        if let Ok(parsed) = parse_rules(text, &tran, Some(&card)) {
            let _ = RuleSet::try_new(
                tran.clone(),
                Some(card.clone()),
                parsed.cfds,
                parsed.positive_mds,
                parsed.negative_mds,
            );
        }
    });
}

const REQUEST_SEEDS: &[&str] = &[
    r#"{"op":"open","relation":"tran","table":"data","attrs":["K","A","B"],"rules":"cfd fd: data([K] -> [A])\nmd m: data[K] = m[K] -> data[B] <=> m[B]","master":{"table":"m","attrs":["K","B"],"rows":[["k0","b1"],["k1",null]]},"phase":"full","default_cf":0.5,"eta":0.8,"delta_entropy":0.7,"threads":1}"#,
    r#"{"op":"open","relation":"r","attrs":["a"],"rules":"","phase":"ce"}"#,
    r#"{"op":"ingest","relation":"tran","rows":[["k0",["a1",0.9],null],["k1","a2","b2"]],"seq":7}"#,
    r#"{"op":"check","relation":"tran","tuple":3}"#,
    r#"{"op":"check","relation":"tran"}"#,
    r#"{"op":"dump","relation":"tran"}"#,
    r#"{"op":"stats","relation":"tran"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"ping"}"#,
    r#"{"op":"health"}"#,
    r#"{"op":"close","relation":"tran"}"#,
    r#"{"op":"shutdown"}"#,
    r#"{"op":"hello","proto_version":2}"#,
    r#"{"op":"promote"}"#,
    r#"{"op":"repl_list"}"#,
    r#"{"op":"repl_fetch","relation":"tran","after":12,"max_frames":64}"#,
    r#"{"op":"repl_ack","relation":"tran","seq":1.5e1}"#,
];

/// Every mutant of a request line parses to a request or to an error
/// response carrying a machine-readable `code`.
#[test]
fn request_parser_never_panics_on_mutated_lines() {
    let alphabet = b"{}[]:,\"\\.-+eE0123456789 truefalsnopigcdhkmwx_";
    run_text(0x5eed_0002, REQUEST_SEEDS, alphabet, |line| {
        if let Err(resp) = parse_request(line) {
            assert!(
                resp.get("code").and_then(Json::as_str).is_some(),
                "untyped error {resp} for {line:?}"
            );
        }
    });
}

/// Golden WAL records: an `open` and `batch`es with and without the
/// exactly-once and replication markers, over rows with nulls, explicit
/// confidences and escapes.
fn wal_records() -> Vec<WalRecord> {
    let json = |text: &str| Json::parse(text).expect("golden JSON");
    vec![
        WalRecord::Open {
            spec: json(REQUEST_SEEDS[0]),
        },
        WalRecord::Open {
            spec: json(REQUEST_SEEDS[1]),
        },
        batch_record(
            1,
            json(r#"[["k0",["a1",0.9],null],["k1","a2","b2"]]"#),
            None,
            None,
        ),
        batch_record(
            7,
            json(r#"[[["131",0.5],[null,0]],[["Edi \"N\"",1],["\u00e9",0.25]]]"#),
            Some(41),
            Some(9),
        ),
        batch_record(8, json("[]"), None, Some(12)),
    ]
}

/// Every mutant of a WAL frame payload parses to a record or to `None`,
/// and a parsed record renders to a payload that parses back to it.
#[test]
fn wal_record_parser_never_panics_on_mutated_payloads() {
    let seeds: Vec<String> = wal_records().iter().map(WalRecord::render).collect();
    let alphabet = b"{}[]:,\".-eE0123456789 kindopenspecbatchseqrowsclient_repl";
    run(0x5eed_0003, &seeds, alphabet, |payload| {
        if let Some(record) = WalRecord::parse(payload) {
            let again = WalRecord::parse(record.render().as_bytes());
            assert_eq!(again, Some(record), "render does not parse back");
        }
    });
}

/// Every mutant of a frame log scans to a valid prefix: no longer than the
/// input, ending exactly where the torn tail starts, re-encoding to the
/// same bytes; and `sole_frame` accepts exactly the one-frame images.
#[test]
fn frame_scanner_never_panics_on_mutated_logs() {
    let payloads: Vec<String> = wal_records().iter().map(WalRecord::render).collect();
    let log = |parts: &[&str]| {
        let mut out = Vec::new();
        for p in parts {
            encode_frame(p.as_bytes(), &mut out);
        }
        out
    };
    let seeds = vec![
        log(&[&payloads[0]]),
        log(&[&payloads[2]]),
        log(&[""]),
        log(&[&payloads[1], &payloads[3], &payloads[4]]),
        log(&[&payloads[0], "", &payloads[2]]),
    ];
    let alphabet = b"\x00\x01\x0c\xff{}[]:,\"0123456789 kindbatchrows";
    run(0x5eed_0004, &seeds, alphabet, |bytes| {
        let (frames, torn) = scan_frames(bytes);
        let mut scan = FrameScan::new(bytes);
        while scan.next_frame().is_some() {}
        let valid = scan.valid_len();
        assert!(valid <= bytes.len());
        assert_eq!(scan.torn(), torn);
        assert_eq!(torn.map_or(bytes.len(), |t| t.offset), valid);
        let mut again = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut again);
        }
        assert_eq!(again, &bytes[..valid]);
        assert_eq!(
            sole_frame(bytes),
            (frames.len() == 1 && torn.is_none()).then(|| frames[0])
        );
    });
}
