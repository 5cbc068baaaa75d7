//! Differential tests of the traceroute row decoder and writer against
//! their serde oracles: on every input, generated or mutated,
//! `decode_last_mile(b)` must give exactly `decode_with_serde(b)`
//! projected with `LastMile::of` — the same row (RTTs compared bit for
//! bit) or the same error kind and detail. `write_traceroute` must write
//! exactly the bytes serde writes for `AtlasTraceroute::from_model`. And
//! the row pass must accept every canonical written record, so the
//! decoder never silently runs at serde's speed.
//!
//! Each case draws one `u64` seed and generates everything from it; a
//! failure prints that seed and the input (the vendored proptest does
//! not shrink).

use lastmile_atlas::json::{
    decode_last_mile, decode_last_mile_fast, decode_with_serde, to_atlas_json, write_traceroute,
    AtlasTraceroute,
};
use lastmile_atlas::{Hop, LastMile, ProbeId, Reply, TracerouteResult};
use lastmile_timebase::UnixTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::IpAddr;

/// A JSON document with numbers kept as their exact tokens, so a case
/// can write any number spelling the wire allows.
#[derive(Clone, Debug)]
enum J {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

fn from_value(v: &serde_json::Value) -> J {
    use serde_json::Value;
    match v {
        Value::Null => J::Null,
        Value::Bool(b) => J::Bool(*b),
        Value::Number(_) => J::Num(v.to_string()),
        Value::String(s) => J::Str(s.clone()),
        Value::Array(items) => J::Arr(items.iter().map(from_value).collect()),
        Value::Object(fields) => J::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), from_value(v)))
                .collect(),
        ),
    }
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Addresses a home path shows before the ISP edge: private, CGN,
/// link-local and unique-local ones.
const PRIVATE: &[&str] = &[
    "192.168.1.1",
    "10.0.0.1",
    "172.16.5.4",
    "100.64.0.1",
    "169.254.1.1",
    "fd00::1",
    "fe80::1",
];

fn ip(rng: &mut SmallRng) -> IpAddr {
    if rng.gen_bool(0.3) {
        pick(rng, PRIVATE).parse().unwrap()
    } else if rng.gen_bool(0.8) {
        IpAddr::from(rng.gen::<u32>().to_be_bytes())
    } else {
        let mut octets = [0u8; 16];
        for o in &mut octets {
            *o = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(0..=255)
            };
        }
        IpAddr::from(octets)
    }
}

fn rtt(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0.0..200.0),
        1 => f64::from(rng.gen_range(0u32..500)),
        2 => rng.gen_range(0.0..1e-3),
        _ => f64::from_bits(rng.gen::<u64>() >> 2), // any finite positive
    }
}

/// A random traceroute: hop and reply counts vary, some replies time out.
fn traceroute(rng: &mut SmallRng) -> TracerouteResult {
    let hops = (0..rng.gen_range(0..12))
        .map(|i| {
            let addr = ip(rng);
            Hop {
                hop: rng.gen_range(1u8..=255).min(i + 1),
                replies: (0..rng.gen_range(0..5))
                    .map(|_| match rng.gen_range(0..5) {
                        0 => Reply::timeout(),
                        1 => Reply::answered(ip(rng), rtt(rng)),
                        _ => Reply::answered(addr, rtt(rng)),
                    })
                    .collect(),
            }
        })
        .collect();
    TracerouteResult {
        probe: ProbeId(rng.gen()),
        msm_id: rng.gen(),
        timestamp: UnixTime::from_secs(rng.gen_range(-1_000_000i64..4_000_000_000)),
        dst: ip(rng),
        src: ip(rng),
        hops,
    }
}

fn canonical(rng: &mut SmallRng) -> (TracerouteResult, String) {
    let tr = traceroute(rng);
    let json = to_atlas_json(&tr, ip(rng));
    (tr, json)
}

/// The property: `write_traceroute` appends exactly the bytes serde
/// writes for the wire-shaped document. `case` names the input on
/// failure (a seed, or an edge case's label).
fn assert_writes_as_serde(case: &str, tr: &TracerouteResult, public_addr: IpAddr) {
    let want = serde_json::to_string(&AtlasTraceroute::from_model(tr, public_addr)).unwrap();
    let mut got = String::from("kept\n");
    write_traceroute(tr, public_addr, &mut got);
    assert_eq!(
        got.strip_prefix("kept\n"),
        Some(want.as_str()),
        "{case}: writer and serde disagree"
    );
}

/// Number spellings serde reads differently or not at all.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "7",
    "-3",
    "255",
    "256",
    "300",
    "-1",
    "4294967296",
    "1.0",
    "-0.0",
    "1e2",
    "1E2",
    "2.5e-3",
    "1e400",
    "-1e400",
    "18446744073709551616",
    "-9223372036854775809",
    "007",
    "1.",
    ".5",
    "-",
    "1-2",
    "1e",
    "+1",
    "0.1e+5",
    "123456789012345678901234567890",
    "4294967295",
    "18446744073709551615",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "1234567890123456789",
    "0000000000000000000028",
    "00",
];

/// Strings that are not addresses, or only nearly.
const STRINGS: &[&str] = &[
    "*",
    "",
    "bogus",
    "192.168.1.1 ",
    "1.2.3",
    "::1",
    "traceroute",
    "ping",
    "ICMP",
    "é",
    "010.0.0.1",
    "01.2.3.4",
    "1.2.3.256",
    "1.2.3.4.5",
    "1..2.3",
    "1.2.3.",
    "::ffff:1.2.3.4",
];

fn random_value(rng: &mut SmallRng, depth: u32) -> J {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => J::Null,
        1 => J::Bool(rng.gen()),
        2 => J::Num(pick(rng, NUMBERS).to_string()),
        3 => J::Str(pick(rng, STRINGS).to_string()),
        4 => J::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => J::Obj(
            (0..rng.gen_range(0..4))
                .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The `n`-th object of `doc` in depth-first order, if there is one.
fn nth_object<'a>(doc: &'a mut J, n: &mut usize) -> Option<&'a mut Vec<(String, J)>> {
    match doc {
        J::Obj(fields) => {
            if *n == 0 {
                return Some(fields);
            }
            *n -= 1;
            fields.iter_mut().find_map(|(_, v)| nth_object(v, n))
        }
        J::Arr(items) => items.iter_mut().find_map(|v| nth_object(v, n)),
        _ => None,
    }
}

fn count_objects(doc: &J) -> usize {
    match doc {
        J::Obj(fields) => 1 + fields.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        J::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// One to three structural edits, each on a random object of the
/// record: reordered, unknown, duplicate or missing keys, null and
/// odd-typed values, and other number spellings for `rtt`. Some keep
/// the record valid, some make it a typed error.
fn vary(rng: &mut SmallRng, doc: &mut J) {
    for _ in 0..rng.gen_range(1..=3) {
        let mut n = rng.gen_range(0..count_objects(doc));
        let fields = nth_object(doc, &mut n).expect("object index in range");
        let member = (!fields.is_empty()).then(|| rng.gen_range(0..fields.len()));
        match (rng.gen_range(0..6), member) {
            (0, _) => {
                for i in (1..fields.len()).rev() {
                    fields.swap(i, rng.gen_range(0..=i));
                }
            }
            (1, _) | (_, None) => {
                let name = pick(rng, &["lts", "group_id", "extra", "k"]).to_string();
                let value = random_value(rng, 3);
                fields.insert(rng.gen_range(0..=fields.len()), (name, value));
            }
            (2, Some(i)) => {
                let (key, mut value) = fields[i].clone();
                if rng.gen_bool(0.5) {
                    value = random_value(rng, 1);
                }
                fields.insert(rng.gen_range(0..=fields.len()), (key, value));
            }
            (3, Some(i)) => {
                fields[i].1 = match rng.gen_range(0..4) {
                    0 => J::Null,
                    1 => J::Num(pick(rng, NUMBERS).to_string()),
                    2 => J::Str(pick(rng, STRINGS).to_string()),
                    _ => random_value(rng, 2),
                }
            }
            (4, Some(i)) => drop(fields.remove(i)),
            (_, Some(_)) => {
                let token = J::Num(pick(rng, NUMBERS).to_string());
                match fields.iter_mut().find(|(k, _)| k == "rtt") {
                    Some((_, v)) => *v = token,
                    None => fields.push(("rtt".into(), token)),
                }
            }
        }
    }
}

/// How much noise [`write`] adds, as chances: a whitespace run between
/// tokens, a string character written as a `\u` escape, and a stray
/// byte serde refuses (a form feed between tokens, a raw tab inside a
/// string).
#[derive(Clone, Copy)]
struct Noise {
    ws: f64,
    escape: f64,
    stray: f64,
}

fn noise(rng: &mut SmallRng) -> Noise {
    Noise {
        ws: *pick(rng, &[0.0, 0.0, 0.02, 0.2]),
        escape: *pick(rng, &[0.0, 0.0, 0.002, 0.02]),
        stray: *pick(rng, &[0.0, 0.0, 0.0, 0.002]),
    }
}

fn write(rng: &mut SmallRng, doc: &J, noise: Noise, out: &mut String) {
    let ws = |rng: &mut SmallRng, out: &mut String| {
        while rng.gen_bool(noise.ws) {
            out.push(*pick(rng, &[' ', '\t', '\n', '\r']));
        }
        if rng.gen_bool(noise.stray) {
            out.push('\u{c}');
        }
    };
    ws(rng, out);
    match doc {
        J::Null => out.push_str("null"),
        J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        J::Num(tok) => out.push_str(tok),
        J::Str(s) => write_str(rng, s, noise, out),
        J::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(rng, item, noise, out);
            }
            ws(rng, out);
            out.push(']');
        }
        J::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                write_str(rng, key, noise, out);
                ws(rng, out);
                out.push(':');
                write(rng, value, noise, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

fn write_str(rng: &mut SmallRng, s: &str, noise: Noise, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if rng.gen_bool(noise.stray) {
            out.push('\t');
        }
        match c {
            c if rng.gen_bool(noise.escape) => out.push_str(&format!("\\u{:04x}", c as u32)),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Byte-level damage: flips, insertions, truncation, trailing bytes.
fn damage(rng: &mut SmallRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..4) {
        if bytes.is_empty() {
            bytes.push(b'{');
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..5) {
            0 => bytes[at] ^= 1u8 << rng.gen_range(0..8),
            1 => bytes.insert(at, *pick(rng, b"{}[]\",:\\ -.0e9nx\x00\xff\xc3")),
            2 => bytes.truncate(at),
            3 => {
                let tail: &[&[u8]] = &[b" \n", b"x", b"}", b"\x0c", b" {}"];
                bytes.extend_from_slice(pick::<&[u8]>(rng, tail));
            }
            _ => bytes[at] = rng.gen_range(0..=255),
        }
    }
}

/// A canonical record with one to three structural edits, written with
/// random noise.
fn varied(seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (_, json) = canonical(&mut rng);
    let mut doc = from_value(&serde_json::from_str(&json).unwrap());
    vary(&mut rng, &mut doc);
    let mut out = String::new();
    let noise = noise(&mut rng);
    write(&mut rng, &doc, noise, &mut out);
    out.into_bytes()
}

/// A canonical or varied record with byte-level damage.
fn damaged(seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (_, json) = canonical(&mut rng);
    let mut bytes = if rng.gen_bool(0.5) {
        varied(rng.gen())
    } else {
        json.into_bytes()
    };
    damage(&mut rng, &mut bytes);
    bytes
}

/// The property: the row decoder answers exactly as serde's model
/// projected with `LastMile::of`, row or error kind and detail (compared
/// through `Debug`, so `-0.0` and `0.0` differ).
fn assert_projects_the_model(case: &str, bytes: &[u8]) {
    let got = decode_last_mile(bytes);
    let want = decode_with_serde(bytes).map(|t| LastMile::of(&t));
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{case}: last-mile decoder and projected serde model disagree on {:?}",
        String::from_utf8_lossy(bytes)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn canonical_records_project_as_the_model(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (tr, json) = canonical(&mut rng);
        let case = format!("seed {seed:#x}");
        assert_projects_the_model(&case, json.as_bytes());
        prop_assert_eq!(decode_last_mile(json.as_bytes()), Ok(LastMile::of(&tr)), "{}", case);
    }

    #[test]
    fn varied_records_project_as_the_model(seed in any::<u64>()) {
        assert_projects_the_model(&format!("seed {seed:#x}"), &varied(seed));
    }

    #[test]
    fn damaged_records_project_as_the_model(seed in any::<u64>()) {
        assert_projects_the_model(&format!("seed {seed:#x}"), &damaged(seed));
    }

    #[test]
    fn fast_pass_accepts_every_canonical_record(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (tr, json) = canonical(&mut rng);
        let fast = decode_last_mile_fast(json.as_bytes());
        prop_assert!(fast.is_some(), "seed {seed:#x}: row pass declined {json}");
        prop_assert_eq!(fast, Some(LastMile::of(&tr)), "seed {:#x}", seed);
    }

    #[test]
    fn written_records_are_serdes_bytes(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tr = traceroute(&mut rng);
        assert_writes_as_serde(&format!("seed {seed:#x}"), &tr, ip(&mut rng));
    }
}

/// The generators must keep reaching every outcome, or the properties
/// above would pass vacuously: records the row pass decodes, records
/// it declines that serde decodes, and records serde rejects.
#[test]
fn generators_reach_every_outcome() {
    // (generator, minimum per outcome in 1000 seeds: fast, fallback ok,
    // rejected). Damage mostly breaks the JSON, as it should.
    type Generator = fn(u64) -> Vec<u8>;
    let generators: [(&str, Generator, [u32; 3]); 2] = [
        ("varied", varied, [100, 100, 200]),
        ("damaged", damaged, [10, 1, 500]),
    ];
    for (name, make, min) in generators {
        let mut seen = [0u32; 3];
        for seed in 0..1000 {
            let bytes = make(seed);
            let outcome = match (decode_last_mile_fast(&bytes), decode_with_serde(&bytes)) {
                (Some(_), _) => 0,
                (None, Ok(_)) => 1,
                (None, Err(_)) => 2,
            };
            seen[outcome] += 1;
        }
        eprintln!("{name}: [fast, fallback ok, rejected] = {seen:?}");
        assert!(
            seen.iter().zip(min).all(|(n, m)| *n >= m),
            "{name}: {seen:?} below {min:?}"
        );
    }
    // The canonical generator must reach every row shape the projection
    // distinguishes: no edge, an edge without a private hop before it,
    // and both hops (rows with RTTs).
    let mut shapes = [0u32; 3];
    for seed in 0..1000 {
        let (tr, _) = canonical(&mut SmallRng::seed_from_u64(seed));
        let row = LastMile::of(&tr);
        shapes[match (row.edge, row.rtts.is_empty()) {
            (None, _) => 0,
            (Some(_), true) => 1,
            (Some(_), false) => 2,
        }] += 1;
    }
    eprintln!("canonical rows: [no edge, edge only, both hops] = {shapes:?}");
    assert!(shapes.iter().all(|&n| n >= 100), "{shapes:?}");
}

/// A record around `hops`, the text of its `result` array.
fn with_hops(hops: &str) -> String {
    format!(
        r#"{{"fw":1,"af":4,"dst_addr":"1.2.3.4","src_addr":"10.0.0.1","from":"1.2.3.5","msm_id":5,"prb_id":6,"timestamp":7,"proto":"ICMP","type":"traceroute","result":[{hops}]}}"#
    )
}

/// A hop of `n` replies from `from`, each with RTT token `rtt`.
fn hop_json(hop: u8, from: &str, rtts: &[&str]) -> String {
    let replies: Vec<String> = rtts
        .iter()
        .map(|rtt| format!(r#"{{"from":"{from}","rtt":{rtt},"size":28,"ttl":64}}"#))
        .collect();
    format!(r#"{{"hop":{hop},"result":[{}]}}"#, replies.join(","))
}

#[test]
fn last_mile_edge_cases_project_as_the_model() {
    let private = |rtts: &[&str]| hop_json(1, "192.168.1.1", rtts);
    let public = |rtts: &[&str]| hop_json(2, "20.0.0.1", rtts);
    let later = |rtts: &[&str]| hop_json(3, "20.0.1.1", rtts);
    let many: Vec<&str> = (0..300).map(|i| ["1.5", "2", "0.25"][i % 3]).collect();
    let mut cases: Vec<(String, String)> = vec![
        (
            "300 private replies".into(),
            with_hops(&format!("{},{}", private(&many), public(&["9.5", "9"]))),
        ),
        (
            "300 public replies".into(),
            with_hops(&format!("{},{}", private(&["1"]), public(&many))),
        ),
        (
            "duplicate rtt".into(),
            with_hops(&format!(
                r#"{},{{"hop":2,"result":[{{"from":"20.0.0.1","rtt":5,"rtt":6}}]}}"#,
                private(&["1"])
            )),
        ),
        (
            "no private hop".into(),
            with_hops(&format!("{},{}", public(&["1", "2"]), later(&["3"]))),
        ),
        (
            "private hops only".into(),
            with_hops(&format!(
                "{},{}",
                private(&["1"]),
                hop_json(2, "10.1.1.1", &["2"])
            )),
        ),
        ("no public hop: no hops".into(), with_hops("")),
        (
            "no public hop: timeouts".into(),
            with_hops(&format!(
                r#"{},{{"hop":2,"result":[{{"x":"*"}},{{"x":"*"}}]}}"#,
                private(&["1"])
            )),
        ),
    ];
    // RTT spellings the plain form excludes, in each kept hop and past
    // the edge, where they are parsed only to be checked.
    for rtt in ["1e400", "-0", "2.", "3E1", "-0.0", "1e", "-", "007"] {
        for (at, hops) in [
            (
                "private",
                format!("{},{}", private(&[rtt, "1"]), public(&["5"])),
            ),
            (
                "public",
                format!("{},{}", private(&["1"]), public(&["5", rtt])),
            ),
            (
                "past the edge",
                format!("{},{},{}", private(&["1"]), public(&["5"]), later(&[rtt])),
            ),
        ] {
            cases.push((format!("rtt {rtt} in the {at} hop"), with_hops(&hops)));
        }
    }
    // An unparsable and an escaped `from`, before and after the edge: the
    // first makes a timeout wherever it is, the second makes the row
    // pass decline.
    for from in ["bogus", r"20.0.0.\u0031", "192.168.1.1 "] {
        let odd = |hop: u8| hop_json(hop, from, &["4"]);
        for (at, hops) in [
            (
                "before the edge",
                format!("{},{},{}", private(&["1"]), odd(2), public(&["5"])),
            ),
            ("at the edge", format!("{},{}", private(&["1"]), odd(2))),
            (
                "past the edge",
                format!("{},{},{}", private(&["1"]), public(&["5"]), odd(3)),
            ),
        ] {
            cases.push((format!("from {from:?} {at}"), with_hops(&hops)));
        }
    }
    for (case, json) in &cases {
        assert_projects_the_model(case, json.as_bytes());
    }
    let row = |name: &str| {
        let (_, json) = cases.iter().find(|(case, _)| case == name).expect(name);
        decode_last_mile(json.as_bytes()).expect(name)
    };
    // Counts past 255 are kept whole.
    let many_private = row("300 private replies");
    assert_eq!((many_private.private, many_private.rtts.len()), (300, 302));
    assert_eq!(row("300 public replies").public_rtts().len(), 300);
    // `-0` in a kept hop is +0.0, as serde reads an integer token; `1e400`
    // is infinite, as serde's `f64` parse reads it.
    assert_eq!(
        row("rtt -0 in the public hop").public_rtts()[1].to_bits(),
        0
    );
    assert_eq!(
        row("rtt 1e400 in the private hop").private_rtts()[0],
        f64::INFINITY
    );
    // An escaped edge address is the edge all the same.
    assert_eq!(
        row(r#"from "20.0.0.\\u0031" at the edge"#).edge,
        Some("20.0.0.1".parse().unwrap())
    );
}

/// Every integer field of the record, head, hop and reply, at its
/// maximum, one past it, with leading zeros, as `-0` and after
/// whitespace; the reply fields in both compact key orders. The row
/// decoder must answer as serde does, and its pass must take every
/// spelling serde accepts itself.
#[test]
fn integer_fields_decode_as_serde_does() {
    let record = r#"{"fw":FW,"af":AF,"dst_addr":"1.2.3.4","src_addr":"10.0.0.1","from":"1.2.3.5","msm_id":MSM,"prb_id":PRB,"timestamp":TS,"proto":"ICMP","type":"traceroute","result":[{"hop":1,"result":[{"from":"192.168.1.1","rtt":1.5,"size":28,"ttl":64}]},{"hop":HOP,"result":[REPLY]}]}"#;
    let orders = [
        (
            "crate order",
            r#"{"from":"20.0.0.1","rtt":2.5,"size":SIZE,"ttl":TTL}"#,
        ),
        (
            "Atlas order",
            r#"{"from":"20.0.0.1","ttl":TTL,"size":SIZE,"rtt":2.5}"#,
        ),
    ];
    let fields = [
        ("fw", "FW", "4294967295", "4294967296"),
        ("af", "AF", "255", "256"),
        ("msm_id", "MSM", "4294967295", "4294967296"),
        ("prb_id", "PRB", "4294967295", "4294967296"),
        (
            "timestamp",
            "TS",
            "9223372036854775807",
            "9223372036854775808",
        ),
        ("hop", "HOP", "255", "256"),
        ("size", "SIZE", "4294967295", "4294967296"),
        ("ttl", "TTL", "255", "256"),
    ];
    let defaults = [
        ("FW", "5080"),
        ("AF", "4"),
        ("MSM", "5"),
        ("PRB", "6"),
        ("TS", "7"),
        ("HOP", "2"),
        ("SIZE", "28"),
        ("TTL", "62"),
    ];
    let fill = |reply: &str, slot: &str, value: &str| {
        let json = record.replace("REPLY", reply).replace(slot, value);
        defaults
            .iter()
            .fold(json, |json, (slot, default)| json.replace(slot, default))
    };
    for (order, reply) in orders {
        for (field, slot, max, over) in fields {
            let mut spellings = vec![
                ("max", max, true),
                ("max + 1", over, false),
                ("leading zeros", "0007", true),
                ("-0", "-0", true),
                ("whitespace first", " \t\n\r7", true),
            ];
            if field == "timestamp" {
                spellings.push(("min", "-9223372036854775808", true));
                spellings.push(("min - 1", "-9223372036854775809", false));
            }
            for (name, value, accepted) in spellings {
                let case = format!("{field} {name} ({order})");
                let json = fill(reply, slot, value);
                assert_projects_the_model(&case, json.as_bytes());
                assert_eq!(
                    decode_last_mile_fast(json.as_bytes()).is_some(),
                    accepted,
                    "{case}: {json}"
                );
                assert_eq!(
                    decode_with_serde(json.as_bytes()).is_ok(),
                    accepted,
                    "{case}: {json}"
                );
            }
        }
    }
}

/// A hand-written fixture in the public RIPE Atlas traceroute result
/// format (<https://atlas.ripe.net/docs/apis/result-format/>): reply keys
/// in Atlas order (`from, ttl, size, rtt`), `lts`, `endtime` and
/// `paris_id`, `err`, `late`, `dup` and `icmpext` members, 3-decimal
/// RTTs, and IPv4 and IPv6 paths with and without a last-mile span.
const ATLAS_FIXTURE: &str = include_str!("fixtures/atlas_result_format.jsonl");

#[test]
fn atlas_format_fixture_decodes_the_same_through_both_passes() {
    let mut spans = 0;
    for (i, line) in ATLAS_FIXTURE.lines().enumerate() {
        let case = format!("fixture line {}", i + 1);
        assert_projects_the_model(&case, line.as_bytes());
        let row = decode_last_mile(line.as_bytes()).expect(&case);
        // Unknown members are skipped, never declined: the row pass
        // takes every record itself.
        assert!(
            decode_last_mile_fast(line.as_bytes()).is_some(),
            "{case}: row pass declined it"
        );
        spans += usize::from(!row.rtts.is_empty());
    }
    assert_eq!(spans, 3, "three records have a private hop before the edge");
    // The first record's rows, by hand: the CGN hop (one timeout) is the
    // last private hop, and the edge's three 3-decimal RTTs follow.
    let row = decode_last_mile(ATLAS_FIXTURE.lines().next().unwrap().as_bytes()).unwrap();
    assert_eq!(row.edge, Some("81.2.69.142".parse().unwrap()));
    assert_eq!(row.rtts, vec![7.118, 6.904, 9.872, 10.013, 9.551]);
    assert_eq!(row.private, 2);
}

#[test]
fn edge_cases_decode_as_serde_does() {
    let mut rng = SmallRng::seed_from_u64(1);
    let (_, json) = canonical(&mut rng);
    // The RTT sits in the first public hop, after a private one, so the
    // row keeps it.
    let base = r#"{"fw":1,"af":4,"dst_addr":"1.2.3.4","src_addr":"10.0.0.1","from":"1.2.3.5","msm_id":5,"prb_id":6,"timestamp":7,"proto":"ICMP","type":"traceroute","result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1}]},{"hop":2,"result":[{"from":"1.2.3.4","rtt":RTT}]}]}"#;
    let mut cases: Vec<String> = NUMBERS.iter().map(|n| base.replace("RTT", n)).collect();
    cases.extend([
        base.replace("RTT", "1.5")
            .replace("\"ICMP\"", "\"IC\\u004dP\""),
        base.replace("RTT", "1.5")
            .replace("\"fw\":1", "\"fw\":1,\"fw\":2"),
        base.replace("RTT", "1.5").replace("traceroute", "ping"),
        base.replace("RTT", "1.5")
            .replace("1.2.3.4\",\"src", "nope\",\"src"),
        base.replace("RTT", "1.5")
            .replace("\"hop\":1", "\"hop\":300"),
        base.replace("RTT", "null"),
        base.replace("RTT", "1.5") + " \t\r\n",
        base.replace("RTT", "1.5") + "\u{c}",
        base.replace("RTT", "1.5") + "{}",
        format!(
            "{{\"deep\":{}{}}}",
            "[".repeat(100_000),
            "]".repeat(100_000)
        ),
        json.replacen(
            '{',
            &format!("{{\"deep\":{}1{},", "[".repeat(40), "]".repeat(40)),
            1,
        ),
        json.replacen(
            '{',
            &format!("{{\"deep\":{}1{},", "[".repeat(200), "]".repeat(200)),
            1,
        ),
        json.replacen('{', "{\"lts\":nul,", 1),
        json.replacen('{', "{\"lts\":truex,", 1),
        json.replacen('{', "{\"lts\":[fals],", 1),
        json.replacen('{', "{\"lts\":nuLL,", 1),
        json.replacen('{', "{\"lts\":[tRUE],", 1),
        String::new(),
        "[]".into(),
    ]);
    for (i, case) in cases.iter().enumerate() {
        assert_projects_the_model(&format!("edge case {i}"), case.as_bytes());
    }
    let public_rtt = |rtt: &str| {
        let row = decode_last_mile(base.replace("RTT", rtt).as_bytes()).unwrap();
        row.public_rtts()[0].to_bits()
    };
    // `-0` as an integer token is +0.0, as serde reads it.
    assert_eq!(public_rtt("-0"), 0);
    // A fraction-form `-0.0` keeps its sign.
    assert_eq!(public_rtt("-0.0"), (-0.0f64).to_bits());
}

#[test]
fn edge_cases_write_as_serde_does() {
    let addr = |s: &str| s.parse::<IpAddr>().unwrap();
    let (v4, v6, mapped) = (
        addr("192.0.2.1"),
        addr("2001:db8::1"),
        addr("::ffff:192.0.2.7"),
    );
    let rtts = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        1e-7,
        0.1,
        1e15,
        1e16,
        1e21,
        f64::MAX,
        -3.25,
    ];
    let record = |dst: IpAddr, src: IpAddr, hops: Vec<Hop>| TracerouteResult {
        probe: ProbeId(u32::MAX),
        msm_id: 0,
        timestamp: UnixTime::from_secs(-1),
        dst,
        src,
        hops,
    };
    // Every RTT edge, both half-answered shapes and a timeout, at TTL
    // edges: hop 0, the saturation point 63/64 and the top of `u8`.
    let replies: Vec<Reply> = rtts
        .iter()
        .map(|&rtt| Reply::answered(v4, rtt))
        .chain([
            Reply::timeout(),
            Reply {
                from: Some(v6),
                rtt_ms: None,
            },
            Reply {
                from: None,
                rtt_ms: Some(1.5),
            },
            Reply::answered(mapped, 2.5),
        ])
        .collect();
    let hops: Vec<Hop> = [0u8, 1, 62, 63, 64, 65, 200, 255]
        .iter()
        .map(|&hop| Hop {
            hop,
            replies: replies.clone(),
        })
        .collect();
    let empty_replies = vec![Hop {
        hop: 1,
        replies: Vec::new(),
    }];
    let cases = [
        ("rtt and ttl edges", record(v4, v4, hops.clone()), v4),
        ("no hops", record(v4, v4, Vec::new()), v4),
        ("empty reply list", record(v4, v4, empty_replies), v4),
        ("ipv6", record(v6, v6, hops.clone()), v6),
        ("ipv4-mapped", record(mapped, mapped, hops), mapped),
        ("mixed families", record(v6, v4, Vec::new()), mapped),
    ];
    for (name, tr, public_addr) in &cases {
        assert_writes_as_serde(name, tr, *public_addr);
    }
}
