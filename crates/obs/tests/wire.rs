//! The trace wire format, pinned by `tests/golden/trace_wire.jsonl`: one
//! line per event below, covering every `EventKind` variant and every
//! enum value the schema can carry, with `0`, `u64::MAX`, `u32::MAX` and
//! both `i64` extremes in the integer fields. The file was written by the
//! serde encoder this codec replaced, so it also pins that the bytes did
//! not change. Below it: a property round trip, the language the parser
//! accepts, and a table of hostile inputs it must reject without a panic.

use proptest::prelude::*;
use slsb_obs::trace_view::parse_jsonl_strict;
use slsb_obs::wire::{parse_event, write_event, WireError, MAX_DEPTH};
use slsb_obs::{Component, EventKind, FaultKind, SpanOutcome, SpawnCause, TraceEvent};
use slsb_sim::{SimDuration, SimTime};
use std::ops::Range;

const FIXTURE: &str = include_str!("../../../tests/golden/trace_wire.jsonl");

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn d(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

fn ev(at: u64, kind: EventKind) -> TraceEvent {
    TraceEvent { at: t(at), kind }
}

fn span(at: u64, request: u64, client: u32, outcome: SpanOutcome) -> TraceEvent {
    ev(
        at,
        EventKind::RequestSpan {
            request,
            client,
            invocation: request / 2,
            arrival: t(at / 2),
            batch: d(10),
            net_in: d(2_000),
            queued: d(0),
            exec: d(1_234_567),
            net_out: d(3_001),
            cold: request.is_multiple_of(2),
            outcome,
        },
    )
}

fn fixture_events() -> Vec<TraceEvent> {
    use Component::{ManagedMl, Serverless, Vm};
    let max = u64::MAX;
    vec![
        ev(
            0,
            EventKind::RequestArrival {
                component: Serverless,
                request: 0,
            },
        ),
        ev(
            max,
            EventKind::RequestQueued {
                component: ManagedMl,
                request: max,
            },
        ),
        ev(
            17,
            EventKind::RequestRejected {
                component: Vm,
                request: 9,
            },
        ),
        ev(
            18,
            EventKind::RequestDropped {
                component: Serverless,
                request: 10,
            },
        ),
        ev(
            250_000,
            EventKind::ExecStart {
                component: Vm,
                request: 11,
                instance: 3,
                cold: true,
                done_at: t(9_250_000),
            },
        ),
        ev(
            max,
            EventKind::ExecStart {
                component: ManagedMl,
                request: max,
                instance: max,
                cold: false,
                done_at: t(max),
            },
        ),
        ev(
            1,
            EventKind::InstanceSpawn {
                component: Serverless,
                instance: 0,
                cause: SpawnCause::Demand,
            },
        ),
        ev(
            2,
            EventKind::InstanceSpawn {
                component: ManagedMl,
                instance: 1,
                cause: SpawnCause::Overprovision,
            },
        ),
        ev(
            3,
            EventKind::InstanceSpawn {
                component: Vm,
                instance: max,
                cause: SpawnCause::Provisioned,
            },
        ),
        ev(
            3_000_000,
            EventKind::InstanceReady {
                component: Serverless,
                instance: 0,
                boot: d(400_000),
                import: d(2_000_000),
                download: d(500_000),
                load: d(0),
            },
        ),
        ev(
            max,
            EventKind::InstanceReady {
                component: Vm,
                instance: max,
                boot: d(max),
                import: d(max),
                download: d(max),
                load: d(max),
            },
        ),
        ev(
            3_000_001,
            EventKind::InstanceWarm {
                component: Serverless,
                instance: 0,
            },
        ),
        ev(
            4_000_000,
            EventKind::InstanceCrash {
                component: ManagedMl,
                instance: 5,
            },
        ),
        ev(
            600_000_000,
            EventKind::InstanceReclaim {
                component: Vm,
                instance: 2,
            },
        ),
        ev(
            5,
            EventKind::BillingTick {
                component: Serverless,
                billed: d(100_000),
            },
        ),
        ev(
            max,
            EventKind::BillingTick {
                component: ManagedMl,
                billed: d(max),
            },
        ),
        ev(
            6,
            EventKind::Fault {
                component: Some(Serverless),
                kind: FaultKind::BootCrash,
            },
        ),
        ev(
            7,
            EventKind::Fault {
                component: Some(ManagedMl),
                kind: FaultKind::ExecCrash,
            },
        ),
        ev(
            8,
            EventKind::Fault {
                component: Some(Vm),
                kind: FaultKind::StorageStall,
            },
        ),
        ev(
            9,
            EventKind::Fault {
                component: Some(Serverless),
                kind: FaultKind::Throttled,
            },
        ),
        ev(
            10,
            EventKind::Fault {
                component: Some(ManagedMl),
                kind: FaultKind::Outage,
            },
        ),
        ev(
            11,
            EventKind::Fault {
                component: None,
                kind: FaultKind::PacketLoss,
            },
        ),
        span(20_000_000, 40, 0, SpanOutcome::Success),
        span(20_000_001, 41, 1, SpanOutcome::QueueFull),
        span(20_000_002, 42, 2, SpanOutcome::ClientTimeout),
        span(20_000_003, 43, 3, SpanOutcome::Rejected),
        span(20_000_004, 44, 4, SpanOutcome::Throttled),
        span(20_000_005, 45, 5, SpanOutcome::Crashed),
        span(20_000_006, 46, u32::MAX, SpanOutcome::RetriesExhausted),
        ev(
            max,
            EventKind::RequestSpan {
                request: max,
                client: u32::MAX,
                invocation: max,
                arrival: t(max),
                batch: d(max),
                net_in: d(max),
                queued: d(max),
                exec: d(max),
                net_out: d(max),
                cold: true,
                outcome: SpanOutcome::Success,
            },
        ),
        ev(
            30_000_000,
            EventKind::AppClosed {
                app: 3,
                requests: 1_000,
                cost_micro_dollars: -1_234_500,
            },
        ),
        ev(
            30_000_001,
            EventKind::AppClosed {
                app: 0,
                requests: 0,
                cost_micro_dollars: i64::MIN,
            },
        ),
        ev(
            max,
            EventKind::AppClosed {
                app: u32::MAX,
                requests: max,
                cost_micro_dollars: i64::MAX,
            },
        ),
        ev(
            30_000_002,
            EventKind::RunClosed {
                engine_events: 123_456,
                requests: 1_000,
            },
        ),
        ev(
            max,
            EventKind::RunClosed {
                engine_events: max,
                requests: max,
            },
        ),
    ]
}

fn fixture_lines() -> Vec<&'static str> {
    FIXTURE.lines().collect()
}

fn to_line(ev: &TraceEvent) -> String {
    let mut out = Vec::new();
    write_event(ev, &mut out);
    String::from_utf8(out).unwrap()
}

#[test]
fn write_event_reproduces_the_fixture() {
    let mut out = Vec::new();
    for ev in fixture_events() {
        write_event(&ev, &mut out);
        out.push(b'\n');
    }
    assert_eq!(String::from_utf8(out).unwrap(), FIXTURE);
}

#[test]
fn parse_event_round_trips_the_fixture() {
    let events = fixture_events();
    for (line, ev) in fixture_lines().iter().zip(&events) {
        assert_eq!(parse_event(line.as_bytes()).as_ref(), Ok(ev), "{line}");
    }
    assert_eq!(parse_jsonl_strict(FIXTURE).unwrap(), events);
}

/// A random event of variant `variant`, each integer field 0, its type's
/// maximum or `raw`'s next value as `picks` says.
fn arbitrary_event(variant: usize, picks: &[u8], raw: &[u64]) -> TraceEvent {
    let mut next = 0;
    let mut u = || {
        let i = next;
        next += 1;
        match picks[i] % 3 {
            0 => 0,
            1 => u64::MAX,
            _ => raw[i],
        }
    };
    let component =
        [Component::Serverless, Component::ManagedMl, Component::Vm][raw[0] as usize % 3];
    let outcome = [
        SpanOutcome::Success,
        SpanOutcome::QueueFull,
        SpanOutcome::ClientTimeout,
        SpanOutcome::Rejected,
        SpanOutcome::Throttled,
        SpanOutcome::Crashed,
        SpanOutcome::RetriesExhausted,
    ][raw[1] as usize % 7];
    let cause = [
        SpawnCause::Demand,
        SpawnCause::Overprovision,
        SpawnCause::Provisioned,
    ][raw[2] as usize % 3];
    let fault = [
        FaultKind::BootCrash,
        FaultKind::ExecCrash,
        FaultKind::StorageStall,
        FaultKind::Throttled,
        FaultKind::Outage,
        FaultKind::PacketLoss,
    ][raw[3] as usize % 6];
    let cold = raw[4].is_multiple_of(2);
    let at = t(u());
    let kind = match variant {
        0 => EventKind::RequestArrival {
            component,
            request: u(),
        },
        1 => EventKind::RequestQueued {
            component,
            request: u(),
        },
        2 => EventKind::RequestRejected {
            component,
            request: u(),
        },
        3 => EventKind::RequestDropped {
            component,
            request: u(),
        },
        4 => EventKind::ExecStart {
            component,
            request: u(),
            instance: u(),
            cold,
            done_at: t(u()),
        },
        5 => EventKind::InstanceSpawn {
            component,
            instance: u(),
            cause,
        },
        6 => EventKind::InstanceReady {
            component,
            instance: u(),
            boot: d(u()),
            import: d(u()),
            download: d(u()),
            load: d(u()),
        },
        7 => EventKind::InstanceWarm {
            component,
            instance: u(),
        },
        8 => EventKind::InstanceCrash {
            component,
            instance: u(),
        },
        9 => EventKind::InstanceReclaim {
            component,
            instance: u(),
        },
        10 => EventKind::BillingTick {
            component,
            billed: d(u()),
        },
        11 => EventKind::Fault {
            component: (!cold).then_some(component),
            kind: fault,
        },
        12 => EventKind::RequestSpan {
            request: u(),
            client: u() as u32,
            invocation: u(),
            arrival: t(u()),
            batch: d(u()),
            net_in: d(u()),
            queued: d(u()),
            exec: d(u()),
            net_out: d(u()),
            cold,
            outcome,
        },
        13 => EventKind::AppClosed {
            app: u() as u32,
            requests: u(),
            cost_micro_dollars: u() as i64,
        },
        _ => EventKind::RunClosed {
            engine_events: u(),
            requests: u(),
        },
    };
    TraceEvent { at, kind }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn random_events_round_trip(
        variant in 0usize..15,
        picks in prop::collection::vec(0u8..3, 16..17),
        raw in prop::collection::vec(0u64..u64::MAX, 16..17),
    ) {
        let ev = arbitrary_event(variant, &picks, &raw);
        let line = to_line(&ev);
        prop_assert_eq!(parse_event(line.as_bytes()), Ok(ev), "{}", line);
    }
}

/// The members of a fixture line with scalar values: key and the byte
/// range of the value.
fn members(line: &str) -> Vec<(&str, Range<usize>)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = line[from..].find("\":") {
        let key_end = from + off;
        let key = &line[line[..key_end].rfind('"').unwrap() + 1..key_end];
        let start = key_end + 2;
        let end = start + line[start..].find([',', '}']).unwrap();
        if !line[start..].starts_with('{') {
            out.push((key, start..end));
        }
        from = start;
    }
    out
}

fn replaced(line: &str, value: &Range<usize>, with: &str) -> String {
    format!("{}{with}{}", &line[..value.start], &line[value.end..])
}

/// `line` without the member whose value spans `value`.
fn removed(line: &str, key: &str, value: &Range<usize>) -> String {
    let key_start = value.start - key.len() - 3;
    if line.as_bytes()[key_start - 1] == b',' {
        format!("{}{}", &line[..key_start - 1], &line[value.end..])
    } else {
        format!("{}{}", &line[..key_start], &line[value.end + 1..])
    }
}

/// `text` with its first character written as a `\u` escape.
fn escape_first(text: &str) -> String {
    let mut chars = text.chars();
    let first = chars.next().unwrap();
    format!("\\u{:04x}{}", first as u32, chars.as_str())
}

/// Every fixture line rewritten in ways the parser must accept: the
/// `kind` object first and its members reversed, JSON whitespace around
/// every token, unknown keys with nested values at both levels, a
/// duplicate of every key after its first occurrence (the first wins),
/// and the first character of every key and string escaped.
fn accepted_variants(line: &str) -> Vec<String> {
    let fields = members(line);
    let (at, kind) = fields.split_first().unwrap();
    assert_eq!(at.0, "at");
    let member = |(key, value): &(&str, Range<usize>), ws: &str, escape: bool| {
        let text = &line[value.clone()];
        let (key, text) = if escape {
            let text = match text.strip_prefix('"') {
                Some(s) => format!("\"{}", escape_first(s)),
                None => text.to_string(),
            };
            (escape_first(key), text)
        } else {
            (key.to_string(), text.to_string())
        };
        format!("\"{key}\"{ws}:{ws}{text}")
    };
    let build = |ws: &str, escape: bool, extra: &str, dup: &str| {
        let written: Vec<String> = kind.iter().rev().map(|m| member(m, ws, escape)).collect();
        let mut out = format!("{ws}{{{ws}\"kind\"{ws}:{ws}{{{ws}{extra}");
        out += &written.join(&format!("{ws},{ws}"));
        if !dup.is_empty() {
            for (key, _) in kind {
                out += &format!(",\"{key}\":{dup}");
            }
        }
        out += &format!("{ws}}}{ws},{ws}{extra}{}", member(at, ws, escape));
        if !dup.is_empty() {
            out += &format!(",\"at\":{dup},\"kind\":{dup}");
        }
        out + &format!("{ws}}}{ws}")
    };
    vec![
        build("", false, "", ""),
        build(" \t\r ", false, "", ""),
        build(
            "",
            false,
            r#""zz":{"deep":[1,-2.5e3,true,null,"xA",{}]},"#,
            "",
        ),
        build("", false, "", r#"[{"garbage":-1.5}]"#),
        build("", true, "", ""),
        build(" ", true, r#""x":"at","#, "\"dup\""),
    ]
}

#[test]
fn parser_accepts_the_json_language_of_the_format() {
    for (line, ev) in fixture_lines().iter().zip(fixture_events()) {
        for variant in accepted_variants(line) {
            assert_eq!(parse_event(variant.as_bytes()), Ok(ev), "{variant}");
            assert_eq!(parse_jsonl_strict(&variant).unwrap(), vec![ev], "{variant}");
        }
    }
    // Newlines are JSON whitespace too, inside a single parsed event.
    let line = fixture_lines()[0].replace(',', "\n,\n");
    assert_eq!(parse_event(line.as_bytes()), Ok(fixture_events()[0]));
    // `null` is the client-path fault's component; `-0` is a zero cost.
    let fault = r#"{"at":1,"kind":{"kind":"outage","event":"fault","component":null}}"#;
    assert!(matches!(
        parse_event(fault.as_bytes()).unwrap().kind,
        EventKind::Fault {
            component: None,
            kind: FaultKind::Outage
        }
    ));
    let closed =
        r#"{"at":1,"kind":{"event":"app_closed","app":1,"requests":2,"cost_micro_dollars":-0}}"#;
    assert!(matches!(
        parse_event(closed.as_bytes()).unwrap().kind,
        EventKind::AppClosed {
            cost_micro_dollars: 0,
            ..
        }
    ));
}

/// Lines `parse_jsonl_strict` must reject, each with the reason it is
/// wrong: every truncated prefix of every fixture line, every member of
/// every fixture line removed, and every scalar replaced by values of the
/// wrong type or range, plus hand-written structural faults.
fn hostile_lines() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in fixture_lines() {
        for end in 1..line.len() {
            out.push((format!("prefix {end}"), line[..end].to_string()));
        }
        let is_fault = line.contains("\"event\":\"fault\"");
        for (key, value) in members(line) {
            out.push((format!("no {key}"), removed(line, key, &value)));
            let text = &line[value.clone()];
            let bad: &[&str] = if text.starts_with('"') {
                &["1", "true", "[\"vm\"]", "{}", "\"nope\"", "\"\"", "\"VM\""]
            } else if text == "true" || text == "false" {
                &["1", "\"true\"", "null", "[]"]
            } else if text == "null" {
                &["1", "\"client\"", "false"]
            } else if key == "cost_micro_dollars" {
                &[
                    "1.5",
                    "1e3",
                    "9223372036854775808",
                    "-9223372036854775809",
                    "\"7\"",
                    "null",
                    "[]",
                ]
            } else {
                &[
                    "-1",
                    "-0",
                    "1.5",
                    "1e3",
                    "18446744073709551616",
                    "\"7\"",
                    "true",
                    "null",
                    "[]",
                    "{}",
                ]
            };
            for with in bad {
                out.push((format!("{key} = {with}"), replaced(line, &value, with)));
            }
            if text.starts_with('"') && !(is_fault && key == "component") {
                out.push((format!("{key} = null"), replaced(line, &value, "null")));
            }
            if key == "client" || key == "app" {
                out.push((
                    format!("{key} = 2^32"),
                    replaced(line, &value, "4294967296"),
                ));
            }
        }
        for garbage in [" x", "}", ",", "{}", " {\"at\":1}", "\u{0}"] {
            out.push((format!("trailing {garbage:?}"), format!("{line}{garbage}")));
        }
    }
    let arrival = |rest: &str| {
        format!(
            r#"{{"at":1,"kind":{{"event":"request_arrival","component":"vm","request":2{rest}}}}}"#
        )
    };
    for (why, line) in [
        ("array", "[]".to_string()),
        ("string", "\"at\"".to_string()),
        ("number", "17".to_string()),
        ("empty object", "{}".to_string()),
        ("no kind", r#"{"at":1}"#.to_string()),
        ("kind is a string", r#"{"at":1,"kind":"fault"}"#.to_string()),
        ("kind is an array", r#"{"at":1,"kind":[]}"#.to_string()),
        ("empty kind", r#"{"at":1,"kind":{}}"#.to_string()),
        ("unknown escape", arrival(r#","x":"\x""#)),
        ("short \\u escape", arrival(r#","x":"\u12""#)),
        ("bad \\u digits", arrival(r#","x":"\u12G4""#)),
        (
            "escaped unknown tag",
            r#"{"at":1,"kind":{"event":"faulty","component":null,"kind":"outage"}}"#.to_string(),
        ),
        ("missing colon", arrival(r#","x" 1"#)),
        ("double comma", arrival(",,\"x\":1")),
        ("trailing comma", arrival(",")),
        ("unquoted key", arrival(",x:1")),
        ("bad literal", arrival(r#","x":tru"#)),
        ("bad nested literal", arrival(r#","x":[nul]"#)),
        ("bad float", arrival(r#","x":1.2.3"#)),
        ("bare minus", arrival(r#","x":-"#)),
        ("huge integer", arrival(r#","x":18446744073709551616"#)),
        ("array without comma", arrival(r#","x":[1 2]"#)),
        ("array trailing comma", arrival(r#","x":[1,]"#)),
        ("object without colon", arrival(r#","x":{"a" 1}"#)),
        ("mismatched brackets", arrival(r#","x":{"a":[1}]"#)),
        ("unclosed nested", arrival(r#","x":[[{"a":1}]"#)),
        (
            "too deep",
            arrival(&format!(
                r#","x":{}{}"#,
                "[".repeat(MAX_DEPTH),
                "]".repeat(MAX_DEPTH)
            )),
        ),
    ] {
        out.push((why.to_string(), line));
    }
    out
}

#[test]
fn hostile_lines_are_errors_that_name_the_line() {
    let lines = hostile_lines();
    assert!(lines.len() > 5_000, "{}", lines.len());
    for (why, line) in lines {
        let result = std::panic::catch_unwind(|| parse_jsonl_strict(&line))
            .unwrap_or_else(|_| panic!("{why}: panicked on {line:?}"));
        match result {
            Err(e) => assert!(e.contains("line 1: invalid trace event: "), "{why}: {e}"),
            Ok(events) => panic!("{why}: accepted {line:?} as {events:?}"),
        }
    }
}

#[test]
fn nesting_is_capped_without_recursion() {
    // Deep enough to overflow the stack of a recursive parser.
    let depth = 200_000;
    let line = format!(
        r#"{{"at":1,"x":{}{},"kind":{{"event":"run_closed","engine_events":1,"requests":1}}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let err = parse_jsonl_strict(&format!("{line}\n")).unwrap_err();
    assert!(err.starts_with("line 1: "), "{err}");
    assert!(
        err.contains(&format!("nesting deeper than {MAX_DEPTH}")),
        "{err}"
    );
    // The cap counts the event object: 127 more levels fit, 128 do not.
    let nested = |levels: usize| {
        format!(
            r#"{{"x":{}{},"at":1,"kind":{{"event":"run_closed","engine_events":1,"requests":1}}}}"#,
            "[".repeat(levels),
            "]".repeat(levels)
        )
    };
    assert!(parse_event(nested(MAX_DEPTH - 1).as_bytes()).is_ok());
    assert_eq!(
        parse_event(nested(MAX_DEPTH).as_bytes()),
        Err(WireError::TooDeep {
            at: 5 + MAX_DEPTH - 1
        })
    );
}
