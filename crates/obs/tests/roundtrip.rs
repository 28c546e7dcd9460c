//! Integration tests: the profiler's output round-trips through the
//! Chrome-trace writer and back through the validating JSON parser.

use proptest::prelude::*;
use yalla_obs::json::{self, JsonValue};
use yalla_obs::{chrome, Event, Phase, Profiler};

/// Reads `field` of the `i`-th event object of a parsed trace array.
fn field<'a>(trace: &'a JsonValue, i: usize, field: &str) -> &'a JsonValue {
    trace.as_array().expect("array")[i]
        .get(field)
        .unwrap_or_else(|| panic!("event {i} missing {field}"))
}

#[test]
fn span_nesting_and_ordering_round_trip() {
    let p = Profiler::new();
    p.set_enabled(true);
    {
        let _a = p.span("engine", "substitute");
        {
            let _b = p.span("engine", "parse");
            let _c = p.span("frontend", "preprocess");
        }
        let _d = p.span("engine", "analyze");
    }

    let text = p.chrome_trace();
    let parsed = json::parse(&text).expect("writer emits valid JSON");
    let events = parsed.as_array().expect("array");
    assert_eq!(events.len(), 4);

    // Events appear in close order: preprocess, parse, analyze, substitute.
    let names: Vec<&str> = (0..4)
        .map(|i| field(&parsed, i, "name").as_str().unwrap())
        .collect();
    assert_eq!(names, ["preprocess", "parse", "analyze", "substitute"]);

    // Reconstruct nesting from ts/dur exactly the way the trace viewer
    // does, and check the hierarchy survived serialization.
    let get = |i: usize| {
        let ts = field(&parsed, i, "ts").as_f64().unwrap();
        let dur = field(&parsed, i, "dur").as_f64().unwrap();
        (ts, ts + dur)
    };
    let (pre_s, pre_e) = get(0);
    let (parse_s, parse_e) = get(1);
    let (ana_s, ana_e) = get(2);
    let (sub_s, sub_e) = get(3);
    assert!(
        sub_s <= parse_s && parse_e <= sub_e,
        "parse inside substitute"
    );
    assert!(
        parse_s <= pre_s && pre_e <= parse_e,
        "preprocess inside parse"
    );
    assert!(
        sub_s <= ana_s && ana_e <= sub_e,
        "analyze inside substitute"
    );
    assert!(parse_e <= ana_s, "analyze starts after parse closes");
}

/// Nesting survives serialization for every one of ~2,000 nested span
/// pairs: on the trace's 0.1 µs grid a child starts no earlier and ends
/// no later than its parent. Spans opened and closed back to back sit
/// within a few ticks of each other, where two clock reads per span or
/// separately rounded `ts` and `dur` would break the relation.
#[test]
fn nesting_holds_on_the_trace_grid_for_thousands_of_span_pairs() {
    const PAIRS: usize = 2_000;
    let p = Profiler::new();
    p.set_enabled(true);
    for _ in 0..PAIRS {
        let _outer = p.span("t", "outer");
        let _inner = p.span("t", "inner");
    }
    let parsed = json::parse(&p.chrome_trace()).expect("valid JSON");
    let events = parsed.as_array().expect("array");
    assert_eq!(events.len(), 2 * PAIRS);
    // Exact comparison in integer tenths of a µs.
    let tenths = |i: usize, f: &str| (field(&parsed, i, f).as_f64().unwrap() * 10.0).round() as i64;
    for pair in 0..PAIRS {
        let (inner, outer) = (2 * pair, 2 * pair + 1);
        assert_eq!(field(&parsed, inner, "name").as_str(), Some("inner"));
        let (is, ie) = (
            tenths(inner, "ts"),
            tenths(inner, "ts") + tenths(inner, "dur"),
        );
        let (os, oe) = (
            tenths(outer, "ts"),
            tenths(outer, "ts") + tenths(outer, "dur"),
        );
        assert!(
            os <= is && ie <= oe,
            "pair {pair}: inner {is}..{ie} outside outer {os}..{oe}"
        );
        if pair > 0 {
            let prev_end = tenths(outer - 2, "ts") + tenths(outer - 2, "dur");
            assert!(
                prev_end <= os,
                "pair {pair} starts before pair {} ends",
                pair - 1
            );
        }
    }
}

#[test]
fn counter_events_interleave_with_spans() {
    let p = Profiler::new();
    p.set_enabled(true);
    {
        let _s = p.span("pp", "file.hpp");
        p.count("pp.files_preprocessed", 1);
        p.count("pp.lines_preprocessed", 120);
    }
    let parsed = json::parse(&p.chrome_trace()).expect("valid JSON");
    let events = parsed.as_array().unwrap();
    assert_eq!(events.len(), 3);
    assert_eq!(field(&parsed, 0, "ph").as_str(), Some("C"));
    assert_eq!(
        field(&parsed, 1, "args")
            .get("value")
            .and_then(JsonValue::as_f64),
        Some(120.0)
    );
    assert_eq!(field(&parsed, 2, "ph").as_str(), Some("X"));
}

#[test]
fn disabled_profiler_serializes_to_an_empty_trace() {
    let p = Profiler::new();
    {
        let _s = p.span("engine", "parse");
        p.count("n", 1);
    }
    let parsed = json::parse(&p.chrome_trace()).expect("valid JSON");
    assert_eq!(parsed.as_array().unwrap().len(), 0);
}

#[test]
fn counters_aggregate_across_threads_through_the_profiler() {
    let p = Profiler::new();
    p.set_enabled(true);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let p = p.clone();
            scope.spawn(move || {
                for _ in 0..100 {
                    p.count("shared.work", 1);
                }
            });
        }
    });
    assert_eq!(p.metrics().counter("shared.work").get(), 400);
    // The last counter sample in the trace carries the final total.
    let events = p.events();
    let last_value = events
        .iter()
        .rev()
        .find(|e| e.ph == Phase::Counter)
        .and_then(|e| match &e.args[..] {
            [(_, yalla_obs::ArgValue::Int(v))] => Some(*v),
            _ => None,
        });
    assert_eq!(last_value, Some(400));
}

#[test]
fn multiple_processes_coexist_via_pid_metadata() {
    let mut events = vec![
        Event::process_name(1, "config=default"),
        Event::process_name(2, "config=yalla"),
    ];
    events.push(Event::complete("compile", "sim", 0.0, 500.0, 1, 1));
    events.push(Event::complete("compile", "sim", 0.0, 20.0, 2, 1));
    let parsed = json::parse(&chrome::to_json(&events)).expect("valid JSON");
    let arr = parsed.as_array().unwrap();
    assert_eq!(arr[0].get("ph").and_then(JsonValue::as_str), Some("M"));
    assert_eq!(
        arr[1]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(JsonValue::as_str),
        Some("config=yalla")
    );
    let pids: Vec<f64> = arr[2..]
        .iter()
        .map(|e| e.get("pid").and_then(JsonValue::as_f64).unwrap())
        .collect();
    assert_eq!(pids, [1.0, 2.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary span names — any non-control junk, including quotes and
    /// backslashes via \PC, plus explicit escapes worth forcing — always
    /// serialize to valid JSON and survive the round trip byte-for-byte.
    #[test]
    fn arbitrary_span_names_serialize_to_valid_json(
        name in prop_oneof![
            "\\PC*",
            "[a-z\"\\\\]{1,12}".prop_map(|s| format!("{s}\n\t")),
        ]
    ) {
        let p = Profiler::new();
        p.set_enabled(true);
        p.span("prop", &name).finish();
        let text = p.chrome_trace();
        let parsed = yalla_obs::json::parse(&text)
            .unwrap_or_else(|e| panic!("invalid JSON for name {name:?}: {e}\n{text}"));
        let round_tripped = parsed.as_array().unwrap()[0]
            .get("name")
            .and_then(yalla_obs::json::JsonValue::as_str)
            .unwrap()
            .to_string();
        prop_assert_eq!(round_tripped, name);
    }

    /// Arbitrary metric names produce valid counter events too.
    #[test]
    fn arbitrary_counter_names_serialize_to_valid_json(name in "\\PC*", delta in 0i64..1000) {
        let p = Profiler::new();
        p.set_enabled(true);
        p.count(&name, delta);
        let parsed = yalla_obs::json::parse(&p.chrome_trace()).expect("valid JSON");
        let v = parsed.as_array().unwrap()[0]
            .get("args").unwrap().get("value").and_then(yalla_obs::json::JsonValue::as_f64);
        prop_assert_eq!(v, Some(delta as f64));
    }
}
