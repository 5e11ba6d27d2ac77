//! Shrunken runs of every workload: each prints every metric named in
//! `BENCHMARK.json` with its unit, and a second seed gives a valid
//! workload of similar cost. The serve probe's generator flags a growing
//! backlog when offered more than the server can take.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, serve_probe, Config, Outcome, Scale, Workload};
use sea_observe::json::{parse, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn small(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Config {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::Small,
    })
}

/// Parse a result line and return its `(name, value, unit)` metrics,
/// asserting the line's shape.
fn metrics_of(outcome: &Outcome, trace: bool) -> Vec<(String, f64, String)> {
    let line = parse(&outcome.result_line(trace)).expect("result line is JSON");
    let JsonValue::Object(fields) = &line else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
    let Some(JsonValue::Object(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value")
                    .and_then(JsonValue::as_f64)
                    .expect("numeric value"),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_program_vocabulary() {
    let doc = benchmark_json();
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(section(&doc, "per_layer"), own(PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = small(workload, 1, trace);
            let printed = metrics_of(&outcome, trace);
            let expected = section(&doc, key);
            let got: Vec<(String, String)> = printed
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, expected, "{} trace={trace}", workload.name());
            if !trace {
                for (name, value, _) in &printed {
                    assert!(
                        *value > 0.0 && value.is_finite(),
                        "{}: end-to-end metric {name} reads {value}",
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn a_second_seed_gives_a_valid_workload_of_similar_cost() {
    for workload in Workload::ALL {
        let cost = |seed| {
            let outcome = small(workload, seed, false);
            assert!(outcome.correct(), "{} seed {seed}", workload.name());
            outcome.get("iterations").expect("iterations measured")
        };
        let (a, b) = (cost(1), cost(2));
        assert!(
            a.max(b) <= 1.5 * a.min(b),
            "{}: iterations {a} (seed 1) vs {b} (seed 2)",
            workload.name()
        );
    }
}

#[test]
fn serve_generator_flags_a_backlog_above_capacity() {
    let server = serve_probe::bind(2).expect("bind");
    let bodies = serve_probe::Bodies::generate(7, serve_probe::order(Scale::Small));
    let mut out = Outcome::new(&Config {
        workload: Workload::BatchClasses,
        seed: 7,
        seconds: 1.0,
        trace: false,
        scale: Scale::Small,
    });
    let mut load = serve_probe::Load::new(server.addr(), &bodies, 7, 2);
    let calm = load.drive(50.0, 0.5, &mut out);
    assert!(!calm.backlog, "50 req/s must not build a backlog");
    // Far more than two connections can carry: the generator falls
    // steadily behind its schedule.
    let flood = load.drive(100_000.0, 0.3, &mut out);
    assert!(flood.backlog, "100k req/s offered must build a backlog");
    assert!(flood.lag_ms(0.99) > serve_probe::BACKLOG_MS);
    assert!(out.correct(), "every answer converged");
    server.shutdown();
    server.join();
}
