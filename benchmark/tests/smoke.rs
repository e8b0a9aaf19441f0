//! Smoke test of the benchmark at a tiny size: every named metric is
//! printed with its unit, self time is computed correctly, and design
//! outputs repeat exactly between runs and between the traced and the
//! untraced run.

use prevv_benchmark::busy::Busy;
use prevv_benchmark::latency::Latency;
use prevv_benchmark::oracle::Oracle;
use prevv_benchmark::trace::{self, Span, Tracer};
use prevv_benchmark::{
    per_layer_names, run_traced, run_untraced, Outcome, Scale, Workload, END_TO_END,
};

const SEED: u64 = 7;

/// Metric names listed in `BENCHMARK.json` under `key`, in file order.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let end = json[start..].find(']').map_or(json.len(), |e| start + e);
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn assert_printed(o: &Outcome, names: &[String]) {
    let got: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, names, "metric names and order");
    let json = o.to_json();
    for m in &o.metrics {
        assert!(!m.unit.is_empty(), "{} has a unit", m.name);
        assert!(m.value.is_finite(), "{} is finite", m.name);
        let entry = format!("\"{}\": {{\"value\": ", m.name);
        assert!(json.contains(&entry), "{} in the JSON line", m.name);
        assert!(json.contains(&format!("\"unit\": \"{}\"", m.unit)));
    }
    assert!(o.correct && o.failed == 0, "{:?}", o.notes);
}

fn check<W: Workload>() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed("end_to_end"), e2e, "BENCHMARK.json end_to_end");
    let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed("per_layer"), layers, "BENCHMARK.json per_layer");

    let a = run_untraced::<W>(SEED, Scale::Tiny, 0.0).expect("set-up");
    let b = run_untraced::<W>(SEED, Scale::Tiny, 0.0).expect("set-up");
    assert_printed(&a, &e2e);
    for m in &a.metrics {
        assert!(m.value > 0.0, "end-to-end {} is never 0", m.name);
    }
    assert!(a.attempted > 0);
    assert_eq!(a.design, b.design, "same seed, same design outputs");

    let (t1, spans) = run_traced::<W>(SEED, Scale::Tiny, 0.0).expect("set-up");
    let (t2, _) = run_traced::<W>(SEED, Scale::Tiny, 0.0).expect("set-up");
    assert_printed(&t1, &layers);
    assert_eq!(
        t1.design, a.design,
        "traced and untraced design outputs agree"
    );
    for (x, y) in t1.metrics.iter().zip(&t2.metrics) {
        if x.unit == "count" {
            assert_eq!(x.value, y.value, "{} repeats exactly", x.name);
        }
    }
    assert!(spans.spans().iter().any(|s| s.name == "job"));
}

#[test]
fn oracle_smoke() {
    check::<Oracle>();
}

#[test]
fn latency_smoke() {
    check::<Latency>();
}

#[test]
fn busy_smoke() {
    check::<Busy>();
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        job: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("job", 0, 100, None),
        span("ir.synth", 10, 40, Some(0)),
        // Overlaps its sibling by 10 ns: counted once in the parent.
        span("dataflow.run", 30, 60, Some(0)),
        span("core.new", 15, 25, Some(1)),
        // Sticks out of its parent: clipped.
        span("mem.new", 35, 45, Some(1)),
        span("setup", 200, 300, None),
        span("ir.synth", 210, 260, Some(5)),
    ];
    assert_eq!(
        trace::self_times_ns(&spans),
        vec![50, 15, 30, 10, 10, 50, 50]
    );
    let layers = trace::layer_self_ns(&spans, "job");
    assert_eq!(layers.get("job"), Some(&50));
    assert_eq!(layers.get("ir"), Some(&15));
    assert_eq!(layers.get("dataflow"), Some(&30));
    assert_eq!(layers.get("core"), Some(&10));
    assert_eq!(layers.get("mem"), Some(&10));
    assert_eq!(trace::root_and_child_ns(&spans, "job"), (100, 60));
    assert_eq!(trace::total_ns(&spans, "job", "ir.synth"), 30);
    assert_eq!(trace::total_ns(&spans, "setup", "ir.synth"), 50);
}

#[test]
fn tracer_nests_and_unwinds() {
    let mut t = Tracer::new(true);
    let root = t.enter("job");
    let v = t.call("ir.synth", || 3);
    let _open = t.enter("dataflow.run");
    t.unwind_to(root);
    assert_eq!(v, 3);
    let s = t.spans();
    assert_eq!(s.len(), 3);
    assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
    assert!(s.iter().all(|x| x.end_ns >= x.start_ns && x.job == 1));
    assert!(t.to_tsv().lines().count() == 4);

    let mut off = Tracer::new(false);
    assert_eq!(off.call("ir.synth", || 5), 5);
    assert!(off.spans().is_empty());
}
