//! End-to-end scheduler equivalence: the event-driven dirty-set fixpoint
//! must be observationally identical to the dense reference sweep through
//! the whole stack — synthesized kernels, a PreVV controller that actually
//! squashes and replays, and randomized memory timings. The substrate-level
//! version of this property (hand-built netlists, divergence diagnostics)
//! lives in `crates/dataflow/tests/scheduler.rs`; this file asserts it
//! survives composition with real controllers.

use proptest::prelude::*;

use prevv::kernels::{extra, paper};
use prevv::{
    run_kernel_with, Controller, KernelSpec, MemTiming, PrevvConfig, Scheduler, SimConfig,
    SynthOptions,
};

fn run(spec: &KernelSpec, config: PrevvConfig, scheduler: Scheduler) -> prevv::RunResult {
    let sim = SimConfig {
        scheduler,
        ..SimConfig::default()
    };
    run_kernel_with(
        spec,
        Controller::Prevv(config),
        &SynthOptions::default(),
        &sim,
    )
    .expect("simulation completes")
}

/// Asserts that counters describing the same squashes agree: the engine
/// replays the iterations the controller counts when it posts each squash,
/// and the log holds one event per violation (violations detected in one
/// cycle merge into one squash).
fn assert_counters_agree(r: &prevv::RunResult) {
    let prevv = r.prevv.expect("PreVV stats");
    let name = &r.kernel;
    assert_eq!(
        r.report.replayed_iters, prevv.replayed_iters,
        "{name}: replays"
    );
    assert_eq!(r.report.squashes, prevv.squashes, "{name}: squashes");
    assert_eq!(r.squash_log.len() as u64, prevv.violations, "{name}: log");
    assert!(
        prevv.squashes <= prevv.violations,
        "{name}: merged squashes"
    );
    if prevv.squashes > 0 {
        assert!(
            prevv.replayed_iters > 0,
            "{name}: squashed, replayed nothing"
        );
    }
}

/// Asserts the full observable outcome matches: engine report (cycles,
/// transfers, stalls, squashes, replays, per-channel attribution), final
/// memory, squash log, and golden verdict — and that each run's counters
/// agree.
fn assert_equivalent(spec: &KernelSpec, config: PrevvConfig) {
    let dense = run(spec, config.clone(), Scheduler::Dense);
    let event = run(spec, config, Scheduler::EventDriven);
    assert_counters_agree(&dense);
    assert_counters_agree(&event);
    if let Some(diff) = dense.report.diff(&event.report) {
        panic!("{}: schedulers disagree: {diff}", spec.name);
    }
    assert_eq!(dense.arrays, event.arrays, "{}: final memory", spec.name);
    assert_eq!(
        dense.squash_log, event.squash_log,
        "{}: squash log",
        spec.name
    );
    assert_eq!(dense.matches_golden, event.matches_golden);
    assert!(dense.matches_golden, "{}: golden check", spec.name);
}

/// The five stock kernels under the default PreVV configuration — the
/// acceptance bar for making event-driven the default scheduler.
#[test]
fn schedulers_agree_on_all_stock_kernels() {
    let b: Vec<i64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let specs = [
        extra::fig2a(16, b),
        extra::guarded_update(24, 3),
        extra::histogram(32, 8, 7),
        paper::polyn_mult(12),
        paper::triangular(10),
    ];
    for spec in &specs {
        assert_equivalent(spec, PrevvConfig::default());
    }
}

/// The serial reduction chains every iteration through one address, so
/// premature execution without forwarding mis-speculates repeatedly; the
/// schedulers must agree on every squash event, not just the totals.
#[test]
fn schedulers_agree_under_squash_and_replay() {
    let spec = extra::serial_reduction(48);
    let mut config = PrevvConfig::with_depth(16);
    config.forwarding = false;
    config.timing = MemTiming {
        read_latency: 3,
        write_latency: 2,
        read_ports: 1,
        write_ports: 1,
    };
    let dense = run(&spec, config.clone(), Scheduler::Dense);
    assert!(
        dense.report.squashes > 0,
        "stimulus must actually squash (got {})",
        dense.report.squashes
    );
    assert_equivalent(&spec, config);
}

/// `kernels/histogram.pvk` under PreVV16 squashes, so it exercises the
/// counter agreement `assert_equivalent` checks.
#[test]
fn schedulers_agree_on_the_histogram_file() {
    let path = format!("{}/kernels/histogram.pvk", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).expect("read histogram.pvk");
    let spec = prevv::ir::parse::parse_kernel("histogram", &source).expect("parse");
    assert!(
        run(&spec, PrevvConfig::prevv16(), Scheduler::EventDriven)
            .report
            .squashes
            > 0
    );
    assert_equivalent(&spec, PrevvConfig::prevv16());
}

fn timing_strategy() -> impl Strategy<Value = MemTiming> {
    (1u32..5, 1u32..4, 1u32..3).prop_map(|(read_latency, write_latency, read_ports)| MemTiming {
        read_latency,
        write_latency,
        read_ports,
        write_ports: 1,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Randomized memory timings, queue depths, and forwarding settings over
    /// the squash-prone kernels: every draw must be scheduler-invariant.
    #[test]
    fn schedulers_agree_under_random_timing(
        kernel in 0usize..3,
        timing in timing_strategy(),
        depth in 4usize..32,
        forwarding in any::<bool>(),
    ) {
        let spec = match kernel {
            0 => extra::fig2a(12, vec![1; 12]),
            1 => extra::serial_reduction(12),
            _ => extra::histogram(16, 4, 11),
        };
        let ports = prevv::ir::synthesize(&spec).expect("synth").interface.ports.len();
        prop_assume!(depth >= ports);
        let mut config = PrevvConfig::with_depth(depth);
        config.timing = timing;
        config.forwarding = forwarding;
        let dense = run(&spec, config.clone(), Scheduler::Dense);
        let event = run(&spec, config, Scheduler::EventDriven);
        prop_assert!(
            dense.report.diff(&event.report).is_none(),
            "{}: {}",
            spec.name,
            dense.report.diff(&event.report).unwrap()
        );
        prop_assert_eq!(&dense.arrays, &event.arrays);
        prop_assert_eq!(&dense.squash_log, &event.squash_log);
        prop_assert!(dense.matches_golden);
    }
}
