//! End-to-end scheduler equivalence: the event-driven dirty-set fixpoint
//! must be observationally identical to the dense reference sweep through
//! the whole stack — synthesized kernels, a PreVV controller that actually
//! squashes and replays, and randomized memory timings. The substrate-level
//! version of this property (hand-built netlists, divergence diagnostics)
//! lives in `crates/dataflow/tests/scheduler.rs`; this file asserts it
//! survives composition with real controllers.

use proptest::prelude::*;

use prevv::dataflow::trace::{ChannelEvent, TraceRecorder};
use prevv::dataflow::ChannelId;
use prevv::kernels::gen::{generate, GenConfig};
use prevv::kernels::{extra, paper};
use prevv::mem::DirectMemory;
use prevv::{
    run_kernel_with, Controller, KernelSpec, Lsq, LsqConfig, LsqStats, MemTiming, PrevvConfig,
    PrevvMemory, PrevvStats, Scheduler, SimConfig, SimError, SimReport, Simulator, SquashEvent,
    SynthOptions, Value,
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

/// External-memory RAM timing: the regime where most cycles are quiet and
/// the event scheduler skips them.
const DRAM: MemTiming = MemTiming {
    read_latency: 200,
    write_latency: 100,
    read_ports: 1,
    write_ports: 1,
};

/// A memory subsystem with its RAM timing (the facade's [`Controller`]
/// fixes the stock timing).
#[derive(Debug, Clone)]
enum Backend {
    Prevv(PrevvConfig),
    Lsq(LsqConfig),
    Direct(MemTiming),
}

/// PreVV with forwarding on and off, the three LSQ allocation policies and
/// the unprotected controller, all at `timing`, with queues deep enough
/// for `spec`.
fn backends(spec: &KernelSpec, timing: MemTiming) -> Vec<Backend> {
    let depth = 16.max(spec.mem_ops_per_iter());
    let prevv = |forwarding| {
        let mut c = PrevvConfig::with_depth(depth);
        c.forwarding = forwarding;
        c.timing = timing;
        Backend::Prevv(c)
    };
    let lsq = |c: LsqConfig| Backend::Lsq(LsqConfig { timing, ..c });
    vec![
        prevv(true),
        prevv(false),
        lsq(LsqConfig::dynamatic(depth)),
        lsq(LsqConfig::fast(depth)),
        lsq(LsqConfig::speculative(depth)),
        Backend::Direct(timing),
    ]
}

/// Everything a run exposes, plus the cycles the engine skipped.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<SimReport, SimError>,
    arrays: Vec<Vec<Value>>,
    prevv: Option<PrevvStats>,
    lsq: Option<LsqStats>,
    squash_log: Vec<SquashEvent>,
    /// Per-channel waveforms, when traced.
    traces: Vec<Vec<ChannelEvent>>,
    skipped: u64,
}

/// Simulates `spec` on `backend` under `scheduler`; with `traced`, every
/// channel is recorded every cycle.
fn run_backend(
    spec: &KernelSpec,
    backend: &Backend,
    scheduler: Scheduler,
    traced: bool,
) -> Outcome {
    let mut synth = prevv::ir::synthesize(spec).expect("synthesizes");
    let iface = synth.interface.clone();
    let (ram, prevv, lsq, log) = match backend {
        Backend::Prevv(c) => {
            let (ctrl, ram, stats) =
                PrevvMemory::new(iface, c.clone(), synth.bus.clone()).expect("fits");
            let log = ctrl.squash_log();
            synth.netlist.add("prevv", ctrl);
            (ram, Some(stats), None, Some(log))
        }
        Backend::Lsq(c) => {
            let (ctrl, ram, stats) = Lsq::with_stats(iface, c.clone()).expect("fits");
            synth.netlist.add("lsq", ctrl);
            (ram, None, Some(stats), None)
        }
        Backend::Direct(t) => {
            let (ctrl, ram) = DirectMemory::new(iface, *t);
            synth.netlist.add("mem", ctrl);
            (ram, None, None, None)
        }
    };
    let channels: Vec<ChannelId> = if traced {
        (0..synth.netlist.channel_count())
            .map(ChannelId::from_index)
            .collect()
    } else {
        Vec::new()
    };
    let mut sim = Simulator::new(synth.netlist, synth.bus)
        .expect("valid netlist")
        .with_config(SimConfig {
            scheduler,
            ..SimConfig::default()
        });
    sim.attach_recorder(TraceRecorder::new(channels.clone()));
    let result = sim.run();
    let recorder = sim.take_recorder().expect("attached");
    let traces = channels
        .iter()
        .map(|&ch| recorder.trace(ch).expect("watched").events().to_vec())
        .collect();
    let arrays = synth
        .interface
        .split_ram(ram.borrow().image())
        .into_iter()
        .map(<[Value]>::to_vec)
        .collect();
    Outcome {
        result,
        arrays,
        prevv: prevv.map(|s| *s.borrow()),
        lsq: lsq.map(|s| *s.borrow()),
        squash_log: log.map(|l| l.borrow().clone()).unwrap_or_default(),
        traces,
        skipped: sim.skipped_cycles(),
    }
}

/// Dense and event runs of every long-latency backend must agree on the
/// report (or error), final memory, squash log and controller statistics,
/// and with `traced` on every channel's waveform.
fn assert_equivalent_at_dram(spec: &KernelSpec, traced: bool) {
    for backend in backends(spec, DRAM) {
        let dense = run_backend(spec, &backend, Scheduler::Dense, traced);
        let event = run_backend(spec, &backend, Scheduler::EventDriven, traced);
        assert_eq!(dense.skipped, 0, "the dense reference never skips");
        let event = Outcome {
            skipped: 0,
            ..event
        };
        assert_eq!(dense, event, "{}: {backend:?}", spec.name);
    }
}

/// The stock kernels with 200/100-cycle RAM: long quiet runs that the
/// event scheduler skips must leave every observable where single-stepping
/// leaves it, controller statistics and channel traces included.
#[test]
fn schedulers_agree_at_long_latency_on_stock_kernels() {
    let b: Vec<i64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let specs = [
        extra::fig2a(16, b),
        extra::fig2a(24, vec![0; 24]),
        extra::guarded_update(24, 3),
        extra::histogram(32, 8, 7),
        extra::serial_reduction(12),
        paper::polyn_mult(6),
        paper::triangular(6),
    ];
    for spec in &specs {
        assert_equivalent_at_dram(spec, true);
    }
}

/// The eight `GenConfig::bench()` kernels of the `BENCH_sim.json` gen
/// regime, at long latency.
#[test]
fn schedulers_agree_at_long_latency_on_bench_kernels() {
    for i in 0..8 {
        let spec = generate(
            0x0e1e_5c70_ad89_5542u64.wrapping_add(i),
            &GenConfig::bench(),
        );
        assert_equivalent_at_dram(&spec, false);
    }
}

fn corpus_at_dram(shard: u64) {
    for seed in (0..40).filter(|s| s % 2 == shard) {
        assert_equivalent_at_dram(&generate(seed, &GenConfig::corpus()), false);
    }
}

/// 40 `GenConfig::corpus()` kernels (guards, indirect and opaque
/// addressing, multi-loop nests) at long latency, in two shards.
#[test]
fn schedulers_agree_at_long_latency_on_corpus_kernels_even() {
    corpus_at_dram(0);
}

#[test]
fn schedulers_agree_at_long_latency_on_corpus_kernels_odd() {
    corpus_at_dram(1);
}

/// The skip is exact but must also happen: on the `BENCH_sim.json` dram
/// kernel (fig2a, all-zero indices, n = 256, 200/100-cycle RAM) PreVV16
/// and every LSQ spend nine in ten cycles waiting on RAM, and the event
/// scheduler skips at least that share; the unprotected controller skips
/// some. A deterministic count, so it gates exactly on any machine.
#[test]
fn quiet_cycles_are_skipped_on_the_dram_kernel() {
    let spec = extra::fig2a(256, vec![0; 256]);
    let mut prevv16 = PrevvConfig::with_depth(16);
    prevv16.forwarding = false;
    prevv16.timing = DRAM;
    let lsq = |c: LsqConfig| Backend::Lsq(LsqConfig { timing: DRAM, ..c });
    let gated = [
        Backend::Prevv(prevv16),
        lsq(LsqConfig::dynamatic(16)),
        lsq(LsqConfig::fast(16)),
        lsq(LsqConfig::speculative(16)),
    ];
    for backend in &gated {
        let run = run_backend(&spec, backend, Scheduler::EventDriven, false);
        let cycles = run.result.as_ref().expect("completes").cycles;
        assert!(
            run.skipped * 10 >= cycles * 9,
            "{backend:?}: {} of {cycles} cycles skipped",
            run.skipped
        );
    }
    let direct = run_backend(&spec, &Backend::Direct(DRAM), Scheduler::EventDriven, false);
    assert!(direct.skipped > 0, "direct skips nothing");
}
