//! The pipeline steps every workload shares, each one a public call of the
//! workspace under its own span: synthesis, a controller's constructor,
//! `Simulator::new`/`run`, the golden interpreter, and the static front end
//! (PV1xx circuit lints, PV4xx throughput analysis, the area model).

use prevv::{
    Controller, RunError, Scheduler, SimConfig, SimReport, Simulator, SynthOptions, Value,
};
use prevv_analyze::{lint_circuit, lint_perf, CircuitOptions, PerfOptions, Report};
use prevv_area::{DesignReport, Resources};
use prevv_core::{PrevvConfig, PrevvMemory, PrevvStats};
use prevv_ir::{KernelSpec, SynthesizedKernel};
use prevv_mem::{DirectMemory, Lsq, LsqConfig, LsqStats, MemTiming, SpecLsq, SpecLsqConfig};

use crate::stats::Counters;
use crate::trace::Tracer;

/// The deterministic outputs of a job. They must repeat exactly: between
/// passes, between the traced and the untraced run, and between two runs
/// with the same seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Design {
    /// Simulated clock cycles.
    pub sim_cycles: u64,
    /// Estimated LUTs of the priced designs (datapath + controller).
    pub luts: u64,
    /// Σ cycles × clock period, in microseconds.
    pub exec_time_us: f64,
}

impl std::ops::AddAssign for Design {
    fn add_assign(&mut self, o: Design) {
        self.sim_cycles += o.sim_cycles;
        self.luts += o.luts;
        self.exec_time_us += o.exec_time_us;
    }
}

/// A memory subsystem with its full configuration, timing included (the
/// facade's [`Controller`] fixes the stock timing).
#[derive(Debug, Clone)]
pub enum Backend {
    /// No disambiguation.
    Direct(MemTiming),
    /// Dynamatic \[15\] or the fast-allocation LSQ \[8\].
    Lsq(LsqConfig),
    /// Speculative-allocation LSQ.
    Spec(SpecLsqConfig),
    /// PreVV.
    Prevv(PrevvConfig),
}

impl Backend {
    /// The backend [`prevv::run_kernel`] builds for `ctrl`.
    pub fn stock(ctrl: &Controller) -> Backend {
        match ctrl {
            Controller::Direct => Backend::Direct(MemTiming::default()),
            Controller::Dynamatic { depth } => Backend::Lsq(LsqConfig::dynamatic(*depth)),
            Controller::FastLsq { depth } => Backend::Lsq(LsqConfig::fast(*depth)),
            Controller::SpecLsq { depth } => Backend::Spec(SpecLsqConfig::speculative(*depth)),
            Controller::Prevv(c) => Backend::Prevv(c.clone()),
        }
    }

    /// The same backend with every RAM access taking `timing`.
    pub fn with_timing(mut self, timing: MemTiming) -> Backend {
        match &mut self {
            Backend::Direct(t) => *t = timing,
            Backend::Lsq(c) => c.timing = timing,
            Backend::Spec(c) => c.timing = timing,
            Backend::Prevv(c) => c.timing = timing,
        }
        self
    }
}

/// One simulated run: what [`prevv::run_kernel_with`] returns, plus the
/// counts the per-layer metrics need.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Final contents of every kernel array.
    pub arrays: Vec<Vec<Value>>,
    /// Engine report.
    pub report: SimReport,
    /// Did the arrays match the golden interpreter?
    pub matches_golden: bool,
}

/// Synthesizes `spec`, attaches `backend`, simulates to quiescence under
/// `sim`, and compares against the golden interpreter — the steps of
/// [`prevv::run_kernel_with`], each under a span. With `counters`, the
/// run's netlist, engine and controller counts are added to them.
///
/// # Errors
///
/// The [`RunError`] `run_kernel_with` would return.
pub fn simulate(
    spec: &KernelSpec,
    backend: &Backend,
    sim: &SimConfig,
    t: &mut Tracer,
    counters: Option<&mut Counters>,
) -> Result<SimRun, RunError> {
    let mut synth = t.call("ir.synth", || {
        prevv_ir::synthesize_with(spec, &SynthOptions::default())
    })?;
    let nodes = synth.netlist.node_count();
    let channels = synth.netlist.channel_count();
    let iface = synth.interface.clone();
    let mut prevv_stats = None;
    let mut lsq_stats = None;
    let mut squash_log = None;
    let ram = match backend {
        Backend::Direct(timing) => t.call("mem.new", || {
            let (ctrl, ram) = DirectMemory::new(iface, *timing);
            synth.netlist.add("mem", ctrl);
            ram
        }),
        Backend::Lsq(cfg) => t.call("mem.new", || -> Result<_, RunError> {
            let (ctrl, ram, stats) = Lsq::with_stats(iface, cfg.clone())?;
            synth.netlist.add("lsq", ctrl);
            lsq_stats = Some(stats);
            Ok(ram)
        })?,
        Backend::Spec(cfg) => t.call("mem.new", || -> Result<_, RunError> {
            let (ctrl, ram, stats) = SpecLsq::with_stats(iface, cfg.clone())?;
            synth.netlist.add("spec_lsq", ctrl);
            lsq_stats = Some(stats);
            Ok(ram)
        })?,
        Backend::Prevv(cfg) => t.call("core.new", || -> Result<_, RunError> {
            let (ctrl, ram, stats) = PrevvMemory::new(iface, cfg.clone(), synth.bus.clone())?;
            squash_log = Some(ctrl.squash_log());
            synth.netlist.add("prevv", ctrl);
            prevv_stats = Some(stats);
            Ok(ram)
        })?,
    };
    let iterations = synth.interface.iterations;
    let ambiguous = synth.deps.pairs.len();
    let bypassed = synth.bypassed.len();
    let (netlist, bus) = (synth.netlist, synth.bus);
    let mut simulator = t.call("dataflow.new", || {
        Simulator::new(netlist, bus).map(|s| s.with_config(sim.clone()))
    })?;
    let report = t.call("dataflow.run", || simulator.run())?;
    let arrays: Vec<Vec<Value>> = synth
        .interface
        .split_ram(ram.borrow().image())
        .into_iter()
        .map(<[Value]>::to_vec)
        .collect();
    let gold = t.call("ir.golden", || prevv_ir::golden::execute(spec));
    let matches_golden = arrays == gold.arrays;

    if let Some(c) = counters {
        c.add("ir.netlist_nodes", nodes as f64);
        c.add("ir.netlist_channels", channels as f64);
        c.add("ir.ambiguous_pairs", ambiguous as f64);
        c.add("ir.bypassed_pairs", bypassed as f64);
        c.add("sim.runs", 1.0);
        c.add("dataflow.cycles", report.cycles as f64);
        c.add("dataflow.transfers", report.transfers as f64);
        c.add("dataflow.stall_cycles", report.stall_cycles as f64);
        c.add("dataflow.squashes", report.squashes as f64);
        c.add("dataflow.replayed_iters", report.replayed_iters as f64);
        if let Some(s) = prevv_stats {
            add_prevv(c, &s.borrow(), iterations);
        }
        if let Some(log) = squash_log {
            c.add("core.squash_log_len", log.borrow().len() as f64);
        }
        if let Some(s) = lsq_stats {
            add_lsq(c, &s.borrow());
        }
    }
    Ok(SimRun {
        arrays,
        report,
        matches_golden,
    })
}

fn add_prevv(c: &mut Counters, s: &PrevvStats, iterations: usize) {
    c.add("core.iterations", iterations as f64);
    c.add("core.validations", s.validations as f64);
    c.add("core.comparisons", s.comparisons as f64);
    c.add("core.ram_reads", s.ram_reads as f64);
    c.add("core.ram_writes", s.ram_writes as f64);
    c.add("core.violations", s.violations as f64);
    c.add("core.squashes", s.squashes as f64);
    c.add("core.replayed_iters", s.replayed_iters as f64);
    c.add("core.forwards", s.forwards as f64);
    c.add("core.fakes", s.fakes as f64);
    c.max("core.queue_high_water", s.queue_high_water as f64);
    c.add("core.queue_full_stalls", s.queue_full_stalls as f64);
    c.add("core.predictor_holds", s.predictor_holds as f64);
    c.add("core.conservative_holds", s.conservative_holds as f64);
}

fn add_lsq(c: &mut Counters, s: &LsqStats) {
    c.add("mem.ram_reads", s.ram_reads as f64);
    c.add("mem.ram_writes", s.ram_writes as f64);
    c.max("mem.high_water", s.high_water as f64);
    c.add("mem.forwards", s.forwards as f64);
    c.add("mem.alloc_stall_cycles", s.alloc_stall_cycles as f64);
}

/// The engine configuration every simulation workload uses: the default
/// event-driven scheduler and budgets.
pub fn event_sim() -> SimConfig {
    SimConfig {
        scheduler: Scheduler::EventDriven,
        ..SimConfig::default()
    }
}

/// The design report [`prevv::evaluate`] prices `ctrl` with; its
/// controller LUTs and clock period are added to `c`.
pub fn price(
    synth: &SynthesizedKernel,
    ctrl: &Controller,
    t: &mut Tracer,
    c: &mut Counters,
) -> DesignReport {
    let d = t.call("area.estimate", || match ctrl.area_kind() {
        Some(kind) => prevv_area::estimate(synth, kind),
        None => DesignReport {
            datapath: prevv_area::datapath_cost(synth),
            controller: Resources::zero(),
            clock_period_ns: prevv_area::calib::CP_BASE_NS,
        },
    });
    c.add("area.designs", 1.0);
    c.add("area.controller_luts", d.controller.luts as f64);
    c.add("area.cp_ns", d.clock_period_ns);
    d
}

/// The static front end for one synthesized kernel: PV1xx circuit lints
/// against each controller that will be attached, and the PV4xx throughput
/// analysis against the PreVV configuration. Returns every finding.
pub fn front_end(
    synth: &SynthesizedKernel,
    ctrls: &[Controller],
    prevv: &PrevvConfig,
    t: &mut Tracer,
) -> Report {
    let mut report = Report::default();
    for ctrl in ctrls {
        let r = t.call("analyze.circuit", || {
            lint_circuit(
                synth,
                &CircuitOptions {
                    controller: ctrl.circuit_model(),
                },
            )
        });
        report.diagnostics.extend(r.diagnostics);
    }
    t.call("analyze.perf", || {
        lint_perf(
            synth,
            &PerfOptions {
                config: prevv.clone(),
            },
            &mut report,
        )
    });
    report
}

/// `parse_seed("0xPREVV")`: the base seed of the CI fuzz gate and of the
/// `BENCH_sim.json` gen regime.
pub const FUZZ_GATE_SEED: u64 = 0x0e1e_5c70_ad89_5542;

/// Splitmix64 mix of `base` and `i`: the per-kernel seed of
/// `runkernel --fuzz`, so adjacent base seeds give unrelated streams.
pub fn kernel_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parses a seed the way `runkernel --seed` does: decimal, `0x`-hex, or
/// any other string hashed with FNV-1a (so `0xPREVV` is a valid seed).
pub fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
