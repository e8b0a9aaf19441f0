//! `oracle`: the differential fuzz oracle, one kernel per job.
//!
//! Each job runs one kernel through `prevv::diffcheck::check_kernel` with
//! the default options: golden run, text round trip, lints, the bounded
//! PV2xx model check with counterexample replay, and five backends × two
//! schedulers. The pool is the CI fuzz gate — the 200 kernels
//! `runkernel --fuzz 200 --seed 0xPREVV` checks, the same for every seed —
//! followed by seeded instances of the hand-written kernel families
//! (index streams, hash seeds, matrix data and guard periods drawn from the
//! seed). The traced variant drives the same steps through their public
//! functions and must reproduce the oracle's digests.

use prevv::diffcheck::{self, DiffOptions};
use prevv::{Controller, RunError, Scheduler, SimConfig, SimError};
use prevv_analyze::Severity;
use prevv_analyze::{check_protocol, replay_counterexample, AnalyzeOptions, ProtocolOptions};
use prevv_ir::{pretty, KernelSpec};
use prevv_kernels::gen::{self, GenConfig};
use prevv_kernels::{extra, paper, suite, workload};

use crate::pipeline::{self, simulate, Backend, Design};
use crate::stats::Counters;
use crate::trace::Tracer;
use crate::{Scale, Workload};

/// Default seed of the kernel-family instances.
pub const DEFAULT_SEED: u64 = 0x0c1e_0a11_5eed_0001;
/// Reserved for confirming a claim on inputs no change was tuned on.
pub const HELD_OUT_SEED: u64 = 0x0c1e_0a11_5eed_0002;

/// One kernel and the prices of its five backends.
#[derive(Debug, Clone)]
pub struct Job {
    spec: KernelSpec,
    /// `(label, LUTs, clock period in ns)` per backend, in oracle order.
    prices: Vec<(String, u64, f64)>,
}

/// What the oracle observes of one kernel; the traced run must reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    digests: Vec<(String, u64)>,
    lint_errors: usize,
    counterexamples: usize,
}

/// `(gate kernels, family instance sets)` per scale.
fn sizes(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (200, 4),
        Scale::Tiny => (2, 1),
    }
}

/// The pool's kernels: the fuzz gate, the paper suite (full scale only) and
/// fixed extremes, then `sets` seeded instances of each kernel family.
fn kernels(seed: u64, scale: Scale, t: &mut Tracer) -> Vec<KernelSpec> {
    let (gate, sets) = sizes(scale);
    let mut out: Vec<KernelSpec> = (0..gate)
        .map(|i| {
            let seed = pipeline::kernel_seed(pipeline::FUZZ_GATE_SEED, i);
            t.call("kernels.generate", || {
                gen::generate(seed, &GenConfig::default())
            })
        })
        .collect();
    t.call("kernels.generate", || {
        if scale == Scale::Full {
            out.extend(paper::all_default());
            out.push(extra::overlapped_pairs(32, 3));
        }
        out.push(extra::serial_reduction(32));
        for i in 0..sets {
            let s = pipeline::kernel_seed(seed, i);
            let r = (s % 4) as i64;
            out.push(extra::fig2a(
                64,
                workload::adversarial_stream(64, 16, 1 + r as usize, s),
            ));
            out.push(extra::fig2b(48, 6 + r));
            out.push(extra::histogram(64, 8 << (s % 3), s));
            out.push(extra::guarded_update(48, 2 + r));
            out.push(suite::spmv(8, 4, s));
            out.push(suite::stencil1d(24, 2, s));
            out.push(suite::knapsack(6, 16, s));
        }
    });
    out
}

/// The oracle's backends in the order `check_kernel` runs them.
fn all_backends(spec: &KernelSpec) -> Vec<Controller> {
    let mut all = vec![Controller::Direct];
    all.extend(diffcheck::backends(spec));
    all
}

/// The oracle workload.
pub struct Oracle;

impl Workload for Oracle {
    type Job = Job;
    type Out = Verdict;
    const FACADE_MS: Option<&'static str> = Some("prevv.check_kernel_ms");

    fn setup(
        seed: u64,
        scale: Scale,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<Vec<Job>, String> {
        kernels(seed, scale, t)
            .into_iter()
            .map(|spec| {
                let synth = t
                    .call("ir.synth", || prevv_ir::synthesize(&spec))
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                let ctrls = all_backends(&spec);
                let Some(Controller::Prevv(cfg)) = ctrls.last() else {
                    unreachable!("the oracle's last backend is PreVV")
                };
                pipeline::front_end(&synth, &ctrls[1..], cfg, t);
                let prices = ctrls
                    .iter()
                    .map(|ctrl| {
                        let d = pipeline::price(&synth, ctrl, t, c);
                        (ctrl.name(), d.total().luts, d.clock_period_ns)
                    })
                    .collect();
                Ok(Job { spec, prices })
            })
            .collect()
    }

    fn run(job: &Job) -> Result<Verdict, String> {
        let v = diffcheck::check_kernel(&job.spec, &DiffOptions::default());
        if !v.passed() {
            let why: Vec<String> = v.failures.iter().map(ToString::to_string).collect();
            return Err(format!("{}: {}", v.name, why.join("; ")));
        }
        Ok(Verdict {
            digests: v.digests,
            lint_errors: v.lint_errors,
            counterexamples: v.counterexamples,
        })
    }

    /// Re-simulates every backend under the event scheduler through
    /// `run_kernel_with` (untimed) and checks each digest against the
    /// oracle's. The dense runs agree cycle for cycle (the oracle checks
    /// it), so a kernel's simulated cycles are twice the event sum.
    fn design(job: &Job, out: &Verdict) -> Result<Design, String> {
        let spec = &job.spec;
        let mut d = Design::default();
        for (ctrl, (label, luts, cp)) in all_backends(spec).into_iter().zip(&job.prices) {
            let label = format!("{label}/event");
            let want = out.digests.iter().find(|(l, _)| *l == label).map(|x| x.1);
            let run = prevv::run_kernel_with(
                spec,
                ctrl,
                &prevv::SynthOptions::default(),
                &oracle_sim(Scheduler::EventDriven),
            );
            match (run, want) {
                (Ok(r), Some(w)) if diffcheck::digest(&r.arrays, r.report.cycles) == w => {
                    d += Design {
                        sim_cycles: 2 * r.report.cycles,
                        luts: *luts,
                        exec_time_us: r.report.cycles as f64 * cp / 1000.0,
                    };
                }
                // A wedge the oracle excused has no digest.
                (Err(_), None) => d.luts += luts,
                _ => return Err(format!("{}: {label} does not reproduce", spec.name)),
            }
        }
        Ok(d)
    }

    fn run_traced(
        job: &Job,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<(Verdict, Design), String> {
        let opts = DiffOptions::default();
        let spec = &job.spec;
        // `check_kernel` runs the golden interpreter once up front.
        t.call("ir.golden", || prevv_ir::golden::execute(spec));

        // Text round trip, as `check_kernel` does it.
        let src = t.call("ir.render", || pretty::render(spec));
        let body: String = src.lines().skip(1).collect::<Vec<_>>().join("\n");
        let reparsed = t
            .call("ir.parse", || {
                prevv_ir::parse::parse_kernel(&spec.name, &body)
            })
            .map_err(|e| format!("{}: rendered text does not parse: {e}", spec.name))?;
        if reparsed != *spec {
            return Err(format!("{}: round trip changed the kernel", spec.name));
        }

        let backends = t.call("prevv.backends", || all_backends(spec));
        let Some(Controller::Prevv(cfg)) = backends.last() else {
            unreachable!("the oracle's last backend is PreVV")
        };
        let lint = t.call("analyze.lint", || {
            prevv_analyze::analyze(spec, &AnalyzeOptions::for_config(cfg))
        });
        let lint_errors = lint
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();

        let mc_opts = ProtocolOptions {
            iterations: opts.mc_iterations,
            max_states: opts.mc_max_states,
            threads: 1,
            ..ProtocolOptions::for_config(cfg)
        };
        let mc = t
            .call("analyze.mc", || check_protocol(spec, &mc_opts))
            .map_err(|e| format!("{}: model checker refused the kernel: {e}", spec.name))?;
        let s = &mc.stats;
        c.add("analyze.mc_states", s.states as f64);
        c.add("analyze.mc_transitions", s.transitions as f64);
        c.add("analyze.mc_enabled", s.enabled as f64);
        c.add(
            "analyze.mc_truncated",
            f64::from(u8::from(s.truncated_by_budget)),
        );
        c.add("analyze.pairs_discharged", s.pairs.discharged as f64);
        c.add("analyze.pairs_conservative", s.pairs.conservative as f64);
        c.add("analyze.counterexamples", mc.counterexamples.len() as f64);
        for cex in &mc.counterexamples {
            let outcome = t
                .call("analyze.replay", || {
                    replay_counterexample(spec, &mc_opts, cex)
                })
                .map_err(|e| format!("{}: counterexample does not replay: {e}", spec.name))?;
            if !(outcome.deadlock || outcome.admission_blocked || outcome.cycle_closed) {
                return Err(format!("{}: counterexample witnesses nothing", spec.name));
            }
        }
        let tolerate_wedge = !mc.counterexamples.is_empty();

        let mut digests = Vec::new();
        let mut design = Design::default();
        for (ctrl, (name, luts, cp)) in backends.iter().zip(&job.prices) {
            let backend = Backend::stock(ctrl);
            design.luts += luts;
            for (sched, label) in [
                (Scheduler::Dense, "dense"),
                (Scheduler::EventDriven, "event"),
            ] {
                match simulate(spec, &backend, &oracle_sim(sched), t, Some(c)) {
                    Ok(run) => {
                        if !matches!(ctrl, Controller::Direct) && !run.matches_golden {
                            return Err(format!(
                                "{}: {name}/{label} diverges from golden",
                                spec.name
                            ));
                        }
                        let cycles = run.report.cycles;
                        let d = t.call("prevv.digest", || diffcheck::digest(&run.arrays, cycles));
                        digests.push((format!("{name}/{label}"), d));
                        design.sim_cycles += cycles;
                        if sched == Scheduler::EventDriven {
                            design.exec_time_us += cycles as f64 * cp / 1000.0;
                        }
                    }
                    Err(RunError::Sim(SimError::Deadlock { .. } | SimError::Timeout { .. }))
                        if tolerate_wedge && matches!(ctrl, Controller::Prevv(_)) => {}
                    Err(e) => return Err(format!("{}: {name}/{label}: {e}", spec.name)),
                }
            }
        }
        Ok((
            Verdict {
                digests,
                lint_errors,
                counterexamples: mc.counterexamples.len(),
            },
            design,
        ))
    }
}

fn oracle_sim(scheduler: Scheduler) -> SimConfig {
    let opts = DiffOptions::default();
    SimConfig {
        max_cycles: opts.max_cycles,
        watchdog: opts.watchdog,
        scheduler,
    }
}
