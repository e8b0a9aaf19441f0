//! `busy`: the Table I/II data point, where every cycle fires.
//!
//! The five paper kernels above their default sizes, plus aliasing-heavy
//! fig2a (indices from `workload::adversarial_stream`) and histogram
//! kernels, each evaluated with on-chip RAM timing under the five
//! `experiments::configs()` columns. One job is one kernel × column through
//! `prevv::evaluate`: synthesis, the area model, and a full simulated run
//! checked against the golden interpreter.

use prevv::{evaluate, Controller};
use prevv_ir::KernelSpec;
use prevv_kernels::{extra, paper, workload};

use crate::pipeline::{self, simulate, Backend, Design};
use crate::stats::Counters;
use crate::trace::Tracer;
use crate::{Scale, Workload};

/// Default seed of the aliasing-heavy index streams.
pub const DEFAULT_SEED: u64 = 0xb05e_0c1e_5eed_0001;
/// Reserved for confirming a claim on inputs no change was tuned on.
pub const HELD_OUT_SEED: u64 = 0xb05e_0c1e_5eed_0002;

/// One kernel × Table II column.
#[derive(Debug, Clone)]
pub struct Job {
    spec: KernelSpec,
    ctrl: Controller,
}

/// Paper-suite sizes: `(2mm/3mm, polyn_mult, gaussian, triangular)`.
type PaperSizes = (i64, i64, i64, i64);

/// The kernels of one pool: the paper suite above its default sizes, then
/// `aliasing` seeded pairs of fig2a and histogram. Every job stays under
/// about 100 ms, so that a job's fastest pass can fall between bursts of
/// host noise.
fn kernels(seed: u64, scale: Scale) -> Vec<KernelSpec> {
    let (sizes, n, aliasing): (&[PaperSizes], i64, u64) = match scale {
        Scale::Full => (&[(10, 48, 12, 12)], 512, 18),
        Scale::Tiny => (&[(3, 4, 3, 3)], 16, 1),
    };
    let mut out = Vec::new();
    for &(mm, poly, gauss, tri) in sizes {
        out.push(paper::polyn_mult(poly));
        out.push(paper::mm2(mm));
        out.push(paper::mm3(mm));
        out.push(paper::gaussian(gauss));
        out.push(paper::triangular(tri));
    }
    for i in 0..aliasing {
        let s = pipeline::kernel_seed(seed, i);
        let reuse = 1 + (s % 4) as usize;
        let b = workload::adversarial_stream(n as usize, 16, reuse, s);
        out.push(extra::fig2a(n, b));
        out.push(extra::histogram(n, 8 << (s % 3), s));
    }
    out
}

/// The busy workload.
pub struct Busy;

impl Workload for Busy {
    type Job = Job;
    type Out = Design;
    const FACADE_MS: Option<&'static str> = Some("prevv.run_kernel_ms");

    fn setup(
        seed: u64,
        scale: Scale,
        t: &mut Tracer,
        _: &mut Counters,
    ) -> Result<Vec<Job>, String> {
        let specs = t.call("kernels.generate", || kernels(seed, scale));
        let configs: Vec<Controller> = prevv_bench::experiments::configs()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let Some(Controller::Prevv(prevv16)) =
            configs.iter().find(|c| matches!(c, Controller::Prevv(_)))
        else {
            unreachable!("the Table II columns include PreVV")
        };
        let mut jobs = Vec::new();
        for spec in specs {
            let synth = t
                .call("ir.synth", || prevv_ir::synthesize(&spec))
                .map_err(|e| format!("{}: {e}", spec.name))?;
            if pipeline::front_end(&synth, &configs, prevv16, t).has_errors() {
                return Err(format!("{}: static front end refuses it", spec.name));
            }
            jobs.extend(configs.iter().map(|ctrl| Job {
                spec: spec.clone(),
                ctrl: ctrl.clone(),
            }));
        }
        Ok(jobs)
    }

    fn run(job: &Job) -> Result<Design, String> {
        let e = evaluate(&job.spec, job.ctrl.clone())
            .map_err(|e| format!("{} {}: {e}", job.spec.name, job.ctrl.name()))?;
        if !e.run.matches_golden {
            return Err(format!(
                "{} {}: diverges from golden",
                job.spec.name,
                job.ctrl.name()
            ));
        }
        Ok(Design {
            sim_cycles: e.run.report.cycles,
            luts: e.design.total().luts,
            exec_time_us: e.exec_time_us,
        })
    }

    fn design(_: &Job, out: &Design) -> Result<Design, String> {
        Ok(*out)
    }

    /// `evaluate` taken apart: checked synthesis and the area model, then
    /// the steps of `run_kernel` (which synthesizes again).
    fn run_traced(job: &Job, t: &mut Tracer, c: &mut Counters) -> Result<(Design, Design), String> {
        let name = || format!("{} {}", job.spec.name, job.ctrl.name());
        let synth = t
            .call("ir.synth", || prevv_ir::synthesize(&job.spec))
            .map_err(|e| format!("{}: {e}", name()))?;
        let priced = pipeline::price(&synth, &job.ctrl, t, c);
        let run = simulate(
            &job.spec,
            &Backend::stock(&job.ctrl),
            &pipeline::event_sim(),
            t,
            Some(c),
        )
        .map_err(|e| format!("{}: {e}", name()))?;
        if !run.matches_golden {
            return Err(format!("{}: diverges from golden", name()));
        }
        let d = Design {
            sim_cycles: run.report.cycles,
            luts: priced.total().luts,
            exec_time_us: run.report.cycles as f64 * priced.clock_period_ns / 1000.0,
        };
        Ok((d, d))
    }
}
