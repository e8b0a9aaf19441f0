//! `latency`: the external-memory regime, where the circuit idles most
//! cycles.
//!
//! Reads take 200 cycles and writes 100, PreVV forwarding is off. The
//! fixed part of the pool is the `BENCH_sim.json` dram and gen regimes:
//! fig2a with an all-zero index vector, scaled up (every `a[b[i]] += 5`
//! hits one address, so each load waits for the previous store to commit),
//! and the eight `GenConfig::bench()` kernels of that bench's seed. The
//! seeded part is instances of the kernel families (index streams, hash
//! seeds and matrix data drawn from the seed). Each kernel runs under
//! PreVV, Dynamatic \[15\], the fast-allocation LSQ \[8\] and the
//! speculative-allocation LSQ with the default event-driven scheduler. One
//! job is one kernel × controller: synthesis, the controller's constructor,
//! `Simulator::new`/`run`, and the golden interpreter.

use prevv::{Controller, MemTiming, PrevvConfig};
use prevv_ir::KernelSpec;
use prevv_kernels::gen::{self, GenConfig};
use prevv_kernels::{extra, suite, workload};

use crate::pipeline::{self, simulate, Backend, Design};
use crate::stats::Counters;
use crate::trace::Tracer;
use crate::{Scale, Workload};

/// Default seed of the generated kernels.
pub const DEFAULT_SEED: u64 = 0x1a7e_0c1e_5eed_0001;
/// Reserved for confirming a claim on inputs no change was tuned on.
pub const HELD_OUT_SEED: u64 = 0x1a7e_0c1e_5eed_0002;

/// External-memory RAM timing.
pub const DRAM: MemTiming = MemTiming {
    read_latency: 200,
    write_latency: 100,
    read_ports: 1,
    write_ports: 1,
};

/// One kernel × controller, priced in set-up.
#[derive(Debug, Clone)]
pub struct Job {
    spec: KernelSpec,
    backend: Backend,
    luts: u64,
    cp_ns: f64,
}

/// `(fig2a iterations, generated kernels, family instance sets)` per scale.
/// fig2a is twice the `BENCH_sim.json` size, not more: every job stays under
/// about 50 ms, so that a job's fastest pass can fall between bursts of host
/// noise.
fn sizes(scale: Scale) -> (i64, u64, u64) {
    match scale {
        Scale::Full => (512, 8, 9),
        Scale::Tiny => (32, 1, 1),
    }
}

/// The pool's kernels: the fixed regimes, then `sets` seeded instances of
/// each kernel family.
fn kernels(seed: u64, scale: Scale) -> Vec<KernelSpec> {
    let (n, generated, sets) = sizes(scale);
    let mut out = vec![extra::fig2a(n, vec![0; n as usize])];
    out.extend((0..generated).map(|i| {
        gen::generate(
            pipeline::FUZZ_GATE_SEED.wrapping_add(i),
            &GenConfig::bench(),
        )
    }));
    for i in 0..sets {
        let s = pipeline::kernel_seed(seed, i);
        let r = (s % 4) as usize;
        out.push(extra::fig2a(
            96,
            workload::adversarial_stream(96, 32, 1 + r, s),
        ));
        out.push(extra::histogram(96, 8 << (s % 3), s));
        out.push(suite::spmv(6, 4, s));
        out.push(suite::stencil1d(24, 2, s));
        out.push(suite::knapsack(6, 16, s));
    }
    out
}

/// The four disambiguating controllers at a depth that fits `spec`.
fn controllers(spec: &KernelSpec) -> Vec<Controller> {
    let depth = 16usize.max(spec.mem_ops_per_iter());
    let mut prevv = PrevvConfig::with_depth(depth);
    prevv.forwarding = false;
    vec![
        Controller::Prevv(prevv),
        Controller::Dynamatic { depth },
        Controller::FastLsq { depth },
        Controller::SpecLsq { depth },
    ]
}

/// The latency-bound workload.
pub struct Latency;

impl Workload for Latency {
    type Job = Job;
    type Out = Design;

    fn setup(
        seed: u64,
        scale: Scale,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<Vec<Job>, String> {
        let kernels = t.call("kernels.generate", || kernels(seed, scale));
        let mut jobs = Vec::new();
        for spec in kernels {
            let synth = t
                .call("ir.synth", || prevv_ir::synthesize(&spec))
                .map_err(|e| format!("{}: {e}", spec.name))?;
            let ctrls = controllers(&spec);
            let Controller::Prevv(cfg) = &ctrls[0] else {
                unreachable!("PreVV comes first")
            };
            let report = pipeline::front_end(&synth, &ctrls, cfg, t);
            if report.has_errors() {
                return Err(format!("{}: static front end refuses it", spec.name));
            }
            for ctrl in &ctrls {
                let d = pipeline::price(&synth, ctrl, t, c);
                jobs.push(Job {
                    spec: spec.clone(),
                    backend: Backend::stock(ctrl).with_timing(DRAM),
                    luts: d.total().luts,
                    cp_ns: d.clock_period_ns,
                });
            }
        }
        Ok(jobs)
    }

    fn run(job: &Job) -> Result<Design, String> {
        run_job(job, &mut Tracer::new(false), None)
    }

    fn design(_: &Job, out: &Design) -> Result<Design, String> {
        Ok(*out)
    }

    fn run_traced(job: &Job, t: &mut Tracer, c: &mut Counters) -> Result<(Design, Design), String> {
        let d = run_job(job, t, Some(c))?;
        Ok((d, d))
    }
}

fn run_job(job: &Job, t: &mut Tracer, c: Option<&mut Counters>) -> Result<Design, String> {
    let run = simulate(&job.spec, &job.backend, &pipeline::event_sim(), t, c)
        .map_err(|e| format!("{}: {e}", job.spec.name))?;
    if !run.matches_golden {
        return Err(format!("{}: diverges from golden", job.spec.name));
    }
    Ok(Design {
        sim_cycles: run.report.cycles,
        luts: job.luts,
        exec_time_us: run.report.cycles as f64 * job.cp_ns / 1000.0,
    })
}
