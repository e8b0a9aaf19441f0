//! # prevv-benchmark — one benchmark for the whole PreVV pipeline
//!
//! Three workloads drive the workspace through its public functions only:
//! [`oracle`] (the differential fuzz gate), [`latency`] (external-memory
//! simulation, idle circuits) and [`busy`] (the Table I/II evaluation,
//! every cycle fires). Each runs as one process with one thread and a
//! closed loop: one job at a time, the next starting when the previous one
//! ends.
//!
//! The untraced run ([`run_untraced`]) measures the end-to-end metrics,
//! with host times scaled to a reference machine speed ([`calib`]); a
//! separate traced run ([`run_traced`]) records a span around every public
//! call and reports the per-layer split. See `benchmark/README.md`.

#![forbid(unsafe_code)]

pub mod busy;
pub mod calib;
pub mod latency;
pub mod oracle;
pub mod pipeline;
pub mod stats;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pipeline::Design;
use stats::Counters;
use trace::Tracer;

/// Input size: the benchmark's own, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few jobs, for tests.
    Tiny,
}

/// A workload: a pool of jobs made from a seed, run one at a time.
pub trait Workload {
    /// One job's prepared inputs.
    type Job;
    /// What a job returns; repeated runs of a job must return equal values.
    type Out: PartialEq + std::fmt::Debug;
    /// The per-layer counter the untraced job time is added to in the
    /// traced run, when the untraced job is one opaque facade call.
    const FACADE_MS: Option<&'static str> = None;

    /// Generates the inputs and runs the static front end over them.
    ///
    /// # Errors
    ///
    /// A description of an input the pipeline refuses.
    fn setup(
        seed: u64,
        scale: Scale,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<Vec<Self::Job>, String>;
    /// The timed unit.
    ///
    /// # Errors
    ///
    /// A failed job: oracle failure, `RunError`, or golden mismatch.
    fn run(job: &Self::Job) -> Result<Self::Out, String>;
    /// The job's design outputs, from its result (untimed).
    ///
    /// # Errors
    ///
    /// The design cannot be reproduced from the result.
    fn design(job: &Self::Job, out: &Self::Out) -> Result<Design, String>;
    /// The same job through public calls under spans, adding per-layer
    /// counts to `c`.
    ///
    /// # Errors
    ///
    /// As [`Workload::run`].
    fn run_traced(
        job: &Self::Job,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<(Self::Out, Design), String>;
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every job passed and every repeated output agreed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed (oracle failure, `RunError`, golden mismatch, panic).
    pub failed: u64,
    /// The run's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Design outputs summed over one pass of the pool.
    pub design: Design,
    /// Human-readable notes: sample counts, failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its value and unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end metrics of the untraced run, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p95", "ms"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "count"),
    ("exec_time_us", "us"),
    ("luts", "count"),
];

/// The workspace crates, in pipeline order: the layers of the split.
pub const LAYERS: [&str; 8] = [
    "kernels", "ir", "analyze", "dataflow", "core", "mem", "area", "prevv",
];

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        Err(format!("panic: {msg}"))
    })
}

/// One set-up: the inputs, the static front end, and one warm-up job.
/// Returns the pool and the seconds it took.
fn timed_setup<W: Workload>(seed: u64, scale: Scale) -> Result<(Vec<W::Job>, f64), String> {
    let start = Instant::now();
    let pool = W::setup(
        seed,
        scale,
        &mut Tracer::new(false),
        &mut Counters::default(),
    )?;
    let first = pool.first().ok_or("empty pool")?;
    // The warm-up result is discarded; the timed loop judges the job.
    let _ = guarded(|| W::run(first));
    Ok((pool, start.elapsed().as_secs_f64()))
}

/// The untraced run: set-up, then whole passes over the pool in a closed
/// loop until `seconds` have passed (at least one pass), each followed by
/// another timed set-up; calibration samples are taken between jobs every
/// [`calib::EVERY_S`] seconds. Every job must
/// return the same result in every pass; the design outputs come from one
/// pass.
///
/// # Errors
///
/// Set-up failed: the benchmark's inputs are refused.
pub fn run_untraced<W: Workload>(seed: u64, scale: Scale, seconds: f64) -> Result<Outcome, String> {
    let (pool, first_setup_s) = timed_setup::<W>(seed, scale)?;
    let mut setup_s = vec![first_setup_s];
    let mut calib_s = vec![calib::sample()];
    let mut calibrated = Instant::now();
    let n = pool.len();
    let mut firsts: Vec<Option<W::Out>> = (0..n).map(|_| None).collect();
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut pass_wall = Vec::new();
    let mut notes = Vec::new();
    let (mut failed, mut disagreed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < budget {
        let pass_start = Instant::now();
        let mut times = Vec::with_capacity(n);
        for (i, job) in pool.iter().enumerate() {
            let t0 = Instant::now();
            let out = guarded(|| W::run(job));
            times.push(t0.elapsed().as_secs_f64());
            if calibrated.elapsed().as_secs_f64() >= calib::EVERY_S {
                calib_s.push(calib::sample());
                calibrated = Instant::now();
            }
            match (out, &firsts[i]) {
                (Err(e), _) => {
                    failed += 1;
                    notes.push(format!("job {i} failed: {e}"));
                }
                (Ok(o), None) => firsts[i] = Some(o),
                (Ok(o), Some(f)) if o != *f => {
                    disagreed += 1;
                    notes.push(format!("job {i} changed its output between passes"));
                }
                (Ok(_), Some(_)) => {}
            }
        }
        pass_wall.push(pass_start.elapsed().as_secs_f64());
        samples.push(times);
        // Set up again after every pass (the pool is discarded), so that
        // `setup_s`, the median, samples the whole run as the job times do.
        setup_s.push(timed_setup::<W>(seed, scale)?.1);
    }

    let mut design = Design::default();
    for (i, out) in firsts.iter().enumerate() {
        let Some(out) = out else { continue };
        match guarded(|| W::design(&pool[i], out)) {
            Ok(d) => design += d,
            Err(e) => {
                failed += 1;
                notes.push(format!("job {i}: {e}"));
            }
        }
    }
    let passes = samples.len();
    // Other tenants of a shared machine only ever slow a job down, in
    // bursts from seconds to minutes. A job's time is its fastest pass, the
    // one least disturbed; rates and quantiles are taken over these per-job
    // minima.
    let mut per_job: Vec<f64> = (0..n)
        .map(|i| samples.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let total_s: f64 = per_job.iter().sum();
    per_job.sort_by(f64::total_cmp);
    let q = |p| stats::quantile(&per_job, p).expect("the pool is not empty") * 1e3;
    let beyond_p95 = n - (n as f64 * 0.95).ceil() as usize;
    notes.push(format!(
        "{passes} pass(es) of {n} jobs in {:.2} s (pass {:.3}..{:.3} s); \
         job_ms_p95 over {n} per-job minima of {passes} samples, {beyond_p95} beyond it",
        start.elapsed().as_secs_f64(),
        pass_wall.iter().copied().fold(f64::INFINITY, f64::min),
        pass_wall.iter().copied().fold(0.0, f64::max),
    ));
    // Host times are scaled to the calibration's reference speed; the
    // unscaled values stay in the notes.
    let speed = calib::scale(&calib_s);
    notes.push(format!(
        "calibration 10th percentile of {} {:.3} ms (reference {:.3} ms): host times x {speed:.4}; \
         unscaled jobs_per_s {:.3}, job_ms_p50 {:.4}, job_ms_p95 {:.4}, setup_s {:.4}",
        calib_s.len(),
        calib::NOMINAL_S / speed * 1e3,
        calib::NOMINAL_S * 1e3,
        n as f64 / total_s,
        q(0.5),
        q(0.95),
        stats::median(&setup_s),
    ));
    let values = [
        n as f64 / (total_s * speed),
        q(0.5) * speed,
        q(0.95) * speed,
        design.sim_cycles as f64 / (total_s * speed),
        stats::median(&setup_s) * speed,
        stats::peak_rss_mb().unwrap_or(0.0),
        design.sim_cycles as f64,
        design.exec_time_us,
        design.luts as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0 && disagreed == 0,
        attempted: (passes * n) as u64,
        failed,
        metrics,
        design,
        notes,
    })
}

/// The traced run: one traced set-up, then passes over the pool until
/// `seconds` have passed (at least one). Each job runs untraced (timed, the
/// reference) and traced; the two must return equal results. Counts come
/// from the first pass, times are per pass. Returns the per-layer metrics
/// and the spans.
///
/// # Errors
///
/// Set-up failed: the benchmark's inputs are refused.
pub fn run_traced<W: Workload>(
    seed: u64,
    scale: Scale,
    seconds: f64,
) -> Result<(Outcome, Tracer), String> {
    let mut t = Tracer::new(true);
    let mut c = Counters::default();
    let root = t.enter("setup");
    let pool = W::setup(seed, scale, &mut t, &mut c);
    t.exit(root);
    let pool = pool?;
    let mut notes = Vec::new();
    let (mut failed, mut untraced_ns, mut passes) = (0u64, 0u64, 0usize);
    let mut design = Design::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while passes == 0 || start.elapsed() < budget {
        // Counts repeat exactly from pass to pass: keep the first pass's.
        let mut later = Counters::default();
        let c = if passes == 0 { &mut c } else { &mut later };
        for (i, job) in pool.iter().enumerate() {
            let untraced = |untraced_ns: &mut u64| {
                let t0 = Instant::now();
                let out = guarded(|| W::run(job));
                *untraced_ns +=
                    u64::try_from(t0.elapsed().as_nanos()).expect("job shorter than 584 years");
                out
            };
            let traced = |t: &mut Tracer, c: &mut Counters| {
                let root = t.enter("job");
                let out = guarded(|| W::run_traced(job, t, c));
                t.unwind_to(root);
                out
            };
            // Alternate which variant runs first, so neither always finds
            // the caches warmed by the other.
            let (reference, traced) = if i % 2 == 0 {
                let r = untraced(&mut untraced_ns);
                (r, traced(&mut t, c))
            } else {
                let tr = traced(&mut t, c);
                (untraced(&mut untraced_ns), tr)
            };
            match (reference, traced) {
                (Ok(r), Ok((o, d))) if r == o => {
                    if passes == 0 {
                        design += d;
                    }
                }
                (Ok(r), Ok((o, _))) => {
                    failed += 1;
                    notes.push(format!("job {i}: traced {o:?} != untraced {r:?}"));
                }
                (Err(e), _) | (_, Err(e)) => {
                    failed += 1;
                    notes.push(format!("job {i} failed: {e}"));
                }
            }
        }
        passes += 1;
    }
    if let Some(name) = W::FACADE_MS {
        c.add(name, untraced_ns as f64 / passes as f64 / 1e6);
    }
    notes.push(format!(
        "{passes} traced pass(es) of {} jobs in {:.2} s",
        pool.len(),
        start.elapsed().as_secs_f64()
    ));
    let attempted = (passes * pool.len()) as u64;
    let metrics = layer_metrics(
        &c,
        t.spans(),
        passes,
        untraced_ns,
        failed as f64 / attempted as f64,
    );
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        design,
        notes,
    };
    Ok((outcome, t))
}

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    layer_metrics(&Counters::default(), &[], 1, 0, 0.0)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// Per-layer metrics of a traced run of `passes` passes: `_ms` metrics are
/// per pass (set-up spans counted once), counts are those of one pass.
fn layer_metrics(
    c: &Counters,
    spans: &[trace::Span],
    passes: usize,
    untraced_ns: u64,
    fail_frac: f64,
) -> Vec<Metric> {
    let per_pass = |ns: u64| ns as f64 / passes as f64;
    let ms = |name: &str| {
        (per_pass(trace::total_ns(spans, "job", name))
            + trace::total_ns(spans, "setup", name) as f64)
            / 1e6
    };
    let per_s = |n: f64, ms: f64| if ms > 0.0 { n / (ms / 1e3) } else { 0.0 };
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (job_ns, child_ns) = trace::root_and_child_ns(spans, "job");
    let selfs = trace::layer_self_ns(spans, "job");
    let m = |name: &str, value, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let mut out = vec![
        m("analyze.mc_ms", ms("analyze.mc"), "ms"),
        m("analyze.mc_states", c.get("analyze.mc_states"), "count"),
        m(
            "analyze.mc_transitions",
            c.get("analyze.mc_transitions"),
            "count",
        ),
        m("analyze.mc_enabled", c.get("analyze.mc_enabled"), "count"),
        m(
            "analyze.mc_reduction_ratio",
            c.ratio("analyze.mc_transitions", "analyze.mc_enabled"),
            "ratio",
        ),
        m(
            "analyze.mc_states_per_s",
            per_s(c.get("analyze.mc_states"), ms("analyze.mc")),
            "1/s",
        ),
        m(
            "analyze.mc_truncated",
            c.get("analyze.mc_truncated"),
            "count",
        ),
        m(
            "analyze.pairs_discharged",
            c.get("analyze.pairs_discharged"),
            "count",
        ),
        m(
            "analyze.pairs_conservative",
            c.get("analyze.pairs_conservative"),
            "count",
        ),
        m("analyze.replay_ms", ms("analyze.replay"), "ms"),
        m(
            "analyze.counterexamples",
            c.get("analyze.counterexamples"),
            "count",
        ),
        m("analyze.lint_ms", ms("analyze.lint"), "ms"),
        m("analyze.circuit_ms", ms("analyze.circuit"), "ms"),
        m("analyze.perf_ms", ms("analyze.perf"), "ms"),
        m("ir.render_ms", ms("ir.render"), "ms"),
        m("ir.parse_ms", ms("ir.parse"), "ms"),
        m("ir.synth_ms", ms("ir.synth"), "ms"),
        m("ir.golden_ms", ms("ir.golden"), "ms"),
        m("ir.netlist_nodes", c.get("ir.netlist_nodes"), "count"),
        m("ir.netlist_channels", c.get("ir.netlist_channels"), "count"),
        m("ir.ambiguous_pairs", c.get("ir.ambiguous_pairs"), "count"),
        m("ir.bypassed_pairs", c.get("ir.bypassed_pairs"), "count"),
        m("kernels.generate_ms", ms("kernels.generate"), "ms"),
        m("dataflow.new_ms", ms("dataflow.new"), "ms"),
        m("dataflow.run_ms", ms("dataflow.run"), "ms"),
        m(
            "dataflow.ns_per_cycle",
            share(ms("dataflow.run") * 1e6, c.get("dataflow.cycles")),
            "ns",
        ),
        m("dataflow.transfers", c.get("dataflow.transfers"), "count"),
        m(
            "dataflow.transfers_per_cycle",
            c.ratio("dataflow.transfers", "dataflow.cycles"),
            "ratio",
        ),
        m(
            "dataflow.stall_cycles",
            c.get("dataflow.stall_cycles"),
            "count",
        ),
        m("dataflow.squashes", c.get("dataflow.squashes"), "count"),
        m(
            "dataflow.replayed_iters",
            c.get("dataflow.replayed_iters"),
            "count",
        ),
        m("core.validations", c.get("core.validations"), "count"),
        m("core.comparisons", c.get("core.comparisons"), "count"),
        m(
            "core.comparisons_per_validation",
            c.ratio("core.comparisons", "core.validations"),
            "ratio",
        ),
        m("core.ram_reads", c.get("core.ram_reads"), "count"),
        m("core.ram_writes", c.get("core.ram_writes"), "count"),
        m("core.violations", c.get("core.violations"), "count"),
        m("core.squashes", c.get("core.squashes"), "count"),
        m("core.squash_log_len", c.get("core.squash_log_len"), "count"),
        m("core.replayed_iters", c.get("core.replayed_iters"), "count"),
        m(
            "core.replay_frac",
            c.ratio("core.replayed_iters", "core.iterations"),
            "ratio",
        ),
        m("core.forwards", c.get("core.forwards"), "count"),
        m("core.fakes", c.get("core.fakes"), "count"),
        m(
            "core.queue_high_water",
            c.get("core.queue_high_water"),
            "count",
        ),
        m(
            "core.queue_full_stalls",
            c.get("core.queue_full_stalls"),
            "count",
        ),
        m(
            "core.predictor_holds",
            c.get("core.predictor_holds"),
            "count",
        ),
        m(
            "core.conservative_holds",
            c.get("core.conservative_holds"),
            "count",
        ),
        m("mem.ram_reads", c.get("mem.ram_reads"), "count"),
        m("mem.ram_writes", c.get("mem.ram_writes"), "count"),
        m("mem.high_water", c.get("mem.high_water"), "count"),
        m("mem.forwards", c.get("mem.forwards"), "count"),
        m(
            "mem.alloc_stall_cycles",
            c.get("mem.alloc_stall_cycles"),
            "count",
        ),
        m("area.estimate_ms", ms("area.estimate"), "ms"),
        m(
            "area.controller_luts",
            c.get("area.controller_luts"),
            "count",
        ),
        m("area.cp_ns", c.ratio("area.cp_ns", "area.designs"), "ns"),
        m(
            "prevv.check_kernel_ms",
            c.get("prevv.check_kernel_ms"),
            "ms",
        ),
        m("prevv.run_kernel_ms", c.get("prevv.run_kernel_ms"), "ms"),
        m("prevv.fail_frac", fail_frac, "ratio"),
        m(
            "trace.overhead_frac",
            share(job_ns as f64 - untraced_ns as f64, untraced_ns as f64),
            "ratio",
        ),
        m(
            "trace.coverage",
            share(child_ns as f64, untraced_ns as f64),
            "ratio",
        ),
    ];
    for layer in LAYERS {
        let ns = selfs.get(layer).copied().unwrap_or(0);
        out.push(m(&format!("{layer}.self_ms"), per_pass(ns) / 1e6, "ms"));
        out.push(m(
            &format!("{layer}.self_share"),
            share(ns as f64, job_ns as f64),
            "ratio",
        ));
    }
    out
}
