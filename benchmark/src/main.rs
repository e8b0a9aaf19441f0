//! `prevv-benchmark --workload <oracle|latency|busy> [--seed <n>]
//! [--seconds <s>] [--trace <0|1>] [--spans <file>]`
//!
//! Prints the run's metrics one per line, then the JSON result as the last
//! line of standard output. `--trace 0` (the default) measures the
//! end-to-end metrics; `--trace 1` makes traced passes for `--seconds`,
//! prints the per-layer metrics, and writes every span as TSV to `--spans`
//! (default `.bench_out/spans-<workload>.tsv`).

use std::process::ExitCode;

use prevv_benchmark::busy::{self, Busy};
use prevv_benchmark::latency::{self, Latency};
use prevv_benchmark::oracle::{self, Oracle};
use prevv_benchmark::pipeline::parse_seed;
use prevv_benchmark::trace::Tracer;
use prevv_benchmark::{run_traced, run_untraced, Outcome, Scale, Workload};

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: prevv-benchmark --workload <oracle|latency|busy> [--seed <n>] \
         [--seconds <s>] [--trace <0|1>] [--spans <file>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(parse_seed(&value()?)),
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn report(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
}

fn write_spans(path: &str, t: &Tracer) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, t.to_tsv()).map_err(|e| format!("{path}: {e}"))
}

fn run<W: Workload>(args: &Args, default_seed: u64, held_out: u64) -> Result<(), String> {
    let seed = args.seed.unwrap_or(default_seed);
    eprintln!(
        "{}: seed {seed:#x} (default {default_seed:#x}, held out {held_out:#x}), {} mode",
        args.workload,
        if args.trace { "traced" } else { "untraced" }
    );
    if args.trace {
        let (outcome, tracer) = run_traced::<W>(seed, Scale::Full, args.seconds)?;
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| format!(".bench_out/spans-{}.tsv", args.workload));
        write_spans(&path, &tracer)?;
        eprintln!(
            "{}: {} spans written to {path}",
            args.workload,
            tracer.spans().len()
        );
        report(&outcome);
    } else {
        report(&run_untraced::<W>(seed, Scale::Full, args.seconds)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    // Jobs catch their own panics and count them as failures; keep the
    // default hook from printing a backtrace per caught panic.
    std::panic::set_hook(Box::new(|_| {}));
    let result = match args.workload.as_str() {
        "oracle" => run::<Oracle>(&args, oracle::DEFAULT_SEED, oracle::HELD_OUT_SEED),
        "latency" => run::<Latency>(&args, latency::DEFAULT_SEED, latency::HELD_OUT_SEED),
        "busy" => run::<Busy>(&args, busy::DEFAULT_SEED, busy::HELD_OUT_SEED),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
