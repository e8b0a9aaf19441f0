//! Hostile input: whatever bytes a `.pvk` file holds, the pipeline must end
//! in a diagnostic or a result — never a panic or an abort.
//!
//! Every pinned kernel (`kernels/`, `kernels/bad/`, `tests/fuzz_corpus/`)
//! is mutated deterministically (splitmix64: delete bytes, insert a token,
//! swap in a byte, splice from another file), and each mutant runs through
//! parse → kernel, circuit and perf lints → protocol model check →
//! simulation under PreVV16, the fast LSQ and direct memory, all under
//! `catch_unwind`. Pinned reproducers cover the loop-bound and size cases
//! that used to abort (an iteration space or RAM too large to synthesize)
//! or overflow (an iteration count or a loop bound past 64 bits); they run
//! in a child process under a virtual-memory cap, so a regression fails the
//! test instead of exhausting the machine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;

use prevv::analyze::{check_protocol, lint_source_with_perf, PerfOptions, ProtocolOptions};
use prevv::ir::parse::parse_kernel;
use prevv::ir::KernelError;
use prevv::{
    run_kernel_with, AnalyzeOptions, CircuitOptions, Controller, PrevvConfig, RunError, SimConfig,
    SynthOptions,
};

/// Mutants generated from each pinned file.
const MUTANTS_PER_FILE: u64 = 20;

/// Tokens the insert mutation draws from: kernel syntax, near-miss syntax,
/// and numbers at the edges of `i64`.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "9",
    "-1",
    "-",
    "+",
    "*",
    "/",
    "%",
    "<",
    "<=",
    "==",
    "&&",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    "=",
    "+=",
    "i",
    "j",
    "a",
    "b",
    "int",
    "for",
    "if",
    "++i",
    "h3_8(",
    "h0_0(i)",
    "min(",
    "max(",
    "depth_q = 1;",
    "int z[1];",
    "a[a[i]]",
    "i + 1",
    "\n",
    "//",
    "9223372036854775807",
    "-9223372036854775808",
    "99999999999999999999",
];

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn pinned_files() -> Vec<(String, Vec<u8>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["kernels", "kernels/bad", "tests/fuzz_corpus"] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "pvk"))
            .collect();
        paths.sort();
        for p in paths {
            let name = format!("{dir}/{}", p.file_name().unwrap().to_string_lossy());
            files.push((name, std::fs::read(&p).expect("read pinned kernel")));
        }
    }
    files
}

/// One deterministic mutation of `src`; returns the mutant and its kind.
fn mutate(src: &[u8], donors: &[(String, Vec<u8>)], rng: &mut SplitMix) -> (Vec<u8>, &'static str) {
    let mut out = src.to_vec();
    let at = rng.below(out.len() + 1);
    match rng.below(4) {
        0 => {
            let end = (at + 1 + rng.below(4)).min(out.len());
            out.drain(at..end);
            (out, "delete")
        }
        1 => {
            let token = TOKENS[rng.below(TOKENS.len())];
            out.splice(at..at, token.bytes());
            (out, "insert")
        }
        2 => {
            // Mostly printable ASCII; one draw in four is any byte, which
            // may leave invalid UTF-8 behind.
            let byte = if rng.below(4) == 0 {
                rng.below(256) as u8
            } else {
                0x20 + rng.below(0x5f) as u8
            };
            match out.get_mut(at) {
                Some(b) => *b = byte,
                None => out.push(byte),
            }
            (out, "swap")
        }
        _ => {
            let donor = &donors[rng.below(donors.len())].1;
            let from = rng.below(donor.len());
            let piece = &donor[from..(from + 1 + rng.below(24)).min(donor.len())];
            let end = (at + rng.below(24)).min(out.len());
            out.splice(at..end, piece.iter().copied());
            (out, "splice")
        }
    }
}

/// How far one source got through the pipeline.
#[derive(Debug, Default)]
struct Outcome {
    parsed: bool,
    /// Controllers whose run returned a result (golden match or not).
    simulated: usize,
    /// The run errors, for the reproducers' expectations.
    run_errors: Vec<RunError>,
}

fn pipeline(name: &str, source: &str) -> Outcome {
    let mut outcome = Outcome::default();
    let _ = lint_source_with_perf(
        name,
        source,
        &AnalyzeOptions::default(),
        Some(&CircuitOptions::default()),
        &PerfOptions::default(),
    );
    let Ok(spec) = parse_kernel(name, source) else {
        return outcome;
    };
    outcome.parsed = true;
    let protocol = ProtocolOptions {
        iterations: 2,
        max_states: 20_000,
        threads: 1,
        ..ProtocolOptions::default()
    };
    let _ = check_protocol(&spec, &protocol);
    let sim = SimConfig {
        max_cycles: 200_000,
        ..SimConfig::default()
    };
    for controller in [
        Controller::Prevv(PrevvConfig::prevv16()),
        Controller::FastLsq { depth: 16 },
        Controller::Direct,
    ] {
        match run_kernel_with(&spec, controller, &SynthOptions::default(), &sim) {
            Ok(_) => outcome.simulated += 1,
            Err(e) => outcome.run_errors.push(e),
        }
    }
    outcome
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

#[test]
fn mutated_kernels_never_panic() {
    let files = pinned_files();
    assert!(files.len() >= 40, "pinned kernels not found");
    let (mut total, mut parsed, mut simulated) = (0usize, 0usize, 0usize);
    let mut panics = Vec::new();
    for (fi, (name, src)) in files.iter().enumerate() {
        for m in 0..MUTANTS_PER_FILE {
            let mut rng = SplitMix(((fi as u64) << 32) | m);
            let (mutant, kind) = mutate(src, &files, &mut rng);
            let text = String::from_utf8_lossy(&mutant).into_owned();
            total += 1;
            match catch_unwind(AssertUnwindSafe(|| pipeline(name, &text))) {
                Ok(o) => {
                    parsed += usize::from(o.parsed);
                    simulated += usize::from(o.simulated > 0);
                }
                Err(payload) => panics.push(format!(
                    "{name} mutant {m} ({kind}): {}\n{text}",
                    panic_message(payload.as_ref())
                )),
            }
        }
    }
    eprintln!("{total} mutants: {parsed} parsed, {simulated} simulated");
    assert!(
        panics.is_empty(),
        "{} of {total} mutants panicked; first:\n{}",
        panics.len(),
        panics[0]
    );
    // A mutator that only produced garbage would pass vacuously.
    assert!(
        parsed * 10 >= total,
        "only {parsed} of {total} mutants parsed"
    );
    assert!(
        simulated * 20 >= total,
        "only {simulated} of {total} mutants simulated"
    );
}

/// Set in the capped child process that runs the reproducers.
const CHILD: &str = "PREVV_HOSTILE_INPUT_CHILD";

/// Virtual-memory cap of that child, in KiB (about 3 GB).
const CHILD_VMEM_KIB: u64 = 3_000_000;

/// The diagnostic a reproducer must end in.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// The parser rejects it (an overflowing count or bound).
    ParseError,
    /// It parses, and synthesis refuses it for every controller.
    TooLarge(&'static str),
}

fn meets(outcome: &Outcome, expect: Expect) -> bool {
    match expect {
        Expect::ParseError => !outcome.parsed,
        Expect::TooLarge(what) => {
            outcome.parsed
                && outcome.run_errors.len() == 3
                && outcome.run_errors.iter().all(|e| {
                    matches!(e, RunError::Kernel(KernelError::TooLarge { what: w, .. }) if *w == what)
                })
        }
    }
}

fn reproducers() {
    let cases = [
        (
            "huge_loop",
            "int h[16];\nfor (int i = 0; i < 400000000; ++i) {\n  h[h7_16(i)] += 1;\n}\n",
            Expect::TooLarge("iterations"),
        ),
        (
            "count_overflow",
            "int a[16];\nfor (int i = 0; i < 10000000000; ++i) {\n  \
             for (int j = 0; j < 10000000000; ++j) {\n    a[i] += j;\n  }\n}\n",
            Expect::ParseError,
        ),
        (
            "huge_array",
            "int a[4000000000];\nfor (int i = 0; i < 4; ++i) {\n  a[i] += 1;\n}\n",
            Expect::TooLarge("RAM words"),
        ),
        (
            "negated_min_offset",
            "int a[16];\nfor (int i = 0; i < 4; ++i) {\n  \
             for (int j = 0; j < i - -9223372036854775808; ++j) {\n    a[i] += j;\n  }\n}\n",
            Expect::ParseError,
        ),
        (
            "bound_overflow",
            "int a[16];\nfor (int i = 9223372036854775806; i < 9223372036854775807; ++i) {\n  \
             for (int j = i + 5; j < 3; ++j) {\n    a[j] += 1;\n  }\n}\n",
            Expect::ParseError,
        ),
    ];
    for (name, source, expect) in cases {
        let outcome = catch_unwind(|| pipeline(name, source))
            .unwrap_or_else(|p| panic!("{name} panicked: {}", panic_message(p.as_ref())));
        assert!(
            meets(&outcome, expect),
            "{name}: expected {expect:?}, got {outcome:?}"
        );
    }
}

#[test]
fn loop_bound_and_size_reproducers_end_in_diagnostics() {
    if std::env::var_os(CHILD).is_some() {
        reproducers();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -v {CHILD_VMEM_KIB} && exec \"$0\" \"$1\" --exact --test-threads=1"
        ))
        .arg(exe)
        .arg("loop_bound_and_size_reproducers_end_in_diagnostics")
        .env(CHILD, "1")
        .output()
        .expect("spawn sh");
    assert!(
        out.status.success(),
        "capped reproducer run failed ({}):\n{}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
