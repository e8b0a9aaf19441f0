//! Cross-crate integration: every paper kernel, under every controller,
//! must reproduce the golden (sequential C) semantics — the reproduction's
//! equivalent of the paper's ModelSim-vs-C++ check, run at reduced sizes so
//! the full matrix stays fast in CI.

use prevv::kernels::paper;
use prevv::{run_kernel, Controller, PrevvConfig};

fn controllers() -> Vec<(&'static str, Controller)> {
    vec![
        ("dynamatic16", Controller::Dynamatic { depth: 16 }),
        ("fast_lsq16", Controller::FastLsq { depth: 16 }),
        ("spec_lsq16", Controller::SpecLsq { depth: 16 }),
        ("prevv16", Controller::Prevv(PrevvConfig::prevv16())),
        ("prevv64", Controller::Prevv(PrevvConfig::prevv64())),
    ]
}

fn check_all(spec: prevv::KernelSpec) {
    for (name, ctrl) in controllers() {
        let r = run_kernel(&spec, ctrl)
            .unwrap_or_else(|e| panic!("{} under {name} failed: {e}", spec.name));
        assert!(
            r.matches_golden,
            "{} under {name} diverged from golden",
            spec.name
        );
    }
}

#[test]
fn polyn_mult_all_controllers() {
    check_all(paper::polyn_mult(10));
}

#[test]
fn mm2_all_controllers() {
    check_all(paper::mm2(5));
}

#[test]
fn mm3_all_controllers() {
    check_all(paper::mm3(4));
}

#[test]
fn gaussian_all_controllers() {
    check_all(paper::gaussian(6));
}

#[test]
fn triangular_all_controllers() {
    check_all(paper::triangular(6));
}

/// Table II's simulated cycles at the default paper sizes, one row per
/// kernel in `paper::all_default()` order, one column per controller in
/// `table2` order: [15], [8], spec16, PreVV16, PreVV64.
const TABLE2_CYCLES: [(&str, [u64; 5]); 5] = [
    ("polyn_mult", [778, 777, 777, 797, 696]),
    ("2mm", [1613, 1613, 1613, 2309, 1570]),
    ("3mm", [2025, 2025, 2025, 3455, 2093]),
    ("gaussian", [426, 426, 426, 632, 568]),
    ("triangular", [768, 768, 768, 1198, 1101]),
];

#[test]
fn table2_cycles_are_pinned() {
    let columns = [
        Controller::Dynamatic { depth: 16 },
        Controller::FastLsq { depth: 16 },
        Controller::SpecLsq { depth: 16 },
        Controller::Prevv(PrevvConfig::prevv16()),
        Controller::Prevv(PrevvConfig::prevv64()),
    ];
    for (spec, (kernel, pinned)) in paper::all_default().into_iter().zip(TABLE2_CYCLES) {
        assert_eq!(spec.name, kernel);
        let measured: Vec<u64> = columns
            .iter()
            .map(|ctrl| {
                let r = run_kernel(&spec, ctrl.clone()).expect("runs");
                assert!(r.matches_golden, "{kernel} under {}", ctrl.name());
                r.report.cycles
            })
            .collect();
        assert_eq!(
            measured, pinned,
            "{kernel}: [15], [8], spec16, PreVV16, PreVV64"
        );
    }
}

#[test]
fn prevv_beats_fast_lsq_on_resources_for_every_paper_kernel() {
    use prevv::evaluate;
    for spec in paper::all_default() {
        let lsq = evaluate(&spec, Controller::FastLsq { depth: 16 }).expect("runs");
        let prevv = evaluate(&spec, Controller::Prevv(PrevvConfig::prevv16())).expect("runs");
        assert!(
            prevv.design.total().luts < lsq.design.total().luts,
            "{}: PreVV16 must use fewer LUTs",
            spec.name
        );
        assert!(
            prevv.design.total().ffs < lsq.design.total().ffs,
            "{}: PreVV16 must use fewer FFs",
            spec.name
        );
        assert!(
            prevv.design.clock_period_ns < lsq.design.clock_period_ns,
            "{}: PreVV removes the search logic from the critical path",
            spec.name
        );
    }
}

#[test]
fn deeper_premature_queue_never_hurts_cycles_on_paper_kernels() {
    for spec in [
        paper::polyn_mult(10),
        paper::gaussian(6),
        paper::triangular(6),
    ] {
        let p16 = run_kernel(&spec, Controller::Prevv(PrevvConfig::prevv16())).expect("runs");
        let p64 = run_kernel(&spec, Controller::Prevv(PrevvConfig::prevv64())).expect("runs");
        assert!(
            p64.report.cycles <= p16.report.cycles + p16.report.cycles / 10,
            "{}: PreVV64 ({}) should not be materially slower than PreVV16 ({})",
            spec.name,
            p64.report.cycles,
            p16.report.cycles
        );
    }
}

#[test]
fn squash_and_replay_preserve_store_counts() {
    // Every golden store must be committed exactly once despite replays.
    let spec = paper::triangular(6);
    let r = run_kernel(&spec, Controller::Prevv(PrevvConfig::prevv16())).expect("runs");
    let gold = prevv::ir::golden::execute(&spec);
    let golden_stores = gold
        .trace
        .iter()
        .filter(|e| e.kind == prevv::ir::MemOpKind::Store)
        .count() as u64;
    let stats = r.prevv.expect("prevv stats");
    assert_eq!(
        stats.ram_writes, golden_stores,
        "committed stores must match the golden store count exactly"
    );
}
