//! In-memory span recorder and the self-time split computed from it.
//!
//! A span is one timed call into a layer: its name (`"<layer>.<call>"`),
//! start, end, parent span, and the job it belongs to. Spans are kept in a
//! `Vec` while the benchmark runs and written out once at the end. A
//! disabled tracer records nothing and never reads the clock, so the
//! untraced run pays for a branch per call site and nothing else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in [`Tracer::spans`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `"<layer>.<call>"`, e.g. `"dataflow.run"`; roots are `"job"` or
    /// `"setup"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Shared by every span of one job (or one set-up phase).
    pub job: u64,
}

impl Span {
    /// The layer prefix of the span name (`"ir"` for `"ir.synth"`).
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    job: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one. A root span starts a
    /// new job id.
    pub fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.job += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job: self.job,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned; spans close innermost first.
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Closes `id` and every span still open inside it (a caught panic
    /// leaves the spans it unwound through open).
    pub fn unwind_to(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                return;
            }
        }
        panic!("span {id} is not open");
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: `id job parent name start_ns end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tjob\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.job, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of the child intervals, clipped to
/// the parent, so overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer in nanoseconds, summed over the spans under roots
/// named `root` (e.g. every `"job"` tree). The roots' own self time is
/// reported under their name.
pub fn layer_self_ns(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    let selfs = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if root_name(spans, i) == root {
            *out.entry(s.layer()).or_insert(0) += selfs[i];
        }
    }
    out
}

/// Total duration of the roots named `root`, and of their direct children.
pub fn root_and_child_ns(spans: &[Span], root: &str) -> (u64, u64) {
    let mut roots = 0;
    let mut kids = 0;
    for s in spans {
        match s.parent {
            None if s.name == root => roots += s.duration_ns(),
            Some(p) if spans[p].parent.is_none() && spans[p].name == root => {
                kids += s.duration_ns();
            }
            _ => {}
        }
    }
    (roots, kids)
}

/// Total duration of the spans named `name` under roots named `root`.
pub fn total_ns(spans: &[Span], root: &str, name: &str) -> u64 {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && root_name(spans, *i) == root)
        .map(|(_, s)| s.duration_ns())
        .sum()
}

fn root_name(spans: &[Span], mut i: SpanId) -> &'static str {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    spans[i].name
}
