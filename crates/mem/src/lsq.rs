//! The load-store queue baselines — the component PreVV eliminates.
//!
//! Models the Dynamatic LSQ of Josipović et al. \[15\]/\[4\]: entries are
//! reserved one **group** per iteration, one entry per static memory op of
//! that iteration (the program-order ROM); a **load queue** and **store
//! queue** hold the in-flight ops, loads perform an **associative search**
//! of older stores (wait on unknown addresses, forward on a match), and
//! stores commit to RAM strictly in order from the queue head.
//!
//! The three baselines differ only in the [`Allocation`] policy:
//!
//! * [`Allocation::Group`] reserves an iteration's entries `latency` cycles
//!   after its allocation token arrives: plain Dynamatic \[15\] routes the
//!   token through the control network ([`LsqConfig::dynamatic`]), the
//!   fast-allocation plugin of Elakhras et al. \[8\] delivers it straight to
//!   the queue ([`LsqConfig::fast`]).
//! * [`Allocation::Speculative`] is the high-frequency LSQ of Szafarczyk et
//!   al. (FPL'23, arXiv 2311.08198): groups for future iterations are
//!   reserved in program order ahead of their tokens, up to a window past
//!   the iterations the tokens have confirmed ([`LsqConfig::speculative`]),
//!   so the allocator is off the critical path. Speculation is clamped to
//!   the kernel's static iteration count, so no entry is ever misspeculated.
//!
//! The oracle in `prevv::diffcheck` holds every policy plus PreVV to
//! byte-identical results.
//!
//! The resource cost of all this — per-entry CAM comparators, allocation
//! logic, wide priority encoders — is what Fig. 1 of the paper shows
//! dominating Dynamatic circuits; the analytic model in `prevv-area` prices
//! it from this crate's configuration.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use prevv_dataflow::{Component, Ports, Signals, Tag, Token, Value};
use prevv_ir::{MemOpKind, MemoryInterface};

use crate::delay::DelayLine;
use crate::portio::PortIo;
use crate::ram::{shared, Ram, SharedRam};
use crate::MemTiming;

/// How an [`Lsq`] reserves its entry groups, one group per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// Group allocation on the iteration's allocation token.
    Group {
        /// Cycles between an iteration's allocation token arriving and its
        /// entries being usable. Plain Dynamatic routes allocation requests
        /// through the control network (several cycles); the
        /// fast-allocation plugin \[8\] delivers them straight to the queue.
        latency: u32,
    },
    /// Speculative allocation ahead of the allocation tokens.
    Speculative {
        /// How many iterations may be allocated beyond the last confirmed
        /// one.
        window: usize,
    },
}

/// Configuration of an LSQ baseline.
#[derive(Debug, Clone)]
pub struct LsqConfig {
    /// Load queue entries.
    pub load_depth: usize,
    /// Store queue entries.
    pub store_depth: usize,
    /// How entry groups are allocated.
    pub allocation: Allocation,
    /// RAM timing and port bandwidth.
    pub timing: MemTiming,
}

impl LsqConfig {
    /// Plain Dynamatic \[15\]: depth-`depth` queues, slow allocation path.
    pub fn dynamatic(depth: usize) -> Self {
        LsqConfig {
            load_depth: depth,
            store_depth: depth,
            allocation: Allocation::Group { latency: 3 },
            timing: MemTiming::default(),
        }
    }

    /// Fast load-store queue allocation \[8\]: same queues, allocation tokens
    /// delivered straight to the queue.
    pub fn fast(depth: usize) -> Self {
        LsqConfig {
            allocation: Allocation::Group { latency: 0 },
            ..Self::dynamatic(depth)
        }
    }

    /// Speculative allocation: same queues, with a speculation window of
    /// the same size.
    pub fn speculative(depth: usize) -> Self {
        LsqConfig {
            allocation: Allocation::Speculative { window: depth },
            ..Self::dynamatic(depth)
        }
    }
}

/// Errors raised when constructing an LSQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsqError {
    /// One iteration has more loads than the load queue can hold, so group
    /// allocation could never succeed.
    LoadQueueTooShallow {
        /// Loads per iteration.
        needed: usize,
        /// Configured depth.
        depth: usize,
    },
    /// One iteration has more stores than the store queue can hold.
    StoreQueueTooShallow {
        /// Stores per iteration.
        needed: usize,
        /// Configured depth.
        depth: usize,
    },
}

impl std::fmt::Display for LsqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsqError::LoadQueueTooShallow { needed, depth } => write!(
                f,
                "load queue depth {depth} cannot hold one iteration's {needed} loads"
            ),
            LsqError::StoreQueueTooShallow { needed, depth } => write!(
                f,
                "store queue depth {depth} cannot hold one iteration's {needed} stores"
            ),
        }
    }
}

impl std::error::Error for LsqError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Allocated; waiting for operands / ordering.
    Waiting,
    /// Read issued to RAM (loads only).
    Issued,
    /// Finished (result delivered / written); awaiting head deallocation.
    Done,
    /// Guard was false; a fake token cancelled this entry.
    Cancelled,
}

#[derive(Debug, Clone)]
struct Entry {
    port: usize,
    iter: u64,
    seq: u32,
    tag: Tag,
    addr: Option<usize>,
    data: Option<Value>,
    state: EntryState,
}

impl Entry {
    fn order(&self) -> (u64, u32) {
        (self.iter, self.seq)
    }
}

/// Statistics specific to the LSQ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Loads satisfied by store-to-load forwarding.
    pub forwards: u64,
    /// Loads issued to RAM.
    pub ram_reads: u64,
    /// Stores committed to RAM.
    pub ram_writes: u64,
    /// Cycles in which allocation stalled for lack of queue space.
    pub alloc_stall_cycles: u64,
    /// Cycles in which allocation was blocked by the speculation window
    /// rather than queue capacity (always 0 under [`Allocation::Group`]).
    pub window_stall_cycles: u64,
    /// Peak combined queue occupancy (loads + stores).
    pub high_water: usize,
}

/// Shared handle to LSQ statistics, readable after simulation.
pub type SharedLsqStats = Rc<RefCell<LsqStats>>;

/// The run-time state of the [`Allocation`] policy.
#[derive(Debug)]
enum Allocator {
    Group {
        latency: u32,
        /// Allocation tokens in flight to the queue.
        delay: DelayLine<Token>,
        /// Tokens that arrived, waiting for queue space.
        ready: VecDeque<Token>,
    },
    Speculative {
        window: u64,
        /// Next iteration to allocate (program order).
        next_iter: u64,
        /// Iterations confirmed by drained allocation tokens.
        confirmed: u64,
        /// Total iterations in the kernel — speculation never runs past
        /// the end.
        total_iters: u64,
    },
}

impl Allocator {
    /// Feeds this cycle's allocation token, if any. Returns whether a token
    /// reached the ready queue.
    fn receive(&mut self, token: Option<Token>) -> bool {
        match self {
            Allocator::Group {
                latency,
                delay,
                ready,
            } => {
                if let Some(t) = token {
                    delay.push(*latency, t);
                }
                let arrived = delay.tick();
                let any = !arrived.is_empty();
                ready.extend(arrived);
                any
            }
            // Confirmation tokens merely advance the speculation window;
            // they gate nothing else, which is the whole point of the
            // design.
            Allocator::Speculative { confirmed, .. } => {
                if token.is_some() {
                    *confirmed += 1;
                }
                false
            }
        }
    }

    /// Ticks of the allocation delay line that complete nothing.
    fn quiet_ticks(&self) -> u64 {
        match self {
            Allocator::Group { delay, .. } => delay.quiet_ticks(),
            Allocator::Speculative { .. } => u64::MAX,
        }
    }

    /// Counts the allocation delay line down `k` quiet ticks.
    fn advance(&mut self, k: u64) {
        if let Allocator::Group { delay, .. } = self {
            delay.advance(k);
        }
    }

    /// Tokens that arrived but hold no entries yet, and whether more are
    /// still in flight to the queue.
    fn backlog(&self) -> (usize, bool) {
        match self {
            Allocator::Group { delay, ready, .. } => (ready.len(), !delay.is_empty()),
            Allocator::Speculative { .. } => (0, false),
        }
    }

    /// Everything `commit` compares before and after a cycle to tell the
    /// scheduler the allocator moved.
    fn progress(&self) -> (usize, u64, u64) {
        match self {
            Allocator::Group { ready, .. } => (ready.len(), 0, 0),
            Allocator::Speculative {
                next_iter,
                confirmed,
                ..
            } => (0, *next_iter, *confirmed),
        }
    }

    fn flush(&mut self, from_iter: u64) {
        match self {
            Allocator::Group { delay, ready, .. } => {
                ready.retain(|t| t.tag.iter < from_iter);
                delay.flush_if(|t| t.tag.iter >= from_iter);
            }
            // Roll the speculation pointer back with the queues.
            Allocator::Speculative {
                next_iter,
                confirmed,
                ..
            } => {
                *next_iter = (*next_iter).min(from_iter);
                *confirmed = (*confirmed).min(from_iter);
            }
        }
    }
}

/// The load-store queue controller.
#[derive(Debug)]
pub struct Lsq {
    io: PortIo,
    ram: SharedRam,
    config: LsqConfig,
    lq: Vec<Entry>,
    sq: Vec<Entry>,
    alloc: Allocator,
    reads: DelayLine<(usize, u64, u32, Value)>,
    loads_per_iter: usize,
    stores_per_iter: usize,
    stats: SharedLsqStats,
    /// Did the last commit mutate the io adapter — the only state `eval`
    /// reads? Backs [`Component::eval_invalidated`].
    eval_dirty: bool,
    /// `Some((alloc_stall, window_stall))` when the last commit saw none of
    /// our channels fire and moved nothing but delay-line countdowns: the
    /// stall-counter deltas it added, which every following such commit
    /// adds again until a delay line completes. Backs
    /// [`Component::quiet_horizon`].
    quiet: Option<(u64, u64)>,
}

impl Lsq {
    /// Creates an LSQ over a fresh RAM initialized from the interface's
    /// array images. Returns the RAM and a shared statistics handle, both
    /// readable after the component is moved into a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`LsqError`] if one iteration's ops cannot fit the queues.
    pub fn with_stats(
        iface: MemoryInterface,
        config: LsqConfig,
    ) -> Result<(Self, SharedRam, SharedLsqStats), LsqError> {
        let loads_per_iter = iface.load_ports();
        let stores_per_iter = iface.store_ports();
        if loads_per_iter > config.load_depth {
            return Err(LsqError::LoadQueueTooShallow {
                needed: loads_per_iter,
                depth: config.load_depth,
            });
        }
        if stores_per_iter > config.store_depth {
            return Err(LsqError::StoreQueueTooShallow {
                needed: stores_per_iter,
                depth: config.store_depth,
            });
        }
        let ram = shared(Ram::new(iface.initial_ram()));
        let stats_handle = Rc::new(RefCell::new(LsqStats::default()));
        let alloc = match config.allocation {
            Allocation::Group { latency } => Allocator::Group {
                latency,
                delay: DelayLine::new(),
                ready: VecDeque::new(),
            },
            Allocation::Speculative { window } => Allocator::Speculative {
                window: window as u64,
                next_iter: 0,
                confirmed: 0,
                total_iters: iface.iterations as u64,
            },
        };
        Ok((
            Lsq {
                io: PortIo::new(iface),
                ram: ram.clone(),
                config,
                lq: Vec::new(),
                sq: Vec::new(),
                alloc,
                reads: DelayLine::new(),
                loads_per_iter,
                stores_per_iter,
                stats: stats_handle.clone(),
                eval_dirty: true,
                quiet: None,
            },
            ram,
            stats_handle,
        ))
    }

    /// Reserves entry groups in program order until the allocator runs out
    /// of iterations, hits the speculation window, or the queues fill up.
    fn allocate(&mut self) {
        loop {
            let (iter, tag) = match &self.alloc {
                Allocator::Group { ready, .. } => match ready.front() {
                    Some(t) => (t.tag.iter, t.tag),
                    None => break,
                },
                Allocator::Speculative {
                    window,
                    next_iter,
                    confirmed,
                    total_iters,
                } => {
                    if next_iter >= total_iters {
                        break;
                    }
                    if *next_iter >= confirmed + window {
                        self.stats.borrow_mut().window_stall_cycles += 1;
                        break;
                    }
                    // Placeholder tag: overwritten by the address token (or
                    // unused — cancelled loads answer with the fake token's
                    // tag), so it never reaches a result channel.
                    (*next_iter, Tag::new(*next_iter))
                }
            };
            let fits = self.lq.len() + self.loads_per_iter <= self.config.load_depth
                && self.sq.len() + self.stores_per_iter <= self.config.store_depth;
            if !fits {
                self.stats.borrow_mut().alloc_stall_cycles += 1;
                break;
            }
            match &mut self.alloc {
                Allocator::Group { ready, .. } => {
                    ready.pop_front();
                }
                Allocator::Speculative { next_iter, .. } => *next_iter += 1,
            }
            for p in 0..self.io.port_count() {
                let op = &self.io.port(p).op;
                let entry = Entry {
                    port: p,
                    iter,
                    seq: op.seq,
                    tag,
                    addr: None,
                    data: None,
                    state: EntryState::Waiting,
                };
                match op.kind {
                    MemOpKind::Load => self.lq.push(entry),
                    MemOpKind::Store => self.sq.push(entry),
                }
            }
        }
    }

    fn ingest_arrivals(&mut self) {
        for p in 0..self.io.port_count() {
            let is_load = self.io.port(p).is_load();
            // Addresses.
            while let Some(tok) = self.io.peek_addr(p).copied() {
                let addr = self.io.resolve(p, tok.value);
                let q = if is_load { &mut self.lq } else { &mut self.sq };
                let Some(e) = q
                    .iter_mut()
                    .find(|e| e.port == p && e.iter == tok.tag.iter && e.addr.is_none())
                else {
                    break; // not allocated yet: leave queued upstream
                };
                e.addr = Some(addr);
                e.tag = tok.tag;
                self.io.take_addr(p).expect("peeked");
            }
            // Store data.
            if !is_load {
                while let Some(tok) = self.io.peek_data(p).copied() {
                    let Some(e) = self
                        .sq
                        .iter_mut()
                        .find(|e| e.port == p && e.iter == tok.tag.iter && e.data.is_none())
                    else {
                        break;
                    };
                    e.data = Some(tok.value);
                    self.io.take_data(p).expect("peeked");
                }
            }
            // Fake tokens cancel their entry; cancelled loads still owe a
            // dummy result so the datapath's token balance holds.
            while let Some(tok) = self.io.peek_fake(p).copied() {
                let q = if is_load { &mut self.lq } else { &mut self.sq };
                let Some(e) = q.iter_mut().find(|e| {
                    e.port == p && e.iter == tok.tag.iter && e.state == EntryState::Waiting
                }) else {
                    break;
                };
                e.state = EntryState::Cancelled;
                self.io.take_fake(p).expect("peeked");
                if is_load {
                    self.io.push_result(p, Token::tagged(0, tok.tag));
                }
            }
        }
    }

    fn issue_loads(&mut self) {
        let mut budget = self.config.timing.read_ports;
        // Snapshot of the store queue for the associative search.
        for li in 0..self.lq.len() {
            if budget == 0 {
                break;
            }
            let (order, addr) = {
                let l = &self.lq[li];
                if l.state != EntryState::Waiting {
                    continue;
                }
                let Some(addr) = l.addr else { continue };
                (l.order(), addr)
            };
            // Associative search of older stores (paper §II-B): any older
            // store with an unknown address blocks the load; the youngest
            // older store to the same address forwards its data once known.
            let mut blocked = false;
            let mut forward: Option<(u64, u32, Option<Value>)> = None;
            for s in &self.sq {
                if s.state == EntryState::Cancelled || s.order() >= order {
                    continue;
                }
                match s.addr {
                    None => {
                        blocked = true;
                        break;
                    }
                    Some(sa) if sa == addr => {
                        if forward.is_none_or(|(fi, fs, _)| (fi, fs) < s.order()) {
                            forward = Some((s.iter, s.seq, s.data));
                        }
                    }
                    Some(_) => {}
                }
            }
            if blocked {
                continue;
            }
            match forward {
                Some((_, _, Some(v))) => {
                    // Store-to-load forwarding.
                    let l = &mut self.lq[li];
                    l.state = EntryState::Done;
                    l.data = Some(v);
                    let (port, tag) = (l.port, l.tag);
                    self.io.push_result(port, Token::tagged(v, tag));
                    self.stats.borrow_mut().forwards += 1;
                }
                Some((_, _, None)) => {
                    // Matching older store whose data is not ready: wait.
                }
                None => {
                    // Sample RAM now; all older matching stores are ruled
                    // out, and younger stores commit only behind them, so
                    // the value is stable for this load.
                    let value = self.ram.borrow_mut().read(addr);
                    let l = &mut self.lq[li];
                    l.state = EntryState::Issued;
                    self.reads.push(
                        self.config.timing.read_latency,
                        (l.port, l.iter, l.seq, value),
                    );
                    self.stats.borrow_mut().ram_reads += 1;
                    budget -= 1;
                }
            }
        }
    }

    fn commit_stores(&mut self) {
        let mut budget = self.config.timing.write_ports;
        while let Some(head) = self.sq.first() {
            match head.state {
                EntryState::Cancelled => {
                    self.sq.remove(0);
                }
                _ => {
                    let (Some(addr), Some(data)) = (head.addr, head.data) else {
                        break;
                    };
                    if budget == 0 {
                        break;
                    }
                    self.ram.borrow_mut().write(addr, data);
                    self.stats.borrow_mut().ram_writes += 1;
                    budget -= 1;
                    self.sq.remove(0);
                }
            }
        }
    }

    fn dealloc_loads(&mut self) {
        while let Some(head) = self.lq.first() {
            if matches!(head.state, EntryState::Done | EntryState::Cancelled) {
                self.lq.remove(0);
            } else {
                break;
            }
        }
    }
}

impl Component for Lsq {
    fn type_name(&self) -> &'static str {
        match self.alloc {
            Allocator::Group { .. } => "lsq",
            Allocator::Speculative { .. } => "spec_lsq",
        }
    }

    fn ports(&self) -> Ports {
        self.io.channel_ports()
    }

    fn eval(&self, sig: &mut Signals) {
        self.io.eval(sig);
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        // Occupied delay lines tick below even when nothing else moves, and
        // queue-length and allocator changes catch entry motion that
        // bypasses the io queues; together with the io dirty flag this is
        // an honest changed-signal for the scheduler/watchdog (the stats
        // update below is bookkeeping and deliberately excluded).
        let ticking = self.alloc.backlog().1 || !self.reads.is_empty();
        let before = (self.lq.len(), self.sq.len(), self.alloc.progress());
        let stalls_before = {
            let s = self.stats.borrow();
            (s.alloc_stall_cycles, s.window_stall_cycles)
        };
        self.io.commit_io(sig);

        // Read completions (issued `read_latency` cycles ago).
        let completed = self.reads.tick();
        let mut moved = !completed.is_empty();
        for (port, iter, seq, value) in completed {
            if let Some(e) = self
                .lq
                .iter_mut()
                .find(|e| e.port == port && e.iter == iter && e.seq == seq)
            {
                e.state = EntryState::Done;
                e.data = Some(value);
                let tag = e.tag;
                self.io.push_result(port, Token::tagged(value, tag));
            }
        }

        moved |= self.alloc.receive(self.io.take_alloc());
        self.allocate();

        self.ingest_arrivals();
        let in_flight = self.reads.len();
        self.issue_loads();
        self.commit_stores();
        self.dealloc_loads();
        let mut stats = self.stats.borrow_mut();
        stats.high_water = stats.high_water.max(self.lq.len() + self.sq.len());

        self.eval_dirty = self.io.take_dirty();
        let after = (self.lq.len(), self.sq.len(), self.alloc.progress());
        // Nothing but countdowns moved (a fire of our channels dirties the
        // io adapter): the queues, the allocator and the adapter start the
        // next cycle as they started this one, so a commit without fires
        // repeats this one (same stalls, same verdict) until a delay line
        // completes.
        moved |= self.eval_dirty || before != after || self.reads.len() != in_flight;
        self.quiet = (!moved).then(|| {
            (
                stats.alloc_stall_cycles - stalls_before.0,
                stats.window_stall_cycles - stalls_before.1,
            )
        });
        self.eval_dirty
            || ticking
            || self.alloc.backlog().1
            || !self.reads.is_empty()
            || before != after
    }

    fn quiet_horizon(&self) -> u64 {
        if self.quiet.is_some() {
            self.reads.quiet_ticks().min(self.alloc.quiet_ticks())
        } else {
            0
        }
    }

    fn advance_quiet(&mut self, k: u64) {
        let (alloc_stall, window_stall) = self.quiet.expect("only advanced when quiet");
        self.reads.advance(k);
        self.alloc.advance(k);
        let mut stats = self.stats.borrow_mut();
        stats.alloc_stall_cycles += k * alloc_stall;
        stats.window_stall_cycles += k * window_stall;
    }

    fn eval_invalidated(&self) -> bool {
        self.eval_dirty
    }

    fn flush(&mut self, from_iter: u64) {
        // The LSQ never speculates on data, so it never receives a squash in
        // normal operation; this keeps the component well-behaved if one
        // arrives.
        self.eval_dirty = true;
        self.quiet = None;
        self.io.flush(from_iter);
        self.lq.retain(|e| e.iter < from_iter);
        self.sq.retain(|e| e.iter < from_iter);
        self.alloc.flush(from_iter);
        self.reads.flush_if(|&(_, iter, _, _)| iter >= from_iter);
    }

    fn is_idle(&self) -> bool {
        self.io.is_idle()
            && self.lq.is_empty()
            && self.sq.is_empty()
            && self.alloc.backlog() == (0, false)
            && self.reads.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.io.occupancy() + self.lq.len() + self.sq.len() + self.alloc.backlog().0
    }

    fn capacity(&self) -> usize {
        self.config.load_depth + self.config.store_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::{SimConfig, SimReport, Simulator};
    use prevv_ir::{golden, synthesize, KernelSpec};
    use prevv_kernels::extra;

    /// Every allocation policy at depth 16: Dynamatic, fast, speculative.
    fn policies() -> [LsqConfig; 3] {
        [
            LsqConfig::dynamatic(16),
            LsqConfig::fast(16),
            LsqConfig::speculative(16),
        ]
    }

    /// Simulates `spec` on an LSQ, asserting the result matches golden.
    fn run_lsq(spec: &KernelSpec, config: LsqConfig) -> (SimReport, LsqStats) {
        let allocation = config.allocation;
        let mut s = synthesize(spec).expect("synth");
        let (ctrl, ram, stats) = Lsq::with_stats(s.interface.clone(), config).expect("fits");
        s.netlist.add(ctrl.type_name(), ctrl);
        let mut sim = Simulator::new(s.netlist, s.bus)
            .expect("valid netlist")
            .with_config(SimConfig {
                max_cycles: 500_000,
                watchdog: 2_000,
                ..SimConfig::default()
            });
        let report = sim.run().expect("completes");
        let arrays: Vec<Vec<i64>> = s
            .interface
            .split_ram(ram.borrow().image())
            .into_iter()
            .map(<[i64]>::to_vec)
            .collect();
        assert_eq!(arrays, golden::execute(spec).arrays, "{allocation:?}");
        let stats = *stats.borrow();
        (report, stats)
    }

    #[test]
    fn every_policy_fixes_the_loop_carried_reduction() {
        // The reduction that breaks DirectMemory.
        for cfg in policies() {
            run_lsq(&extra::serial_reduction(32), cfg);
        }
    }

    #[test]
    fn every_policy_handles_runtime_indices() {
        for cfg in policies() {
            run_lsq(&extra::histogram(48, 8, 11), cfg);
        }
    }

    #[test]
    fn every_policy_completes_guarded_kernels_with_fakes() {
        for cfg in policies() {
            run_lsq(&extra::guarded_update(16, 2), cfg);
        }
    }

    #[test]
    fn shallow_queue_is_rejected_when_iteration_cannot_fit() {
        // 3 loads per iteration, queue depth 2.
        let s = synthesize(&extra::overlapped_pairs(4, 3)).expect("synth");
        for cfg in policies() {
            let cfg = LsqConfig {
                load_depth: 2,
                ..cfg
            };
            let err = Lsq::with_stats(s.interface.clone(), cfg).expect_err("must reject");
            assert_eq!(
                err,
                LsqError::LoadQueueTooShallow {
                    needed: 3,
                    depth: 2
                }
            );
        }
    }

    #[test]
    fn type_name_tells_the_speculative_policy_apart() {
        let s = synthesize(&extra::serial_reduction(4)).expect("synth");
        let names = policies().map(|cfg| {
            Lsq::with_stats(s.interface.clone(), cfg)
                .expect("fits")
                .0
                .type_name()
        });
        assert_eq!(names, ["lsq", "lsq", "spec_lsq"]);
    }

    /// Asserts `faster` finishes the serial reduction in no more cycles
    /// than `slower`, returning both runs' statistics.
    fn assert_not_slower(faster: LsqConfig, slower: LsqConfig, why: &str) -> [LsqStats; 2] {
        let spec = extra::serial_reduction(32);
        let (fast, fast_stats) = run_lsq(&spec, faster);
        let (slow, slow_stats) = run_lsq(&spec, slower);
        let (f, s) = (fast.cycles, slow.cycles);
        assert!(f <= s, "{why}: {f} vs {s} cycles");
        [fast_stats, slow_stats]
    }

    #[test]
    fn fast_allocation_is_not_slower() {
        let why = "fast allocation [8] must not lose to plain Dynamatic [15]";
        assert_not_slower(LsqConfig::fast(16), LsqConfig::dynamatic(16), why);
    }

    #[test]
    fn speculative_allocation_is_not_slower_than_fast_lsq() {
        // The point of the design: with allocation off the critical path,
        // the speculative LSQ must never lose to fast allocation [8].
        let why = "speculative allocation must not lose to fast allocation";
        let [_, fast] = assert_not_slower(LsqConfig::speculative(16), LsqConfig::fast(16), why);
        assert_eq!(
            fast.window_stall_cycles, 0,
            "group allocation has no window"
        );
    }

    #[test]
    fn speculation_respects_the_window() {
        // Window 1 degenerates to confirmation-paced allocation: still
        // correct, just slower.
        let narrow = LsqConfig {
            allocation: Allocation::Speculative { window: 1 },
            ..LsqConfig::speculative(16)
        };
        let why = "wider speculation window must not be slower";
        let [_, narrow] = assert_not_slower(LsqConfig::speculative(16), narrow, why);
        assert!(narrow.window_stall_cycles > 0);
    }

    #[test]
    fn deeper_queue_is_not_slower() {
        let why = "deeper LSQ must not be slower";
        assert_not_slower(LsqConfig::fast(16), LsqConfig::fast(4), why);
    }
}
