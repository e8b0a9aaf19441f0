//! Fixed-latency delay lines for modeling memory access timing.

use std::collections::VecDeque;

/// Items annotated with a countdown; `tick` decrements all and pops the ones
/// that reach zero. Used for RAM read/write latency modeling.
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    slots: VecDeque<(u32, T)>,
}

impl<T> Default for DelayLine<T> {
    fn default() -> Self {
        DelayLine {
            slots: VecDeque::new(),
        }
    }
}

impl<T> DelayLine<T> {
    /// Creates an empty delay line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` to emerge after `latency` cycles (0 = next tick).
    pub fn push(&mut self, latency: u32, item: T) {
        self.slots.push_back((latency, item));
    }

    /// Advances one cycle, returning all items whose latency elapsed (in
    /// insertion order).
    pub fn tick(&mut self) -> Vec<T> {
        let mut any = false;
        for (c, _) in self.slots.iter_mut() {
            *c = c.saturating_sub(1);
            any |= *c == 0;
        }
        if !any {
            return Vec::new();
        }
        let mut done = Vec::new();
        // Items complete in insertion order because latencies are uniform
        // per line; a stable partition keeps order regardless.
        let mut remaining = VecDeque::with_capacity(self.slots.len());
        for (c, item) in self.slots.drain(..) {
            if c == 0 {
                done.push(item);
            } else {
                remaining.push_back((c, item));
            }
        }
        self.slots = remaining;
        done
    }

    /// How many [`tick`](DelayLine::tick)s in a row would complete nothing:
    /// the smallest countdown minus one (`u64::MAX` when empty). Zero means
    /// the next tick completes an item.
    pub fn quiet_ticks(&self) -> u64 {
        self.slots
            .iter()
            .map(|(c, _)| u64::from(c.saturating_sub(1)))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances `k` cycles known (via [`quiet_ticks`](DelayLine::quiet_ticks))
    /// to complete nothing: pure countdown, no drain, no allocation.
    pub fn advance(&mut self, k: u64) {
        debug_assert!(
            k <= self.quiet_ticks(),
            "advance would drop a completed item"
        );
        // Only an occupied line bounds k, and then k fits a countdown.
        let k = k as u32;
        for (c, _) in self.slots.iter_mut() {
            *c -= k;
        }
    }

    /// Number of in-flight items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops in-flight items matching `pred` (used on squash).
    pub fn flush_if(&mut self, mut pred: impl FnMut(&T) -> bool) {
        self.slots.retain(|(_, t)| !pred(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_emerge_after_latency() {
        let mut d = DelayLine::new();
        d.push(2, "a");
        assert!(d.tick().is_empty());
        assert_eq!(d.tick(), vec!["a"]);
        assert!(d.is_empty());
    }

    #[test]
    fn zero_latency_emerges_next_tick() {
        let mut d = DelayLine::new();
        d.push(0, 1);
        assert_eq!(d.tick(), vec![1]);
    }

    #[test]
    fn order_is_preserved() {
        let mut d = DelayLine::new();
        d.push(1, 1);
        d.push(1, 2);
        assert_eq!(d.tick(), vec![1, 2]);
    }

    #[test]
    fn quiet_ticks_counts_ticks_that_complete_nothing() {
        let mut d = DelayLine::new();
        assert_eq!(d.quiet_ticks(), u64::MAX, "empty: never completes");
        d.push(5, 'a');
        d.push(3, 'b');
        assert_eq!(d.quiet_ticks(), 2, "b completes on the third tick");
        d.push(0, 'c');
        assert_eq!(d.quiet_ticks(), 0, "latency 0 completes on the next tick");
        d.push(1, 'd');
        assert_eq!(d.quiet_ticks(), 0);
    }

    #[test]
    fn advance_matches_single_ticks() {
        let mut stepped = DelayLine::new();
        stepped.push(7, 1);
        stepped.push(4, 2);
        let mut skipped = stepped.clone();
        let k = skipped.quiet_ticks();
        assert_eq!(k, 3);
        for _ in 0..k {
            assert!(stepped.tick().is_empty());
        }
        skipped.advance(k);
        assert_eq!(skipped.quiet_ticks(), 0);
        assert_eq!(stepped.slots, skipped.slots);
        assert_eq!(skipped.tick(), vec![2]);
        assert_eq!(skipped.quiet_ticks(), 2);
        skipped.advance(0);
        assert_eq!(skipped.quiet_ticks(), 2, "advance(0) is a no-op");
    }

    #[test]
    fn flush_removes_matching() {
        let mut d = DelayLine::new();
        d.push(3, 10u64);
        d.push(3, 20u64);
        d.flush_if(|&x| x >= 15);
        assert_eq!(d.len(), 1);
    }
}
