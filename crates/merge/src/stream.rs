//! Streaming building blocks for the merge pipeline.
//!
//! The k-way merge takes one end-ordered stream per node. Each is the
//! stable sort of the node's adjusted records by end time — the same
//! sequence whichever worker produced it, which is part of what keeps the
//! merged output byte-identical at any thread count.
//!
//! [`ReorderBuffer`] produces that sequence incrementally. Interval files
//! are end-ordered by construction (the writer rejects out-of-order
//! pushes), and the clock adjustment is a monotone map plus sub-tick
//! rounding, so an adjusted record can precede at most a few ticks of
//! already-seen records. The buffer holds items until every later input
//! could no longer sort before them ([`REORDER_WINDOW`] ticks of slack —
//! orders of magnitude more than rounding can move a record), then
//! releases them in `(end, arrival)` order: precisely a stable sort by
//! end time, emitted while the file is still being read.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ute_core::error::Result;

/// Slack, in ticks, an adjusted record may sort behind later input.
///
/// Clock adjustment rounds the mapped start and duration independently,
/// so a record's adjusted end wanders less than ±2 ticks from the exact
/// monotone mapping; 1024 leaves a ~500× safety margin while keeping the
/// buffer a handful of records deep.
pub const REORDER_WINDOW: u64 = 1024;

/// An entry ordered by `(end, seq)` — min-heap via `Reverse` at the use
/// site. `seq` is arrival order, making the release order a *stable*
/// sort by end time.
struct Entry<T> {
    end: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.end, self.seq) == (other.end, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.end, self.seq).cmp(&(other.end, other.seq))
    }
}

/// Streaming stable-sort-by-end with a bounded look-behind window.
///
/// Push items in near-sorted order (each at most [`REORDER_WINDOW`]
/// ticks before the maximum end seen so far); items are released to the
/// sink as soon as no later input could sort before them. The released
/// sequence equals `sort_by_key(end)` (stable) over the whole input.
///
/// Nearly every item arrives in order — its end is the largest so far —
/// and those wait in a queue, which their arrival order already sorts.
/// Only an item that arrives behind a later-ending one goes through the
/// heap, so a sorted stream costs a push and a pop of a queue per item
/// and an unsorted one still no more than the heap's logarithm.
pub struct ReorderBuffer<T> {
    window: u64,
    seq: u64,
    max_end: u64,
    in_order: VecDeque<Entry<T>>,
    late: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> ReorderBuffer<T> {
    /// A buffer with the default [`REORDER_WINDOW`].
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer::with_window(REORDER_WINDOW)
    }

    /// A buffer with an explicit window (tests).
    pub fn with_window(window: u64) -> ReorderBuffer<T> {
        ReorderBuffer {
            window,
            seq: 0,
            max_end: 0,
            in_order: VecDeque::new(),
            late: BinaryHeap::new(),
        }
    }

    /// Accepts the next item (sort key `end`), releasing every buffered
    /// item that can no longer be displaced.
    pub fn push(
        &mut self,
        end: u64,
        item: T,
        sink: &mut impl FnMut(T) -> Result<()>,
    ) -> Result<()> {
        let entry = Entry {
            end,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        if end >= self.max_end {
            self.max_end = end;
            self.in_order.push_back(entry);
        } else {
            self.late.push(Reverse(entry));
        }
        let release_below = self.max_end.saturating_sub(self.window);
        while let Some(e) = self.pop_if(|head| head.end < release_below) {
            sink(e.item)?;
        }
        Ok(())
    }

    /// Releases everything still buffered, in order.
    pub fn finish(mut self, sink: &mut impl FnMut(T) -> Result<()>) -> Result<()> {
        while let Some(e) = self.pop_if(|_| true) {
            sink(e.item)?;
        }
        Ok(())
    }

    /// Takes the earliest buffered entry — the smaller of the queue's
    /// head and the heap's — if `release` says it may go.
    fn pop_if(&mut self, release: impl Fn(&Entry<T>) -> bool) -> Option<Entry<T>> {
        let late_first = match (self.in_order.front(), self.late.peek()) {
            (Some(head), Some(Reverse(late))) => late < head,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if late_first {
            let Reverse(head) = self.late.peek()?;
            if !release(head) {
                return None;
            }
            self.late.pop().map(|Reverse(e)| e)
        } else {
            if !release(self.in_order.front()?) {
                return None;
            }
            self.in_order.pop_front()
        }
    }
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(window: u64, input: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut sink = |x: (u64, u32)| {
            out.push(x);
            Ok(())
        };
        let mut buf = ReorderBuffer::with_window(window);
        for &(end, tag) in input {
            buf.push(end, (end, tag), &mut sink).unwrap();
        }
        buf.finish(&mut sink).unwrap();
        out
    }

    #[test]
    fn equals_stable_sort_for_windowed_disorder() {
        // Deterministic jitter of up to ±3 around a rising ramp.
        let mut state = 0xabcd_1234u64;
        let mut xorshift = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let input: Vec<(u64, u32)> = (0..2000u64)
            .map(|i| (10 + i * 2 - (xorshift() % 4), i as u32))
            .collect();
        let mut expect = input.clone();
        expect.sort_by_key(|x| x.0); // stable: ties keep arrival order
        assert_eq!(run(8, &input), expect);
    }

    #[test]
    fn ties_released_in_arrival_order() {
        let input = [(5, 0), (5, 1), (5, 2), (100, 3)];
        assert_eq!(run(4, &input), vec![(5, 0), (5, 1), (5, 2), (100, 3)]);
    }

    #[test]
    fn releases_early_instead_of_buffering_everything() {
        use std::cell::RefCell;
        let out = RefCell::new(Vec::new());
        let mut sink = |x: u64| {
            out.borrow_mut().push(x);
            Ok(())
        };
        let mut buf = ReorderBuffer::with_window(10);
        for end in (0..100u64).map(|i| i * 5) {
            buf.push(end, end, &mut sink).unwrap();
        }
        // Everything more than a window behind the max has been released.
        let released = out.borrow().len();
        assert!(released >= 95, "only {released} released");
        buf.finish(&mut sink).unwrap();
        assert_eq!(
            out.into_inner(),
            (0..100u64).map(|i| i * 5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run(16, &[]).is_empty());
    }
}
