//! K-way merge of end-time-ordered interval streams.
//!
//! §3.1: "The merge utility uses a balanced tree in which each tree node
//! holds the pointer to the next interval in the corresponding interval
//! file. Tree nodes are sorted by end time. After an interval is copied
//! into the merged file, the next interval is fetched from the same file
//! and its tree node moves in the tree."
//!
//! [`LoserTreeMerge`] is that structure and the production merge: a
//! tournament *loser tree*, the balanced tree of §3.1 with one leaf per
//! stream head, ordered by `(end time, stream index)` — the
//! jobs-determinism oracle depends on that order. A pop replays one root
//! path: ⌈log₂ k⌉ integer-key comparisons and **zero allocation**.
//!
//! [`NaiveMerge`] is the straw-man that re-scans every stream head on
//! each pop. It is the loser tree's test reference and the baseline of
//! the `merge_tree` ablation bench, which shows why the paper bothered
//! with a tree.

/// A source of end-time-ordered items.
pub trait MergeSource {
    /// The merged item type.
    type Item;
    /// Pulls the next item, or `None` when exhausted.
    fn next_item(&mut self) -> Option<Self::Item>;
    /// The sort key (end time) of an item.
    fn end_of(item: &Self::Item) -> u64;
}

/// Key of an exhausted stream: sorts after every live key, including a
/// real record with `end == u64::MAX` (whose stream index is < MAX).
const EXHAUSTED: (u64, usize) = (u64::MAX, usize::MAX);

/// Tournament loser-tree k-way merge.
///
/// Layout (the classic array form, valid for any k ≥ 1, not just powers
/// of two): leaf `i` sits at array position `k + i`; its parent is
/// `(k + i) / 2`; internal node `n`'s children are `2n` and `2n + 1`;
/// `tree[n]` for `n ≥ 1` stores the **loser** (a source index) of the
/// match played at `n`, and `tree[0]` stores the overall winner.
///
/// Invariants:
/// - `keys[i]` is `(end, i)` for source `i`'s buffered head, or
///   [`EXHAUSTED`]; keys are totally ordered and distinct, so ties on
///   end time resolve by stream index — the repo-wide determinism rule.
/// - After every pop, only the winner's root path can have changed, and
///   replaying that path (swap on loss, carry on win) restores the
///   tournament — ⌈log₂ k⌉ comparisons, no allocation.
/// - An exhausted source keeps playing (and losing) with its sentinel
///   key, so the structure never shrinks or rebuilds; the merge is done
///   when the winner's key is the sentinel.
pub struct LoserTreeMerge<S: MergeSource> {
    sources: Vec<S>,
    /// Buffered head item per source (`None` once exhausted).
    heads: Vec<Option<S::Item>>,
    /// Sort key per source; `EXHAUSTED` once the stream runs dry.
    keys: Vec<(u64, usize)>,
    /// `tree[0]` = winner; `tree[1..k]` = losers per internal node.
    tree: Vec<usize>,
    obs_comparisons: &'static ute_obs::Counter,
}

impl<S: MergeSource> LoserTreeMerge<S> {
    /// Builds the tournament, priming one head per source.
    pub fn new(mut sources: Vec<S>) -> Self {
        let k = sources.len();
        let mut heads = Vec::with_capacity(k);
        let mut keys = Vec::with_capacity(k);
        for (i, s) in sources.iter_mut().enumerate() {
            match s.next_item() {
                Some(item) => {
                    keys.push((S::end_of(&item), i));
                    heads.push(Some(item));
                }
                None => {
                    keys.push(EXHAUSTED);
                    heads.push(None);
                }
            }
        }
        // Bottom-up tournament: winners[pos] is the winning source of
        // the subtree at array position pos (leaves k..2k are sources).
        let mut tree = vec![0usize; k.max(1)];
        if k > 0 {
            let mut winners = vec![0usize; 2 * k];
            for (i, slot) in winners[k..].iter_mut().enumerate() {
                *slot = i;
            }
            for n in (1..k).rev() {
                let a = winners[2 * n];
                let b = winners[2 * n + 1];
                if keys[a] < keys[b] {
                    winners[n] = a;
                    tree[n] = b;
                } else {
                    winners[n] = b;
                    tree[n] = a;
                }
            }
            tree[0] = if k == 1 { 0 } else { winners[1] };
        }
        ute_obs::gauge("merge/heap_size_max").set_max(k as f64);
        LoserTreeMerge {
            sources,
            heads,
            keys,
            tree,
            obs_comparisons: ute_obs::counter("merge/comparisons"),
        }
    }

    /// Replays the root path from leaf `from` after its key changed.
    #[inline]
    fn replay(&mut self, from: usize) {
        let k = self.keys.len();
        let mut winner = from;
        let mut node = (k + from) / 2;
        let mut comparisons = 0u64;
        while node > 0 {
            comparisons += 1;
            if self.keys[self.tree[node]] < self.keys[winner] {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
        self.obs_comparisons.add(comparisons);
    }
}

impl<S: MergeSource> Iterator for LoserTreeMerge<S> {
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        if self.keys.is_empty() {
            return None;
        }
        let w = self.tree[0];
        if self.keys[w] == EXHAUSTED {
            return None;
        }
        let item = self.heads[w].take().expect("winner has a head");
        match self.sources[w].next_item() {
            Some(next) => {
                self.keys[w] = (S::end_of(&next), w);
                self.heads[w] = Some(next);
            }
            None => self.keys[w] = EXHAUSTED,
        }
        self.replay(w);
        Some(item)
    }
}

/// Naive merge: linear scan over all stream heads per pop (O(k) each).
pub struct NaiveMerge<S: MergeSource> {
    sources: Vec<S>,
    heads: Vec<Option<S::Item>>,
}

impl<S: MergeSource> NaiveMerge<S> {
    /// Builds the merge, priming every head.
    pub fn new(mut sources: Vec<S>) -> Self {
        let heads = sources.iter_mut().map(|s| s.next_item()).collect();
        NaiveMerge { sources, heads }
    }
}

impl<S: MergeSource> Iterator for NaiveMerge<S> {
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        let mut best: Option<(u64, usize)> = None;
        for (i, h) in self.heads.iter().enumerate() {
            if let Some(item) = h {
                let e = S::end_of(item);
                if best.map(|(be, bi)| (e, i) < (be, bi)).unwrap_or(true) {
                    best = Some((e, i));
                }
            }
        }
        let (_, i) = best?;
        let item = self.heads[i].take().expect("best head exists");
        self.heads[i] = self.sources[i].next_item();
        Some(item)
    }
}

/// A vector-backed source, used in tests and benches.
pub struct VecSource {
    items: std::vec::IntoIter<(u64, u64)>,
}

impl VecSource {
    /// Wraps `(end_time, payload)` pairs (must be end-ordered).
    pub fn new(items: Vec<(u64, u64)>) -> VecSource {
        VecSource {
            items: items.into_iter(),
        }
    }
}

impl MergeSource for VecSource {
    type Item = (u64, u64);

    fn next_item(&mut self) -> Option<Self::Item> {
        self.items.next()
    }

    fn end_of(item: &Self::Item) -> u64 {
        item.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loser tree's merge of `streams`, checked against the naive
    /// rescan.
    fn merged(streams: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
        let sources = || streams.iter().cloned().map(VecSource::new).collect();
        let out: Vec<(u64, u64)> = LoserTreeMerge::new(sources()).collect();
        let naive: Vec<(u64, u64)> = NaiveMerge::new(sources()).collect();
        assert_eq!(out, naive, "loser tree and naive rescan disagree");
        out
    }

    #[test]
    fn loser_tree_merges_in_end_order() {
        let out = merged(&[
            vec![(1, 0), (5, 0), (9, 0)],
            vec![(2, 1), (3, 1), (10, 1)],
            vec![],
            vec![(4, 3)],
        ]);
        let ends: Vec<u64> = out.iter().map(|x| x.0).collect();
        assert_eq!(ends, vec![1, 2, 3, 4, 5, 9, 10]);
    }

    #[test]
    fn loser_tree_ties_resolved_by_stream_index() {
        let out = merged(&[vec![(5, 100)], vec![(5, 200)]]);
        assert_eq!(out, vec![(5, 100), (5, 200)]);
        let out = merged(&[
            vec![(5, 100), (5, 101)],
            vec![(5, 200)],
            vec![(5, 300), (5, 301)],
        ]);
        // All ends equal: every record of stream 0 drains before stream 1
        // sees the light, etc. — the (end, source index) total order.
        assert_eq!(out, vec![(5, 100), (5, 101), (5, 200), (5, 300), (5, 301)]);
    }

    #[test]
    fn loser_tree_degenerate_shapes() {
        // k = 0
        assert!(merged(&[]).is_empty());
        // k = 1
        assert_eq!(merged(&[vec![(1, 1), (2, 2)]]), vec![(1, 1), (2, 2)]);
        // all sources empty
        assert!(merged(&[vec![], vec![]]).is_empty());
        // max end-time record still merges ahead of exhausted sentinels
        let out = merged(&[vec![(u64::MAX, 7)], vec![(3, 1)]]);
        assert_eq!(out, vec![(3, 1), (u64::MAX, 7)]);
    }

    #[test]
    fn loser_tree_matches_naive_for_every_stream_count() {
        // Exercise every non-power-of-two shape up to 17 sources.
        let mut state = 0xfeed_f00du64;
        let mut xorshift = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in 1..=17usize {
            let streams: Vec<Vec<(u64, u64)>> = (0..k)
                .map(|_| {
                    let n = (xorshift() % 40) as usize;
                    let mut v: Vec<(u64, u64)> =
                        (0..n).map(|_| (xorshift() % 50, xorshift())).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let out = merged(&streams);
            assert_eq!(
                out.len(),
                streams.iter().map(Vec::len).sum::<usize>(),
                "k={k}"
            );
        }
    }

    #[test]
    fn large_random_merge_is_sorted_and_complete() {
        use rand_like::*;
        // Deterministic pseudo-random streams without pulling in rand.
        mod rand_like {
            pub fn xorshift(state: &mut u64) -> u64 {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                *state
            }
        }
        let mut state = 0x1234_5678u64;
        let sources: Vec<VecSource> = (0..8)
            .map(|_| {
                let mut v: Vec<(u64, u64)> = (0..500)
                    .map(|_| (xorshift(&mut state) % 1_000_000, 0))
                    .collect();
                v.sort_unstable();
                VecSource::new(v)
            })
            .collect();
        let out: Vec<(u64, u64)> = LoserTreeMerge::new(sources).collect();
        assert_eq!(out.len(), 4000);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
