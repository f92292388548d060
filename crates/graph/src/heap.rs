//! An indexed binary min-heap with decrease-key.
//!
//! Prim-style searches — Mehlhorn's Voronoi construction and the exact
//! solver's layered search — want a priority queue that supports lowering
//! the priority of an element already in the queue. This heap indexes
//! elements by a dense `usize` key (a node index), so decrease-key is
//! `O(log n)` with no allocation per operation. (The Dijkstra kernel
//! uses a lazy-deletion heap instead; see [`crate::dijkstra`].)

/// An indexed binary min-heap over dense `usize` keys with priorities `P`.
///
/// Each key may be present at most once; [`push`](IndexedBinaryHeap::push)
/// inserts or decreases (never increases) the priority of a key.
///
/// # Example
///
/// ```
/// use route_graph::heap::IndexedBinaryHeap;
///
/// let mut h = IndexedBinaryHeap::new(4);
/// h.push(2, 30u64);
/// h.push(0, 10);
/// h.push(1, 20);
/// h.push(2, 5); // decrease-key
/// assert_eq!(h.pop(), Some((2, 5)));
/// assert_eq!(h.pop(), Some((0, 10)));
/// assert_eq!(h.pop(), Some((1, 20)));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedBinaryHeap<P> {
    /// `heap[i] = (priority, key)`
    heap: Vec<(P, usize)>,
    /// `pos[key] = Some(index into heap)` while the key is queued.
    pos: Vec<Option<usize>>,
}

impl<P: Ord + Copy> IndexedBinaryHeap<P> {
    /// Creates a heap able to hold keys `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> IndexedBinaryHeap<P> {
        IndexedBinaryHeap {
            heap: Vec::with_capacity(capacity.min(1024)),
            pos: vec![None; capacity],
        }
    }

    /// Number of queued keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no key is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns the queued priority of `key`, if any.
    #[must_use]
    pub fn priority(&self, key: usize) -> Option<P> {
        let i = self.pos.get(key).copied().flatten()?;
        Some(self.heap[i].0)
    }

    /// Inserts `key` with `priority`, or decreases its priority if already
    /// queued with a higher one. Returns `true` if the heap changed.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the capacity given to
    /// [`new`](IndexedBinaryHeap::new).
    pub fn push(&mut self, key: usize, priority: P) -> bool {
        match self.pos[key] {
            Some(i) => {
                if priority < self.heap[i].0 {
                    self.heap[i].0 = priority;
                    self.sift_up(i);
                    true
                } else {
                    false
                }
            }
            None => {
                let i = self.heap.len();
                self.heap.push((priority, key));
                self.pos[key] = Some(i);
                self.sift_up(i);
                true
            }
        }
    }

    /// Removes and returns the `(key, priority)` with minimum priority.
    pub fn pop(&mut self) -> Option<(usize, P)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (priority, key) = self.heap.pop().expect("nonempty");
        self.pos[key] = None;
        if !self.heap.is_empty() {
            self.pos[self.heap[0].1] = Some(0);
            self.sift_down(0);
        }
        Some((key, priority))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 < self.heap[parent].0 {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].0 < self.heap[smallest].0 {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].0 < self.heap[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].1] = Some(i);
        self.pos[self.heap[j].1] = Some(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = IndexedBinaryHeap::new(10);
        for (k, p) in [(3, 7u64), (1, 2), (4, 9), (0, 1), (2, 5)] {
            h.push(k, p);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k);
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedBinaryHeap::new(3);
        h.push(0, 10u64);
        h.push(1, 20);
        h.push(2, 30);
        assert!(h.push(2, 1));
        assert_eq!(h.pop(), Some((2, 1)));
    }

    #[test]
    fn increase_attempt_is_ignored() {
        let mut h = IndexedBinaryHeap::new(2);
        h.push(0, 5u64);
        assert!(!h.push(0, 50));
        assert_eq!(h.priority(0), Some(5));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn priority_lookup() {
        let mut h = IndexedBinaryHeap::new(4);
        assert_eq!(h.priority(1), None);
        h.push(1, 42u64);
        assert_eq!(h.priority(1), Some(42));
        h.pop();
        assert_eq!(h.priority(1), None);
    }

    #[test]
    fn reinsert_after_pop() {
        let mut h = IndexedBinaryHeap::new(2);
        h.push(0, 1u64);
        assert_eq!(h.pop(), Some((0, 1)));
        h.push(0, 2);
        assert_eq!(h.pop(), Some((0, 2)));
        assert!(h.is_empty());
    }

    #[test]
    fn tuple_priorities_order_lexicographically() {
        let mut h = IndexedBinaryHeap::new(3);
        h.push(0, (2u64, 9u64));
        h.push(1, (2, 1));
        h.push(2, (1, 99));
        assert_eq!(h.pop(), Some((2, (1, 99))));
        assert_eq!(h.pop(), Some((1, (2, 1))));
        assert_eq!(h.pop(), Some((0, (2, 9))));
    }

    #[test]
    fn randomized_against_sort() {
        use crate::rng::Rng;
        let mut rng = crate::rng::SplitMix64::seed_from_u64(7);
        for _ in 0..20 {
            let n = 64;
            let mut h = IndexedBinaryHeap::new(n);
            let mut best = vec![u64::MAX; n];
            for _ in 0..300 {
                let k = rng.gen_range(0..n);
                let p = rng.gen_range(0..1000u64);
                h.push(k, p);
                if best[k] == u64::MAX || p < best[k] {
                    best[k] = p.min(best[k]);
                }
            }
            let mut expect: Vec<(u64, usize)> = best
                .iter()
                .enumerate()
                .filter(|(_, &p)| p != u64::MAX)
                .map(|(k, &p)| (p, k))
                .collect();
            expect.sort();
            let mut got = Vec::new();
            while let Some((k, p)) = h.pop() {
                got.push((p, k));
            }
            let mut got_sorted = got.clone();
            got_sorted.sort();
            assert_eq!(got_sorted, expect);
            // priorities themselves must come out nondecreasing
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }
}
