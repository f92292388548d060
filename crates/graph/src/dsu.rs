//! Union-find (disjoint set union) with path compression and union by rank.

/// A disjoint-set forest over dense `usize` elements.
///
/// Used by Kruskal's MST (paper Appendix, KMB step 3) and by tree-validity
/// checking.
///
/// # Example
///
/// ```
/// use route_graph::dsu::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// assert_eq!(uf.set_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets `{0}, {1}, …, {n-1}`.
    #[must_use]
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Starts over with `n` singleton sets, reusing the allocated buffers.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.sets = n;
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure tracks no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Returns the canonical representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.sets -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_disjoint() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.find(2), 2);
    }

    #[test]
    fn union_merges_transitively() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.connected(0, 2));
        assert_eq!(uf.set_count(), 3);
    }

    #[test]
    fn redundant_union_returns_false() {
        let mut uf = UnionFind::new(2);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn spanning_unions_leave_one_set() {
        let mut uf = UnionFind::new(10);
        for i in 1..10 {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.set_count(), 1);
        for i in 0..10 {
            assert!(uf.connected(0, i));
        }
    }

    #[test]
    fn reset_starts_over_with_singletons() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset(3);
        assert_eq!(uf.len(), 3);
        assert_eq!(uf.set_count(), 3);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(1, 2));
    }

    #[test]
    fn empty_is_empty() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
        assert_eq!(uf.set_count(), 0);
    }
}
