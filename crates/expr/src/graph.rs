//! Join-graph connectivity. Plan enumeration only considers connected
//! subexpressions and splits joined by at least one edge (no cross
//! products), matching the System-R / Volcano convention the paper's
//! baselines use.

use crate::query::QuerySpec;
use crate::relset::RelSet;

/// Adjacency view of a query's join graph.
#[derive(Clone, Debug)]
pub struct JoinGraph {
    /// `adj[i]` = leaves adjacent to leaf `i`.
    adj: Vec<RelSet>,
}

impl JoinGraph {
    pub fn new(q: &QuerySpec) -> JoinGraph {
        let mut adj = vec![RelSet::EMPTY; q.n_leaves() as usize];
        for e in &q.edges {
            let (a, b) = (e.l.leaf.0, e.r.leaf.0);
            adj[a as usize] = adj[a as usize].union(RelSet::singleton(b));
            adj[b as usize] = adj[b as usize].union(RelSet::singleton(a));
        }
        JoinGraph { adj }
    }

    /// Leaves adjacent to any member of `rels`, excluding `rels` itself.
    pub fn neighbors(&self, rels: RelSet) -> RelSet {
        let mut out = RelSet::EMPTY;
        for leaf in rels.iter() {
            out = out.union(self.adj[leaf as usize]);
        }
        out.minus(rels)
    }

    /// True iff the induced subgraph on `rels` is connected (singletons
    /// and the empty set count as connected).
    pub fn is_connected(&self, rels: RelSet) -> bool {
        if rels.len() <= 1 {
            return true;
        }
        let start = RelSet::singleton(rels.iter().next().unwrap());
        let mut frontier = start;
        let mut seen = start;
        while !frontier.is_empty() {
            let next = self.neighbors_within(frontier, rels).minus(seen);
            seen = seen.union(next);
            frontier = next;
        }
        seen == rels
    }

    fn neighbors_within(&self, from: RelSet, within: RelSet) -> RelSet {
        let mut out = RelSet::EMPTY;
        for leaf in from.iter() {
            out = out.union(self.adj[leaf as usize].intersect(within));
        }
        out
    }

    /// True iff some edge connects `l` and `r`.
    pub fn are_joined(&self, l: RelSet, r: RelSet) -> bool {
        !self.neighbors(l).intersect(r).is_empty()
    }

    /// Calls `f` once on every non-empty connected subset of `within`,
    /// without visiting a disconnected one: the csg enumeration of
    /// Moerkotte and Neumann's DPccp, which grows each set from its
    /// lowest leaf.
    pub fn for_each_connected(&self, within: RelSet, f: &mut impl FnMut(RelSet)) {
        for leaf in within.iter() {
            let seed = RelSet::singleton(leaf);
            f(seed);
            // Leaves at or below the seed's are grown from elsewhere.
            self.grow(seed, RelSet(seed.0 | (seed.0 - 1) | !within.0), f);
        }
    }

    /// Emits every extension of `set` by a non-empty subset of its
    /// neighbours outside `excluded`, then grows each with those
    /// neighbours excluded, so no set is reached twice.
    fn grow(&self, set: RelSet, excluded: RelSet, f: &mut impl FnMut(RelSet)) {
        let n = self.neighbors(set).minus(excluded);
        if n.is_empty() {
            return;
        }
        let extensions = || n.proper_subsets().chain([n]).map(|s| set.union(s));
        extensions().for_each(&mut *f);
        let excluded = excluded.union(n);
        for grown in extensions() {
            self.grow(grown, excluded, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinEdge, LeafCol};

    impl JoinGraph {
        /// All connected subsets of the full leaf set, in ascending size
        /// order (the System-R DP enumeration order), as the tests below
        /// pin them; `reopt_core::Memo`'s coverage test derives the same
        /// set from [`JoinGraph::is_connected`].
        pub(crate) fn connected_subsets(&self) -> Vec<RelSet> {
            let full = RelSet::full(self.adj.len() as u32);
            let mut out: Vec<RelSet> = (1..=full.0)
                .map(RelSet)
                .filter(|r| r.is_subset_of(full) && self.is_connected(*r))
                .collect();
            out.sort_by_key(|r| (r.len(), r.0));
            out
        }
    }

    /// Builds a graph from explicit leaf-pair edges, without a catalog.
    fn graph(n: u32, edges: &[(u32, u32)]) -> JoinGraph {
        let q = QuerySpec {
            name: "g".into(),
            leaves: (0..n)
                .map(|i| crate::query::Leaf {
                    table: reopt_catalog::TableId(i),
                    alias: format!("l{i}"),
                    filters: vec![],
                    window: None,
                    indexed_cols: vec![],
                    clustered_on: None,
                })
                .collect(),
            edges: edges
                .iter()
                .map(|&(a, b)| JoinEdge {
                    l: LeafCol::new(a, 0),
                    r: LeafCol::new(b, 0),
                })
                .collect(),
            aggregate: None,
            projection: vec![],
        };
        JoinGraph::new(&q)
    }

    #[test]
    fn chain_connectivity() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.is_connected(RelSet(0b1111)));
        assert!(g.is_connected(RelSet(0b0111)));
        assert!(!g.is_connected(RelSet(0b1001))); // {0,3} not adjacent
        assert!(g.is_connected(RelSet(0b0001)));
        assert!(g.is_connected(RelSet::EMPTY));
    }

    #[test]
    fn neighbors_excludes_self() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.neighbors(RelSet(0b0010)), RelSet(0b0101)); // {1} -> {0,2}
        assert_eq!(g.neighbors(RelSet(0b0110)), RelSet(0b1001));
    }

    #[test]
    fn are_joined() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.are_joined(RelSet(0b0011), RelSet(0b0100)));
        assert!(!g.are_joined(RelSet(0b0001), RelSet(0b1000)));
    }

    #[test]
    fn connected_subsets_chain() {
        // Chain of 3: {0},{1},{2},{01},{12},{012} — but not {02}.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let subs = g.connected_subsets();
        assert_eq!(subs.len(), 6);
        assert!(!subs.contains(&RelSet(0b101)));
    }

    #[test]
    fn connected_subsets_cycle_counts() {
        // A 4-cycle has all 4 singletons, 4 edges-pairs, 4 triples, 1 full
        // = 13 connected subsets.
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.connected_subsets().len(), 13);
    }

    #[test]
    fn connected_subsets_sorted_by_size() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let sizes: Vec<u32> = g.connected_subsets().iter().map(|r| r.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn for_each_connected_visits_each_connected_subset_once() {
        let shapes: [(u32, &[(u32, u32)]); 4] = [
            (5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            (5, &[(0, 1), (0, 2), (0, 3), (0, 4)]),
            (5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
            (6, &[(0, 1), (1, 2), (3, 4)]),
        ];
        for (n, edges) in shapes {
            let g = graph(n, edges);
            let full = RelSet::full(n);
            for within in full.proper_subsets().chain([full]) {
                let mut got = Vec::new();
                g.for_each_connected(within, &mut |s| got.push(s));
                got.sort();
                let mut want: Vec<RelSet> = within
                    .proper_subsets()
                    .chain([within])
                    .filter(|&s| g.is_connected(s))
                    .collect();
                want.sort();
                assert_eq!(got, want, "{edges:?} within {within}");
            }
        }
    }
}
