//! Stream execution: sliding-window state and slice-based evaluation.
//!
//! Reproduces the windowed semantics of the Linear Road `SegTollS`
//! query (paper Table 2): `[size N time]`, `[size N tuple]`, and
//! `[size N tuple partition by cols]` windows over a shared input
//! stream, evaluated a slice at a time under the data-partitioned
//! adaptation model of [15] — the optimizer may install a new plan at
//! each slice boundary, and window state carries across (the CAPS-style
//! state migration of [26] amounts to rebuilding operator state from
//! the retained windows when the plan changes).
//!
//! A tuple is stored once, whatever the number of leaves that window
//! its stream, and every window is kept *grouped*: per distinct
//! projection of its rows that pass the leaf's filters onto the leaf's
//! read set, a representative and a count, updated as a tuple enters or
//! leaves. A leaf's read set — its columns named by a join edge, the
//! group-by or an aggregate argument — is the same under every plan,
//! since each of the leaf's edges is crossed exactly once above it; so
//! a slice's scans are handed the groups and read no window row.

use std::collections::VecDeque;

use reopt_expr::{LeafFilter, LeafId, PlanNode, QuerySpec, WindowSpec};

use crate::database::Row;
use crate::executor::{
    agg_reads, cols_of, count_rows, hash_datums, passes, ExecStats, Grouped, HashChains, LeafInput,
};

/// A timestamped stream tuple.
#[derive(Clone, Debug)]
pub struct StreamTuple {
    pub ts: f64,
    pub row: Row,
}

/// A stored tuple.
type Handle = u32;

/// The tuples the windows hold, each stored once and shared by handle.
/// A slot is reused — its row's buffer with it — once the last holder
/// lets go, so a stream in steady state allocates nothing per tuple.
#[derive(Default)]
struct TupleStore {
    rows: Vec<Row>,
    holders: Vec<u32>,
    free: Vec<Handle>,
}

impl TupleStore {
    /// Stores a copy of `row`, held once on behalf of the caller.
    fn insert(&mut self, row: &Row) -> Handle {
        if let Some(h) = self.free.pop() {
            self.rows[h as usize].clone_from(row);
            self.holders[h as usize] = 1;
            return h;
        }
        assert!(
            self.rows.len() < Handle::MAX as usize,
            "handles are 32 bits wide"
        );
        self.rows.push(row.clone());
        self.holders.push(1);
        (self.rows.len() - 1) as Handle
    }

    fn row(&self, h: Handle) -> &Row {
        &self.rows[h as usize]
    }

    fn hold(&mut self, h: Handle) {
        self.holders[h as usize] += 1;
    }

    fn release(&mut self, h: Handle) {
        let holders = &mut self.holders[h as usize];
        *holders -= 1;
        if *holders == 0 {
            self.free.push(h);
        }
    }
}

/// The columns that tell rows apart; `None` for all of them.
struct Key(Option<Vec<usize>>);

impl Key {
    fn hash(&self, row: &Row) -> u64 {
        match &self.0 {
            Some(cols) => hash_datums(cols.iter().map(|&c| &row[c])),
            None => hash_datums(row.iter()),
        }
    }

    fn same(&self, a: &Row, b: &Row) -> bool {
        match &self.0 {
            Some(cols) => cols.iter().all(|&c| a[c] == b[c]),
            None => a == b,
        }
    }
}

/// One leaf's window, grouped: a weight and a representative per
/// distinct projection onto `key` of the window rows that pass
/// `filters`. A group holds its representative in the store for as long
/// as it has a member, whether or not that row is still in the window.
struct GroupIndex {
    filters: Vec<LeafFilter>,
    key: Key,
    dir: HashChains,
    reps: Vec<Handle>,
    weights: Vec<u64>,
}

impl GroupIndex {
    /// The leaf's read set as the key, sorted; every column when the
    /// query's output is its rows.
    fn new(q: &QuerySpec, leaf: LeafId) -> GroupIndex {
        let key = q.aggregate.as_ref().map(|agg| {
            let edge_ends = q.edges.iter().flat_map(|e| [e.l, e.r]);
            cols_of(leaf, edge_ends.chain(agg_reads(agg)))
        });
        GroupIndex {
            filters: q.leaf(leaf).filters.clone(),
            key: Key(key),
            dir: HashChains::new(0),
            reps: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// The group `row` falls in, if it passes the filters: its hash,
    /// and its entry once the group exists.
    fn locate(&self, store: &TupleStore, row: &Row) -> Option<(u64, Option<usize>)> {
        passes(&self.filters, row).then(|| {
            let hash = self.key.hash(row);
            let same = |&e: &usize| self.key.same(store.row(self.reps[e]), row);
            (hash, self.dir.probe(hash).find(same))
        })
    }

    fn add(&mut self, store: &mut TupleStore, h: Handle) {
        match self.locate(store, store.row(h)) {
            None => {}
            Some((_, Some(e))) => self.weights[e] += 1,
            Some((hash, None)) => {
                self.dir.push(hash);
                self.reps.push(h);
                self.weights.push(1);
                store.hold(h);
            }
        }
    }

    /// `h` must still be held by the window it leaves.
    fn remove(&mut self, store: &mut TupleStore, h: Handle) {
        let Some((_, found)) = self.locate(store, store.row(h)) else {
            return;
        };
        let e = found.expect("a window row that passes the filters is in a group");
        self.weights[e] -= 1;
        if self.weights[e] == 0 {
            self.dir.swap_remove(e);
            self.weights.swap_remove(e);
            store.release(self.reps.swap_remove(e));
        }
    }

    /// The groups as a scan's input.
    fn lend<'r>(&'r self, store: &'r TupleStore) -> LeafInput<'r> {
        LeafInput {
            rows: self.reps.iter().map(|&h| store.row(h)).collect(),
            grouped: Some(Grouped {
                weights: &self.weights,
                on: self.key.0.as_deref(),
            }),
        }
    }
}

/// One partition of a partitioned tuple window: its latest arrival and
/// the retained rows, oldest first. The newest row stands for the key.
struct Partition {
    last: f64,
    rows: VecDeque<Handle>,
}

/// Window state for one query leaf.
struct WindowState {
    spec: Option<WindowSpec>,
    /// Time / tuple / unwindowed contents, in arrival order.
    rows: VecDeque<(f64, Handle)>,
    /// Partitioned-tuple contents, under a directory on the partition
    /// columns.
    partitions: Vec<Partition>,
    partition_dir: HashChains,
    partition_key: Key,
    /// Idle partitions (no arrivals for this long) are dropped — the
    /// Linear Road semantics of a car leaving the expressway. Defaults
    /// to the query's largest time window.
    partition_ttl: Option<f64>,
    /// Rows retained.
    len: usize,
    groups: GroupIndex,
}

impl WindowState {
    fn new(q: &QuerySpec, leaf: LeafId, partition_ttl: Option<f64>) -> WindowState {
        let spec = q.leaf(leaf).window.clone();
        let partition_cols = match &spec {
            Some(WindowSpec::PartitionedTuples { cols, .. }) => {
                cols.iter().map(|c| c.0 as usize).collect()
            }
            _ => Vec::new(),
        };
        WindowState {
            spec,
            rows: VecDeque::new(),
            partitions: Vec::new(),
            partition_dir: HashChains::new(0),
            partition_key: Key(Some(partition_cols)),
            partition_ttl,
            len: 0,
            groups: GroupIndex::new(q, leaf),
        }
    }

    fn ingest(&mut self, store: &mut TupleStore, ts: f64, h: Handle) {
        let evicted = match &self.spec {
            // A window of no tuples holds nothing.
            Some(WindowSpec::Tuples { count: 0 })
            | Some(WindowSpec::PartitionedTuples { count: 0, .. }) => return,
            Some(WindowSpec::PartitionedTuples { count, .. }) => {
                let row = store.row(h);
                let hash = self.partition_key.hash(row);
                let found = self.partition_dir.probe(hash).find(|&p| {
                    let newest = *self.partitions[p]
                        .rows
                        .back()
                        .expect("no partition is empty");
                    self.partition_key.same(store.row(newest), row)
                });
                let p = found.unwrap_or_else(|| {
                    self.partitions.push(Partition {
                        last: ts,
                        rows: VecDeque::new(),
                    });
                    self.partition_dir.push(hash)
                });
                let part = &mut self.partitions[p];
                part.last = ts;
                part.rows.push_back(h);
                if part.rows.len() > *count as usize {
                    part.rows.pop_front()
                } else {
                    None
                }
            }
            Some(WindowSpec::Tuples { count }) => {
                self.rows.push_back((ts, h));
                if self.rows.len() > *count as usize {
                    self.rows.pop_front().map(|(_, old)| old)
                } else {
                    None
                }
            }
            _ => {
                self.rows.push_back((ts, h));
                None
            }
        };
        store.hold(h);
        self.len += 1;
        self.groups.add(store, h);
        if let Some(old) = evicted {
            self.drop_row(store, old);
        }
    }

    /// A row has left the window's queues: out of the groups, then let
    /// go.
    fn drop_row(&mut self, store: &mut TupleStore, h: Handle) {
        self.groups.remove(store, h);
        self.len -= 1;
        store.release(h);
    }

    fn expire(&mut self, store: &mut TupleStore, now: f64) {
        if let Some(WindowSpec::Time { seconds }) = &self.spec {
            let horizon = now - seconds;
            while let Some(&(_, h)) = self.rows.front().filter(|(ts, _)| *ts <= horizon) {
                self.rows.pop_front();
                self.drop_row(store, h);
            }
        }
        if let (Some(WindowSpec::PartitionedTuples { .. }), Some(ttl)) =
            (&self.spec, self.partition_ttl)
        {
            let horizon = now - ttl;
            // Backwards: the partition that takes a dropped one's place
            // has been looked at.
            for p in (0..self.partitions.len()).rev() {
                if self.partitions[p].last <= horizon {
                    self.partition_dir.swap_remove(p);
                    for h in self.partitions.swap_remove(p).rows {
                        self.drop_row(store, h);
                    }
                }
            }
        }
    }

    /// The retained rows.
    fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        let queued = self.rows.iter().map(|&(_, h)| h);
        queued.chain(self.partitions.iter().flat_map(|p| p.rows.iter().copied()))
    }
}

/// Result of executing one slice.
#[derive(Clone, Debug)]
pub struct SliceResult {
    pub out_rows: usize,
    pub stats: ExecStats,
    pub window_sizes: Vec<usize>,
    /// Rows rebuilt into operator state because the installed plan
    /// differs from the previous slice's (CAPS-style migration volume).
    pub migrated_rows: usize,
}

/// Slice-at-a-time stream executor with persistent window state.
pub struct StreamExecutor {
    q: QuerySpec,
    store: TupleStore,
    windows: Vec<WindowState>,
    now: f64,
    last_plan_fingerprint: Option<u64>,
}

impl StreamExecutor {
    pub fn new(q: &QuerySpec) -> StreamExecutor {
        // Partitions idle longer than the query's largest time window
        // are considered departed.
        let ttl = q
            .leaves
            .iter()
            .filter_map(|l| match &l.window {
                Some(WindowSpec::Time { seconds }) => Some(*seconds),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });
        StreamExecutor {
            store: TupleStore::default(),
            windows: (0..q.n_leaves())
                .map(|l| WindowState::new(q, LeafId(l), ttl))
                .collect(),
            q: q.clone(),
            now: 0.0,
            last_plan_fingerprint: None,
        }
    }

    /// Ingests a slice of tuples (every leaf over the same stream table
    /// sees every tuple — the `SegTollS` self-join pattern), advancing
    /// stream time to the latest timestamp. Each window is regrouped as
    /// the tuples enter and leave it.
    pub fn ingest(&mut self, tuples: &[StreamTuple]) {
        for t in tuples {
            self.now = self.now.max(t.ts);
            let h = self.store.insert(&t.row);
            for w in &mut self.windows {
                w.ingest(&mut self.store, t.ts, h);
            }
            self.store.release(h);
        }
        for w in &mut self.windows {
            w.expire(&mut self.store, self.now);
        }
    }

    /// A copy of the current window contents per leaf.
    pub fn window_rows(&self) -> Vec<Vec<Row>> {
        self.windows
            .iter()
            .map(|w| w.handles().map(|h| self.store.row(h).clone()).collect())
            .collect()
    }

    /// Per leaf, the groups its window is kept in: a copy of each
    /// representative and the number of window rows it stands for —
    /// those that pass the leaf's filters and agree with it on every
    /// column of the leaf a join edge or the aggregate names (on every
    /// column, for a query without an aggregate).
    pub fn window_groups(&self) -> Vec<Vec<(Row, u64)>> {
        self.windows
            .iter()
            .map(|w| {
                let reps = w.groups.reps.iter().map(|&h| self.store.row(h).clone());
                reps.zip(w.groups.weights.iter().copied()).collect()
            })
            .collect()
    }

    pub fn window_sizes(&self) -> Vec<usize> {
        self.windows.iter().map(|w| w.len).collect()
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    /// Executes `plan` over the current windows, in place: the windows
    /// lend their groups, and nothing but the count and the
    /// per-operator cardinalities comes back.
    pub fn execute(&mut self, plan: &PlanNode) -> SliceResult {
        let window_sizes = self.window_sizes();
        let fp = plan.fingerprint();
        let migrated_rows = match self.last_plan_fingerprint {
            Some(prev) if prev != fp => window_sizes.iter().sum(),
            _ => 0,
        };
        self.last_plan_fingerprint = Some(fp);
        let inputs: Vec<LeafInput> = (self.windows.iter())
            .map(|w| w.groups.lend(&self.store))
            .collect();
        let (out_rows, stats) = count_rows(&self.q, &inputs, plan);
        SliceResult {
            out_rows,
            stats,
            window_sizes,
            migrated_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::{Catalog, ColumnStats, Datum, TableBuilder, TableStats};

    fn stream_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            |id| {
                TableBuilder::new("s")
                    .int_col("carid")
                    .int_col("seg")
                    .build(id)
            },
            TableStats {
                row_count: 10.0, // tuples/sec
                columns: vec![ColumnStats::uniform_key(100.0); 2],
            },
        );
        c
    }

    fn windowed_query(c: &Catalog) -> QuerySpec {
        let mut b = QuerySpec::builder("w");
        let a = b.leaf_aliased(c, "s", "a");
        let d = b.leaf_aliased(c, "s", "d");
        b.window(a, WindowSpec::Time { seconds: 10.0 });
        b.window(
            d,
            WindowSpec::PartitionedTuples {
                cols: vec![reopt_catalog::ColId(0)],
                count: 1,
            },
        );
        b.join(c, a, "carid", d, "carid");
        b.build()
    }

    fn tup(ts: f64, car: i64, seg: i64) -> StreamTuple {
        StreamTuple {
            ts,
            row: vec![Datum::Int(car), Datum::Int(seg)],
        }
    }

    #[test]
    fn time_window_expires_old_tuples() {
        let c = stream_catalog();
        let q = windowed_query(&c);
        let mut se = StreamExecutor::new(&q);
        se.ingest(&[tup(1.0, 1, 10), tup(5.0, 2, 20)]);
        assert_eq!(se.window_sizes()[0], 2);
        se.ingest(&[tup(12.0, 3, 30)]);
        // ts=1 expired (12 - 10 >= 1), ts=5 and 12 retained.
        assert_eq!(se.window_sizes()[0], 2);
    }

    #[test]
    fn partitioned_window_keeps_latest_per_key() {
        let c = stream_catalog();
        let q = windowed_query(&c);
        let mut se = StreamExecutor::new(&q);
        se.ingest(&[tup(1.0, 7, 10), tup(2.0, 7, 11), tup(3.0, 8, 20)]);
        // Partition window (leaf 1): 1 tuple per carid → cars 7, 8.
        assert_eq!(se.window_sizes()[1], 2);
        let rows = se.window_rows()[1].clone();
        // Car 7's retained tuple is the LATEST (seg=11).
        assert!(rows.contains(&vec![Datum::Int(7), Datum::Int(11)]));
        assert!(!rows.contains(&vec![Datum::Int(7), Datum::Int(10)]));
    }

    #[test]
    fn slice_execution_joins_windows() {
        let c = stream_catalog();
        let q = windowed_query(&c);
        let g = reopt_expr::JoinGraph::new(&q);
        let mut ctx = reopt_cost::CostContext::new(&c, &q);
        let plan = reopt_baselines::optimize_system_r(&q, &g, &mut ctx).plan;
        let mut se = StreamExecutor::new(&q);
        se.ingest(&[tup(1.0, 1, 10), tup(2.0, 1, 11), tup(3.0, 2, 20)]);
        let r = se.execute(&plan);
        // Time window has 3 tuples (cars 1,1,2); partition window has
        // latest per car: (1,11), (2,20). Join on carid: car1 matches 2
        // window tuples, car2 matches 1 → 3 results.
        assert_eq!(r.out_rows, 3);
        assert_eq!(r.migrated_rows, 0);
    }

    #[test]
    fn plan_switch_reports_migration() {
        let c = stream_catalog();
        let q = windowed_query(&c);
        let g = reopt_expr::JoinGraph::new(&q);
        let mut ctx = reopt_cost::CostContext::new(&c, &q);
        let plan = reopt_baselines::optimize_system_r(&q, &g, &mut ctx).plan;
        // A same-shape re-execution migrates nothing; a flipped plan
        // (children swapped by hand) triggers migration accounting.
        let mut flipped = plan.clone();
        flipped.children.reverse();
        let mut se = StreamExecutor::new(&q);
        se.ingest(&[tup(1.0, 1, 10), tup(2.0, 2, 20)]);
        let r1 = se.execute(&plan);
        assert_eq!(r1.migrated_rows, 0);
        let r2 = se.execute(&plan);
        assert_eq!(r2.migrated_rows, 0);
        let r3 = se.execute(&flipped);
        assert!(r3.migrated_rows > 0);
    }

    #[test]
    fn leaf_id_used_for_window_indexing() {
        let c = stream_catalog();
        let q = windowed_query(&c);
        assert_eq!(q.leaf(LeafId(0)).alias, "a");
        assert_eq!(q.leaf(LeafId(1)).alias, "d");
    }
}
