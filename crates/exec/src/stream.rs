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

use std::collections::VecDeque;

use reopt_catalog::Datum;
use reopt_common::FxHashMap;
use reopt_expr::{PlanNode, QuerySpec, WindowSpec};

use crate::database::Row;
use crate::executor::{count_rows, ExecStats};

/// A timestamped stream tuple.
#[derive(Clone, Debug)]
pub struct StreamTuple {
    pub ts: f64,
    pub row: Row,
}

/// Window state for one query leaf.
#[derive(Clone, Debug)]
struct WindowState {
    spec: Option<WindowSpec>,
    /// Time / unwindowed contents, in arrival order.
    rows: VecDeque<(f64, Row)>,
    /// Partitioned-tuple contents: per key, the last-update timestamp
    /// and the retained rows.
    partitions: FxHashMap<Vec<Datum>, (f64, VecDeque<Row>)>,
    /// Idle partitions (no arrivals for this long) are dropped — the
    /// Linear Road semantics of a car leaving the expressway. Defaults
    /// to the query's largest time window.
    partition_ttl: Option<f64>,
}

impl WindowState {
    fn new(spec: Option<WindowSpec>, partition_ttl: Option<f64>) -> WindowState {
        WindowState {
            spec,
            rows: VecDeque::new(),
            partitions: FxHashMap::default(),
            partition_ttl,
        }
    }

    fn ingest(&mut self, t: &StreamTuple) {
        match &self.spec {
            Some(WindowSpec::PartitionedTuples { cols, count }) => {
                let key: Vec<Datum> = cols.iter().map(|c| t.row[c.0 as usize].clone()).collect();
                let (last, q) = self.partitions.entry(key).or_insert((t.ts, VecDeque::new()));
                *last = t.ts;
                q.push_back(t.row.clone());
                while q.len() > *count as usize {
                    q.pop_front();
                }
            }
            Some(WindowSpec::Tuples { count }) => {
                self.rows.push_back((t.ts, t.row.clone()));
                while self.rows.len() > *count as usize {
                    self.rows.pop_front();
                }
            }
            _ => self.rows.push_back((t.ts, t.row.clone())),
        }
    }

    fn expire(&mut self, now: f64) {
        if let Some(WindowSpec::Time { seconds }) = &self.spec {
            let horizon = now - seconds;
            while self
                .rows
                .front()
                .is_some_and(|(ts, _)| *ts <= horizon)
            {
                self.rows.pop_front();
            }
        }
        if let (Some(WindowSpec::PartitionedTuples { .. }), Some(ttl)) =
            (&self.spec, self.partition_ttl)
        {
            let horizon = now - ttl;
            self.partitions.retain(|_, (last, _)| *last > horizon);
        }
    }

    /// The retained rows, borrowed.
    fn rows(&self) -> Vec<&Row> {
        match &self.spec {
            Some(WindowSpec::PartitionedTuples { .. }) => self
                .partitions
                .values()
                .flat_map(|(_, q)| q.iter())
                .collect(),
            _ => self.rows.iter().map(|(_, r)| r).collect(),
        }
    }

    fn len(&self) -> usize {
        match &self.spec {
            Some(WindowSpec::PartitionedTuples { .. }) => {
                self.partitions.values().map(|(_, q)| q.len()).sum()
            }
            _ => self.rows.len(),
        }
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
            windows: q
                .leaves
                .iter()
                .map(|l| WindowState::new(l.window.clone(), ttl))
                .collect(),
            q: q.clone(),
            now: 0.0,
            last_plan_fingerprint: None,
        }
    }

    /// Ingests a slice of tuples (every leaf over the same stream table
    /// sees every tuple — the `SegTollS` self-join pattern), advancing
    /// stream time to the latest timestamp.
    pub fn ingest(&mut self, tuples: &[StreamTuple]) {
        for t in tuples {
            self.now = self.now.max(t.ts);
            for w in &mut self.windows {
                w.ingest(t);
            }
        }
        for w in &mut self.windows {
            w.expire(self.now);
        }
    }

    /// A copy of the current window contents per leaf.
    pub fn window_rows(&self) -> Vec<Vec<Row>> {
        self.windows
            .iter()
            .map(|w| w.rows().into_iter().cloned().collect())
            .collect()
    }

    pub fn window_sizes(&self) -> Vec<usize> {
        self.windows.iter().map(WindowState::len).collect()
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    /// Executes `plan` over the current windows, in place: the windows
    /// lend their rows, and nothing but the count and the per-operator
    /// cardinalities comes back.
    pub fn execute(&mut self, plan: &PlanNode) -> SliceResult {
        let fp = plan.fingerprint();
        let migrated_rows = match self.last_plan_fingerprint {
            Some(prev) if prev != fp => self.windows.iter().map(WindowState::len).sum(),
            _ => 0,
        };
        self.last_plan_fingerprint = Some(fp);
        let inputs: Vec<Vec<&Row>> = self.windows.iter().map(WindowState::rows).collect();
        let (out_rows, stats) = count_rows(&self.q, &inputs, plan);
        SliceResult {
            out_rows,
            stats,
            window_sizes: self.window_sizes(),
            migrated_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::{Catalog, ColumnStats, TableBuilder, TableStats};
    use reopt_expr::{LeafId, QuerySpec};

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
