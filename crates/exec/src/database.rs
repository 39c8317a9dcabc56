//! In-memory stored tables, aligned with the catalog by `TableId`.

use reopt_catalog::{Catalog, ColumnStats, Datum, TableId, TableStats};

/// A row of datums, positionally matching the table schema.
pub type Row = Vec<Datum>;

/// One table's tuples.
#[derive(Clone, Debug, Default)]
pub struct TableData {
    pub rows: Vec<Row>,
}

impl TableData {
    pub fn new(rows: Vec<Row>) -> TableData {
        TableData { rows }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// All stored tables of a database instance.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: Vec<TableData>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub fn set_table(&mut self, id: TableId, data: TableData) {
        let idx = id.0 as usize;
        if idx >= self.tables.len() {
            self.tables.resize_with(idx + 1, TableData::default);
        }
        self.tables[idx] = data;
    }

    pub fn table(&self, id: TableId) -> &TableData {
        &self.tables[id.0 as usize]
    }

    /// Computes fresh `TableStats` from the stored data (histograms on
    /// integer columns) — how the workloads derive catalog statistics.
    pub fn compute_stats(&self, catalog: &Catalog, id: TableId, buckets: usize) -> TableStats {
        let table = catalog.table(id);
        let data = self.table(id);
        let columns = (0..table.columns.len())
            .map(|ci| {
                let ints: Vec<i64> = data
                    .rows
                    .iter()
                    .filter_map(|r| match &r[ci] {
                        Datum::Int(v) => Some(*v),
                        _ => None,
                    })
                    .collect();
                if ints.is_empty() {
                    // Non-integer column: NDV-only statistics.
                    let mut vals: Vec<&Datum> = data.rows.iter().map(|r| &r[ci]).collect();
                    vals.sort();
                    vals.dedup();
                    ColumnStats {
                        ndv: vals.len() as f64,
                        min: 0,
                        max: 0,
                        histogram: None,
                    }
                } else {
                    ColumnStats::from_values(&ints, buckets)
                }
            })
            .collect();
        TableStats {
            row_count: data.len() as f64,
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::TableBuilder;

    #[test]
    fn stats_from_data() {
        let mut c = Catalog::new();
        let id = c.add_table(
            |id| {
                TableBuilder::new("t")
                    .int_col("a")
                    .str_col("s")
                    .build(id)
            },
            TableStats {
                row_count: 0.0,
                columns: vec![ColumnStats::uniform_key(1.0); 2],
            },
        );
        let mut db = Database::new();
        db.set_table(
            id,
            TableData::new(
                (0..100)
                    .map(|i| vec![Datum::Int(i % 10), Datum::str(if i % 2 == 0 { "x" } else { "y" })])
                    .collect(),
            ),
        );
        let stats = db.compute_stats(&c, id, 8);
        assert_eq!(stats.row_count, 100.0);
        assert_eq!(stats.columns[0].ndv, 10.0);
        assert_eq!(stats.columns[1].ndv, 2.0);
        assert!(stats.columns[0].histogram.is_some());
        assert!(stats.columns[1].histogram.is_none());
    }
}
