//! Table schemas: names, columns, indexes, and physical layout hints
//! (clustering) used when enumerating access paths.

use crate::datum::DataType;

/// Identifies a table within a [`crate::Catalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Column ordinal within its table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColId(pub u32);

/// A column definition.
#[derive(Clone, Debug)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A base table (or a named stream with window semantics attached at the
/// query level — the optimizer sees both as leaf relations).
#[derive(Clone, Debug)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    /// Columns with a secondary index (enables `IndexScan` /
    /// indexed-nested-loop inner access paths, per paper Table 1).
    pub indexed: Vec<ColId>,
    /// Column the table is physically sorted on, if any (a `LocalScan`
    /// then yields that sort order for free — an "interesting order").
    pub clustered_on: Option<ColId>,
}

impl Table {
    /// Resolves a column name to its ordinal.
    pub fn col(&self, name: &str) -> Option<ColId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColId(i as u32))
    }
}

/// Builder used by the workload generators.
#[derive(Clone, Debug, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<Column>,
    indexed: Vec<String>,
    clustered_on: Option<String>,
}

impl TableBuilder {
    pub fn new(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn column(mut self, name: &str, ty: DataType) -> Self {
        self.columns.push(Column::new(name, ty));
        self
    }

    pub fn int_col(self, name: &str) -> Self {
        self.column(name, DataType::Int)
    }

    pub fn str_col(self, name: &str) -> Self {
        self.column(name, DataType::Str)
    }

    pub fn index_on(mut self, name: &str) -> Self {
        self.indexed.push(name.to_string());
        self
    }

    pub fn clustered_on(mut self, name: &str) -> Self {
        self.clustered_on = Some(name.to_string());
        self
    }

    pub fn build(self, id: TableId) -> Table {
        let find = |n: &str| {
            ColId(
                self.columns
                    .iter()
                    .position(|c| c.name == n)
                    .unwrap_or_else(|| panic!("no column `{n}` in table `{}`", self.name))
                    as u32,
            )
        };
        let indexed = self.indexed.iter().map(|n| find(n)).collect();
        let clustered_on = self.clustered_on.as_deref().map(find);
        Table {
            id,
            name: self.name,
            columns: self.columns,
            indexed,
            clustered_on,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        TableBuilder::new("orders")
            .int_col("o_orderkey")
            .int_col("o_custkey")
            .str_col("o_comment")
            .index_on("o_orderkey")
            .clustered_on("o_orderkey")
            .build(TableId(3))
    }

    #[test]
    fn column_lookup() {
        let t = sample();
        assert_eq!(t.col("o_custkey"), Some(ColId(1)));
        assert_eq!(t.col("missing"), None);
    }

    #[test]
    fn index_and_clustering() {
        let t = sample();
        assert_eq!(t.indexed, vec![ColId(0)]);
        assert_eq!(t.clustered_on, Some(ColId(0)));
    }
}
