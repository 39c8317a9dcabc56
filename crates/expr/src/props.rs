//! Physical properties — the paper's `Prop` column in the `SearchSpace`
//! relation (Table 1): "a physical plan has not only a root physical
//! operator, but also a set of physical properties over the data that it
//! maintains or produces".

use std::fmt;

use crate::query::LeafCol;

/// The physical property required of / produced by a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhysProp {
    /// No requirement (the `–` entries in Table 1).
    Any,
    /// Output sorted on the given column (an "interesting order", e.g.
    /// `C_custkey order` in Table 1).
    Sorted(LeafCol),
    /// Accessible through an index on the given column (the
    /// `index on L_orderkey` inner requirement of the indexed
    /// nested-loop join in Table 1). Only leaf expressions can produce
    /// this property.
    Indexed(LeafCol),
}

impl PhysProp {
    /// Whether a plan producing `self` satisfies a requirement of `req`.
    /// `Any` is satisfied by everything; `Sorted`/`Indexed` must match
    /// exactly.
    pub fn satisfies(self, req: PhysProp) -> bool {
        req == PhysProp::Any || self == req
    }
}

impl fmt::Display for PhysProp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysProp::Any => write!(f, "–"),
            PhysProp::Sorted(c) => write!(f, "sorted(l{}.c{})", c.leaf.0, c.col.0),
            PhysProp::Indexed(c) => write!(f, "indexed(l{}.c{})", c.leaf.0, c.col.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction() {
        let c = LeafCol::new(0, 1);
        let d = LeafCol::new(1, 1);
        assert!(PhysProp::Sorted(c).satisfies(PhysProp::Any));
        assert!(PhysProp::Sorted(c).satisfies(PhysProp::Sorted(c)));
        assert!(!PhysProp::Sorted(c).satisfies(PhysProp::Sorted(d)));
        assert!(!PhysProp::Any.satisfies(PhysProp::Sorted(c)));
        assert!(!PhysProp::Indexed(c).satisfies(PhysProp::Sorted(c)));
    }

    #[test]
    fn display() {
        assert_eq!(PhysProp::Any.to_string(), "–");
        assert_eq!(
            PhysProp::Sorted(LeafCol::new(2, 3)).to_string(),
            "sorted(l2.c3)"
        );
    }
}
