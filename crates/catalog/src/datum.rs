//! Runtime values. The execution engine, workload generators and
//! statistics builders all exchange rows of [`Datum`]s.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Column data types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer. Dates are stored as days-since-epoch, monetary
    /// values as integer cents — the usual trick to keep keys orderable
    /// and hashable without floating point.
    Int,
    /// 64-bit float (used for computed aggregates only).
    Double,
    /// Interned string.
    Str,
}

/// A single value. `Double` is kept orderable by normalizing NaN (the
/// engine never produces NaN, but sort operators must not panic).
/// `Str` holds a thin pointer (`Arc<str>` is two words), so a datum is
/// 16 bytes and a row of them a third smaller.
#[derive(Clone, Debug)]
pub enum Datum {
    Int(i64),
    Double(f64),
    Str(Arc<Box<str>>),
}

impl Datum {
    pub fn str(s: &str) -> Datum {
        Datum::Str(Arc::new(s.into()))
    }

    /// Integer view; panics on non-integers (schema violations are bugs,
    /// not runtime conditions, in this engine).
    #[inline]
    pub fn as_int(&self) -> i64 {
        match self {
            Datum::Int(v) => *v,
            other => panic!("expected Int datum, got {other:?}"),
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Datum) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Datum) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    fn cmp(&self, other: &Datum) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            // Heterogeneous comparisons order by type tag; they only occur
            // in degenerate hand-written tests, never in planned queries.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(d: &Datum) -> u8 {
    match d {
        Datum::Int(_) => 0,
        Datum::Double(_) => 1,
        Datum::Str(_) => 2,
    }
}

impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Datum::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Datum::Double(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Datum::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Double(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datum_is_sixteen_bytes() {
        // A tag and one word of payload: TPC-H rows are `Vec<Datum>`.
        assert_eq!(std::mem::size_of::<Datum>(), 16);
    }

    #[test]
    fn int_ordering_and_equality() {
        assert!(Datum::Int(1) < Datum::Int(2));
        assert_eq!(Datum::Int(5), Datum::Int(5));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert!(Datum::Int(1) < Datum::Double(1.5));
        assert_eq!(Datum::Int(2), Datum::Double(2.0));
    }

    #[test]
    fn string_ordering() {
        assert!(Datum::str("abc") < Datum::str("abd"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(7).as_int(), 7);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_str() {
        Datum::str("nope").as_int();
    }
}
