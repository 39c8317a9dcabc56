//! Process-wide string interning for tuple values.
//!
//! The rule network flows relation columns like `logOp`/`phyOp` that
//! hold a handful of distinct strings ("scan", "join", "pipelined-hash",
//! …) through every `SearchSpace` tuple. Interning maps each distinct
//! string to a dense [`Sym`] (a `u32`), so:
//! - `Val::Str` carries 4 bytes instead of an `Arc<str>` fat pointer,
//!   shrinking `Val` to 16 bytes;
//! - *every* value kind packs into the [`crate::value::Tuple`] inline
//!   representation — string-bearing tuples up to
//!   [`crate::value::INLINE_CAP`] values no longer heap-allocate;
//! - equality and hashing of string values become `u32` compares.
//!
//! Symbols are never freed: the distinct-string population of a rule
//! network is a small closed set (operator names, relation tags), so the
//! table only ever holds a few dozen entries.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use reopt_common::FxHashMap;

use crate::error::DataflowError;

/// Upper bound on distinct interned strings. Defaults to the id space
/// (`u32::MAX`); tests lower it to exercise the exhaustion path without
/// interning four billion strings.
static CAPACITY: AtomicU32 = AtomicU32::new(u32::MAX);

/// Overrides the interner's capacity (test hook for the exhaustion
/// path). The table is process-global, so callers must restore the
/// previous value — run such tests in their own process (a separate
/// integration-test binary) to avoid starving unrelated tests.
pub fn set_intern_capacity(cap: u32) -> u32 {
    CAPACITY.swap(cap, Ordering::SeqCst)
}

/// An interned string: a dense index into the global symbol table.
/// Equality and hashing are by index; ordering resolves to the
/// underlying strings so `Val` ordering stays lexicographic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    by_str: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

fn interner() -> MutexGuard<'static, Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER
        .get_or_init(|| {
            Mutex::new(Interner {
                by_str: FxHashMap::default(),
                strings: Vec::new(),
            })
        })
        .lock()
        // The table is append-only and never observably inconsistent,
        // so a panic under the lock (e.g. resolving a fabricated id)
        // must not poison interning for the rest of the process.
        .unwrap_or_else(PoisonError::into_inner)
}

impl Sym {
    /// Interns `s`, returning its symbol (idempotent). Panics on id
    /// exhaustion; use [`Sym::try_intern`] on paths (bulk symbol
    /// adoption) that must degrade instead of aborting.
    pub fn intern(s: &str) -> Sym {
        Sym::try_intern(s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Interns `s`, surfacing id exhaustion as
    /// [`DataflowError::StateCorruption`] so callers can route it
    /// through their recovery path (the bridge rebuilds) instead of
    /// aborting the process.
    pub fn try_intern(s: &str) -> Result<Sym, DataflowError> {
        let mut t = interner();
        if let Some(&id) = t.by_str.get(s) {
            return Ok(Sym(id));
        }
        // Ids are packed into 32-bit words inside tuples; guard the
        // cast so an id can never silently wrap near `u32::MAX`.
        let next = t.strings.len();
        let cap = CAPACITY.load(Ordering::SeqCst);
        let id = u32::try_from(next)
            .ok()
            .filter(|&id| id < cap)
            .ok_or_else(|| {
                DataflowError::StateCorruption(format!(
                    "interner exhausted: {next} distinct strings at capacity {cap}"
                ))
            })?;
        let arc: Arc<str> = Arc::from(s);
        t.strings.push(arc.clone());
        t.by_str.insert(arc, id);
        Ok(Sym(id))
    }

    /// The interned string. Panics on an id that was never produced by
    /// [`Sym::intern`] (a fabricated index must not alias a symbol).
    pub fn resolve(self) -> Arc<str> {
        let t = interner();
        t.strings
            .get(self.0 as usize)
            .unwrap_or_else(|| panic!("symbol id {} was never interned", self.0))
            .clone()
    }

    /// The raw table index (the word stored in packed tuples).
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }

    /// Reconstructs a symbol from a packed word. The id must have come
    /// from [`Sym::id`]; resolution panics on a fabricated index.
    #[inline]
    pub fn from_id(id: u32) -> Sym {
        Sym(id)
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    /// Lexicographic on the underlying strings (one lock for both
    /// resolutions); the common equal case short-circuits on the id.
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        let t = interner();
        t.strings[self.0 as usize].cmp(&t.strings[other.0 as usize])
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::intern("hash-join");
        let b = Sym::intern("hash-join");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(&*a.resolve(), "hash-join");
        assert_eq!(Sym::from_id(a.id()), a);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Sym::intern("scan");
        let b = Sym::intern("join");
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_is_lexicographic_not_by_id() {
        // Intern in reverse lexicographic order: ids ascend, strings
        // descend — ordering must follow the strings.
        let z = Sym::intern("zzz-order-test");
        let a = Sym::intern("aaa-order-test");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_resolves() {
        let s = Sym::intern("local-scan");
        assert_eq!(s.to_string(), "local-scan");
    }
}
