//! Tuples and values flowing through the dataflow engine.
//!
//! The tuple representation is the innermost allocation site of the
//! whole system: every delta, every projection, every join key and every
//! join output constructs one. Values are 16 bytes (`Int`/`Cost` carry
//! their 8-byte payload, `Str` carries an interned [`Sym`] — see
//! [`crate::intern`]), so short tuples of up to [`INLINE_CAP`] values of
//! *any* kind are stored inline as packed 64-bit words: 48 bytes,
//! `memcpy`-clonable, no heap traffic and no drop glue. Only tuples
//! longer than [`INLINE_CAP`] spill to a shared `Rc<[Val]>`: a tuple
//! never crosses a thread (a dataflow runs on the thread that built
//! it), so cloning and dropping a wide row — once per consumer it fans
//! out to — is a plain, not an atomic, count update.
//!
//! The representation is **canonical**: a given logical value sequence
//! always packs the same way (short ⟺ inline), so equality and hashing
//! can specialize per representation without cross-checks.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use reopt_common::{Cost, FxHasher};

use crate::intern::Sym;

/// A single value. Totally ordered and hashable (required by join keys
/// and min/max aggregation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Val {
    Int(i64),
    /// An interned string (equality by symbol, ordering lexicographic).
    Str(Sym),
    /// Totally-ordered float (plan costs in the optimizer-as-datalog
    /// encoding).
    Cost(Cost),
}

impl Val {
    pub fn str(s: &str) -> Val {
        Val::Str(Sym::intern(s))
    }

    pub fn cost(v: f64) -> Val {
        Val::Cost(Cost::new(v))
    }

    pub fn as_int(&self) -> i64 {
        match self {
            Val::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    pub fn as_cost(&self) -> Cost {
        match self {
            Val::Cost(c) => *c,
            Val::Int(v) => Cost::new(*v as f64),
            other => panic!("expected Cost, got {other:?}"),
        }
    }

    pub fn as_sym(&self) -> Sym {
        match self {
            Val::Str(s) => *s,
            other => panic!("expected Str, got {other:?}"),
        }
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Val {
        Val::Int(v)
    }
}

impl From<Cost> for Val {
    fn from(c: Cost) -> Val {
        Val::Cost(c)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(v) => write!(f, "{v}"),
            Val::Str(s) => write!(f, "{s}"),
            Val::Cost(c) => write!(f, "{c}"),
        }
    }
}

/// Tuples up to this many values are stored inline with no heap
/// allocation.
pub const INLINE_CAP: usize = 4;

/// Inline storage: up to [`INLINE_CAP`] values packed as raw 64-bit
/// words plus per-kind tag bitmasks. `Copy` — cloning a short tuple is a
/// plain memcpy with no refcounts and no drop glue.
#[derive(Clone, Copy, Debug)]
struct Scalars {
    len: u8,
    /// Bit `i` set ⇒ `words[i]` is the bit pattern of a [`Cost`].
    cost_mask: u8,
    /// Bit `i` set ⇒ `words[i]` is a [`Sym`] id. Disjoint from
    /// `cost_mask`; both clear ⇒ an `Int`. Bits at or above `len` are
    /// always clear.
    sym_mask: u8,
    words: [i64; INLINE_CAP],
}

impl Scalars {
    const EMPTY: Scalars = Scalars {
        len: 0,
        cost_mask: 0,
        sym_mask: 0,
        words: [0; INLINE_CAP],
    };

    #[inline]
    fn tag(&self, i: usize) -> u8 {
        (self.cost_mask >> i & 1) | (self.sym_mask >> i & 1) << 1
    }

    #[inline]
    fn val(&self, i: usize) -> Val {
        assert!(
            i < self.len as usize,
            "index {i} out of bounds for tuple of {}",
            self.len
        );
        unpack(self.words[i], self.tag(i))
    }

    #[inline]
    fn push(&mut self, word: i64, tag: u8) {
        let i = self.len as usize;
        debug_assert!(i < INLINE_CAP);
        self.words[i] = word;
        self.cost_mask |= (tag & 1) << i;
        self.sym_mask |= (tag >> 1 & 1) << i;
        self.len += 1;
    }
}

/// Per-value type tags of the packed encoding.
const TAG_INT: u8 = 0;
const TAG_COST: u8 = 1;
const TAG_SYM: u8 = 2;

/// Packs a value into its canonical `(word, tag)`: `Int` verbatim,
/// `Cost` as its bit pattern with `-0.0` normalized to `0.0` (so word
/// equality coincides with `Cost` equality; NaN is excluded by `Cost`
/// itself), `Str` as its symbol id. Total — every value packs.
#[inline]
fn pack(v: &Val) -> (i64, u8) {
    match v {
        Val::Int(i) => (*i, TAG_INT),
        Val::Cost(c) => {
            let x = c.value();
            let x = if x == 0.0 { 0.0 } else { x };
            (x.to_bits() as i64, TAG_COST)
        }
        Val::Str(s) => (s.id() as i64, TAG_SYM),
    }
}

#[inline]
fn unpack(word: i64, tag: u8) -> Val {
    match tag {
        TAG_COST => Val::Cost(Cost::new(f64::from_bits(word as u64))),
        TAG_SYM => Val::Str(Sym::from_id(word as u32)),
        _ => Val::Int(word),
    }
}

#[derive(Clone)]
enum Repr {
    Inline(Scalars),
    /// Long tuples: shared values plus their canonical hash, computed
    /// once at construction. Wide tuples are hashed at *every* stateful
    /// hop (batch coalescing, join indexes, multiset state, sinks), so
    /// caching the digest turns each of those into a single `u64` write.
    Spilled(Rc<[Val]>, u64),
}

/// Builds the spilled representation, computing the canonical hash
/// (length, then each value's packed `(tag, word)`) exactly once.
fn spill(vals: Rc<[Val]>) -> Repr {
    let mut h = FxHasher::default();
    h.write_usize(vals.len());
    for v in vals.iter() {
        let (w, tag) = pack(v);
        hash_packed_word(&mut h, tag, w);
    }
    let digest = h.finish();
    Repr::Spilled(vals, digest)
}

/// A tuple: an immutable, cheaply clonable value sequence. All
/// comparisons, hashing and ordering are over the logical value
/// sequence.
#[derive(Clone)]
pub struct Tuple(Repr);

impl Tuple {
    pub fn new(vals: Vec<Val>) -> Tuple {
        Tuple::from_slice(&vals)
    }

    pub fn from_slice(vals: &[Val]) -> Tuple {
        if vals.len() <= INLINE_CAP {
            let mut s = Scalars::EMPTY;
            for v in vals {
                let (w, tag) = pack(v);
                s.push(w, tag);
            }
            Tuple(Repr::Inline(s))
        } else {
            Tuple(spill(vals.iter().cloned().collect()))
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline(s) => s.len as usize,
            Repr::Spilled(vals, _) => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at position `i` (owned; inline values are reconstructed
    /// from their packed words).
    #[inline]
    pub fn get(&self, i: usize) -> Val {
        match &self.0 {
            Repr::Inline(s) => s.val(i),
            Repr::Spilled(vals, _) => vals[i],
        }
    }

    /// Iterates the tuple's values (owned).
    pub fn values(&self) -> impl Iterator<Item = Val> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Projects the given column indexes into a new tuple, building the
    /// target representation directly (no intermediate `Vec` and, for
    /// short outputs, no allocation at all).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        match &self.0 {
            Repr::Inline(s) if cols.len() <= INLINE_CAP => {
                let mut out = Scalars::EMPTY;
                for &c in cols {
                    assert!(
                        c < s.len as usize,
                        "column {c} out of bounds for tuple of {}",
                        s.len
                    );
                    out.push(s.words[c], s.tag(c));
                }
                Tuple(Repr::Inline(out))
            }
            Repr::Spilled(vals, _) if cols.len() <= INLINE_CAP => {
                let mut out = Scalars::EMPTY;
                for &c in cols {
                    let (w, tag) = pack(&vals[c]);
                    out.push(w, tag);
                }
                Tuple(Repr::Inline(out))
            }
            _ => Tuple(spill(cols.iter().map(|&c| self.get(c)).collect())),
        }
    }

    /// Projects columns out of the *virtual concatenation*
    /// `self ++ other` without materializing it — the join's
    /// projected output path: one tuple construction instead of
    /// a wide concat followed by a projection.
    pub fn project_concat(&self, other: &Tuple, cols: &[usize]) -> Tuple {
        let split = self.len();
        let pick = |c: usize| -> Val {
            if c < split {
                self.get(c)
            } else {
                other.get(c - split)
            }
        };
        if cols.len() <= INLINE_CAP {
            let mut out = Scalars::EMPTY;
            for &c in cols {
                let (w, tag) = pack(&pick(c));
                out.push(w, tag);
            }
            Tuple(Repr::Inline(out))
        } else {
            Tuple(spill(cols.iter().map(|&c| pick(c)).collect()))
        }
    }

    /// Concatenates two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            if a.len as usize + b.len as usize <= INLINE_CAP {
                let mut out = *a;
                for i in 0..b.len as usize {
                    out.push(b.words[i], b.tag(i));
                }
                return Tuple(Repr::Inline(out));
            }
        }
        let mut vals = Vec::with_capacity(self.len() + other.len());
        vals.extend(self.values());
        vals.extend(other.values());
        Tuple::new(vals)
    }

    /// This tuple extended by one trailing value (aggregate outputs:
    /// `key ++ [agg]`).
    pub fn with_appended(&self, v: Val) -> Tuple {
        if let Repr::Inline(s) = &self.0 {
            if (s.len as usize) < INLINE_CAP {
                let (w, tag) = pack(&v);
                let mut out = *s;
                out.push(w, tag);
                return Tuple(Repr::Inline(out));
            }
        }
        let mut vals = Vec::with_capacity(self.len() + 1);
        vals.extend(self.values());
        vals.push(v);
        Tuple::new(vals)
    }

    /// The tuple's FxHash — the batch coalescer's index key.
    /// Deterministic across runs (symbol ids are allocation-ordered, so
    /// only within one process). Spilled tuples return their cached
    /// construction-time digest.
    pub fn fx_hash(&self) -> u64 {
        match &self.0 {
            Repr::Inline(_) => {
                let mut h = FxHasher::default();
                self.hash(&mut h);
                h.finish()
            }
            Repr::Spilled(_, digest) => *digest,
        }
    }

    /// Hashes the given columns directly — what a join index keys on —
    /// without materializing a key tuple. The per-value encoding is
    /// canonical across representations, so a probe tuple and a stored
    /// tuple with equal key *values* always hash alike. Deterministic
    /// (FxHash).
    pub fn hash_cols(&self, cols: &[usize]) -> u64 {
        let mut h = FxHasher::default();
        match &self.0 {
            Repr::Inline(s) => {
                for &c in cols {
                    hash_packed_word(&mut h, s.tag(c), s.words[c]);
                }
            }
            Repr::Spilled(vals, _) => {
                for &c in cols {
                    let (w, tag) = pack(&vals[c]);
                    hash_packed_word(&mut h, tag, w);
                }
            }
        }
        h.finish()
    }

    /// Column-wise equality of `self[self_cols]` and `other[other_cols]`.
    pub fn cols_eq(&self, self_cols: &[usize], other: &Tuple, other_cols: &[usize]) -> bool {
        debug_assert_eq!(self_cols.len(), other_cols.len());
        self_cols
            .iter()
            .zip(other_cols)
            .all(|(&i, &j)| val_eq(self, i, other, j))
    }
}

/// Canonical per-value hashing: a type tag byte, then the packed word.
/// The same function serves inline words and (re-packed) spilled values,
/// so key hashes agree across representations.
#[inline]
fn hash_packed_word<H: Hasher>(h: &mut H, tag: u8, word: i64) {
    h.write_u8(tag);
    h.write_u64(word as u64);
}

/// Value equality across arbitrary representations, without
/// materializing `Val`s.
#[inline]
fn val_eq(a: &Tuple, i: usize, b: &Tuple, j: usize) -> bool {
    match (&a.0, &b.0) {
        (Repr::Inline(x), Repr::Inline(y)) => {
            x.tag(i) == y.tag(j) && x.words[i] == y.words[j]
        }
        (Repr::Spilled(x, _), Repr::Spilled(y, _)) => x[i] == y[j],
        (Repr::Inline(x), Repr::Spilled(y, _)) => packed_eq_val(x, i, &y[j]),
        (Repr::Spilled(x, _), Repr::Inline(y)) => packed_eq_val(y, j, &x[i]),
    }
}

#[inline]
fn packed_eq_val(s: &Scalars, i: usize, v: &Val) -> bool {
    let (w, tag) = pack(v);
    s.tag(i) == tag && s.words[i] == w
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                a.len == b.len
                    && a.cost_mask == b.cost_mask
                    && a.sym_mask == b.sym_mask
                    && a.words[..a.len as usize] == b.words[..b.len as usize]
            }
            // Canonical hashing: unequal digests prove inequality
            // without touching the values.
            (Repr::Spilled(a, ha), Repr::Spilled(b, hb)) => ha == hb && a == b,
            // Canonical representation: a short tuple is always inline,
            // so differing representations differ in length.
            _ => false,
        }
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal tuples share a representation (canonical packing), so
        // each arm only needs internal consistency.
        match &self.0 {
            Repr::Inline(s) => {
                // Length and both tag masks fold into one header word —
                // one hasher round instead of three.
                let header =
                    s.len as u64 | (s.cost_mask as u64) << 8 | (s.sym_mask as u64) << 16;
                state.write_u64(header);
                for &w in &s.words[..s.len as usize] {
                    state.write_u64(w as u64);
                }
            }
            // The canonical digest was computed at construction.
            Repr::Spilled(_, digest) => state.write_u64(*digest),
        }
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        // Fast path: two all-int inline tuples order as their raw words
        // (symbol ids are *not* lexicographic, so they take the slow
        // path).
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            if a.cost_mask | a.sym_mask == 0 && b.cost_mask | b.sym_mask == 0 {
                return a.words[..a.len as usize].cmp(&b.words[..b.len as usize]);
            }
        }
        let (la, lb) = (self.len(), other.len());
        for i in 0..la.min(lb) {
            match self.get(i).cmp(&other.get(i)) {
                Ordering::Equal => {}
                non_eq => return non_eq,
            }
        }
        la.cmp(&lb)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience constructor: `tup![1, "x", 3]`-style building is verbose
/// without a macro; this free function keeps call sites short.
pub fn tup<const N: usize>(vals: [Val; N]) -> Tuple {
    Tuple::from_slice(&vals)
}

/// Integer tuple shorthand for tests and examples.
pub fn ints(vals: &[i64]) -> Tuple {
    if vals.len() <= INLINE_CAP {
        let mut s = Scalars::EMPTY;
        for &v in vals {
            s.push(v, TAG_INT);
        }
        Tuple(Repr::Inline(s))
    } else {
        Tuple(spill(vals.iter().map(|&v| Val::Int(v)).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_is_sixteen_bytes() {
        // The interning payoff the ROADMAP targets: `Str` carries a u32
        // symbol, so the enum needs only one word of payload.
        assert_eq!(std::mem::size_of::<Val>(), 16);
        assert_eq!(std::mem::size_of::<Tuple>(), 48);
    }

    #[test]
    fn tuple_projection_and_concat() {
        let t = ints(&[10, 20, 30]);
        assert_eq!(t.project(&[2, 0]), ints(&[30, 10]));
        assert_eq!(t.concat(&ints(&[40])), ints(&[10, 20, 30, 40]));
    }

    #[test]
    fn val_ordering() {
        assert!(Val::Int(1) < Val::Int(2));
        assert!(Val::cost(1.0) < Val::cost(2.0));
        assert!(Val::str("a") < Val::str("b"));
        // Symbol ordering is lexicographic even when interning order
        // disagrees with it.
        let late_a = Val::str("0a-late");
        let early_z = Val::str("0z-early");
        assert!(late_a < early_z);
    }

    #[test]
    fn val_accessors() {
        assert_eq!(Val::Int(3).as_int(), 3);
        assert_eq!(Val::cost(2.5).as_cost().value(), 2.5);
        assert_eq!(Val::Int(2).as_cost().value(), 2.0);
        assert_eq!(Val::str("x").as_sym(), crate::intern::Sym::intern("x"));
    }

    #[test]
    fn tuples_hash_and_compare_structurally() {
        use reopt_common::FxHashSet;
        let mut s = FxHashSet::default();
        s.insert(ints(&[1, 2]));
        assert!(s.contains(&ints(&[1, 2])));
        assert!(!s.contains(&ints(&[2, 1])));
    }

    #[test]
    fn inline_and_spilled_agree() {
        // 5 values spill; 4 stay inline. Equality/ord are over the
        // logical sequence either way.
        let spilled = ints(&[1, 2, 3, 4, 5]);
        assert_eq!(spilled.len(), 5);
        assert_eq!(spilled.project(&[0, 1, 2, 3]), ints(&[1, 2, 3, 4]));
        let long = ints(&[1, 2, 3]).concat(&ints(&[4, 5]));
        assert_eq!(long, spilled);
        assert_eq!(long.get(4), Val::Int(5));
        // Ordering is lexicographic across representations.
        assert!(ints(&[1, 2, 3, 4]) < spilled);
        assert!(ints(&[9]) > spilled);
    }

    #[test]
    fn costs_pack_inline() {
        let t = tup([Val::Int(1), Val::cost(2.5)]);
        assert_eq!(t.get(0), Val::Int(1));
        assert_eq!(t.get(1), Val::cost(2.5));
        assert_eq!(t, tup([Val::Int(1), Val::cost(2.5)]));
        // Int and Cost of the same numeric value are distinct values.
        assert_ne!(tup([Val::Int(1)]), tup([Val::cost(1.0)]));
        // Negative zero packs canonically.
        assert_eq!(tup([Val::cost(-0.0)]), tup([Val::cost(0.0)]));
        assert_eq!(
            tup([Val::cost(-0.0)]).fx_hash(),
            tup([Val::cost(0.0)]).fx_hash()
        );
    }

    #[test]
    fn strings_pack_inline_and_compare() {
        // Interned strings pack like any scalar: no heap allocation for
        // short string-bearing tuples.
        let s = tup([Val::str("a"), Val::Int(1)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Val::str("a"));
        assert_eq!(s, tup([Val::str("a"), Val::Int(1)]));
        // A same-shape tuple with a different value kind never equals it.
        assert_ne!(s, ints(&[0, 1]));
        // Mixed ordering follows Val order (Int < Str < Cost).
        assert!(ints(&[0, 1]) < s);
        assert!(s < tup([Val::cost(0.0), Val::Int(1)]));
        // Projection keeps the packed encoding.
        assert_eq!(s.project(&[1]), ints(&[1]));
        assert_eq!(s.project(&[0]), tup([Val::str("a")]));
    }

    #[test]
    fn string_bearing_tuples_spill_past_inline_cap() {
        let wide = tup([
            Val::str("w"),
            Val::Int(1),
            Val::Int(2),
            Val::Int(3),
        ])
        .with_appended(Val::str("x"));
        assert_eq!(wide.len(), 5);
        assert_eq!(wide.get(0), Val::str("w"));
        assert_eq!(wide.get(4), Val::str("x"));
        // Projecting back under the cap re-packs, and key hashing agrees
        // across representations.
        let narrow = wide.project(&[0, 4]);
        assert_eq!(narrow, tup([Val::str("w"), Val::str("x")]));
        assert!(wide.cols_eq(&[0, 4], &narrow, &[0, 1]));
        assert_eq!(wide.hash_cols(&[0, 4]), narrow.hash_cols(&[0, 1]));
    }

    #[test]
    fn with_appended_matches_concat() {
        let t = ints(&[7, 8]);
        assert_eq!(t.with_appended(Val::Int(9)), ints(&[7, 8, 9]));
        let long = ints(&[1, 2, 3, 4]);
        assert_eq!(long.with_appended(Val::Int(5)), ints(&[1, 2, 3, 4, 5]));
        assert_eq!(
            t.with_appended(Val::str("x")),
            tup([Val::Int(7), Val::Int(8), Val::str("x")])
        );
    }

    #[test]
    fn hash_cols_matches_projected_key_equality() {
        let a = ints(&[1, 10, 3]);
        let b = ints(&[5, 1, 3]);
        // a[0,2] == b[1,2] as key columns.
        assert!(a.cols_eq(&[0, 2], &b, &[1, 2]));
        assert_eq!(a.hash_cols(&[0, 2]), b.hash_cols(&[1, 2]));
        assert!(!a.cols_eq(&[1, 2], &b, &[1, 2]));
        // Key hashing is representation-independent: the same column
        // values hash alike from an inline and a spilled tuple.
        let spilled = tup([
            Val::str("pad"),
            Val::str("pad2"),
            Val::Int(1),
            Val::Int(3),
            Val::Int(9),
        ]);
        assert!(spilled.cols_eq(&[2, 3], &a, &[0, 2]));
        assert_eq!(spilled.hash_cols(&[2, 3]), a.hash_cols(&[0, 2]));
    }

    #[test]
    fn project_beyond_inline_cap() {
        let t = ints(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(t.project(&[5, 4, 3, 2, 1]), ints(&[5, 4, 3, 2, 1]));
    }
}
