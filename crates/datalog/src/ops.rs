//! Dataflow operators. Each consumes a *batch* of delta tuples arriving
//! on one input port and emits delta tuples, "largely as if they were
//! standard tuples" (§4): (1) update internal state, (2) evaluate
//! internal computations, (3) construct output deltas.
//!
//! Batches are the unit of scheduling (one queue entry, one dynamic
//! dispatch, one state borrow per batch rather than per delta); within
//! a batch each operator handles one delta at a time. A [`GroupAgg`]
//! emits per touched group at the end of the batch rather than per
//! delta — invisible at the fixpoint, where sinks and downstream state
//! are multisets. Every operator remains observationally identical to
//! per-delta execution, pinned by the differential suite in
//! `tests/differential.rs`.

use reopt_common::FxHashMap;

use crate::agg::{AggKind, OrderedMultiset};
use crate::delta::Delta;
use crate::error::DataflowError;
use crate::relation::{ArrangementHandle, IndexedMultiset, Multiset, Visibility};
use crate::value::{Tuple, Val};

/// Per-operator work counters, drained by the scheduler into
/// [`crate::dataflow::RunStats`] at the end of each fixpoint run.
/// Operators accumulate into their own instance during `on_batch`;
/// [`Operator::take_counters`] hands the accumulated values over and
/// resets them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Deltas that probed a join index (join inputs with a non-zero
    /// count), one probe each.
    pub join_probe_deltas: u64,
}

/// A dataflow operator.
pub trait Operator {
    /// Processes a batch of input deltas arriving on `port`, appending
    /// output deltas to `out`. The batch is coalesced by the scheduler
    /// (no two deltas share a tuple, no zero counts), but operators must
    /// not rely on that for correctness.
    ///
    /// An `Err` aborts the run and poisons the dataflow: state mutated
    /// before the error stays as it was left, and the scheduler never
    /// dispatches to this operator (or any other) again.
    fn on_batch(
        &mut self,
        port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError>;

    /// Number of input ports.
    fn arity(&self) -> usize {
        1
    }

    /// True if the operator forwards every input delta unchanged
    /// (`Union`): the scheduler then moves batches through the node
    /// without calling [`Operator::on_batch`] or cloning deltas. An
    /// operator returning `true` must be stateless and must behave as
    /// the identity on every port.
    fn is_passthrough(&self) -> bool {
        false
    }

    /// True if the scheduler should coalesce batches before they reach
    /// this operator. Stateful operators (join, distinct, aggregation)
    /// benefit: merged counts mean fewer state updates and smaller
    /// bilinear fan-outs. Linear stateless operators (`Map`, `Union`)
    /// return `false` — their outputs re-merge at the next stateful
    /// input anyway, so hashing their inputs would be pure overhead.
    fn coalesces_input(&self) -> bool {
        true
    }

    /// True if the scheduler must deliver this operator's emitted batch
    /// to every downstream consumer *synchronously, within the producing
    /// dispatch* — before any other queued batch is serviced — instead
    /// of enqueueing per-edge copies. [`Arrange`] requires this: its
    /// `on_batch` has already applied the batch to the shared index, and
    /// attached joins skip their own apply, so the index update and
    /// every attached probe must be atomic with respect to all other
    /// scheduling (an interleaved batch on a join's opposite port would
    /// otherwise double-count `ΔL ⋈ ΔR`).
    fn sync_fanout(&self) -> bool {
        false
    }

    /// True if every batch the operator emits is consolidated — no two
    /// deltas share a tuple, none has a zero count — whenever the batch
    /// it was given is. A port fed by one such producer alone needs no
    /// coalescing pass ([`crate::dataflow::Dataflow::prove_consolidated`]
    /// proves it).
    fn emits_consolidated(&self) -> bool {
        false
    }

    /// Drains the operator's accumulated work counters (see
    /// [`OpCounters`]). Called by the scheduler when it assembles a
    /// run's statistics; the default for counter-less operators reports
    /// nothing.
    fn take_counters(&mut self) -> OpCounters {
        OpCounters::default()
    }

    /// Rows of state the operator holds right now (diagnostic, see
    /// [`crate::dataflow::NodeStats`]). A join counts only the sides it
    /// owns; a shared side is counted at its [`Arrange`] node.
    fn state_rows(&self) -> usize {
        0
    }

    /// The ordered state a [`GroupAgg`] holds for the group at `key` —
    /// its aggregate read by key, without a sink or an arrangement on
    /// the aggregate's output. `None` for a group never seen and for
    /// every other operator.
    fn group_state(&self, _key: &Tuple) -> Option<&OrderedMultiset> {
        None
    }

    /// The counted relation a [`Distinct`] gates (a tuple is in the
    /// relation while its count is positive); `None` for every other
    /// operator.
    fn distinct_state(&self) -> Option<&Multiset> {
        None
    }

    fn name(&self) -> &str;
}

/// The transformation a [`Map`] applies per tuple.
pub type MapFn = Box<dyn FnMut(&Tuple) -> Option<Tuple>>;

/// Stateless map/filter: applies a function to each tuple; `None` drops
/// it. Counts pass through unchanged (linear operator).
pub struct Map {
    f: MapFn,
}

impl Map {
    pub fn new(f: impl FnMut(&Tuple) -> Option<Tuple> + 'static) -> Map {
        Map { f: Box::new(f) }
    }

    /// Pure projection of the given columns.
    pub fn project(cols: Vec<usize>) -> Map {
        Map::new(move |t| Some(t.project(&cols)))
    }

    /// Pure filter.
    pub fn filter(mut pred: impl FnMut(&Tuple) -> bool + 'static) -> Map {
        Map::new(move |t| pred(t).then(|| t.clone()))
    }
}

impl Operator for Map {
    fn on_batch(
        &mut self,
        _port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        for delta in deltas {
            if delta.count == 0 {
                continue;
            }
            if let Some(t) = (self.f)(&delta.tuple) {
                out.push(Delta::with_count(t, delta.count));
            }
        }
        Ok(())
    }

    fn coalesces_input(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "map"
    }
}

/// The callback behind an [`ExternalFn`] node: receives one input tuple
/// and pushes zero or more output tuples into the sink. Returning `Err`
/// fails the run (the error string becomes
/// [`DataflowError::ExternalFn`]).
pub type ExternalFnBody = Box<dyn FnMut(&Tuple, &mut dyn FnMut(Tuple)) -> Result<(), String>>;

/// Stateless external-function operator — the paper's `Fn_*` predicates
/// (`Fn_split`, `Fn_scancost`, `Fn_sum`, …) lifted into the dataflow: for
/// each input tuple the callback computes zero or more output tuples
/// (typically the input bindings extended with the function's results).
/// Linear: every output delta carries the input delta's count, so
/// retractions flow through external functions exactly like insertions —
/// the §4 requirement that operators "process delta tuples encoding
/// changes" applies to the external predicates too.
///
/// The callback must be **deterministic** (same input tuple ⇒ same
/// outputs): a retraction re-invokes it to reconstruct what to retract.
pub struct ExternalFn {
    name: String,
    f: ExternalFnBody,
}

impl ExternalFn {
    pub fn new(
        name: impl Into<String>,
        mut f: impl FnMut(&Tuple, &mut dyn FnMut(Tuple)) + 'static,
    ) -> ExternalFn {
        ExternalFn::try_new(name, move |t, emit| {
            f(t, emit);
            Ok(())
        })
    }

    /// An external function whose callback can fail; an `Err` fails
    /// the run as [`DataflowError::ExternalFn`].
    pub fn try_new(
        name: impl Into<String>,
        f: impl FnMut(&Tuple, &mut dyn FnMut(Tuple)) -> Result<(), String> + 'static,
    ) -> ExternalFn {
        ExternalFn {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for ExternalFn {
    fn on_batch(
        &mut self,
        _port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        for delta in deltas {
            if delta.count == 0 {
                continue;
            }
            let count = delta.count;
            (self.f)(&delta.tuple, &mut |t| {
                out.push(Delta::with_count(t, count));
            })
            .map_err(|detail| DataflowError::ExternalFn {
                name: self.name.clone(),
                detail,
            })?;
        }
        Ok(())
    }

    fn coalesces_input(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Incremental equi-join following the delta rules of \[14\]: a delta on
/// one side joins the *current* state of the other side
/// (`ΔL ⋈ R  ∪  L' ⋈ ΔR`), with multiplicities multiplied (bilinear).
/// Output tuples are `left ++ right`.
///
/// A whole batch arrives on one port, so the opposite side's state is
/// constant across the batch and `ΔL ⋈ R` distributes over the batch's
/// deltas. Each delta hashes its key columns once, applies itself to
/// the port's side if the join owns it, probes the other side with
/// that hash (the probe re-checks key equality, so colliding keys stay
/// correct) and emits its matches.
pub struct HashJoin {
    left: Side,
    right: Side,
    /// Key columns of the left and right port.
    keys: [Vec<usize>; 2],
    /// Output projection: columns of the virtual `left ++ right`
    /// concatenation. `None` emits the full concatenation.
    proj: Option<Vec<usize>>,
    counters: OpCounters,
}

/// One port's state: a private index, or an attachment to a shared
/// [`ArrangementHandle`] maintained by an upstream [`Arrange`] node.
/// A shared port's deltas arrive *already applied* to the index (the
/// `Arrange` applies, then fans out synchronously), so the join only
/// probes.
enum Side {
    Owned(IndexedMultiset),
    Shared(ArrangementHandle),
}

impl Side {
    fn owned(&mut self) -> Option<&mut IndexedMultiset> {
        match self {
            Side::Owned(m) => Some(m),
            Side::Shared(_) => None,
        }
    }
}

impl HashJoin {
    pub fn new(left_key: Vec<usize>, right_key: Vec<usize>) -> HashJoin {
        assert_eq!(
            left_key.len(),
            right_key.len(),
            "join key arity must match"
        );
        HashJoin {
            left: Side::Owned(IndexedMultiset::new(left_key.clone())),
            right: Side::Owned(IndexedMultiset::new(right_key.clone())),
            keys: [left_key, right_key],
            proj: None,
            counters: OpCounters::default(),
        }
    }

    /// A join that projects its output in place: emits
    /// `(left ++ right)[proj]`, built directly from the two sides —
    /// the ubiquitous join-then-project pair as one operator and one
    /// tuple construction.
    pub fn with_projection(
        left_key: Vec<usize>,
        right_key: Vec<usize>,
        proj: Vec<usize>,
    ) -> HashJoin {
        let mut j = HashJoin::new(left_key, right_key);
        j.proj = Some(proj);
        j
    }

    /// Attaches the left port to a shared arrangement instead of a
    /// private index. Port 0 must then be wired to the owning
    /// [`Arrange`] node (the port's deltas must be exactly the
    /// arrangement's maintenance stream). The arrangement's key must
    /// equal the join's left key, and it must not also feed the right
    /// port.
    pub fn share_left(mut self, handle: ArrangementHandle) -> HashJoin {
        self.left = Self::attach(handle, &self.keys[0], &self.right);
        self
    }

    /// [`HashJoin::share_left`], for the right port.
    pub fn share_right(mut self, handle: ArrangementHandle) -> HashJoin {
        self.right = Self::attach(handle, &self.keys[1], &self.left);
        self
    }

    fn attach(handle: ArrangementHandle, key: &[usize], opposite: &Side) -> Side {
        assert_eq!(
            handle.key_cols(),
            key,
            "arrangement key must match the join port's key columns"
        );
        if let Side::Shared(other) = opposite {
            assert!(
                !handle.same_index(other),
                "one arrangement must not feed both ports of a join \
                 (the bilinear form would double-count Δ²)"
            );
        }
        Side::Shared(handle)
    }
}

impl Operator for HashJoin {
    fn on_batch(
        &mut self,
        port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        let HashJoin {
            left,
            right,
            keys,
            proj,
            counters,
        } = self;
        let (own, other) = match port {
            0 => (left, &*right),
            1 => (right, &*left),
            p => panic!("join has 2 ports, got {p}"),
        };
        // A shared other side is borrowed for the whole batch — the
        // owning Arrange's mutable borrow ended before its output
        // fanned out here, so the read borrow cannot conflict.
        let guard;
        let other: &IndexedMultiset = match other {
            Side::Owned(m) => m,
            Side::Shared(handle) => {
                guard = handle.read();
                &guard
            }
        };
        // A shared own side was already applied by the upstream
        // `Arrange`.
        let mut own = own.owned();
        let key = &keys[port];
        for delta in deltas {
            if delta.count == 0 {
                continue;
            }
            let h = delta.tuple.hash_cols(key);
            if let Some(own) = own.as_deref_mut() {
                own.apply_hashed(delta, h);
            }
            counters.join_probe_deltas += 1;
            for (matched, c) in other.matches_hashed(h, &delta.tuple, key) {
                let (l, r) = if port == 0 {
                    (&delta.tuple, matched)
                } else {
                    (matched, &delta.tuple)
                };
                let t = match proj {
                    Some(cols) => l.project_concat(r, cols),
                    None => l.concat(r),
                };
                out.push(Delta::with_count(t, delta.count * c));
            }
        }
        Ok(())
    }

    fn arity(&self) -> usize {
        2
    }

    fn take_counters(&mut self) -> OpCounters {
        std::mem::take(&mut self.counters)
    }

    fn state_rows(&self) -> usize {
        [&self.left, &self.right]
            .into_iter()
            .map(|side| match side {
                Side::Owned(m) => m.total_tuples(),
                Side::Shared(_) => 0,
            })
            .sum()
    }

    fn name(&self) -> &str {
        "join"
    }
}

/// Maintains a shared [`ArrangementHandle`] — differential dataflow's
/// *arrange* operator. Applies each batch to the shared index exactly
/// once, then forwards the deltas verbatim; downstream [`HashJoin`]s
/// attached via `share_left`/`share_right` probe the index without
/// re-applying. Requires [`Operator::sync_fanout`] scheduling: the
/// apply above and every attached probe happen atomically within one
/// dispatch, so no other batch can interleave between the index update
/// and the probes it pairs with.
pub struct Arrange {
    handle: ArrangementHandle,
}

impl Arrange {
    pub fn new(key_cols: Vec<usize>) -> Arrange {
        Arrange {
            handle: ArrangementHandle::new(key_cols),
        }
    }

    /// The shared handle, for attaching joins.
    pub fn handle(&self) -> ArrangementHandle {
        self.handle.clone()
    }
}

impl Operator for Arrange {
    fn on_batch(
        &mut self,
        _port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        let mut index = self.handle.write();
        for delta in deltas {
            if delta.count == 0 {
                continue;
            }
            index.apply(delta);
            out.push(delta.clone());
        }
        Ok(())
    }

    fn sync_fanout(&self) -> bool {
        true
    }

    fn state_rows(&self) -> usize {
        self.handle.read().total_tuples()
    }

    fn name(&self) -> &str {
        "arrange"
    }
}

/// Grouped aggregation with internal ordered-multiset state per group
/// (the §4.1 "priority queue"). Emits set-semantics deltas: on an
/// aggregate change, `-old_result` then `+new_result`, i.e. the paper's
/// update delta `R[x→x']`.
///
/// Within a batch, each group's aggregate is compared once against its
/// value *before the batch*: intermediate transitions (e.g. a new
/// minimum inserted and deleted by the same batch) emit nothing instead
/// of an update pair that downstream operators would only cancel.
pub struct GroupAgg {
    key_cols: Vec<usize>,
    value_col: usize,
    kind: AggKind,
    groups: FxHashMap<Tuple, Group>,
    /// Scratch: keys touched by the current batch, in first-touch order.
    touched: Vec<Tuple>,
    /// Batch generation, stamped into each touched group — the
    /// first-touch test is a field compare instead of a second map.
    generation: u64,
}

/// One group's state plus its per-batch bookkeeping (the aggregate
/// value before the current batch, valid while `stamp` matches the
/// operator's generation).
struct Group {
    state: OrderedMultiset,
    stamp: u64,
    before: Option<Val>,
}

impl GroupAgg {
    pub fn new(key_cols: Vec<usize>, value_col: usize, kind: AggKind) -> GroupAgg {
        GroupAgg {
            key_cols,
            value_col,
            kind,
            groups: FxHashMap::default(),
            touched: Vec::new(),
            generation: 0,
        }
    }
}

impl Operator for GroupAgg {
    fn on_batch(
        &mut self,
        _port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        self.touched.clear();
        self.generation += 1;
        for delta in deltas {
            if delta.count == 0 {
                continue;
            }
            let key = delta.tuple.project(&self.key_cols);
            let group = self.groups.entry(key.clone()).or_insert_with(|| Group {
                state: OrderedMultiset::new(),
                stamp: 0,
                before: None,
            });
            if group.stamp != self.generation {
                group.stamp = self.generation;
                group.before = group.state.aggregate(self.kind);
                self.touched.push(key);
            }
            group.state.update(delta.tuple.get(self.value_col), delta.count);
        }
        for key in self.touched.drain(..) {
            let group = &self.groups[&key];
            let old = group.before;
            let new = group.state.aggregate(self.kind);
            if old == new {
                continue;
            }
            if let Some(old) = old {
                out.push(Delta::delete(key.with_appended(old)));
            }
            if let Some(new) = new {
                out.push(Delta::insert(key.with_appended(new)));
            }
        }
        Ok(())
    }

    // One `−old`/`+new` pair per touched group, `old != new`.
    fn emits_consolidated(&self) -> bool {
        true
    }

    fn state_rows(&self) -> usize {
        self.groups.values().map(|g| g.state.distinct()).sum()
    }

    fn group_state(&self, key: &Tuple) -> Option<&OrderedMultiset> {
        self.groups.get(key).map(|g| &g.state)
    }

    fn name(&self) -> &str {
        "group-agg"
    }
}

/// Set-semantics gate: emits +1 when a tuple's derivation count becomes
/// positive and −1 when it returns to zero. This is what makes recursive
/// rules terminate and what implements \[14\]'s counting algorithm for
/// deletions.
#[derive(Default)]
pub struct Distinct {
    state: Multiset,
}

impl Distinct {
    pub fn new() -> Distinct {
        Distinct::default()
    }
}

impl Operator for Distinct {
    fn on_batch(
        &mut self,
        _port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        for delta in deltas {
            match self.state.apply(delta) {
                Visibility::Appeared => out.push(Delta::insert(delta.tuple.clone())),
                Visibility::Disappeared => out.push(Delta::delete(delta.tuple.clone())),
                Visibility::Unchanged => {}
            }
        }
        Ok(())
    }

    fn emits_consolidated(&self) -> bool {
        true
    }

    fn state_rows(&self) -> usize {
        self.state.len()
    }

    fn distinct_state(&self) -> Option<&Multiset> {
        Some(&self.state)
    }

    fn name(&self) -> &str {
        "distinct"
    }
}

/// N-ary union: forwards deltas from any port unchanged.
pub struct Union {
    arity: usize,
}

impl Union {
    pub fn new(arity: usize) -> Union {
        Union { arity }
    }
}

impl Operator for Union {
    fn on_batch(
        &mut self,
        port: usize,
        deltas: &[Delta],
        out: &mut Vec<Delta>,
    ) -> Result<(), DataflowError> {
        assert!(port < self.arity, "union port {port} out of range");
        out.extend(deltas.iter().filter(|d| d.count != 0).cloned());
        Ok(())
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn is_passthrough(&self) -> bool {
        true
    }

    fn coalesces_input(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "union"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ints, Val};

    fn run(op: &mut dyn Operator, port: usize, d: Delta) -> Vec<Delta> {
        let mut out = Vec::new();
        op.on_batch(port, std::slice::from_ref(&d), &mut out).unwrap();
        out
    }

    fn run_batch(op: &mut dyn Operator, port: usize, ds: &[Delta]) -> Vec<Delta> {
        let mut out = Vec::new();
        op.on_batch(port, ds, &mut out).unwrap();
        out
    }

    #[test]
    fn map_projects_and_preserves_counts() {
        let mut m = Map::project(vec![1]);
        let out = run(&mut m, 0, Delta::with_count(ints(&[1, 2]), -3));
        assert_eq!(out, vec![Delta::with_count(ints(&[2]), -3)]);
    }

    #[test]
    fn filter_drops_non_matching() {
        let mut m = Map::filter(|t| t.get(0).as_int() > 5);
        assert!(run(&mut m, 0, Delta::insert(ints(&[3]))).is_empty());
        assert_eq!(run(&mut m, 0, Delta::insert(ints(&[7]))).len(), 1);
    }

    #[test]
    fn join_emits_matches_both_directions() {
        let mut j = HashJoin::new(vec![0], vec![0]);
        assert!(run(&mut j, 0, Delta::insert(ints(&[1, 10]))).is_empty());
        let out = run(&mut j, 1, Delta::insert(ints(&[1, 20])));
        assert_eq!(out, vec![Delta::insert(ints(&[1, 10, 1, 20]))]);
        // Another left tuple joins the existing right tuple.
        let out = run(&mut j, 0, Delta::insert(ints(&[1, 11])));
        assert_eq!(out, vec![Delta::insert(ints(&[1, 11, 1, 20]))]);
        // Deleting the right tuple retracts both join results.
        let out = run(&mut j, 1, Delta::delete(ints(&[1, 20])));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.count == -1));
    }

    #[test]
    fn join_multiplicities_multiply() {
        let mut j = HashJoin::new(vec![0], vec![0]);
        run(&mut j, 0, Delta::with_count(ints(&[1, 10]), 2));
        let out = run(&mut j, 1, Delta::with_count(ints(&[1, 20]), 3));
        assert_eq!(out[0].count, 6);
    }

    #[test]
    fn join_batch_probes_constant_other_side() {
        let mut j = HashJoin::new(vec![0], vec![0]);
        run(&mut j, 1, Delta::insert(ints(&[1, 20])));
        // Two left deltas in one batch each join the same right state.
        let out = run_batch(
            &mut j,
            0,
            &[Delta::insert(ints(&[1, 10])), Delta::insert(ints(&[1, 11]))],
        );
        assert_eq!(
            out,
            vec![
                Delta::insert(ints(&[1, 10, 1, 20])),
                Delta::insert(ints(&[1, 11, 1, 20])),
            ]
        );
    }

    #[test]
    fn join_skips_zero_count_deltas() {
        let mut j = HashJoin::new(vec![0], vec![0]);
        run(&mut j, 1, Delta::insert(ints(&[1, 20])));
        let out = run(&mut j, 0, Delta::with_count(ints(&[1, 10]), 0));
        assert!(out.is_empty());
        // The zero delta was not applied: the join holds the right row
        // only, and a probe from the right side finds nothing to match.
        assert_eq!(j.state_rows(), 1);
        assert!(run(&mut j, 1, Delta::insert(ints(&[1, 30]))).is_empty());
    }

    #[test]
    fn min_agg_emits_update_on_new_minimum() {
        let mut a = GroupAgg::new(vec![0], 1, AggKind::Min);
        let out = run(&mut a, 0, Delta::insert(ints(&[1, 10])));
        assert_eq!(out, vec![Delta::insert(ints(&[1, 10]))]);
        // Higher value: no output change.
        assert!(run(&mut a, 0, Delta::insert(ints(&[1, 30]))).is_empty());
        // Lower value: update (delete old, insert new).
        let out = run(&mut a, 0, Delta::insert(ints(&[1, 5])));
        assert_eq!(
            out,
            vec![Delta::delete(ints(&[1, 10])), Delta::insert(ints(&[1, 5]))]
        );
        // Deleting the minimum recovers the next-best (10, not 30).
        let out = run(&mut a, 0, Delta::delete(ints(&[1, 5])));
        assert_eq!(
            out,
            vec![Delta::delete(ints(&[1, 5])), Delta::insert(ints(&[1, 10]))]
        );
    }

    #[test]
    fn min_agg_groups_are_independent() {
        let mut a = GroupAgg::new(vec![0], 1, AggKind::Min);
        run(&mut a, 0, Delta::insert(ints(&[1, 10])));
        let out = run(&mut a, 0, Delta::insert(ints(&[2, 3])));
        assert_eq!(out, vec![Delta::insert(ints(&[2, 3]))]);
        assert_eq!(
            a.group_state(&ints(&[1])).unwrap().min(),
            Some(&Val::Int(10))
        );
    }

    #[test]
    fn min_agg_batch_emits_one_update_per_group() {
        let mut a = GroupAgg::new(vec![0], 1, AggKind::Min);
        run(&mut a, 0, Delta::insert(ints(&[1, 10])));
        // A transient lower minimum inserted and deleted within one
        // batch leaves the aggregate unchanged: no output at all.
        let out = run_batch(
            &mut a,
            0,
            &[Delta::insert(ints(&[1, 5])), Delta::delete(ints(&[1, 5]))],
        );
        assert!(out.is_empty(), "intermediate update leaked: {out:?}");
        // A batch that lands on a new minimum emits exactly one update.
        let out = run_batch(
            &mut a,
            0,
            &[Delta::insert(ints(&[1, 7])), Delta::insert(ints(&[1, 3]))],
        );
        assert_eq!(
            out,
            vec![Delta::delete(ints(&[1, 10])), Delta::insert(ints(&[1, 3]))]
        );
        // Interleaved groups: each touched group is compared once
        // against its value before the batch, in first-touch order.
        let out = run_batch(
            &mut a,
            0,
            &[
                Delta::insert(ints(&[2, 8])),
                Delta::delete(ints(&[1, 3])),
                Delta::insert(ints(&[2, 6])),
                Delta::insert(ints(&[1, 2])),
            ],
        );
        assert_eq!(
            out,
            vec![
                Delta::insert(ints(&[2, 6])),
                Delta::delete(ints(&[1, 3])),
                Delta::insert(ints(&[1, 2])),
            ]
        );
    }

    #[test]
    fn count_agg_tracks_group_size() {
        let mut a = GroupAgg::new(vec![0], 1, AggKind::Count);
        let out = run(&mut a, 0, Delta::insert(ints(&[1, 99])));
        assert_eq!(out.last().unwrap().tuple, ints(&[1, 1]));
        let out = run(&mut a, 0, Delta::insert(ints(&[1, 98])));
        assert_eq!(out.last().unwrap().tuple, ints(&[1, 2]));
        let out = run(&mut a, 0, Delta::delete(ints(&[1, 99])));
        assert_eq!(out.last().unwrap().tuple, ints(&[1, 1]));
    }

    #[test]
    fn distinct_gates_duplicates() {
        let mut d = Distinct::new();
        assert_eq!(run(&mut d, 0, Delta::insert(ints(&[1]))).len(), 1);
        assert!(run(&mut d, 0, Delta::insert(ints(&[1]))).is_empty());
        assert!(run(&mut d, 0, Delta::delete(ints(&[1]))).is_empty());
        let out = run(&mut d, 0, Delta::delete(ints(&[1])));
        assert_eq!(out, vec![Delta::delete(ints(&[1]))]);
    }

    #[test]
    fn external_fn_expands_and_preserves_counts() {
        // A toy Fn_split: (x) -> (x, x+1), (x, x+2).
        let mut f = ExternalFn::new("Fn_split", |t, emit| {
            let x = t.get(0).as_int();
            emit(ints(&[x, x + 1]));
            emit(ints(&[x, x + 2]));
        });
        let out = run(&mut f, 0, Delta::insert(ints(&[5])));
        assert_eq!(
            out,
            vec![Delta::insert(ints(&[5, 6])), Delta::insert(ints(&[5, 7]))]
        );
        // Retractions re-derive the same outputs with negated counts.
        let out = run(&mut f, 0, Delta::with_count(ints(&[5]), -2));
        assert!(out.iter().all(|d| d.count == -2));
        assert_eq!(out.len(), 2);
        assert_eq!(f.name(), "Fn_split");
    }

    #[test]
    fn external_fn_can_filter() {
        // A boolean guard: emits the input only when col 0 is even.
        let mut f = ExternalFn::new("Fn_even", |t, emit| {
            if t.get(0).as_int() % 2 == 0 {
                emit(t.clone());
            }
        });
        assert!(run(&mut f, 0, Delta::insert(ints(&[3]))).is_empty());
        assert_eq!(run(&mut f, 0, Delta::insert(ints(&[4]))).len(), 1);
    }

    #[test]
    fn union_passes_through() {
        let mut u = Union::new(2);
        assert_eq!(run(&mut u, 1, Delta::insert(ints(&[4]))).len(), 1);
    }

    #[test]
    fn join_with_projection_builds_outputs_directly() {
        // Project (l.payload, r.payload) out of the virtual concat.
        let mut j = HashJoin::with_projection(vec![0], vec![0], vec![1, 3]);
        run(&mut j, 0, Delta::insert(ints(&[1, 10])));
        let out = run(&mut j, 1, Delta::insert(ints(&[1, 20])));
        assert_eq!(out, vec![Delta::insert(ints(&[10, 20]))]);
        // Port 0 deltas produce the same orientation (left ++ right).
        let out = run(&mut j, 0, Delta::insert(ints(&[1, 11])));
        assert_eq!(out, vec![Delta::insert(ints(&[11, 20]))]);
        // Retraction projects identically.
        let out = run(&mut j, 1, Delta::delete(ints(&[1, 20])));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.count == -1));
    }

    #[test]
    fn join_counters_report_shared_probes() {
        let mut j = HashJoin::new(vec![0], vec![0]);
        run(&mut j, 1, Delta::insert(ints(&[1, 20])));
        // Five same-key deltas in one batch share no probe: each delta
        // probes once, so five probes.
        let batch: Vec<Delta> = (0..5).map(|v| Delta::insert(ints(&[1, v]))).collect();
        let out = run_batch(&mut j, 0, &batch);
        assert_eq!(out.len(), 5);
        let c = j.take_counters();
        assert_eq!(c.join_probe_deltas, 6); // priming delta + batch
        // Counters drained: a second take reports nothing.
        assert_eq!(j.take_counters(), OpCounters::default());
    }

    #[test]
    fn grouped_probe_handles_mixed_keys_and_update_pairs() {
        let mut j = HashJoin::new(vec![0], vec![0]);
        run_batch(
            &mut j,
            1,
            &[Delta::insert(ints(&[1, 100])), Delta::insert(ints(&[2, 200]))],
        );
        // A batch mixing an update pair on key 1 with an insert on key
        // 2 emits exactly the per-delta outputs.
        let out = run_batch(
            &mut j,
            0,
            &[
                Delta::delete(ints(&[1, 10])),
                Delta::insert(ints(&[1, 11])),
                Delta::insert(ints(&[2, 20])),
            ],
        );
        let mut got = out.clone();
        got.sort_by(|a, b| a.tuple.cmp(&b.tuple).then(a.count.cmp(&b.count)));
        assert_eq!(
            got,
            vec![
                Delta::delete(ints(&[1, 10, 1, 100])),
                Delta::insert(ints(&[1, 11, 1, 100])),
                Delta::insert(ints(&[2, 20, 2, 200])),
            ]
        );
    }

    #[test]
    fn external_fn_failure_surfaces_as_typed_error() {
        let mut f = ExternalFn::try_new("Fn_flaky", |t, emit| {
            if t.get(0).as_int() < 0 {
                return Err("negative input".into());
            }
            emit(t.clone());
            Ok(())
        });
        assert_eq!(run(&mut f, 0, Delta::insert(ints(&[1]))).len(), 1);
        let mut out = Vec::new();
        let err = f
            .on_batch(0, &[Delta::insert(ints(&[-1]))], &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            DataflowError::ExternalFn {
                name: "Fn_flaky".into(),
                detail: "negative input".into()
            }
        );
    }
}
