//! Generic rule-program → dataflow compiler.
//!
//! Takes a set of parsed [`Rule`]s (the IR of `reopt_core::rules_ir`),
//! declared base relations, and a registry of external functions, and
//! instantiates a [`Dataflow`] network:
//!
//! - every derived relation becomes `Union(rule outputs) → Distinct`
//!   (set semantics with counting, so recursive rules terminate and
//!   deletions retract exactly) — unless the property pass
//!   (`infer_properties`) proves its one rule already derives a set,
//!   in which case the relation *is* that rule's output;
//! - a rule whose first atom drops columns in front of an expanding
//!   `Fn_*` atom is split around a *demand set* (`demand_sets`): the
//!   function runs once per distinct demand, not once per duplicate;
//! - each rule body compiles left-to-right into a join tree:
//!   constants/duplicate variables become filters, stored relations
//!   [`HashJoin`] on the shared variables (an empty share is a cross
//!   join), and `Fn_*` atoms become [`ExternalFn`] nodes that extend the
//!   bindings with computed columns;
//! - heads project bindings through a `Map`, evaluating constants,
//!   subtraction chains and scalar `min<a,b>` combines; a one-argument
//!   `min<x>`/`max<x>`/`sum<x>`/`count<x>` head compiles to a
//!   (multi-column-key) [`GroupAgg`] over the remaining head columns;
//! - join sides that read a relation directly attach to *shared
//!   arrangements*: one [`Arrange`] node per `(relation, key columns)`
//!   maintains the keyed index, and every join demanding that index
//!   probes it through a handle instead of keeping an owned copy; a
//!   side that reads an intermediate binding owns its index.
//!
//! A relation may be *both* derived and a base input ("seeded"): the
//! input feeds port 0 of the relation's union — how `Bound(root)` is
//! seeded in the paper's Figure 3 program.

use std::fmt;
use std::rc::Rc;

use reopt_common::{FxHashMap, FxHashSet};
use reopt_core::rules_ir::{AggFunc, Atom, Rule, Term};
use reopt_datalog::{
    AggKind, Arrange, ArrangementHandle, ConsolidatorFootprint, Dataflow, DataflowError, Delta,
    Distinct, ExternalFn, FaultPlan, GroupAgg, HashJoin, Map, Multiset, NodeId, NodeStats,
    OrderedMultiset, RunStats, SchedulerMode, SinkId, Tuple, Union, Val,
};

/// The value standing in for the rules' `null` constant: a dedicated
/// interned symbol. It joins and filters like any other value and can
/// never collide with an `Int`/`Cost` column.
pub fn null_value() -> Val {
    Val::str("null")
}

/// The value encoding of the rules' `true`/`false` constants.
pub fn bool_value(b: bool) -> Val {
    Val::Int(b as i64)
}

fn const_value(t: &Term) -> Option<Val> {
    match t {
        Term::Str(s) => Some(Val::str(s)),
        Term::Bool(b) => Some(bool_value(*b)),
        Term::Null => Some(null_value()),
        _ => None,
    }
}

/// An external function body: receives the values of the atom's input
/// positions and emits rows of values for its output positions. A pure
/// function: a retraction calls it again to re-derive what to retract.
pub type ExternalBody = Rc<dyn Fn(&[Val], &mut dyn FnMut(&[Val]))>;

struct ExternalDef {
    /// How many leading argument positions are inputs; the rest are
    /// outputs produced by the body.
    inputs: usize,
    body: ExternalBody,
}

/// A compile failure.
#[derive(Clone, Debug)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule compilation failed: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError(msg.into()))
}

/// Builder for a [`RuleNetwork`].
pub struct NetworkBuilder {
    rules: Vec<Rule>,
    inputs: Vec<(String, usize)>,
    externals: FxHashMap<String, ExternalDef>,
    sinks: Vec<String>,
    /// `(relation, column, strata)` release-order declarations.
    release_orders: Vec<(String, usize, Vec<u32>)>,
    mode: SchedulerMode,
}

impl Default for NetworkBuilder {
    fn default() -> NetworkBuilder {
        NetworkBuilder {
            rules: Vec::new(),
            inputs: Vec::new(),
            externals: FxHashMap::default(),
            sinks: Vec::new(),
            release_orders: Vec::new(),
            mode: SchedulerMode::Batched,
        }
    }
}

impl NetworkBuilder {
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Selects the substrate scheduler (default batched).
    pub fn scheduler_mode(mut self, mode: SchedulerMode) -> NetworkBuilder {
        self.mode = mode;
        self
    }

    /// Adds parsed rules.
    pub fn rules(mut self, rules: impl IntoIterator<Item = Rule>) -> NetworkBuilder {
        self.rules.extend(rules);
        self
    }

    /// Parses and adds rule texts.
    pub fn rule_texts<'a>(
        self,
        texts: impl IntoIterator<Item = &'a str>,
    ) -> Result<NetworkBuilder, CompileError> {
        let parsed = reopt_core::rules_ir::parse_rules(texts)
            .map_err(|e| CompileError(e.to_string()))?;
        Ok(self.rules(parsed))
    }

    /// Declares a base (input) relation.
    pub fn input(mut self, name: &str, arity: usize) -> NetworkBuilder {
        self.inputs.push((name.to_string(), arity));
        self
    }

    /// Registers an external function: the first `inputs` argument
    /// positions of its atoms are inputs, the rest are outputs the body
    /// emits. The body must be deterministic.
    pub fn external(
        mut self,
        name: &str,
        inputs: usize,
        body: impl Fn(&[Val], &mut dyn FnMut(&[Val])) + 'static,
    ) -> NetworkBuilder {
        self.externals.insert(
            name.to_string(),
            ExternalDef {
                inputs,
                body: Rc::new(body),
            },
        );
        self
    }

    /// Declares the release order of a relation's pending deltas: a
    /// delta holding `Int(v)` in `column` waits in stratum `strata[v]`
    /// until the rest of the relation's recursive component has
    /// drained (see [`Dataflow::set_release_order`]). A schedule, not a
    /// semantics: any table yields the same fixpoint; the table that
    /// follows the data's derivation order yields it without transients.
    pub fn release_order(
        mut self,
        relation: &str,
        column: usize,
        strata: Vec<u32>,
    ) -> NetworkBuilder {
        self.release_orders
            .push((relation.to_string(), column, strata));
        self
    }

    /// Requests a materialized sink on a relation.
    pub fn sink(mut self, name: &str) -> NetworkBuilder {
        self.sinks.push(name.to_string());
        self
    }

    /// Compiles the program into a runnable network.
    pub fn build(self) -> Result<RuleNetwork, CompileError> {
        Compiler::new(self)?.compile()
    }
}

/// The property-inference pass: rule IR + relation table → what the
/// compiler may act on because it holds for every database. Returns the
/// **set-valued** derived relations — `Union → Distinct` over one would
/// be the identity and is not built — ordered so that each one's rule
/// reads none that follows it.
///
/// A derived relation is set-valued when it has exactly one
/// deriving rule, no seeding input and no release order (which holds
/// deltas *at* the relation's `Distinct`), and the rule either
/// aggregates — a `GroupAgg` emits one row per group — or joins stored
/// relations, every one read as a set (an input, a `Distinct`, or a
/// relation proved here), and keeps every body variable in its head: a
/// body without wildcards or externals binds each combination of rows
/// once, and a head that names every variable maps bindings to tuples
/// one to one. A relation whose proof would rest on itself (a cycle of
/// single-rule relations) keeps its `Distinct`.
///
/// The wiring-level half — which input ports are fed consolidated
/// batches — is proved on the wired graph by
/// [`Dataflow::prove_consolidated`].
fn infer_properties(
    rules: &[Rule],
    inputs: &[(String, usize)],
    release_orders: &[(String, usize, Vec<u32>)],
) -> Vec<String> {
    let derives_set = |r: &Rule| {
        matches!(r.head_aggregate(), Some((_, args)) if args.len() == 1)
            || r.body.iter().all(|a| {
                !a.is_external()
                    && a.terms.iter().all(|t| match t {
                        Term::Var(v) => r.head.terms.contains(&Term::Var(v.clone())),
                        t => const_value(t).is_some(),
                    })
            })
    };
    let mut pending: Vec<&Rule> = rules
        .iter()
        .filter(|r| {
            let name = &r.head.relation;
            rules.iter().filter(|o| o.head.relation == *name).count() == 1
                && !inputs.iter().any(|(n, _)| n == name)
                && !release_orders.iter().any(|(n, ..)| n == name)
                && derives_set(r)
        })
        .collect();
    let mut set_valued: Vec<String> = Vec::new();
    loop {
        let is_pending = |a: &Atom| pending.iter().any(|p| p.head.relation == a.relation);
        let Some(at) = pending.iter().position(|r| !r.body.iter().any(is_pending)) else {
            return set_valued;
        };
        set_valued.push(pending.remove(at).head.relation.clone());
    }
}

/// The demand pass: rule IR → rule IR, in front of [`infer_properties`].
/// A rule's first atom that drops a column — a wildcard, or a variable
/// nothing after it reads — yields a bag, and when the atom after it is
/// an external function that binds outputs (an expansion such as
/// `Fn_split`, not a guard such as `Fn_present`), every duplicate
/// re-runs the whole expansion. Such a rule
///
/// ```text
/// L: Head(..) :- Scan(..), Fn_f(..), tail..;
/// ```
///
/// is split around a *demand set*, the scan's projection as a derived
/// relation of its own (`Union → Distinct`, like any other):
///
/// ```text
/// L: demand:L(kept..) :- Scan(..);
/// L: Head(..) :- demand:L(kept..), Fn_f(..), tail..;
/// ```
///
/// so the function runs once per distinct demand, and the `Distinct`
/// counts the demanders: the expansion is retracted when the last one
/// goes. Rules with the same head, the same demand variables and the
/// same tail (D2 and D3: one per child slot) share one set and one tail
/// (`demand:D2+D3`). The rewrite changes how often a head tuple is
/// derived, never whether it is, so it is skipped for the one head kind
/// that counts derivations: a `sum<>`/`count<>` aggregate.
fn demand_sets(rules: Vec<Rule>, externals: &FxHashMap<String, ExternalDef>) -> Vec<Rule> {
    let demand = |r: &Rule| -> Option<Vec<Term>> {
        let [scan, next, ..] = &r.body[..] else {
            return None;
        };
        let expands = next.is_external()
            && externals.get(&next.relation).is_some_and(|d| d.inputs < next.arity());
        let counts = matches!(r.head_aggregate(), Some((AggFunc::Sum | AggFunc::Count, [_])));
        if scan.is_external() || !expands || counts {
            return None;
        }
        let read = |v: &&str| {
            r.head.vars().contains(v) || r.body[1..].iter().any(|a| a.vars().contains(v))
        };
        let vars = scan.vars();
        let kept: Vec<&str> = vars.iter().copied().filter(read).collect();
        let drops = scan.terms.contains(&Term::Wildcard) || kept.len() < vars.len();
        (drops && !kept.is_empty())
            .then(|| kept.into_iter().map(|v| Term::Var(v.to_string())).collect())
    };
    let mut out: Vec<Rule> = Vec::new();
    // Per demand set: its tail rule and its scan rules, as positions in
    // `out`. A tail whose first atom is the still unnamed demand atom
    // compares equal exactly when demand variables and tail both match.
    let mut sets: Vec<(usize, Vec<usize>)> = Vec::new();
    for rule in rules {
        let Some(terms) = demand(&rule) else {
            out.push(rule);
            continue;
        };
        let Rule { label, head, mut body } = rule;
        let unnamed = Atom { relation: String::new(), terms: terms.clone() };
        let scan = std::mem::replace(&mut body[0], unnamed);
        match sets.iter_mut().find(|(t, _)| out[*t].head == head && out[*t].body == body) {
            Some((tail, scans)) => {
                out[*tail].label = format!("{}+{label}", out[*tail].label);
                scans.push(out.len());
            }
            None => {
                sets.push((out.len(), vec![out.len() + 1]));
                out.push(Rule { label: label.clone(), head, body });
            }
        }
        let head = Atom { relation: String::new(), terms };
        out.push(Rule { label, head, body: vec![scan] });
    }
    for (tail, scans) in sets {
        let name = format!("demand:{}", out[tail].label);
        for scan in scans {
            out[scan].head.relation.clone_from(&name);
        }
        out[tail].body[0].relation = name;
    }
    out
}

struct RelInfo {
    arity: usize,
    /// Node downstream consumers read (input for EDB-only relations,
    /// the post-union `Distinct` for derived ones).
    read: NodeId,
    /// Union collecting rule outputs (derived relations only).
    union: Option<NodeId>,
    next_port: usize,
    input: Option<NodeId>,
}

struct Compiler {
    b: NetworkBuilder,
    df: Dataflow,
    rels: FxHashMap<String, RelInfo>,
    /// Relation read nodes — the only join sides worth arranging:
    /// anything else (a per-rule filter/projection `Map`) has exactly
    /// one consumer, so a shared index could never be reused.
    rel_reads: FxHashSet<NodeId>,
    /// Shared indexes already built, by `(source node, key columns)`.
    arrangements: FxHashMap<(NodeId, Vec<usize>), (NodeId, ArrangementHandle)>,
}

/// A partially compiled rule body: the node producing the current
/// intermediate tuples and the variable each column holds.
struct Binding {
    node: NodeId,
    vars: Vec<String>,
}

impl Binding {
    fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }
}

impl Compiler {
    fn new(b: NetworkBuilder) -> Result<Compiler, CompileError> {
        Ok(Compiler {
            df: Dataflow::with_mode(b.mode),
            b,
            rels: FxHashMap::default(),
            rel_reads: FxHashSet::default(),
            arrangements: FxHashMap::default(),
        })
    }

    fn compile(mut self) -> Result<RuleNetwork, CompileError> {
        let rules = demand_sets(std::mem::take(&mut self.b.rules), &self.b.externals);
        let set_valued = infer_properties(&rules, &self.b.inputs, &self.b.release_orders);
        self.collect_relations(&rules, &set_valued)?;
        for (name, column, strata) in std::mem::take(&mut self.b.release_orders) {
            match self.rels.get(&name) {
                Some(rel) if column < rel.arity => {
                    self.df.set_release_order(rel.read, column, strata)
                }
                Some(rel) => {
                    return err(format!(
                        "release order on column {column} of `{name}`, which has arity {}",
                        rel.arity
                    ))
                }
                None => return err(format!("release order on unknown relation `{name}`")),
            }
        }
        // A set-valued relation is its rule's output, which must exist
        // before anything reads it: those rules go first.
        let is_set = |r: &&Rule| set_valued.contains(&r.head.relation);
        for name in &set_valued {
            let rule = rules.iter().find(|r| r.head.relation == *name);
            self.compile_rule(rule.expect("a set-valued relation has its one rule"))?;
        }
        for rule in rules.iter().filter(|r| !is_set(r)) {
            self.compile_rule(rule)?;
        }
        // Materialize requested sinks.
        let mut sinks = FxHashMap::default();
        for name in std::mem::take(&mut self.b.sinks) {
            let rel = self
                .rels
                .get(&name)
                .ok_or_else(|| CompileError(format!("sink on unknown relation `{name}`")))?;
            sinks.insert(name.clone(), self.df.add_sink(rel.read));
            // `sink[BestCost]`: tells the sinks apart.
            self.df.label_suffix_from(self.df.node_count() - 1, &name);
        }
        // The network is fully wired: prove its consolidated ports now
        // so the first run doesn't pay the pass.
        if self.b.mode == SchedulerMode::Batched {
            self.df.prove_consolidated();
        }
        let inputs = self
            .rels
            .iter()
            .filter_map(|(n, r)| r.input.map(|id| (n.clone(), (id, r.arity))))
            .collect();
        let reads = self.rels.iter().map(|(n, r)| (n.clone(), r.read)).collect();
        Ok(RuleNetwork {
            df: self.df,
            inputs,
            sinks,
            reads,
            arrangements: self.arrangements.len(),
        })
    }

    /// Pass 1: derive every relation's arity, create input / union /
    /// distinct nodes, and validate consistency.
    fn collect_relations(&mut self, rules: &[Rule], sets: &[String]) -> Result<(), CompileError> {
        let mut arity: FxHashMap<String, usize> = FxHashMap::default();
        let mut note = |name: &str, n: usize| -> Result<(), CompileError> {
            match arity.insert(name.to_string(), n) {
                Some(prev) if prev != n => err(format!(
                    "relation `{name}` used with arities {prev} and {n}"
                )),
                _ => Ok(()),
            }
        };
        for (name, n) in &self.b.inputs {
            note(name, *n)?;
        }
        let mut rule_count: FxHashMap<&str, usize> = FxHashMap::default();
        let mut agg_rule: FxHashMap<&str, bool> = FxHashMap::default();
        let mut head_order: Vec<&str> = Vec::new();
        for r in rules {
            if r.head.is_external() {
                return err(format!("{}: external head `{}`", r.label, r.head.relation));
            }
            note(&r.head.relation, r.head.arity())?;
            if !rule_count.contains_key(r.head.relation.as_str()) {
                head_order.push(&r.head.relation);
            }
            *rule_count.entry(&r.head.relation).or_insert(0) += 1;
            let is_agg = matches!(
                r.head_aggregate(),
                Some((_, args)) if args.len() == 1
            );
            *agg_rule.entry(&r.head.relation).or_insert(false) |= is_agg;
            for a in &r.body {
                if a.is_external() {
                    if !self.b.externals.contains_key(&a.relation) {
                        return err(format!(
                            "{}: unregistered external `{}`",
                            r.label, a.relation
                        ));
                    }
                } else {
                    note(&a.relation, a.arity())?;
                }
            }
        }
        // Every non-external body relation must be derived or declared.
        for r in rules {
            for a in &r.body {
                if !a.is_external()
                    && !rule_count.contains_key(a.relation.as_str())
                    && !self.b.inputs.iter().any(|(n, _)| n == &a.relation)
                {
                    return err(format!(
                        "{}: relation `{}` is neither derived nor a declared input",
                        r.label, a.relation
                    ));
                }
            }
        }
        // An aggregate head must be its relation's only derivation —
        // other rules or a seeding input would union raw tuples with
        // the aggregate's output, which has no coherent incremental
        // semantics.
        for (rel, has_agg) in &agg_rule {
            if *has_agg && rule_count[rel] > 1 {
                return err(format!(
                    "relation `{rel}` mixes an aggregate rule with other rules"
                ));
            }
            if *has_agg && self.b.inputs.iter().any(|(n, _)| n == rel) {
                return err(format!(
                    "relation `{rel}` mixes an aggregate rule with a seeding input"
                ));
            }
        }
        // Create input nodes (declaration order), then derived-relation
        // unions/distincts (first-head order).
        for (name, n) in self.b.inputs.clone() {
            let input = self.df.add_input(&name);
            self.rels.insert(
                name.clone(),
                RelInfo {
                    arity: n,
                    read: input,
                    union: None,
                    next_port: 0,
                    input: Some(input),
                },
            );
        }
        for name in head_order {
            if sets.iter().any(|s| s == name) {
                continue; // read off its rule's output: see `compile_rule`
            }
            let n_rules = rule_count[name];
            let seeded = self.rels.contains_key(name);
            let ports = n_rules + seeded as usize;
            let first_new = self.df.node_count();
            let union = self.df.add_op_unwired(Union::new(ports));
            let distinct = self.df.add_op(Distinct::new(), &[union]);
            // `union[PlanCost]`, `distinct[BestCost]`: profiling tells
            // the per-relation pairs apart.
            self.df.label_suffix_from(first_new, name);
            match self.rels.get_mut(name) {
                Some(rel) => {
                    // Seeded derived relation: the input feeds port 0.
                    let input = rel.input.expect("seeded relation has an input");
                    self.df.connect(input, union, 0);
                    rel.read = distinct;
                    rel.union = Some(union);
                    rel.next_port = 1;
                }
                None => {
                    self.rels.insert(
                        name.to_string(),
                        RelInfo {
                            arity: arity[name],
                            read: distinct,
                            union: Some(union),
                            next_port: 0,
                            input: None,
                        },
                    );
                }
            }
        }
        self.rel_reads = self.rels.values().map(|r| r.read).collect();
        Ok(())
    }

    /// The shared arrangement over `source` keyed on `key`, creating
    /// its [`Arrange`] node on first demand.
    fn arrangement(&mut self, source: NodeId, key: Vec<usize>) -> (NodeId, ArrangementHandle) {
        if let Some(found) = self.arrangements.get(&(source, key.clone())) {
            return found.clone();
        }
        let op = Arrange::new(key.clone());
        let handle = op.handle();
        let node = self.df.add_op(op, &[source]);
        self.arrangements
            .insert((source, key), (node, handle.clone()));
        (node, handle)
    }

    fn compile_rule(&mut self, rule: &Rule) -> Result<(), CompileError> {
        let first_new = self.df.node_count();
        // Liveness, computed right-to-left: `needed[i]` holds the
        // variables referenced by body atoms after position `i` or by
        // the head — the only columns worth carrying past atom `i`.
        // Everything else is projected away inside the joins/externals
        // themselves (dead-column elimination), which keeps most
        // intermediate tuples at or under the inline width.
        let n = rule.body.len();
        let mut needed: Vec<Vec<String>> = vec![Vec::new(); n];
        let mut acc: Vec<String> = rule.head.vars().into_iter().map(String::from).collect();
        for i in (0..n).rev() {
            needed[i] = acc.clone();
            for v in rule.body[i].vars() {
                if !acc.iter().any(|a| a == v) {
                    acc.push(v.to_string());
                }
            }
        }
        let mut binding: Option<Binding> = None;
        for (i, atom) in rule.body.iter().enumerate() {
            let live = &needed[i];
            binding = Some(if atom.is_external() {
                let b = match binding {
                    Some(b) => b,
                    None => {
                        return err(format!(
                            "{}: rule body must start with a stored relation",
                            rule.label
                        ))
                    }
                };
                self.compile_external(rule, atom, b, live)?
            } else {
                let prior: Vec<String> = binding
                    .as_ref()
                    .map(|b| b.vars.clone())
                    .unwrap_or_default();
                // A scan that feeds the head alone narrows nothing: the
                // head (a `GroupAgg`'s key/value columns, a projection)
                // picks its columns itself.
                let scan = self.compile_scan(rule, atom, live, &prior, n > 1)?;
                match binding {
                    None => scan,
                    Some(b) => {
                        let joined = self.compile_join(b, scan, live);
                        // `join[BestCost][D8]`: tells a rule's joins apart.
                        self.df.label_suffix_from(self.df.node_count() - 1, &atom.relation);
                        joined
                    }
                }
            });
        }
        let binding = binding.expect("parser guarantees a non-empty body");
        let out = self.compile_head(rule, binding)?;
        // Tag every node this rule created with its label so profiling
        // (`node_stats`) attributes work to rules, not bare op names.
        self.df.label_suffix_from(first_new, &rule.label);
        match self.rels.get_mut(&rule.head.relation) {
            Some(rel) => {
                let union = rel.union.expect("derived relation has a union");
                self.df.connect(out, union, rel.next_port);
                rel.next_port += 1;
            }
            // Set-valued: the rule's output is the relation.
            None => {
                self.rel_reads.insert(out);
                self.rels.insert(
                    rule.head.relation.clone(),
                    RelInfo {
                        arity: rule.head.arity(),
                        read: out,
                        union: None,
                        next_port: 0,
                        input: None,
                    },
                );
            }
        }
        Ok(())
    }

    /// One stored-relation body atom: filter constants / duplicate
    /// variables, project to the distinct variable columns that are
    /// still *needed* — either live downstream (`live`) or join keys
    /// shared with the accumulated binding (`prior`).
    fn compile_scan(
        &mut self,
        rule: &Rule,
        atom: &Atom,
        live: &[String],
        prior: &[String],
        narrow: bool,
    ) -> Result<Binding, CompileError> {
        let source = self.rels[&atom.relation].read;
        enum Check {
            ConstEq(usize, Val),
            ColEq(usize, usize),
        }
        let mut checks = Vec::new();
        let mut proj: Vec<usize> = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Var(v) => match vars.iter().position(|x| x == v) {
                    Some(first) => checks.push(Check::ColEq(proj[first], i)),
                    None => {
                        proj.push(i);
                        vars.push(v.clone());
                    }
                },
                Term::Wildcard => {}
                Term::Agg(..) | Term::Diff(..) => {
                    return err(format!(
                        "{}: computed term `{t}` in body atom `{atom}`",
                        rule.label
                    ))
                }
                other => {
                    let v = const_value(other).expect("remaining terms are constants");
                    checks.push(Check::ConstEq(i, v));
                }
            }
        }
        if !narrow && checks.is_empty() {
            let name = |t: &Term| match t {
                Term::Var(v) => v.clone(),
                _ => String::new(), // a wildcard column: no variable names it
            };
            return Ok(Binding {
                node: source,
                vars: atom.terms.iter().map(name).collect(),
            });
        }
        // Dead-column elimination: drop variables neither live after
        // this atom nor joining against the accumulated binding.
        let mut k = 0;
        for i in 0..vars.len() {
            if live.contains(&vars[i]) || prior.contains(&vars[i]) {
                proj.swap(k, i);
                vars.swap(k, i);
                k += 1;
            }
        }
        proj.truncate(k);
        vars.truncate(k);
        // Identity scan (all positions distinct live vars): read
        // directly.
        if checks.is_empty() && proj.len() == atom.arity() {
            return Ok(Binding { node: source, vars });
        }
        let node = self.df.add_op(
            Map::new(move |t| {
                for c in &checks {
                    let ok = match c {
                        Check::ConstEq(i, v) => t.get(*i) == *v,
                        Check::ColEq(i, j) => t.get(*i) == t.get(*j),
                    };
                    if !ok {
                        return None;
                    }
                }
                Some(t.project(&proj))
            }),
            &[source],
        );
        Ok(Binding { node, vars })
    }

    /// Joins the intermediate with a scanned atom on their shared
    /// variables (an empty share degenerates to a cross join),
    /// projecting away duplicated key columns *and* dead columns inside
    /// the join (the join-then-project output path: one tuple
    /// construction per match instead of a wide concat plus a
    /// projection hop).
    fn compile_join(&mut self, left: Binding, right: Binding, live: &[String]) -> Binding {
        let shared: Vec<&String> =
            left.vars.iter().filter(|v| right.vars.contains(v)).collect();
        let lk: Vec<usize> = shared.iter().map(|v| left.col(v).unwrap()).collect();
        let rk: Vec<usize> = shared.iter().map(|v| right.col(v).unwrap()).collect();
        // Output = (left ++ right) restricted to live variables (first
        // occurrence wins; duplicated join keys and dead carriers drop).
        let lw = left.vars.len();
        let mut proj: Vec<usize> = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        for (i, v) in left.vars.iter().chain(&right.vars).enumerate() {
            if live.contains(v) && !vars.contains(v) {
                proj.push(i);
                vars.push(v.clone());
            }
        }
        let mut join = if proj.len() == lw + right.vars.len() {
            HashJoin::new(lk.clone(), rk.clone())
        } else {
            HashJoin::with_projection(lk.clone(), rk.clone(), proj)
        };
        // Shared arrangements: a side reading a relation directly
        // attaches to the keyed index maintained once per
        // `(relation, key)` by an `Arrange` node; the join is rewired
        // through that node so the index update always precedes the
        // probe (the arrangement's sync-fanout dispatch). The same
        // arrangement must never feed both ports — a self-join on one
        // key keeps its right side owned.
        let mut wire = [left.node, right.node];
        let mut left_arr: Option<NodeId> = None;
        if self.rel_reads.contains(&left.node) {
            let (node, handle) = self.arrangement(left.node, lk);
            join = join.share_left(handle);
            wire[0] = node;
            left_arr = Some(node);
        }
        if self.rel_reads.contains(&right.node) {
            let (node, handle) = self.arrangement(right.node, rk);
            if Some(node) != left_arr {
                join = join.share_right(handle);
                wire[1] = node;
            }
        }
        let node = self.df.add_op(join, &wire);
        Binding { node, vars }
    }

    /// An `Fn_*` atom: evaluate the registered external on the bound
    /// input positions, check/bind the output positions. Emitted rows
    /// carry only the live binding columns and live fresh outputs, so
    /// the tail of a cost rule (`Fn_sum` → head) emits head-shaped,
    /// usually inline, tuples.
    fn compile_external(
        &mut self,
        rule: &Rule,
        atom: &Atom,
        binding: Binding,
        live: &[String],
    ) -> Result<Binding, CompileError> {
        let def = &self.b.externals[&atom.relation];
        if atom.arity() < def.inputs {
            return err(format!(
                "{}: `{}` needs {} inputs, atom has {} terms",
                rule.label,
                atom.relation,
                def.inputs,
                atom.arity()
            ));
        }
        enum In {
            Col(usize),
            Const(Val),
        }
        let mut ins = Vec::new();
        for t in &atom.terms[..def.inputs] {
            ins.push(match t {
                Term::Var(v) => match binding.col(v) {
                    Some(c) => In::Col(c),
                    None => {
                        return err(format!(
                            "{}: `{}` input `{v}` is unbound",
                            rule.label, atom.relation
                        ))
                    }
                },
                Term::Wildcard => {
                    return err(format!(
                        "{}: wildcard input to `{}`",
                        rule.label, atom.relation
                    ))
                }
                Term::Agg(..) | Term::Diff(..) => {
                    return err(format!(
                        "{}: computed input to `{}`",
                        rule.label, atom.relation
                    ))
                }
                other => In::Const(const_value(other).expect("constant")),
            });
        }
        enum Out {
            Bind,
            Ignore,
            CheckConst(Val),
            CheckCol(usize),
            /// Equals an earlier output position of this same atom
            /// (`Fn_f(x,y,y)`: the second `y` must match the first).
            CheckEarlier(usize),
        }
        let mut outs: Vec<Out> = Vec::new();
        let mut fresh: Vec<(String, usize)> = Vec::new();
        for (pos, t) in atom.terms[def.inputs..].iter().enumerate() {
            outs.push(match t {
                Term::Var(v) => match binding.col(v) {
                    Some(c) => Out::CheckCol(c),
                    None => match fresh.iter().find(|(name, _)| name == v) {
                        Some(&(_, first)) => Out::CheckEarlier(first),
                        None => {
                            fresh.push((v.clone(), pos));
                            if live.contains(v) {
                                Out::Bind
                            } else {
                                Out::Ignore
                            }
                        }
                    },
                },
                Term::Wildcard => Out::Ignore,
                Term::Agg(..) | Term::Diff(..) => {
                    return err(format!(
                        "{}: computed output of `{}`",
                        rule.label, atom.relation
                    ))
                }
                other => Out::CheckConst(const_value(other).expect("constant")),
            });
        }
        // Emit only the live binding columns, then the live fresh
        // outputs (in output-position order, matching `Out::Bind`s).
        let mut keep: Vec<usize> = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        for (c, v) in binding.vars.iter().enumerate() {
            if live.contains(v) {
                keep.push(c);
                vars.push(v.clone());
            }
        }
        for (v, _) in &fresh {
            if live.contains(v) {
                vars.push(v.clone());
            }
        }
        let body = Rc::clone(&def.body);
        let label = atom.relation.clone();
        let n_out = outs.len();
        let mut in_scratch: Vec<Val> = Vec::new();
        let mut row_scratch: Vec<Val> = Vec::new();
        let node = self.df.add_op(
            ExternalFn::new(atom.relation.clone(), move |t, emit| {
                in_scratch.clear();
                for i in &ins {
                    in_scratch.push(match i {
                        In::Col(c) => t.get(*c),
                        In::Const(v) => *v,
                    });
                }
                body(&in_scratch, &mut |row: &[Val]| {
                    assert_eq!(
                        row.len(),
                        n_out,
                        "external `{label}` emitted {} values for {} output positions",
                        row.len(),
                        n_out
                    );
                    row_scratch.clear();
                    row_scratch.extend(keep.iter().map(|&c| t.get(c)));
                    for (spec, v) in outs.iter().zip(row) {
                        match spec {
                            Out::Bind => row_scratch.push(*v),
                            Out::Ignore => {}
                            Out::CheckConst(want) => {
                                if v != want {
                                    return;
                                }
                            }
                            Out::CheckCol(c) => {
                                if *v != t.get(*c) {
                                    return;
                                }
                            }
                            Out::CheckEarlier(p) => {
                                if *v != row[*p] {
                                    return;
                                }
                            }
                        }
                    }
                    emit(Tuple::from_slice(&row_scratch));
                });
            }),
            &[binding.node],
        );
        Ok(Binding { node, vars })
    }

    /// Head construction: a one-argument aggregate compiles to a
    /// `GroupAgg`; anything else to a projection `Map` evaluating
    /// constants, subtraction chains and scalar combines.
    fn compile_head(&mut self, rule: &Rule, binding: Binding) -> Result<NodeId, CompileError> {
        if let Some((func, args)) = rule.head_aggregate() {
            if args.len() == 1 {
                return self.compile_agg_head(rule, binding, *func, &args[0]);
            }
        }
        enum HeadCol {
            Col(usize),
            Const(Val),
            Diff(Vec<usize>),
            /// `min<a,b>` (true) / `max<a,b>`.
            Combine(bool, Vec<usize>),
        }
        let mut cols = Vec::new();
        for t in &rule.head.terms {
            let resolve = |names: &[String]| -> Result<Vec<usize>, CompileError> {
                names
                    .iter()
                    .map(|v| {
                        binding.col(v).ok_or_else(|| {
                            CompileError(format!("{}: head var `{v}` unbound", rule.label))
                        })
                    })
                    .collect()
            };
            cols.push(match t {
                Term::Var(v) => HeadCol::Col(binding.col(v).ok_or_else(|| {
                    CompileError(format!("{}: head var `{v}` unbound", rule.label))
                })?),
                // A head wildcard is an unused output column: null.
                Term::Wildcard => HeadCol::Const(null_value()),
                Term::Diff(args) => HeadCol::Diff(resolve(args)?),
                Term::Agg(AggFunc::Min, args) => HeadCol::Combine(true, resolve(args)?),
                Term::Agg(AggFunc::Max, args) => HeadCol::Combine(false, resolve(args)?),
                Term::Agg(..) => {
                    return err(format!("{}: `{t}` aggregates one argument", rule.label))
                }
                other => HeadCol::Const(const_value(other).expect("constant")),
            });
        }
        // Identity head (liveness pruning usually leaves the binding in
        // exactly head shape): no projection node at all.
        if cols.len() == binding.vars.len()
            && cols
                .iter()
                .enumerate()
                .all(|(k, c)| matches!(c, HeadCol::Col(i) if *i == k))
        {
            return Ok(binding.node);
        }
        let mut scratch: Vec<Val> = Vec::new();
        Ok(self.df.add_op(
            Map::new(move |t| {
                scratch.clear();
                for c in &cols {
                    scratch.push(match c {
                        HeadCol::Col(i) => t.get(*i),
                        HeadCol::Const(v) => *v,
                        HeadCol::Diff(idx) => {
                            let mut v = t.get(idx[0]).as_cost();
                            for &i in &idx[1..] {
                                v = v - t.get(i).as_cost();
                            }
                            Val::Cost(v)
                        }
                        // Scalar combine: numeric min/max over the named
                        // columns, preserving the winning value.
                        HeadCol::Combine(min, idx) => {
                            let mut best = t.get(idx[0]);
                            for &i in &idx[1..] {
                                let v = t.get(i);
                                let wins = if *min {
                                    v.as_cost() < best.as_cost()
                                } else {
                                    v.as_cost() > best.as_cost()
                                };
                                if wins {
                                    best = v;
                                }
                            }
                            best
                        }
                    });
                }
                Some(Tuple::from_slice(&scratch))
            }),
            &[binding.node],
        ))
    }

    /// `Head(k1,...,kn,min<x>)`: a grouped aggregate keyed on the other
    /// head columns (multi-column keys supported by `GroupAgg`).
    fn compile_agg_head(
        &mut self,
        rule: &Rule,
        binding: Binding,
        func: AggFunc,
        value_var: &str,
    ) -> Result<NodeId, CompileError> {
        let terms = &rule.head.terms;
        match terms.last() {
            Some(Term::Agg(..)) => {}
            _ => {
                return err(format!(
                    "{}: aggregate must be the last head column",
                    rule.label
                ))
            }
        }
        let mut key_cols = Vec::new();
        for t in &terms[..terms.len() - 1] {
            match t {
                Term::Var(v) => key_cols.push(binding.col(v).ok_or_else(|| {
                    CompileError(format!("{}: head var `{v}` unbound", rule.label))
                })?),
                other => {
                    return err(format!(
                        "{}: aggregate key must be a variable, got `{other}`",
                        rule.label
                    ))
                }
            }
        }
        let value_col = binding.col(value_var).ok_or_else(|| {
            CompileError(format!(
                "{}: aggregate value `{value_var}` unbound",
                rule.label
            ))
        })?;
        let kind = match func {
            AggFunc::Min => AggKind::Min,
            AggFunc::Max => AggKind::Max,
            AggFunc::Sum => AggKind::Sum,
            AggFunc::Count => AggKind::Count,
        };
        Ok(self
            .df
            .add_op(GroupAgg::new(key_cols, value_col, kind), &[binding.node]))
    }
}

/// A compiled, runnable rule network.
pub struct RuleNetwork {
    df: Dataflow,
    inputs: FxHashMap<String, (NodeId, usize)>,
    sinks: FxHashMap<String, SinkId>,
    /// The node each relation is read from (`RelInfo::read`).
    reads: FxHashMap<String, NodeId>,
    arrangements: usize,
}

impl fmt::Debug for RuleNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleNetwork")
            .field("nodes", &self.df.node_count())
            .field("arrangements", &self.arrangements)
            .field("inputs", &self.inputs.keys().collect::<Vec<_>>())
            .field("sinks", &self.sinks.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl RuleNetwork {
    /// Queues a batch of deltas on a base relation: one relation lookup
    /// and one queue bucket for all of them.
    pub fn extend(&mut self, relation: &str, deltas: impl IntoIterator<Item = Delta>) {
        let (node, arity) = self.inputs[relation];
        let checked = deltas.into_iter().inspect(|d| {
            assert_eq!(d.tuple.len(), arity, "tuple arity mismatch on `{relation}`")
        });
        self.df.try_extend(node, checked).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Queues a delta on a base relation.
    pub fn push(&mut self, relation: &str, delta: Delta) {
        self.extend(relation, [delta]);
    }

    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        self.push(relation, Delta::insert(tuple));
    }

    pub fn delete(&mut self, relation: &str, tuple: Tuple) {
        self.push(relation, Delta::delete(tuple));
    }

    /// Runs to fixpoint as one epoch: a failed run poisons the network,
    /// which then refuses every later run (see
    /// [`reopt_datalog::Dataflow::run`]).
    pub fn run(&mut self) -> Result<RunStats, DataflowError> {
        self.df.run()
    }

    /// Overrides the fixpoint step budget.
    pub fn set_max_steps(&mut self, max: u64) {
        self.df.set_max_steps(max);
    }

    /// Arms (or disarms) the chaos fault injector on the underlying
    /// dataflow.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.df.set_fault_plan(plan);
    }

    /// A materialized relation; `None` unless it was requested via
    /// [`NetworkBuilder::sink`].
    pub fn sink(&self, relation: &str) -> Option<&Multiset> {
        self.sinks.get(relation).map(|&id| self.df.sink(id))
    }

    /// A keyed read of a relation derived by an aggregate rule: the
    /// ordered state its `GroupAgg` holds for the group at `key` (the
    /// head's key columns), so `.min()`/`.max()` is the relation's row
    /// for that key. It reads the operator's own state — no sink, no
    /// arrangement. `None` for an unseen group or a relation not read
    /// off an aggregate.
    pub fn group_state(&self, relation: &str, key: &Tuple) -> Option<&OrderedMultiset> {
        self.df.group_state(*self.reads.get(relation)?, key)
    }

    /// The counted rows of a relation gated by a `Distinct` (point
    /// probes with [`Multiset::contains`]); `None` for an input or a
    /// set-valued relation, which keep no such state.
    pub fn distinct_state(&self, relation: &str) -> Option<&Multiset> {
        self.df.distinct_state(*self.reads.get(relation)?)
    }

    /// Number of dataflow nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.df.node_count()
    }

    /// Per-node lifetime service counters (see
    /// [`reopt_datalog::Dataflow::node_stats`]).
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.df.node_stats()
    }

    /// The batch consolidator's footprint (see
    /// [`reopt_datalog::Dataflow::consolidator_footprint`]).
    pub fn consolidator_footprint(&self) -> ConsolidatorFootprint {
        self.df.consolidator_footprint()
    }

    /// Number of shared arrangements the compiler built (diagnostics):
    /// one per `(relation, key columns)` a join side reads directly.
    pub fn arrangement_count(&self) -> usize {
        self.arrangements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reopt_datalog::value::ints;
    use std::cell::Cell;

    fn sorted_sinks<const N: usize>(net: &RuleNetwork, names: [&str; N]) -> [Vec<Tuple>; N] {
        names.map(|r| net.sink(r).unwrap().sorted())
    }

    fn tc_network() -> RuleNetwork {
        NetworkBuilder::new()
            .input("Edge", 2)
            .rule_texts([
                "T1: Path(x,y) :- Edge(x,y);",
                "T2: Path(x,z) :- Path(x,y), Edge(y,z);",
            ])
            .unwrap()
            .sink("Path")
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_transitive_closure_matches_hand_built_network() {
        // The same program `crates/datalog` wires by hand, produced by
        // the compiler from rule texts.
        let mut net = tc_network();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            net.insert("Edge", ints(&[a, b]));
        }
        net.run().unwrap();
        assert_eq!(net.sink("Path").unwrap().len(), 6);
        assert!(net.sink("Path").unwrap().contains(&ints(&[1, 4])));
        // Incremental deletion: counting retracts exactly.
        net.delete("Edge", ints(&[2, 3]));
        net.run().unwrap();
        assert_eq!(
            net.sink("Path").unwrap().sorted(),
            vec![ints(&[1, 2]), ints(&[1, 3]), ints(&[1, 4]), ints(&[3, 4])]
        );
        assert!(!net.sink("Path").unwrap().has_negative_counts());
    }

    #[test]
    fn external_functions_bind_check_and_filter() {
        // Fn_inc(x | y): y = x + 1. One rule checks a constant output,
        // one binds a fresh variable, one checks an already-bound one.
        let build = || {
            NetworkBuilder::new()
                .input("In", 2)
                .external("Fn_inc", 1, |args, emit| {
                    emit(&[Val::Int(args[0].as_int() + 1)]);
                })
                .rule_texts([
                    "B: Bound(x,y) :- In(x,-), Fn_inc(x,y);",
                    "C: Hit(x) :- In(x,y), Fn_inc(x,y);",
                ])
                .unwrap()
                .sink("Bound")
                .sink("Hit")
                .build()
                .unwrap()
        };
        let mut net = build();
        net.insert("In", ints(&[3, 4]));
        net.insert("In", ints(&[5, 9]));
        net.run().unwrap();
        assert_eq!(
            net.sink("Bound").unwrap().sorted(),
            vec![ints(&[3, 4]), ints(&[5, 6])]
        );
        // Only (3,4) satisfies y = x + 1.
        assert_eq!(net.sink("Hit").unwrap().sorted(), vec![ints(&[3])]);
    }

    #[test]
    fn repeated_fresh_output_var_is_an_equality_check() {
        // `Fn_pair(x | a, b)` with a repeated fresh head var `y` in both
        // output slots: the second occurrence must equal the first, not
        // silently double-bind.
        let mut net = NetworkBuilder::new()
            .input("In", 1)
            .external("Fn_pair", 1, |args, emit| {
                let x = args[0].as_int();
                // Equal pair for even inputs, unequal for odd.
                if x % 2 == 0 {
                    emit(&[Val::Int(x * 10), Val::Int(x * 10)]);
                } else {
                    emit(&[Val::Int(x * 10), Val::Int(x * 10 + 1)]);
                }
            })
            .rule_texts(["P: Eq(x,y) :- In(x), Fn_pair(x,y,y);"])
            .unwrap()
            .sink("Eq")
            .build()
            .unwrap();
        net.insert("In", ints(&[2]));
        net.insert("In", ints(&[3]));
        net.run().unwrap();
        assert_eq!(net.sink("Eq").unwrap().sorted(), vec![ints(&[2, 20])]);
    }

    #[test]
    fn paper_bound_rules_execute_on_the_substrate() {
        // r1–r4 of Figure 3 compiled VERBATIM from `reopt_core::rules`,
        // over a two-child fixture: root (10,0) with children (20,0) and
        // (30,0), local cost 5, and the root bound seeded at 100.
        // Exercises: a seeded recursive relation, a cross join (r1's
        // Bound × BestCost share no variables), subtraction-chain heads,
        // a max<> aggregate and a scalar min<a,b> combine.
        let rules =
            reopt_core::rules_ir::parse_rules(reopt_core::rules::BOUND_RULES).unwrap();
        let mut net = NetworkBuilder::new()
            .input("Bound", 3)
            .input("BestCost", 3)
            .input("LocalCost", 9)
            .rules(rules)
            .sink("Bound")
            .sink("MaxBound")
            .build()
            .unwrap();
        let t = |e: i64, p: i64, c: f64| {
            Tuple::new(vec![Val::Int(e), Val::Int(p), Val::cost(c)])
        };
        net.insert("Bound", t(10, 0, 100.0));
        net.insert("BestCost", t(20, 0, 10.0));
        net.insert("BestCost", t(30, 0, 20.0));
        net.insert(
            "LocalCost",
            Tuple::new(vec![
                Val::Int(10),
                Val::Int(0),
                Val::Int(0),
                Val::Int(20),
                Val::Int(0),
                Val::Int(30),
                Val::Int(0),
                Val::Int(0),
                Val::cost(5.0),
            ]),
        );
        net.run().unwrap();
        // r1: ParentBound(20,0,100-20-5) → MaxBound 75; r4 takes the
        // child's own best (10) as its bound. Mirrored for (30,0).
        assert_eq!(
            net.sink("MaxBound").unwrap().sorted(),
            vec![t(20, 0, 75.0), t(30, 0, 85.0)]
        );
        assert_eq!(
            net.sink("Bound").unwrap().sorted(),
            vec![t(10, 0, 100.0), t(20, 0, 10.0), t(30, 0, 20.0)]
        );
        // Incremental: the left child's best rises past nothing — its
        // bound becomes the parent allowance; the sibling's allowance
        // tightens but stays above its best.
        net.delete("BestCost", t(20, 0, 10.0));
        net.insert("BestCost", t(20, 0, 80.0));
        net.run().unwrap();
        assert_eq!(
            net.sink("MaxBound").unwrap().sorted(),
            vec![t(20, 0, 75.0), t(30, 0, 15.0)]
        );
        assert_eq!(
            net.sink("Bound").unwrap().sorted(),
            vec![t(10, 0, 100.0), t(20, 0, 75.0), t(30, 0, 15.0)]
        );
        assert!(!net.sink("Bound").unwrap().has_negative_counts());
    }

    #[test]
    fn property_pass_proves_a_set_only_where_the_rule_shows_one() {
        let sets = |texts: &[&str], inputs: &[&str], held: &[&str]| {
            let rules = reopt_core::rules_ir::parse_rules(texts.iter().copied()).unwrap();
            let inputs: Vec<_> = inputs.iter().map(|n| (n.to_string(), 2)).collect();
            let held: Vec<_> = held.iter().map(|n| (n.to_string(), 0, Vec::new())).collect();
            infer_properties(&rules, &inputs, &held)
        };
        let agg = "A: Best(g,min<c>) :- In(g,c);";
        let join = "J: Both(x,y,z) :- In(x,y), Best(y,z);";
        // An aggregate head, and a join of sets that keeps every
        // variable — resolved after the relation it reads.
        assert_eq!(sets(&[join, agg], &["In"], &[]), ["Best", "Both"]);
        // Dropping a non-key column (by projection or wildcard) can map
        // two bindings to one tuple; an external may emit a row twice.
        for text in [
            "P: Ends(x,z) :- In(x,y), In(y,z);",
            "W: Firsts(x) :- In(x,-);",
            "E: Out(x,y,z) :- In(x,y), Fn_f(x,z);",
        ] {
            assert!(sets(&[text], &["In"], &[]).is_empty(), "{text}");
        }
        // Two rules, a seeding input, a release order and a proof that
        // would rest on itself each keep the relation's `Distinct`.
        assert!(sets(&[join, "K: Both(x,y,y) :- In(x,y);", agg], &["In"], &[]) == ["Best"]);
        assert!(sets(&[join, agg], &["In", "Both"], &[]) == ["Best"]);
        assert!(sets(&[join, agg], &["In"], &["Best"]) == ["Both"]);
        assert!(sets(&["L: Loop(x,y) :- Loop(x,y), In(x,y);"], &["In"], &[]).is_empty());
    }

    #[test]
    fn proved_properties_shape_the_network() {
        // `Two` has two rules and `Held` a release order: both keep a
        // `Union → Distinct` that coalesces. `Best` is read off its
        // aggregate, which reads `Two`'s columns itself (no projecting
        // scan) and — fed by one `Distinct` alone — does not coalesce.
        let mut net = NetworkBuilder::new()
            .input("In", 2)
            .rule_texts([
                "A: Two(x,y) :- In(x,y);",
                "B: Two(y,x) :- In(x,y);",
                "C: Best(x,min<y>) :- Two(x,y);",
                "D: Held(x,y) :- Two(x,y), Best(x,y);",
            ])
            .unwrap()
            .release_order("Held", 0, vec![0, 1, 1])
            .sink("Held")
            .build()
            .unwrap();
        let nodes = net.node_stats();
        let coalesces = |label: &str| {
            let mut hits = nodes.iter().filter(|n| n.label == label).map(|n| n.coalesces);
            (hits.next(), hits.next())
        };
        assert_eq!(coalesces("distinct[Two]"), (Some(true), None));
        assert_eq!(coalesces("distinct[Held]"), (Some(true), None));
        assert_eq!(coalesces("group-agg[C]"), (Some(false), None));
        assert_eq!(coalesces("distinct[Best]"), (None, None));
        assert_eq!(coalesces("map[C]"), (None, None));
        for t in [[1, 2], [2, 1], [1, 1]] {
            net.insert("In", ints(&t));
        }
        net.run().unwrap();
        net.delete("In", ints(&[1, 1]));
        net.run().unwrap();
        assert_eq!(net.sink("Held").unwrap().sorted(), vec![ints(&[1, 2]), ints(&[2, 1])]);
    }

    #[test]
    fn compile_errors_are_descriptive() {
        // Arity mismatch.
        let e = NetworkBuilder::new()
            .input("R", 2)
            .rule_texts(["X: Out(a) :- R(a,b), R(a);"])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("arities"), "{e}");
        // Unregistered external.
        let e = NetworkBuilder::new()
            .input("R", 1)
            .rule_texts(["X: Out(a) :- R(a), Fn_missing(a,b);"])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("unregistered"), "{e}");
        // Undeclared body relation.
        let e = NetworkBuilder::new()
            .rule_texts(["X: Out(a) :- Ghost(a);"])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("neither derived"), "{e}");
        // Aggregate rule mixed with a plain rule for the same head.
        let e = NetworkBuilder::new()
            .input("R", 2)
            .rule_texts([
                "X: Out(a,min<b>) :- R(a,b);",
                "Y: Out(a,b) :- R(a,b);",
            ])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("mixes an aggregate"), "{e}");
        // Aggregate rule on a seeded relation: raw seeds would union
        // with the aggregate's output.
        let e = NetworkBuilder::new()
            .input("R", 2)
            .input("Out", 2)
            .rule_texts(["X: Out(a,min<b>) :- R(a,b);"])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("seeding input"), "{e}");
    }

    #[test]
    fn scheduler_options_preserve_results() {
        // The same program under {batched (default), per-delta} —
        // identical sinks after mixed churn. B's scan drops a column in
        // front of `Fn_inc`, so it runs behind a demand set; C's keeps
        // both, and its two externals run as two chained nodes.
        let build = |mode: SchedulerMode| {
            NetworkBuilder::new()
                .scheduler_mode(mode)
                .input("In", 2)
                .external("Fn_inc", 1, |args, emit| {
                    emit(&[Val::Int(args[0].as_int() + 1)]);
                })
                .external("Fn_dbl", 1, |args, emit| {
                    emit(&[Val::Int(args[0].as_int() * 2)]);
                })
                .rule_texts([
                    "A: Mid(x,y) :- In(x,y);",
                    "B: Out(y) :- Mid(x,-), Fn_inc(x,y);",
                    "C: Twice(z,w) :- Mid(x,z), Fn_inc(x,y), Fn_dbl(y,w);",
                ])
                .unwrap()
                .sink("Out")
                .sink("Twice")
                .build()
                .unwrap()
        };
        let mut nets = [build(SchedulerMode::Batched), build(SchedulerMode::PerDelta)];
        for (a, b, ins) in [(1, 10, true), (2, 20, true), (1, 10, false), (3, 5, true)] {
            for net in nets.iter_mut() {
                if ins {
                    net.insert("In", ints(&[a, b]));
                } else {
                    net.delete("In", ints(&[a, b]));
                }
                net.run().unwrap();
            }
        }
        let sinks = |net: &RuleNetwork| sorted_sinks(net, ["Out", "Twice"]);
        let reference = sinks(&nets[0]);
        assert_eq!(
            reference,
            [vec![ints(&[3]), ints(&[4])], vec![ints(&[5, 8]), ints(&[20, 6])]]
        );
        assert_eq!(sinks(&nets[1]), reference);
        let labels: Vec<String> = nets[0].node_stats().into_iter().map(|n| n.label).collect();
        for built in ["Fn_inc[C]", "Fn_dbl[C]", "distinct[demand:B]"] {
            assert!(labels.iter().any(|l| l == built), "{built}: {labels:?}");
        }
    }

    /// `In(parent, child)` expanded per child: `Fn_expand(x | y)` emits
    /// `x % 3 + 1` rows and counts its calls. E's scan drops the parent
    /// in front of the expansion; N is the same body under a `count<>`
    /// head, which counts derivations.
    fn demand_network(mode: SchedulerMode, calls: Rc<Cell<u64>>) -> RuleNetwork {
        let expand = |x: i64, emit: &mut dyn FnMut(&[Val])| {
            (0..x.rem_euclid(3) + 1).for_each(|k| emit(&[Val::Int(x * 10 + k)]));
        };
        NetworkBuilder::new()
            .scheduler_mode(mode)
            .input("In", 2)
            .external("Fn_expand", 1, move |args, emit| {
                calls.set(calls.get() + 1);
                expand(args[0].as_int(), emit);
            })
            .external("Fn_fan", 1, move |args, emit| expand(args[0].as_int(), emit))
            .rule_texts([
                "E: Out(x,y) :- In(-,x), Fn_expand(x,y);",
                "N: Fanout(x,count<y>) :- In(-,x), Fn_fan(x,y);",
            ])
            .unwrap()
            .sink("Out")
            .sink("Fanout")
            .build()
            .unwrap()
    }

    /// `Out` and `Fanout` recomputed from the rows of `In`.
    fn demand_reference(rows: &[(i64, i64)]) -> [Vec<Tuple>; 2] {
        let mut out = Vec::new();
        let mut fanout = Vec::new();
        let mut children: Vec<i64> = rows.iter().map(|r| r.1).collect();
        children.sort_unstable();
        children.dedup();
        for x in children {
            let parents = rows.iter().filter(|r| r.1 == x).count() as i64;
            let width = x.rem_euclid(3) + 1;
            out.extend((0..width).map(|k| ints(&[x, x * 10 + k])));
            fanout.push(ints(&[x, parents * width]));
        }
        [out, fanout]
    }

    #[test]
    fn a_demand_set_expands_each_child_once_and_counts_its_demanders() {
        let calls = Rc::new(Cell::new(0));
        let mut net = demand_network(SchedulerMode::Batched, Rc::clone(&calls));
        let labels: Vec<String> = net.node_stats().into_iter().map(|n| n.label).collect();
        for built in ["map[E]", "union[demand:E]", "distinct[demand:E]", "Fn_expand[E]"] {
            assert!(labels.iter().any(|l| l == built), "{built}: {labels:?}");
        }
        // A `count<>` head counts derivations: N keeps its bag.
        assert!(!labels.iter().any(|l| l.contains("demand:N")), "{labels:?}");
        let sinks = |net: &RuleNetwork| sorted_sinks(net, ["Out", "Fanout"]);
        // Two parents demand child 4: one expansion, counted twice by N.
        net.insert("In", ints(&[1, 4]));
        net.insert("In", ints(&[2, 4]));
        net.run().unwrap();
        assert_eq!(sinks(&net), demand_reference(&[(1, 4), (2, 4)]));
        assert_eq!(sinks(&net)[1], vec![ints(&[4, 4])]);
        assert_eq!(calls.get(), 1);
        // One parent goes: the child is still demanded, nothing re-runs.
        net.delete("In", ints(&[1, 4]));
        net.run().unwrap();
        assert_eq!(sinks(&net), demand_reference(&[(2, 4)]));
        assert_eq!(calls.get(), 1);
        // The last one goes: the expansion is retracted, by running it.
        net.delete("In", ints(&[2, 4]));
        net.run().unwrap();
        assert_eq!(sinks(&net), demand_reference(&[]));
        assert_eq!(calls.get(), 2);
        assert!(!net.sink("Out").unwrap().has_negative_counts());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random insert/delete sequences over a small domain (so
        /// parents share children and rows come back), a fixpoint after
        /// every few, in both scheduler modes: both sinks
        /// equal the recompute, and the expansion ran once per child
        /// that entered or left the demand set.
        #[test]
        fn demand_sets_match_a_naive_recompute(
            script in proptest::collection::vec((0i64..4, 0i64..5, 0u8..3), 1..40),
        ) {
            for mode in [SchedulerMode::Batched, SchedulerMode::PerDelta] {
                let calls = Rc::new(Cell::new(0));
                let mut net = demand_network(mode, Rc::clone(&calls));
                let mut rows: Vec<(i64, i64)> = Vec::new();
                let (mut demanded, mut flips) = (Vec::new(), 0);
                for &(p, x, run) in &script {
                    match rows.iter().position(|&r| r == (p, x)) {
                        Some(at) => {
                            rows.swap_remove(at);
                            net.delete("In", ints(&[p, x]));
                        }
                        None => {
                            rows.push((p, x));
                            net.insert("In", ints(&[p, x]));
                        }
                    }
                    if run > 0 {
                        continue;
                    }
                    net.run().unwrap();
                    let got = sorted_sinks(&net, ["Out", "Fanout"]);
                    prop_assert_eq!(got, demand_reference(&rows), "{:?}", mode);
                    prop_assert!(!net.sink("Out").unwrap().has_negative_counts());
                    let mut now: Vec<i64> = rows.iter().map(|r| r.1).collect();
                    now.sort_unstable();
                    now.dedup();
                    flips += (0..5).filter(|x| demanded.contains(x) != now.contains(x)).count() as u64;
                    demanded = now;
                    if mode == SchedulerMode::Batched {
                        prop_assert_eq!(calls.get(), flips);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_arrangements_dedup_indexes_and_preserve_results() {
        // `R` is joined on its second column (A, B) and on its first
        // (B, D), `S` and `Reach` on one column each: one arrangement
        // per `(relation, key)`, four in all. Sinks match the same
        // program compiled for the per-delta scheduler through mixed
        // churn, including recursion through `Reach`.
        let build = |mode: SchedulerMode| {
            NetworkBuilder::new()
                .scheduler_mode(mode)
                .input("R", 2)
                .input("S", 2)
                .rule_texts([
                    "A: Pair(x,z) :- R(x,y), S(y,z);",
                    "B: Wide(x,y,z) :- R(x,y), R(y,z);",
                    "C: Reach(x,y) :- R(x,y);",
                    "D: Reach(x,z) :- Reach(x,y), R(y,z);",
                ])
                .unwrap()
                .sink("Pair")
                .sink("Wide")
                .sink("Reach")
                .build()
                .unwrap()
        };
        let mut batched = build(SchedulerMode::Batched);
        let mut per_delta = build(SchedulerMode::PerDelta);
        assert_eq!(batched.arrangement_count(), 4);
        assert_eq!(per_delta.arrangement_count(), 4);
        let script: &[(&str, i64, i64, bool)] = &[
            ("R", 1, 2, true),
            ("R", 2, 3, true),
            ("S", 2, 9, true),
            ("R", 3, 4, true),
            ("R", 2, 3, false),
            ("S", 3, 7, true),
            ("R", 2, 4, true),
        ];
        for &(rel, a, b, ins) in script {
            for net in [&mut batched, &mut per_delta] {
                if ins {
                    net.insert(rel, ints(&[a, b]));
                } else {
                    net.delete(rel, ints(&[a, b]));
                }
                net.run().unwrap();
            }
        }
        for rel in ["Pair", "Wide", "Reach"] {
            assert!(!batched.sink(rel).unwrap().has_negative_counts());
            assert_eq!(
                batched.sink(rel).unwrap().sorted(),
                per_delta.sink(rel).unwrap().sorted(),
                "{rel}"
            );
        }
    }

    #[test]
    fn dead_columns_are_pruned_from_rule_bodies() {
        // `Wide` carries 6 columns; the rule only ever needs `a` and
        // `f`. Liveness pruning keeps the network correct while the
        // intermediates stay narrow (observable indirectly: results
        // match, and the head Map disappeared so the network is small).
        let mut net = NetworkBuilder::new()
            .input("Wide", 6)
            .input("K", 1)
            .rule_texts(["W: Out(a,f) :- Wide(a,b,c,d,e,f), K(a);"])
            .unwrap()
            .sink("Out")
            .build()
            .unwrap();
        net.insert("Wide", ints(&[1, 2, 3, 4, 5, 6]));
        net.insert("Wide", ints(&[9, 2, 3, 4, 5, 8]));
        net.insert("K", ints(&[1]));
        net.run().unwrap();
        assert_eq!(net.sink("Out").unwrap().sorted(), vec![ints(&[1, 6])]);
        net.delete("Wide", ints(&[1, 2, 3, 4, 5, 6]));
        net.insert("K", ints(&[9]));
        net.run().unwrap();
        assert_eq!(net.sink("Out").unwrap().sorted(), vec![ints(&[9, 8])]);
    }

    #[test]
    fn grouped_aggregates_use_multi_column_keys() {
        // min over a two-column group key, maintained under deletion
        // (next-best recovery through the substrate's GroupAgg).
        let mut net = NetworkBuilder::new()
            .input("CostIn", 3)
            .rule_texts(["A: Best(g,h,min<c>) :- CostIn(g,h,c);"])
            .unwrap()
            .sink("Best")
            .build()
            .unwrap();
        net.insert("CostIn", ints(&[1, 2, 30]));
        net.insert("CostIn", ints(&[1, 2, 10]));
        net.insert("CostIn", ints(&[1, 3, 40]));
        net.run().unwrap();
        assert_eq!(
            net.sink("Best").unwrap().sorted(),
            vec![ints(&[1, 2, 10]), ints(&[1, 3, 40])]
        );
        net.delete("CostIn", ints(&[1, 2, 10]));
        net.run().unwrap();
        assert_eq!(
            net.sink("Best").unwrap().sorted(),
            vec![ints(&[1, 2, 30]), ints(&[1, 3, 40])]
        );
    }
}
