//! Typed intermediate representation of the paper's datalog rules.
//!
//! [`crate::rules`] keeps the 14 rule texts verbatim; this module parses
//! them into an AST so that (a) the tests pin structural facts derived
//! from the rules themselves rather than substring matches, and (b) the
//! `reopt-bridge` crate can compile rule programs onto the
//! `reopt-datalog` dataflow substrate.
//!
//! The grammar covers exactly the constructs the paper's rules use:
//!
//! ```text
//! rule  := LABEL ':' atom ':-' atom (',' atom)* ';'?
//! atom  := IDENT '(' term (',' term)* ')'
//! term  := '-'                        wildcard
//!        | '\'' chars '\''            string constant        ('scan')
//!        | 'null' | 'true' | 'false'  typed constants
//!        | IDENT '<' IDENT (',' IDENT)* '>'
//!                                     min/max/sum/count — an aggregate
//!                                     over the rule's derivations with
//!                                     one argument (min<cost>); min/max
//!                                     with several, a per-tuple scalar
//!                                     combine (min<minCost,maxBound>)
//!        | IDENT ('-' IDENT)*         variable, or a subtraction chain
//!                                     (bound-rCost-localCost)
//! ```
//!
//! Body atoms whose relation starts with `Fn_` are *external functions*
//! (`Fn_split`, `Fn_scancost`, `Fn_sum`, …): computed predicates backed
//! by host code rather than derived relations.

use std::fmt;

/// Aggregate / scalar-combine function name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    Min,
    Max,
    Sum,
    Count,
}

impl AggFunc {
    fn name(self) -> &'static str {
        match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
        }
    }

    fn named(name: &str) -> Option<AggFunc> {
        [AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Count]
            .into_iter()
            .find(|f| f.name() == name)
    }
}

/// One argument position of an atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// `-`: an anonymous variable (body) / an unused output column
    /// (head).
    Wildcard,
    /// `'...'` string constant.
    Str(String),
    /// `true` / `false` (the `Fn_isleaf` guards).
    Bool(bool),
    /// `null` (absent child references, `Fn_sum`'s missing operand).
    Null,
    /// `min<...>` / `max<...>` / `sum<...>` / `count<...>`: with one
    /// argument, an aggregate over the rule's derivations grouped by the
    /// other head columns; `min`/`max` with more, a per-tuple scalar
    /// combine.
    Agg(AggFunc, Vec<String>),
    /// `a-b-c`: the first variable minus the remaining ones.
    Diff(Vec<String>),
}

impl Term {
    /// The variables this term references.
    pub fn vars(&self) -> Vec<&str> {
        match self {
            Term::Var(v) => vec![v],
            Term::Agg(_, vs) | Term::Diff(vs) => vs.iter().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Wildcard => write!(f, "-"),
            Term::Str(s) => write!(f, "'{s}'"),
            Term::Bool(b) => write!(f, "{b}"),
            Term::Null => write!(f, "null"),
            Term::Agg(func, args) => write!(f, "{}<{}>", func.name(), args.join(",")),
            Term::Diff(args) => write!(f, "{}", args.join("-")),
        }
    }
}

/// A relation atom: `Relation(t1, ..., tn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    pub relation: String,
    pub terms: Vec<Term>,
}

impl Atom {
    /// True for `Fn_*` computed predicates (external functions).
    pub fn is_external(&self) -> bool {
        self.relation.starts_with("Fn_")
    }

    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Variables referenced by this atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for t in &self.terms {
            for v in t.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// One parsed rule: `LABEL: head :- body1, ..., bodyn;`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    pub label: String,
    pub head: Atom,
    pub body: Vec<Atom>,
}

impl Rule {
    /// The head's aggregate term, if any (`min<cost>` in R9).
    pub fn head_aggregate(&self) -> Option<(&AggFunc, &[String])> {
        self.head.terms.iter().find_map(|t| match t {
            Term::Agg(f, args) => Some((f, args.as_slice())),
            _ => None,
        })
    }

    /// Safety: every variable the head references must be bound by some
    /// body atom.
    pub fn check_safety(&self) -> Result<(), ParseError> {
        let bound: Vec<&str> = self.body.iter().flat_map(|a| a.vars()).collect();
        for v in self.head.vars() {
            if !bound.contains(&v) {
                return Err(ParseError {
                    rule: self.label.clone(),
                    message: format!("unsafe head variable `{v}`"),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} :- ", self.label, self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ";")
    }
}

/// A parse failure, with the offending rule label when known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub rule: String,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule `{}`: {}", self.rule, self.message)
    }
}

impl std::error::Error for ParseError {}

// ----- lexer ---------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Quoted(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Colon,
    Turnstile,
    Lt,
    Gt,
    Dash,
}

fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            '<' => {
                toks.push(Tok::Lt);
                i += 1;
            }
            '>' => {
                toks.push(Tok::Gt);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Dash);
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    toks.push(Tok::Turnstile);
                    i += 2;
                } else {
                    toks.push(Tok::Colon);
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err("unterminated string constant".to_string());
                }
                toks.push(Tok::Quoted(src[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push(Tok::Ident(src[start..i].to_string()));
            }
            other => return Err(format!("unexpected character `{other}`")),
        }
    }
    Ok(toks)
}

// ----- parser --------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    rule: String,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            rule: self.rule.clone(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            other => Err(self.err(format!("expected {want:?}, got {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let label = self.ident()?;
        self.rule = label.clone();
        self.expect(Tok::Colon)?;
        let head = self.atom()?;
        self.expect(Tok::Turnstile)?;
        let mut body = vec![self.atom()?];
        while self.peek() == Some(&Tok::Comma) {
            self.next();
            body.push(self.atom()?);
        }
        if self.peek() == Some(&Tok::Semi) {
            self.next();
        }
        if let Some(t) = self.peek() {
            return Err(self.err(format!("trailing input after rule: {t:?}")));
        }
        Ok(Rule { label, head, body })
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let relation = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut terms = vec![self.term()?];
        while self.peek() == Some(&Tok::Comma) {
            self.next();
            terms.push(self.term()?);
        }
        self.expect(Tok::RParen)?;
        Ok(Atom { relation, terms })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.next() {
            Some(Tok::Dash) => {
                // A lone dash is a wildcard; `-x` (dash then identifier)
                // does not occur in the grammar.
                match self.peek() {
                    Some(Tok::Comma) | Some(Tok::RParen) => Ok(Term::Wildcard),
                    other => Err(self.err(format!("dangling `-` before {other:?}"))),
                }
            }
            Some(Tok::Quoted(s)) => Ok(Term::Str(s)),
            Some(Tok::Ident(name)) => match name.as_str() {
                "null" => Ok(Term::Null),
                "true" => Ok(Term::Bool(true)),
                "false" => Ok(Term::Bool(false)),
                _ => match (self.peek(), AggFunc::named(&name)) {
                    // min<...> / max<...> / sum<...> / count<...>
                    (Some(Tok::Lt), Some(func)) => {
                        self.next();
                        let mut args = vec![self.ident()?];
                        while self.peek() == Some(&Tok::Comma) {
                            self.next();
                            args.push(self.ident()?);
                        }
                        self.expect(Tok::Gt)?;
                        Ok(Term::Agg(func, args))
                    }
                    // a-b-c subtraction chain
                    (Some(Tok::Dash), _) => {
                        let mut args = vec![name];
                        while self.peek() == Some(&Tok::Dash) {
                            self.next();
                            args.push(self.ident()?);
                        }
                        Ok(Term::Diff(args))
                    }
                    _ => Ok(Term::Var(name)),
                },
            },
            other => Err(self.err(format!("expected term, got {other:?}"))),
        }
    }
}

/// Parses one rule text.
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let toks = lex(src).map_err(|message| ParseError {
        rule: String::new(),
        message,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        rule: String::new(),
    };
    let rule = p.rule()?;
    rule.check_safety()?;
    Ok(rule)
}

/// Parses a batch of rule texts.
pub fn parse_rules<'a>(srcs: impl IntoIterator<Item = &'a str>) -> Result<Vec<Rule>, ParseError> {
    srcs.into_iter().map(parse_rule).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{BOUND_RULES, COST_ESTIMATION, PLAN_ENUMERATION, PLAN_SELECTION};

    #[test]
    fn all_fourteen_rules_parse() {
        let rules = parse_rules(crate::rules::all_rules()).unwrap();
        assert_eq!(rules.len(), 14);
        for r in &rules {
            r.check_safety().unwrap();
        }
    }

    #[test]
    fn round_trip_parse_print_parse() {
        for src in crate::rules::all_rules() {
            let first = parse_rule(src).unwrap();
            let printed = first.to_string();
            let second = parse_rule(&printed)
                .unwrap_or_else(|e| panic!("re-parse of `{printed}` failed: {e}"));
            assert_eq!(first, second, "round trip changed `{}`", first.label);
        }
    }

    #[test]
    fn enumeration_rules_have_expected_shape() {
        let rules = parse_rules(PLAN_ENUMERATION).unwrap();
        for r in &rules {
            assert_eq!(r.head.relation, "SearchSpace");
            assert_eq!(r.head.arity(), 9);
        }
        // R1 is the seed (reads Expr); R2/R3 recurse through SearchSpace.
        assert_eq!(rules[0].body[0].relation, "Expr");
        assert!(rules[0].body.iter().all(|a| a.relation != "SearchSpace"));
        assert!(rules[1..3]
            .iter()
            .all(|r| r.body[0].relation == "SearchSpace"));
        // R2 demands the *left* child slot, R3 the right.
        assert_eq!(rules[1].body[0].terms[5], Term::Var("expr".into()));
        assert_eq!(rules[2].body[0].terms[7], Term::Var("expr".into()));
        // R4/R5 are the scan rules: constant 'scan' logOp in the head,
        // guarded by Fn_isleaf(expr,true).
        for r in &rules[3..] {
            assert_eq!(r.head.terms[3], Term::Str("scan".into()));
            assert!(r.body.iter().any(|a| a.relation == "Fn_isleaf"
                && a.terms[1] == Term::Bool(true)));
        }
        // Non-leaf expansion goes through the Fn_split external.
        for r in &rules[..3] {
            assert!(r.body.iter().any(|a| a.is_external() && a.relation == "Fn_split"));
            assert!(r.body.iter().any(|a| a.relation == "Fn_isleaf"
                && a.terms[1] == Term::Bool(false)));
        }
    }

    #[test]
    fn cost_rules_sum_child_costs() {
        let rules = parse_rules(COST_ESTIMATION).unwrap();
        for r in &rules {
            assert_eq!(r.head.relation, "PlanCost");
            assert_eq!(r.head.arity(), 11);
        }
        // R6 (scan costing) uses Fn_scancost and no recursive PlanCost.
        assert!(rules[0].body.iter().any(|a| a.relation == "Fn_scancost"));
        assert!(rules[0].body.iter().all(|a| a.relation != "PlanCost"));
        // R7 reads one child PlanCost, R8 two; both total via Fn_sum.
        for (r, n_children) in [(&rules[1], 1), (&rules[2], 2)] {
            let plan_cost_atoms = r
                .body
                .iter()
                .filter(|a| a.relation == "PlanCost")
                .count();
            assert_eq!(plan_cost_atoms, n_children, "{}", r.label);
            assert!(r.body.iter().any(|a| a.relation == "Fn_sum"));
        }
        // R7's Fn_sum has a null operand (no right child).
        let sum7 = rules[1]
            .body
            .iter()
            .find(|a| a.relation == "Fn_sum")
            .unwrap();
        assert_eq!(sum7.terms[1], Term::Null);
    }

    #[test]
    fn selection_rules_aggregate_then_join_back() {
        let rules = parse_rules(PLAN_SELECTION).unwrap();
        // R9: BestCost(expr,prop,min<cost>) — a 1-argument (true)
        // aggregate keyed on the remaining head columns.
        assert_eq!(rules[0].head.relation, "BestCost");
        let (func, args) = rules[0].head_aggregate().unwrap();
        assert_eq!(*func, AggFunc::Min);
        assert_eq!(args, ["cost".to_string()]);
        assert_eq!(
            rules[0].head.terms[..2],
            [Term::Var("expr".into()), Term::Var("prop".into())]
        );
        // R10 joins BestCost back to PlanCost on the shared cost var.
        assert_eq!(rules[1].head.relation, "BestPlan");
        let shared: Vec<&str> = rules[1].body[0]
            .vars()
            .into_iter()
            .filter(|v| rules[1].body[1].vars().contains(v))
            .collect();
        assert_eq!(shared, ["expr", "prop", "cost"]);
    }

    #[test]
    fn bound_rules_use_arithmetic_and_both_aggregates() {
        let rules = parse_rules(BOUND_RULES).unwrap();
        // r1/r2: subtraction chains in the head.
        for r in &rules[..2] {
            assert_eq!(r.head.relation, "ParentBound");
            let diff = r
                .head
                .terms
                .iter()
                .find_map(|t| match t {
                    Term::Diff(args) => Some(args.clone()),
                    _ => None,
                })
                .unwrap();
            assert_eq!(diff[0], "bound");
            assert_eq!(diff.len(), 3);
        }
        // r3: a true max aggregate; r4: a 2-argument scalar min combine.
        let (f3, a3) = rules[2].head_aggregate().unwrap();
        assert_eq!((*f3, a3.len()), (AggFunc::Max, 1));
        let (f4, a4) = rules[3].head_aggregate().unwrap();
        assert_eq!((*f4, a4.len()), (AggFunc::Min, 2));
        // The program is recursive through Bound: r4 derives it, r1/r2
        // consume it.
        assert_eq!(rules[3].head.relation, "Bound");
        assert!(rules[..2]
            .iter()
            .all(|r| r.body.iter().any(|a| a.relation == "Bound")));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_rule("R: Broken(x :- Y(x);").is_err());
        assert!(parse_rule("R: Head(x) :- Body(y);").is_err()); // unsafe
        assert!(parse_rule("R: Head('unterminated) :- B(x);").is_err());
        assert!(parse_rule("").is_err());
    }

    #[test]
    fn wildcards_and_constants_round_trip() {
        let r = parse_rule(
            "T: Out(a,-,'lit',null,true,min<a,b>,a-b) :- In(a,b), Fn_f(a,b,false);",
        );
        // `-` in the head plus every constant kind.
        let r = r.unwrap();
        assert_eq!(r.head.terms[1], Term::Wildcard);
        assert_eq!(r.head.terms[2], Term::Str("lit".into()));
        assert_eq!(r.head.terms[3], Term::Null);
        assert_eq!(r.head.terms[4], Term::Bool(true));
        assert_eq!(
            r.head.terms[5],
            Term::Agg(AggFunc::Min, vec!["a".into(), "b".into()])
        );
        assert_eq!(r.head.terms[6], Term::Diff(vec!["a".into(), "b".into()]));
        let reparsed = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, reparsed);
    }
}
