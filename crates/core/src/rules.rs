//! The optimizer's declarative specification: the ten datalog rules of
//! the paper's Appendix A plus the four bound rules of Figure 3,
//! reproduced verbatim. Each propagation routine in [`crate::optimizer`]
//! cites the rule(s) it implements; the tests here pin the counts the
//! paper states ("we specify an entire optimizer in only three stages
//! and 10 rules").

/// Plan enumeration (stage 1, rules R1–R5): `SearchSpace` derivation.
pub const PLAN_ENUMERATION: [&str; 5] = [
    "R1: SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp) :- \
     Expr(expr,prop), Fn_isleaf(expr,false), \
     Fn_split(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp);",
    "R2: SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp) :- \
     SearchSpace(-,-,-,-,-,expr,prop,-,-), Fn_isleaf(expr,false), \
     Fn_split(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp);",
    "R3: SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp) :- \
     SearchSpace(-,-,-,-,-,-,-,expr,prop), Fn_isleaf(expr,false), \
     Fn_split(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp);",
    "R4: SearchSpace(expr,prop,-,'scan',phyOp,-,-,-,-) :- \
     SearchSpace(-,-,-,-,-,expr,prop,-,-), Fn_isleaf(expr,true), Fn_phyOp(prop,phyOp);",
    "R5: SearchSpace(expr,prop,-,'scan',phyOp,-,-,-,-) :- \
     SearchSpace(-,-,-,-,-,-,-,expr,prop), Fn_isleaf(expr,true), Fn_phyOp(prop,phyOp);",
];

/// Cost estimation (stage 2, rules R6–R8): `PlanCost` derivation.
pub const COST_ESTIMATION: [&str; 3] = [
    "R6: PlanCost(expr,prop,index,logOp,phyOp,-,-,-,-,md,cost) :- \
     SearchSpace(expr,prop,index,logOp,phyOp,-,-,-,-), \
     Fn_scansummary(expr,prop,md), Fn_scancost(expr,prop,md,cost);",
    "R7: PlanCost(expr,prop,index,logOp,phyOp,lExpr,lProp,-,-,md,cost) :- \
     SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,-,-), Fn_isleaf(lExpr,false), \
     PlanCost(lExpr,lProp,-,-,-,-,-,-,-,lMd,lCost), \
     Fn_nonscansummary(expr,prop,index,logOp,lMd,-,md), \
     Fn_nonscancost(expr,prop,index,logOp,phyOp,lExpr,lProp,-,-,md,localCost), \
     Fn_sum(lCost,null,localCost,cost);",
    "R8: PlanCost(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp,md,cost) :- \
     SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp), \
     Fn_isleaf(lExpr,false), Fn_isleaf(rExpr,false), \
     PlanCost(lExpr,lProp,-,-,-,-,-,-,-,lMd,lCost), \
     PlanCost(rExpr,rProp,-,-,-,-,-,-,-,rMd,rCost), \
     Fn_nonscansummary(expr,prop,index,logOp,lMd,rMd,md), \
     Fn_nonscancost(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp,md,localCost), \
     Fn_sum(lCost,rCost,localCost,cost);",
];

/// Plan selection (stage 3, rules R9–R10): `BestCost` / `BestPlan`.
pub const PLAN_SELECTION: [&str; 2] = [
    "R9: BestCost(expr,prop,min<cost>) :- \
     PlanCost(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp,md,cost);",
    "R10: BestPlan(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp,md,cost) :- \
     BestCost(expr,prop,cost), \
     PlanCost(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp,md,cost);",
];

/// Recursive bounding (§3.3, Figure 3): the `Bound` relation.
pub const BOUND_RULES: [&str; 4] = [
    "r1: ParentBound(lExpr,lProp,bound-rCost-localCost) :- \
     Bound(expr,prop,bound), BestCost(rExpr,rProp,rCost), \
     LocalCost(expr,prop,index,lExpr,lProp,rExpr,rProp,-,localCost);",
    "r2: ParentBound(rExpr,rProp,bound-lCost-localCost) :- \
     Bound(expr,prop,bound), BestCost(lExpr,lProp,lCost), \
     LocalCost(expr,prop,index,lExpr,lProp,rExpr,rProp,-,localCost);",
    "r3: MaxBound(expr,prop,max<bound>) :- ParentBound(expr,prop,bound);",
    "r4: Bound(expr,prop,min<minCost,maxBound>) :- \
     BestCost(expr,prop,minCost), MaxBound(expr,prop,maxBound);",
];

/// All rule texts in stage order.
pub fn all_rules() -> Vec<&'static str> {
    PLAN_ENUMERATION
        .iter()
        .chain(COST_ESTIMATION.iter())
        .chain(PLAN_SELECTION.iter())
        .chain(BOUND_RULES.iter())
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules_ir::{parse_rule, parse_rules, AggFunc, Term};

    #[test]
    fn rule_counts_match_paper() {
        // "Plan enumeration (SearchSpace) consists of 5 rules, cost
        // estimation (PlanCost) 3 rules, and plan selection (BestPlan)
        // 2 rules" — Figure 1 caption. Counted over the *parsed* rules,
        // so a malformed rule text cannot satisfy the pin.
        assert_eq!(parse_rules(PLAN_ENUMERATION).unwrap().len(), 5);
        assert_eq!(parse_rules(COST_ESTIMATION).unwrap().len(), 3);
        assert_eq!(parse_rules(PLAN_SELECTION).unwrap().len(), 2);
        assert_eq!(parse_rules(BOUND_RULES).unwrap().len(), 4);
        assert_eq!(parse_rules(all_rules()).unwrap().len(), 14);
    }

    #[test]
    fn rules_derive_their_head_relations() {
        // Head relations read from the AST, not substring matches.
        for r in parse_rules(PLAN_ENUMERATION).unwrap() {
            assert_eq!(r.head.relation, "SearchSpace", "{}", r.label);
        }
        for (i, r) in parse_rules(COST_ESTIMATION).unwrap().iter().enumerate() {
            assert_eq!(r.label, format!("R{}", 6 + i));
            assert_eq!(r.head.relation, "PlanCost");
        }
        let selection = parse_rules(PLAN_SELECTION).unwrap();
        assert_eq!(selection[0].head.relation, "BestCost");
        assert_eq!(selection[1].head.relation, "BestPlan");
        let bounds = parse_rules(BOUND_RULES).unwrap();
        let heads: Vec<&str> = bounds.iter().map(|r| r.head.relation.as_str()).collect();
        assert_eq!(heads, ["ParentBound", "ParentBound", "MaxBound", "Bound"]);
    }

    #[test]
    fn selection_and_bounding_aggregate_as_stated() {
        // R9 minimizes cost; r3 maximizes bound — pinned on the parsed
        // aggregate terms.
        let r9 = parse_rule(PLAN_SELECTION[0]).unwrap();
        assert_eq!(
            r9.head_aggregate().map(|(f, a)| (*f, a.to_vec())),
            Some((AggFunc::Min, vec!["cost".to_string()]))
        );
        let r3 = parse_rule(BOUND_RULES[2]).unwrap();
        assert_eq!(
            r3.head_aggregate().map(|(f, a)| (*f, a.to_vec())),
            Some((AggFunc::Max, vec!["bound".to_string()]))
        );
        // r1 propagates bounds arithmetically: bound - rCost - localCost.
        let r1 = parse_rule(BOUND_RULES[0]).unwrap();
        assert!(r1
            .head
            .terms
            .iter()
            .any(|t| matches!(t, Term::Diff(args) if args.len() == 3)));
    }

    #[test]
    fn every_rule_round_trips_through_the_printer() {
        for src in all_rules() {
            let parsed = parse_rule(src).unwrap();
            assert_eq!(parsed, parse_rule(&parsed.to_string()).unwrap());
        }
    }
}
