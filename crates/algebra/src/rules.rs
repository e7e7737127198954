//! Rewrite rules on logical plans (paper §5.2, Figures 6 and 7).
//!
//! The rules implemented here reproduce the optimization walk of Example 5.1:
//!
//! * **Dead-column elimination** — an extension (`π∗,agg(∗)` or `π∗,f(∗)`)
//!   whose column is never referenced above it is dropped.  Because the
//!   branches of a conditional duplicate their shared input, this is what
//!   removes `agg2` (`away_vector`) from the `¬φ1` branch in Figure 6 (a)→(b).
//! * **Extension pull-up past selections** — when a selection predicate does
//!   not reference an extended column, the extension is evaluated *after* the
//!   selection so the aggregate is computed for fewer units (rule (8) /
//!   Figure 6 (a)→(b)).
//! * **Combine flattening** — nested `⊕` nodes are flattened and empty effect
//!   relations removed (associativity/commutativity of `⊕`, Eq. (3)).
//! * **Environment-combine elimination** — `main⊕(E) ⊕ E` can drop the final
//!   `⊕ E` when the branches partition `E` and every applied action also
//!   writes an effect onto the acting unit itself (rules (9)/(10) plus the
//!   `act⊕(R) ⊕ R = act⊕(R)` step, Figure 6 (c)→(d)).

use rustc_hash::FxHashSet;

use sgl_lang::ast::{Cond, Term, VarRef};
use sgl_lang::builtins::Registry;

use crate::plan::LogicalPlan;

/// Names of the rewrite rules, in the order they are applied.  Used for
/// optimizer tracing and for the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Drop extensions whose column is never used.
    DeadColumnElimination,
    /// Evaluate extensions after selections that do not need them.
    ExtensionPullUp,
    /// Flatten nested combines and drop empty inputs.
    CombineFlattening,
    /// Drop the final `⊕ E` when provably redundant.
    EnvCombineElimination,
}

/// Collect the bare variable names referenced by a term.
fn term_names(term: &Term, out: &mut FxHashSet<String>) {
    let mut names = Vec::new();
    term.collect_names(&mut names);
    out.extend(names);
}

/// Collect the bare variable names referenced by a condition.
fn cond_names(cond: &Cond, out: &mut FxHashSet<String>) {
    match cond {
        Cond::Lit(_) => {}
        Cond::Cmp { left, right, .. } => {
            term_names(left, out);
            term_names(right, out);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_names(a, out);
            cond_names(b, out);
        }
        Cond::Not(c) => cond_names(c, out),
    }
}

/// Rule: dead-column elimination.
///
/// Walk the plan top-down carrying the set of extended-column names needed by
/// operators above; drop `ExtendAgg`/`ExtendExpr` nodes for unused columns.
pub fn eliminate_dead_columns(plan: LogicalPlan) -> LogicalPlan {
    fn walk(plan: LogicalPlan, needed: &FxHashSet<String>) -> LogicalPlan {
        match plan {
            LogicalPlan::Scan | LogicalPlan::Empty => plan,
            LogicalPlan::Select { input, predicate } => {
                let mut needed = needed.clone();
                cond_names(&predicate, &mut needed);
                LogicalPlan::Select {
                    input: Box::new(walk(*input, &needed)),
                    predicate,
                }
            }
            LogicalPlan::ExtendAgg { input, name, call } => {
                if !needed.contains(&name) {
                    return walk(*input, needed);
                }
                let mut needed = needed.clone();
                needed.remove(&name);
                for arg in &call.args {
                    term_names(arg, &mut needed);
                }
                LogicalPlan::ExtendAgg {
                    input: Box::new(walk(*input, &needed)),
                    name,
                    call,
                }
            }
            LogicalPlan::ExtendExpr { input, name, term } => {
                if !needed.contains(&name) {
                    return walk(*input, needed);
                }
                let mut needed = needed.clone();
                needed.remove(&name);
                term_names(&term, &mut needed);
                LogicalPlan::ExtendExpr {
                    input: Box::new(walk(*input, &needed)),
                    name,
                    term,
                }
            }
            LogicalPlan::Apply {
                input,
                action,
                args,
            } => {
                let mut needed = needed.clone();
                for arg in &args {
                    term_names(arg, &mut needed);
                }
                LogicalPlan::Apply {
                    input: Box::new(walk(*input, &needed)),
                    action,
                    args,
                }
            }
            LogicalPlan::Combine { inputs } => LogicalPlan::Combine {
                inputs: inputs.into_iter().map(|p| walk(p, needed)).collect(),
            },
            LogicalPlan::CombineWithEnv { input } => LogicalPlan::CombineWithEnv {
                input: Box::new(walk(*input, needed)),
            },
        }
    }
    walk(plan, &FxHashSet::default())
}

/// Rule: pull extensions above selections whose predicate does not reference
/// the extended column (so the aggregate is only evaluated for the selected
/// units).  Applied bottom-up until a local fixpoint.
pub fn pull_up_extensions(plan: LogicalPlan) -> LogicalPlan {
    fn rewrite(plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::Select { input, predicate } => {
                let input = rewrite(*input);
                let mut pred_names = FxHashSet::default();
                cond_names(&predicate, &mut pred_names);
                match input {
                    LogicalPlan::ExtendAgg {
                        input: inner,
                        name,
                        call,
                    } if !pred_names.contains(&name) => {
                        // σp(π∗,agg AS name(R)) = π∗,agg AS name(σp(R))
                        rewrite(LogicalPlan::ExtendAgg {
                            input: Box::new(LogicalPlan::Select {
                                input: inner,
                                predicate,
                            }),
                            name,
                            call,
                        })
                    }
                    LogicalPlan::ExtendExpr {
                        input: inner,
                        name,
                        term,
                    } if !pred_names.contains(&name) => rewrite(LogicalPlan::ExtendExpr {
                        input: Box::new(LogicalPlan::Select {
                            input: inner,
                            predicate,
                        }),
                        name,
                        term,
                    }),
                    other => LogicalPlan::Select {
                        input: Box::new(other),
                        predicate,
                    },
                }
            }
            LogicalPlan::ExtendAgg { input, name, call } => LogicalPlan::ExtendAgg {
                input: Box::new(rewrite(*input)),
                name,
                call,
            },
            LogicalPlan::ExtendExpr { input, name, term } => LogicalPlan::ExtendExpr {
                input: Box::new(rewrite(*input)),
                name,
                term,
            },
            LogicalPlan::Apply {
                input,
                action,
                args,
            } => LogicalPlan::Apply {
                input: Box::new(rewrite(*input)),
                action,
                args,
            },
            LogicalPlan::Combine { inputs } => LogicalPlan::Combine {
                inputs: inputs.into_iter().map(rewrite).collect(),
            },
            LogicalPlan::CombineWithEnv { input } => LogicalPlan::CombineWithEnv {
                input: Box::new(rewrite(*input)),
            },
            leaf => leaf,
        }
    }
    rewrite(plan)
}

/// Rule: flatten nested `⊕` nodes and drop empty effect relations.
pub fn flatten_combines(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Combine { inputs } => {
            let mut flat = Vec::new();
            for input in inputs {
                match flatten_combines(input) {
                    LogicalPlan::Empty => {}
                    LogicalPlan::Combine { inputs } => flat.extend(inputs),
                    other => flat.push(other),
                }
            }
            match flat.len() {
                0 => LogicalPlan::Empty,
                1 => flat.into_iter().next().expect("length checked"),
                _ => LogicalPlan::Combine { inputs: flat },
            }
        }
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(flatten_combines(*input)),
            predicate,
        },
        LogicalPlan::ExtendAgg { input, name, call } => LogicalPlan::ExtendAgg {
            input: Box::new(flatten_combines(*input)),
            name,
            call,
        },
        LogicalPlan::ExtendExpr { input, name, term } => LogicalPlan::ExtendExpr {
            input: Box::new(flatten_combines(*input)),
            name,
            term,
        },
        LogicalPlan::Apply {
            input,
            action,
            args,
        } => LogicalPlan::Apply {
            input: Box::new(flatten_combines(*input)),
            action,
            args,
        },
        LogicalPlan::CombineWithEnv { input } => LogicalPlan::CombineWithEnv {
            input: Box::new(flatten_combines(*input)),
        },
        leaf => leaf,
    }
}

/// Does the action write at least one effect onto the acting unit itself
/// (a clause filtered by `e.key = u.key`)?  Such actions guarantee
/// `act⊕(R) ⊕ R = act⊕(R)` for the units of `R`.
fn action_covers_self(registry: &Registry, action: &str) -> bool {
    registry
        .action(action)
        .map(|def| {
            def.clauses.iter().any(|clause| {
                clause
                    .filter
                    .conjuncts()
                    .map(|conjs| {
                        conjs.iter().any(|c| match c {
                            Cond::Cmp { op: sgl_lang::ast::CmpOp::Eq, left, right } => {
                                let is_row_key =
                                    |t: &Term| matches!(t, Term::Var(VarRef::Row(a)) if a == "key");
                                let is_unit_key =
                                    |t: &Term| matches!(t, Term::Var(VarRef::Unit(a)) if a == "key");
                                (is_row_key(left) && is_unit_key(right))
                                    || (is_row_key(right) && is_unit_key(left))
                            }
                            _ => false,
                        })
                    })
                    .unwrap_or(false)
            })
        })
        .unwrap_or(false)
}

/// Find the selection predicates that partition the branches directly below a
/// combine: returns true when the branch predicates are `p` and `¬p` (in
/// either order) over otherwise identical inputs.
fn branches_partition(inputs: &[LogicalPlan]) -> bool {
    if inputs.len() != 2 {
        return false;
    }
    fn top_selection(plan: &LogicalPlan) -> Option<&Cond> {
        match plan {
            LogicalPlan::Select { predicate, .. } => Some(predicate),
            LogicalPlan::ExtendAgg { input, .. }
            | LogicalPlan::ExtendExpr { input, .. }
            | LogicalPlan::Apply { input, .. } => top_selection(input),
            _ => None,
        }
    }
    match (top_selection(&inputs[0]), top_selection(&inputs[1])) {
        (Some(a), Some(b)) => Cond::not(a.clone()) == *b || Cond::not(b.clone()) == *a,
        _ => false,
    }
}

/// Rule: eliminate the final `⊕ E` (Figure 6 (c)→(d)).
///
/// The combination with `E` exists to keep units that take no action in the
/// current tick.  It is redundant when (i) the branches below it partition
/// `E` with complementary selections, and (ii) every action applied in the
/// plan also writes onto the acting unit itself.  When the structural proof
/// does not go through the node is kept (it is a no-op for execution, which
/// always starts from the full environment).
pub fn eliminate_env_combine(plan: LogicalPlan, registry: &Registry) -> LogicalPlan {
    match plan {
        LogicalPlan::CombineWithEnv { input } => {
            let all_actions_cover_self = input
                .action_names()
                .iter()
                .all(|a| action_covers_self(registry, a));
            let partitions = match input.as_ref() {
                LogicalPlan::Combine { inputs } => branches_partition(inputs),
                // A single branch over the whole environment trivially covers it.
                LogicalPlan::Apply { .. }
                | LogicalPlan::ExtendAgg { .. }
                | LogicalPlan::ExtendExpr { .. } => !plan_has_selection(&input),
                _ => false,
            };
            if all_actions_cover_self && partitions && input.count_apply_nodes() > 0 {
                *input
            } else {
                LogicalPlan::CombineWithEnv { input }
            }
        }
        other => other,
    }
}

fn plan_has_selection(plan: &LogicalPlan) -> bool {
    if matches!(plan, LogicalPlan::Select { .. }) {
        return true;
    }
    plan.children().iter().any(|c| plan_has_selection(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_lang::ast::{AggCall, CmpOp};
    use sgl_lang::builtins::paper_registry;

    fn count_call() -> AggCall {
        AggCall {
            name: "CountEnemiesInRange".into(),
            args: vec![Term::int(10)],
        }
    }

    fn centroid_call() -> AggCall {
        AggCall {
            name: "CentroidOfEnemyUnits".into(),
            args: vec![Term::int(10)],
        }
    }

    #[test]
    fn dead_columns_are_removed() {
        // agg2 (`away`) is extended but never used in this branch.
        let plan = LogicalPlan::Scan
            .extend_agg("c", count_call())
            .extend_agg("away", centroid_call())
            .select(Cond::cmp(CmpOp::Gt, Term::name("c"), Term::int(3)))
            .apply("FireAt", vec![Term::name("c")]);
        let optimized = eliminate_dead_columns(plan);
        assert_eq!(optimized.count_agg_nodes(), 1);
        // The surviving aggregate is the count.
        assert_eq!(optimized.aggregate_calls()[0].name, "CountEnemiesInRange");
    }

    #[test]
    fn used_columns_are_kept() {
        let plan = LogicalPlan::Scan
            .extend_agg("c", count_call())
            .select(Cond::cmp(CmpOp::Gt, Term::name("c"), Term::int(3)))
            .apply("MoveInDirection", vec![Term::name("c"), Term::int(0)]);
        let optimized = eliminate_dead_columns(plan.clone());
        assert_eq!(optimized, plan);
    }

    #[test]
    fn transitively_dead_columns_cascade() {
        // `away` depends on `mid`, but `away` itself is unused → both go.
        let plan = LogicalPlan::Scan
            .extend_agg("mid", centroid_call())
            .extend_expr(
                "away",
                Term::bin(sgl_lang::ast::BinOp::Add, Term::name("mid"), Term::int(1)),
            )
            .apply("Heal", vec![]);
        let optimized = eliminate_dead_columns(plan);
        assert_eq!(optimized.count_agg_nodes(), 0);
        assert_eq!(optimized, LogicalPlan::Scan.apply("Heal", vec![]));
    }

    #[test]
    fn extensions_are_pulled_above_independent_selections() {
        // σ(cooldown = 0) does not use `away`, so `away` should be computed
        // only for the selected units.
        let plan = LogicalPlan::Scan
            .extend_agg("away", centroid_call())
            .select(Cond::cmp(CmpOp::Eq, Term::unit("cooldown"), Term::int(0)))
            .apply("MoveInDirection", vec![Term::name("away"), Term::int(0)]);
        let optimized = pull_up_extensions(plan);
        match optimized {
            LogicalPlan::Apply { input, .. } => match *input {
                LogicalPlan::ExtendAgg { input, name, .. } => {
                    assert_eq!(name, "away");
                    assert!(matches!(*input, LogicalPlan::Select { .. }));
                }
                other => panic!("expected extension above selection, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extensions_used_by_the_selection_stay_below_it() {
        let plan = LogicalPlan::Scan
            .extend_agg("c", count_call())
            .select(Cond::cmp(CmpOp::Gt, Term::name("c"), Term::int(3)))
            .apply("Heal", vec![]);
        let optimized = pull_up_extensions(plan.clone());
        assert_eq!(optimized, plan);
    }

    #[test]
    fn combines_flatten_and_drop_empties() {
        let plan = LogicalPlan::Combine {
            inputs: vec![
                LogicalPlan::Empty,
                LogicalPlan::Combine {
                    inputs: vec![LogicalPlan::Scan.apply("Heal", vec![]), LogicalPlan::Empty],
                },
                LogicalPlan::Scan.apply("MoveInDirection", vec![Term::int(0), Term::int(0)]),
            ],
        };
        let optimized = flatten_combines(plan);
        match optimized {
            LogicalPlan::Combine { inputs } => {
                assert_eq!(inputs.len(), 2);
                assert!(inputs
                    .iter()
                    .all(|p| matches!(p, LogicalPlan::Apply { .. })));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A combine of nothing is empty; of one thing is that thing.
        assert_eq!(
            flatten_combines(LogicalPlan::Combine { inputs: vec![] }),
            LogicalPlan::Empty
        );
        assert_eq!(
            flatten_combines(LogicalPlan::Combine {
                inputs: vec![LogicalPlan::Scan.apply("Heal", vec![])]
            }),
            LogicalPlan::Scan.apply("Heal", vec![])
        );
    }

    #[test]
    fn env_combine_elimination_on_partitioning_branches() {
        let registry = paper_registry();
        let pred = Cond::cmp(CmpOp::Gt, Term::name("c"), Term::int(3));
        let branch1 = LogicalPlan::Scan
            .extend_agg("c", count_call())
            .select(pred.clone())
            .apply("MoveInDirection", vec![Term::int(0), Term::int(0)]);
        let branch2 = LogicalPlan::Scan
            .extend_agg("c", count_call())
            .select(Cond::not(pred))
            .apply("FireAt", vec![Term::int(7)]);
        let plan = LogicalPlan::CombineWithEnv {
            input: Box::new(LogicalPlan::Combine {
                inputs: vec![branch1, branch2],
            }),
        };
        let optimized = eliminate_env_combine(plan, &registry);
        assert!(matches!(optimized, LogicalPlan::Combine { .. }));
    }

    #[test]
    fn env_combine_kept_when_branches_do_not_partition() {
        let registry = paper_registry();
        let branch1 = LogicalPlan::Scan
            .select(Cond::cmp(CmpOp::Gt, Term::unit("health"), Term::int(3)))
            .apply("MoveInDirection", vec![Term::int(0), Term::int(0)]);
        let branch2 = LogicalPlan::Scan
            .select(Cond::cmp(CmpOp::Lt, Term::unit("health"), Term::int(2)))
            .apply("FireAt", vec![Term::int(7)]);
        let plan = LogicalPlan::CombineWithEnv {
            input: Box::new(LogicalPlan::Combine {
                inputs: vec![branch1, branch2],
            }),
        };
        let optimized = eliminate_env_combine(plan.clone(), &registry);
        assert_eq!(optimized, plan);
    }

    #[test]
    fn env_combine_kept_for_unknown_or_non_covering_actions() {
        let registry = paper_registry();
        // Heal is an area-of-effect action; it does not necessarily write onto
        // the healer itself when no ally (including itself) is in range — but
        // it does match itself via the ally filter... use an unknown action to
        // be unambiguous.
        let plan = LogicalPlan::CombineWithEnv {
            input: Box::new(LogicalPlan::Scan.apply("Mystery", vec![])),
        };
        let optimized = eliminate_env_combine(plan.clone(), &registry);
        assert_eq!(optimized, plan);
    }

    #[test]
    fn env_combine_elimination_single_unconditional_action() {
        let registry = paper_registry();
        let plan = LogicalPlan::CombineWithEnv {
            input: Box::new(
                LogicalPlan::Scan.apply("MoveInDirection", vec![Term::int(1), Term::int(1)]),
            ),
        };
        let optimized = eliminate_env_combine(plan, &registry);
        assert_eq!(
            optimized,
            LogicalPlan::Scan.apply("MoveInDirection", vec![Term::int(1), Term::int(1)])
        );
    }

    #[test]
    fn action_cover_analysis() {
        let registry = paper_registry();
        assert!(action_covers_self(&registry, "MoveInDirection"));
        assert!(action_covers_self(&registry, "FireAt"));
        assert!(!action_covers_self(&registry, "Heal"));
        assert!(!action_covers_self(&registry, "DoesNotExist"));
    }
}
