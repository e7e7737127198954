//! Translation from normalised SGL scripts to logical plans (paper §5.1).
//!
//! The translation follows the equations
//!
//! ```text
//! [[f1; f2]]⊕(E)          = [[f1]]⊕(E) ⊕ [[f2]]⊕(E)
//! [[if φ then f]]⊕(E)     = [[f]]⊕(σφ(E))
//! [[(let A = a) f]]⊕(E)   = [[f]]⊕(π∗,a(∗) AS A(E))
//! [[perform H(args)]]⊕(E) = H⊕(E)
//! tick(E)                 = main⊕(E) ⊕ E
//! ```
//!
//! `if φ then f1 else f2` is treated as the shortcut
//! `if φ then f1; if ¬φ then f2`, which is why an `If` with an `else` branch
//! becomes a `Combine` of two complementary selections.

use sgl_lang::ast::{Action, Cond, Term};
use sgl_lang::normalize::NormalScript;

use crate::plan::LogicalPlan;

/// Translate a normalised script into a logical plan for one tick.
///
/// The returned plan computes `main⊕(E) ⊕ E` (Eq. (6)).  It is the
/// optimizer's input and the shape `explain` renders; execution runs the
/// same normal form lowered to bytecode (`sgl-exec`).
pub fn translate(script: &NormalScript) -> LogicalPlan {
    let body = translate_action(&script.body, LogicalPlan::Scan);
    LogicalPlan::CombineWithEnv {
        input: Box::new(body),
    }
}

/// Translate an action given the plan computing its input relation.
pub fn translate_action(action: &Action, input: LogicalPlan) -> LogicalPlan {
    match action {
        Action::Nop => LogicalPlan::Empty,
        Action::Let { name, term, body } => {
            let extended = match term {
                Term::Agg(call) => input.extend_agg(name.clone(), call.clone()),
                other => input.extend_expr(name.clone(), other.clone()),
            };
            translate_action(body, extended)
        }
        Action::Seq(items) => {
            let inputs: Vec<LogicalPlan> = items
                .iter()
                .map(|a| translate_action(a, input.clone()))
                .filter(|p| !matches!(p, LogicalPlan::Empty))
                .collect();
            match inputs.len() {
                0 => LogicalPlan::Empty,
                1 => inputs.into_iter().next().expect("length checked"),
                _ => LogicalPlan::Combine { inputs },
            }
        }
        Action::If { cond, then, els } => {
            let then_plan = translate_action(then, input.clone().select(cond.clone()));
            match els {
                None => then_plan,
                Some(e) => {
                    let else_plan = translate_action(e, input.select(Cond::not(cond.clone())));
                    match (
                        matches!(then_plan, LogicalPlan::Empty),
                        matches!(else_plan, LogicalPlan::Empty),
                    ) {
                        (true, true) => LogicalPlan::Empty,
                        (true, false) => else_plan,
                        (false, true) => then_plan,
                        (false, false) => LogicalPlan::Combine {
                            inputs: vec![then_plan, else_plan],
                        },
                    }
                }
            }
        }
        Action::Perform { name, args } => input.apply(name.clone(), args.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parser::parse_script;

    fn plan_for(src: &str) -> LogicalPlan {
        let script = parse_script(src).unwrap();
        let normal = normalize(&script, &paper_registry()).unwrap();
        translate(&normal)
    }

    #[test]
    fn empty_script_translates_to_empty_effects() {
        let plan = plan_for("main(u) { }");
        assert_eq!(
            plan,
            LogicalPlan::CombineWithEnv {
                input: Box::new(LogicalPlan::Empty)
            }
        );
    }

    #[test]
    fn single_perform_becomes_apply_over_scan() {
        let plan = plan_for("main(u) { perform Heal(u); }");
        match plan {
            LogicalPlan::CombineWithEnv { input } => match *input {
                LogicalPlan::Apply { input, action, .. } => {
                    assert_eq!(action, "Heal");
                    assert_eq!(*input, LogicalPlan::Scan);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lets_become_extensions() {
        let plan = plan_for(
            "main(u) { (let c = CountEnemiesInRange(u, 5)) if c > 0 then perform Heal(u); }",
        );
        // CombineWithEnv → Apply → Select → ExtendAgg → Scan
        match plan {
            LogicalPlan::CombineWithEnv { input } => match *input {
                LogicalPlan::Apply { input, .. } => match *input {
                    LogicalPlan::Select { input, .. } => match *input {
                        LogicalPlan::ExtendAgg { input, name, call } => {
                            assert_eq!(name, "c");
                            assert_eq!(call.name, "CountEnemiesInRange");
                            assert_eq!(*input, LogicalPlan::Scan);
                        }
                        other => panic!("unexpected {other:?}"),
                    },
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_else_becomes_complementary_selections() {
        let plan = plan_for(
            r#"main(u) {
                if u.cooldown = 0 then perform Heal(u);
                else perform MoveInDirection(u, 0, 0);
            }"#,
        );
        match plan {
            LogicalPlan::CombineWithEnv { input } => match *input {
                LogicalPlan::Combine { inputs } => {
                    assert_eq!(inputs.len(), 2);
                    let preds: Vec<&Cond> = inputs
                        .iter()
                        .map(|p| match p {
                            LogicalPlan::Apply { input, .. } => match input.as_ref() {
                                LogicalPlan::Select { predicate, .. } => predicate,
                                other => panic!("unexpected {other:?}"),
                            },
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect();
                    assert_eq!(Cond::not(preds[0].clone()), *preds[1]);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequences_combine_effect_relations() {
        let plan = plan_for("main(u) { perform Heal(u); perform MoveInDirection(u, 0, 0); }");
        match plan {
            LogicalPlan::CombineWithEnv { input } => match *input {
                LogicalPlan::Combine { inputs } => assert_eq!(inputs.len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_without_else_and_empty_branches() {
        let plan = plan_for("main(u) { if u.cooldown = 0 then perform Heal(u); }");
        match &plan {
            LogicalPlan::CombineWithEnv { input } => {
                assert!(matches!(input.as_ref(), LogicalPlan::Apply { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An if with two empty branches is just empty.
        let plan = plan_for("main(u) { if u.cooldown = 0 then ; else ; }");
        assert_eq!(
            plan,
            LogicalPlan::CombineWithEnv {
                input: Box::new(LogicalPlan::Empty)
            }
        );
    }

    #[test]
    fn figure_three_translation_has_expected_shape() {
        // The shape of Figure 6 (a): two branches under a combine, aggregates
        // extended below the branch point.
        let plan = plan_for(
            r#"main(u) {
              (let c = CountEnemiesInRange(u, 12))
              (let away = (u.posx, u.posy) - CentroidOfEnemyUnits(u, 12)) {
                if (c > 4) then
                  perform MoveInDirection(u, away.x, away.y);
                else if (c > 0 and u.cooldown = 0) then
                  (let target_key = getNearestEnemy(u).key) {
                    perform FireAt(u, target_key);
                  }
              }
            }"#,
        );
        // The branch point duplicates the shared input: Count and Centroid
        // appear in both branches (2 + 2) and the nearest-enemy aggregate only
        // in the else branch (1), for 5 aggregate nodes before optimization.
        assert_eq!(plan.count_agg_nodes(), 5);
        assert_eq!(plan.count_apply_nodes(), 2);
        let actions = plan.action_names();
        assert!(actions.contains(&"MoveInDirection"));
        assert!(actions.contains(&"FireAt"));
    }
}
