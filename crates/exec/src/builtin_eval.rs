//! Naive (scan-based) evaluation of built-in aggregates and parameter binding.
//!
//! This is the reference semantics: the indexed strategies of
//! [`crate::indexes`] must return the same values, which the equivalence
//! tests check.  It is also the code path of the naive executor used as the
//! experimental baseline (§6: "straightforward O(n) algorithms").

use rustc_hash::FxHashMap;

use sgl_env::{EnvTable, Value};
use sgl_lang::ast::{AggCall, Term};
use sgl_lang::builtins::{AggSpec, AggregateDef, SimpleAgg};
use sgl_lang::eval::{eval_cond, eval_term, EvalContext, NoAggregates, ScriptValue};

use crate::error::{ExecError, Result};

/// Bind the arguments of a call to the parameters of a built-in definition.
///
/// By convention the first argument is the acting unit `u` itself and is not
/// bound (the definition reads it through `u.*`); the remaining arguments are
/// flattened (record values expand to their components) and zipped with the
/// remaining parameters.
pub fn bind_params(
    def_name: &str,
    params: &[String],
    args: &[ScriptValue],
) -> Result<FxHashMap<String, ScriptValue>> {
    let mut flat: Vec<Value> = Vec::new();
    for arg in args.iter().skip(1) {
        flat.extend(arg.components());
    }
    let expected = params.len().saturating_sub(1);
    if flat.len() != expected {
        return Err(ExecError::Lang(sgl_lang::LangError::Semantic(format!(
            "builtin `{def_name}` expects {expected} scalar arguments after the unit, got {}",
            flat.len()
        ))));
    }
    let mut out = FxHashMap::default();
    for (param, value) in params.iter().skip(1).zip(flat) {
        out.insert(param.clone(), ScriptValue::Scalar(value));
    }
    Ok(out)
}

/// Evaluate the argument terms of an aggregate/action call in the unit's
/// context (arguments never contain aggregates after normalisation).
pub fn eval_call_args(call_args: &[Term], ctx: &EvalContext<'_>) -> Result<Vec<ScriptValue>> {
    let mut no_aggs = NoAggregates;
    call_args
        .iter()
        .map(|a| {
            // The conventional first argument `u` resolves to nothing — treat
            // the bare unit-parameter name as a unit marker.
            eval_term(a, ctx, &mut no_aggs).or_else(|e| match a {
                Term::Var(sgl_lang::ast::VarRef::Name(n)) if n == "u" || n == "self" => {
                    Ok(ScriptValue::Scalar(Value::Int(ctx.unit_key)))
                }
                _ => Err(e),
            })
        })
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(ExecError::from)
}

/// Per-output accumulator for the scan-based aggregate evaluation.
#[derive(Debug, Clone)]
struct OutputAcc {
    count: f64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl OutputAcc {
    fn new() -> OutputAcc {
        OutputAcc {
            count: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, v: f64) {
        self.count += 1.0;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn finish(&self, func: SimpleAgg, default: &Value) -> Value {
        if self.count == 0.0 {
            return default.clone();
        }
        match func {
            SimpleAgg::Count => Value::Int(self.count as i64),
            SimpleAgg::Sum => Value::Float(self.sum),
            SimpleAgg::Avg => Value::Float(self.sum / self.count),
            SimpleAgg::Min => Value::Float(self.min),
            SimpleAgg::Max => Value::Float(self.max),
            SimpleAgg::StdDev => {
                let mean = self.sum / self.count;
                Value::Float((self.sum_sq / self.count - mean * mean).max(0.0).sqrt())
            }
        }
    }
}

/// Evaluate a built-in aggregate for one unit by scanning the environment.
pub fn eval_aggregate_scan(
    def: &AggregateDef,
    param_bindings: &FxHashMap<String, ScriptValue>,
    unit_ctx: &EvalContext<'_>,
    table: &EnvTable,
) -> Result<ScriptValue> {
    let mut no_aggs = NoAggregates;
    // Context carrying the bound parameters.
    let mut base = EvalContext {
        schema: unit_ctx.schema,
        unit: unit_ctx.unit,
        unit_key: unit_ctx.unit_key,
        row: None,
        rng: unit_ctx.rng,
        constants: unit_ctx.constants,
        bindings: unit_ctx.bindings.clone(),
    };
    for (k, v) in param_bindings {
        base.bindings.insert(k.clone(), v.clone());
    }

    match &def.spec {
        AggSpec::Simple { outputs } => {
            let mut accs: Vec<OutputAcc> = outputs.iter().map(|_| OutputAcc::new()).collect();
            for (_, row) in table.iter() {
                let row_ctx = base.with_row(row);
                if !eval_cond(&def.filter, &row_ctx, &mut no_aggs)? {
                    continue;
                }
                for (o, acc) in outputs.iter().zip(accs.iter_mut()) {
                    if o.func == SimpleAgg::Count {
                        acc.push(1.0);
                    } else {
                        let v = eval_term(&o.value, &row_ctx, &mut no_aggs)?
                            .as_scalar()?
                            .as_f64()?;
                        acc.push(v);
                    }
                }
            }
            let fields = outputs
                .iter()
                .zip(accs.iter())
                .map(|(o, acc)| (o.name.clone(), acc.finish(o.func, &o.default)))
                .collect();
            Ok(ScriptValue::Record(fields))
        }
        AggSpec::ArgBest {
            minimize,
            rank,
            outputs,
        } => {
            // Reference tie-break: among rows with an equal rank the row
            // with the **smallest key** wins.  The indexed strategies
            // (kD-trees, maintained grids) reproduce exactly this rule, so
            // argmin over duplicated positions is deterministic across every
            // executor configuration.  A NaN rank is unordered and never
            // wins (a NaN position is no one's nearest unit, and a unit at a
            // NaN position has no nearest unit), as in the indexes.
            let mut best: Option<(f64, i64, usize)> = None;
            let schema = unit_ctx.schema;
            for (idx, row) in table.iter() {
                let row_ctx = base.with_row(row);
                if !eval_cond(&def.filter, &row_ctx, &mut no_aggs)? {
                    continue;
                }
                let r = eval_term(rank, &row_ctx, &mut no_aggs)?
                    .as_scalar()?
                    .as_f64()?;
                if r.is_nan() {
                    continue;
                }
                let key = row.key(schema);
                let better = match best {
                    None => true,
                    Some((b, bkey, _)) => {
                        let strictly = if *minimize { r < b } else { r > b };
                        strictly || (r == b && key < bkey)
                    }
                };
                if better {
                    best = Some((r, key, idx));
                }
            }
            let fields = match best {
                Some((_, _, idx)) => {
                    let row_ctx = base.with_row(table.row(idx));
                    outputs
                        .iter()
                        .map(|(name, term, _)| {
                            Ok((
                                name.clone(),
                                eval_term(term, &row_ctx, &mut no_aggs)?
                                    .as_scalar()?
                                    .clone(),
                            ))
                        })
                        .collect::<std::result::Result<Vec<_>, sgl_lang::LangError>>()?
                }
                None => outputs
                    .iter()
                    .map(|(name, _, default)| (name.clone(), default.clone()))
                    .collect(),
            };
            Ok(ScriptValue::Record(fields))
        }
    }
}

/// Evaluate an aggregate call (binding arguments first) by scanning.
pub fn eval_call_scan(
    def: &AggregateDef,
    call: &AggCall,
    unit_ctx: &EvalContext<'_>,
    table: &EnvTable,
) -> Result<ScriptValue> {
    let args = eval_call_args(&call.args, unit_ctx)?;
    let bindings = bind_params(&def.name, &def.params, &args)?;
    eval_aggregate_scan(def, &bindings, unit_ctx, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::{schema::paper_schema, GameRng, Schema, TupleBuilder};
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::parse_term;
    use std::sync::Arc;

    fn battle_table() -> (Arc<Schema>, EnvTable) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        // Player 0 units at (0,0), (2,2); player 1 units at (3,3), (10,10).
        let units = [
            (1i64, 0i64, 0.0, 0.0, 20i64),
            (2, 0, 2.0, 2.0, 15),
            (3, 1, 3.0, 3.0, 10),
            (4, 1, 10.0, 10.0, 5),
        ];
        for (key, player, x, y, hp) in units {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", player)
                .unwrap()
                .set("posx", x)
                .unwrap()
                .set("posy", y)
                .unwrap()
                .set("health", hp)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        (schema, table)
    }

    #[test]
    fn count_enemies_in_range_matches_hand_count() {
        let (schema, table) = battle_table();
        let registry = paper_registry();
        let rng = GameRng::new(1).for_tick(0);
        let constants = registry.constants().clone();
        // Unit 1 (player 0) at (0,0) with range 5: enemies in range = unit 3 only.
        let unit = table.row(0);
        let ctx = EvalContext::new(&schema, unit, &rng, &constants);
        let def = registry.aggregate("CountEnemiesInRange").unwrap();
        let call = AggCall {
            name: def.name.clone(),
            args: vec![Term::name("u"), parse_term("5").unwrap()],
        };
        let result = eval_call_scan(def, &call, &ctx, &table).unwrap();
        assert_eq!(result.as_scalar().unwrap(), &Value::Int(1));
        // With range 12 both enemies are visible.
        let call = AggCall {
            name: def.name.clone(),
            args: vec![Term::name("u"), parse_term("12").unwrap()],
        };
        let result = eval_call_scan(def, &call, &ctx, &table).unwrap();
        assert_eq!(result.as_scalar().unwrap(), &Value::Int(2));
    }

    #[test]
    fn centroid_of_enemies() {
        let (schema, table) = battle_table();
        let registry = paper_registry();
        let rng = GameRng::new(1).for_tick(0);
        let constants = registry.constants().clone();
        let unit = table.row(0);
        let ctx = EvalContext::new(&schema, unit, &rng, &constants);
        let def = registry.aggregate("CentroidOfEnemyUnits").unwrap();
        let call = AggCall {
            name: def.name.clone(),
            args: vec![Term::name("u"), parse_term("20").unwrap()],
        };
        let result = eval_call_scan(def, &call, &ctx, &table).unwrap();
        assert_eq!(result.field("x").unwrap(), &Value::Float(6.5));
        assert_eq!(result.field("y").unwrap(), &Value::Float(6.5));
    }

    #[test]
    fn empty_aggregates_return_defaults() {
        let (schema, table) = battle_table();
        let registry = paper_registry();
        let rng = GameRng::new(1).for_tick(0);
        let constants = registry.constants().clone();
        let unit = table.row(0);
        let ctx = EvalContext::new(&schema, unit, &rng, &constants);
        let def = registry.aggregate("CountEnemiesInRange").unwrap();
        let call = AggCall {
            name: def.name.clone(),
            args: vec![Term::name("u"), parse_term("0.5").unwrap()],
        };
        let result = eval_call_scan(def, &call, &ctx, &table).unwrap();
        assert_eq!(result.as_scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn nearest_enemy_is_the_closest_by_euclidean_distance() {
        let (schema, table) = battle_table();
        let registry = paper_registry();
        let rng = GameRng::new(1).for_tick(0);
        let constants = registry.constants().clone();
        let unit = table.row(0); // (0, 0), player 0
        let ctx = EvalContext::new(&schema, unit, &rng, &constants);
        let def = registry.aggregate("getNearestEnemy").unwrap();
        let call = AggCall {
            name: def.name.clone(),
            args: vec![Term::name("u")],
        };
        let result = eval_call_scan(def, &call, &ctx, &table).unwrap();
        assert_eq!(result.field("key").unwrap(), &Value::Int(3));
        assert_eq!(result.field("posx").unwrap(), &Value::Float(3.0));
    }

    /// Regression (conformance seed 3): two candidate rows at the same
    /// position tie on squared distance; the scan must pick the smallest
    /// key, the rule every indexed strategy reproduces.
    #[test]
    fn argbest_rank_ties_resolve_to_the_smallest_key() {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        // Keys inserted out of order; rows 9 and 4 share one position.
        for (key, player, x) in [(9i64, 1i64, 5.0), (4, 1, 5.0), (7, 0, 0.0)] {
            let t = TupleBuilder::new(&schema)
                .set("key", key)
                .unwrap()
                .set("player", player)
                .unwrap()
                .set("posx", x)
                .unwrap()
                .set("posy", 0.0)
                .unwrap()
                .set("health", 10i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let registry = paper_registry();
        let rng = GameRng::new(1).for_tick(0);
        let constants = registry.constants().clone();
        let unit = table.row(2); // key 7, player 0 at the origin
        let ctx = EvalContext::new(&schema, unit, &rng, &constants);
        let def = registry.aggregate("getNearestEnemy").unwrap();
        let call = AggCall {
            name: def.name.clone(),
            args: vec![Term::name("u")],
        };
        let result = eval_call_scan(def, &call, &ctx, &table).unwrap();
        assert_eq!(result.field("key").unwrap(), &Value::Int(4));
    }

    #[test]
    fn param_binding_flattens_records_and_checks_arity() {
        let bindings = bind_params(
            "MoveInDirection",
            &["u".into(), "x".into(), "y".into()],
            &[
                ScriptValue::scalar(1i64),
                ScriptValue::record(vec![
                    ("x".into(), Value::Float(3.0)),
                    ("y".into(), Value::Float(4.0)),
                ]),
            ],
        )
        .unwrap();
        assert_eq!(bindings["x"], ScriptValue::Scalar(Value::Float(3.0)));
        assert_eq!(bindings["y"], ScriptValue::Scalar(Value::Float(4.0)));

        let err = bind_params(
            "FireAt",
            &["u".into(), "target".into()],
            &[ScriptValue::scalar(1i64)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn call_args_resolve_the_bare_unit_name() {
        let (schema, table) = battle_table();
        let registry = paper_registry();
        let rng = GameRng::new(1).for_tick(0);
        let constants = registry.constants().clone();
        let unit = table.row(1);
        let ctx = EvalContext::new(&schema, unit, &rng, &constants);
        let args = eval_call_args(&[Term::name("u"), Term::unit("posx")], &ctx).unwrap();
        assert_eq!(args[0], ScriptValue::Scalar(Value::Int(2)));
        assert_eq!(args[1], ScriptValue::Scalar(Value::Float(2.0)));
        assert!(eval_call_args(&[Term::name("missing")], &ctx).is_err());
    }
}
