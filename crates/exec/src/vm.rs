//! The register-machine evaluator for [`CompiledScript`]s — the hot loop of
//! `ExecMode::Compiled`.
//!
//! One [`Vm`] executes one script for one shard's acting units.  Per unit it
//! runs the flat instruction array in a dispatch loop over a register file
//! of `ScriptValue`s; every name, attribute and call target was resolved at
//! compile time, and aggregate definitions / physical plans are resolved
//! once per shard run (the cost-based planner may change backends between
//! ticks), so nothing in the per-unit path performs a string lookup.
//!
//! **Determinism contract.**  Effects are emitted *statement-major*: for
//! each `perform` site, all acting units' effects in unit order (clauses in
//! definition order per unit) — the set-at-a-time order of the script's
//! logical plan.  The VM executes *unit-major* (each unit runs its whole
//! script before the next), which is the cache-friendly order, and buffers
//! effects per perform site; after the shard's units finish it replays the
//! buffers site-major.  The `⊕` fold — including non-associative float
//! sums — is therefore independent of how the units were iterated, and the
//! run-major parallel replay of `tick.rs` composes unchanged on top.
//!
//! Aggregate probes hit the per-tick index cache (indexed mode) or scan the
//! environment (naive mode, or an index miss).  The bytecode calls each
//! site exactly once per unit, so there is nothing to memoize.
//! Per-call-site bookkeeping for the cost-based planner is batched: the VM
//! counts probes per site id during the run and flushes once into
//! [`TickObservations`] at the end.
//!
//! [`TickObservations`]: crate::stats::TickObservations

use rustc_hash::FxHashMap;

use sgl_lang::ast::CmpOp;
use sgl_lang::builtins::AggregateDef;
use sgl_lang::eval::{eval_cond, eval_term, EvalContext, NoAggregates, ScriptValue};

use sgl_algebra::cost::PhysicalBackend;
use sgl_env::{AttrId, Value};

use crate::builtin_eval::eval_aggregate_scan;
use crate::compile::{CompiledScript, Instr};
use crate::error::{ExecError, Result};
use crate::planner::PlannedAggregate;
use crate::tick::{ShardState, TickShared};

/// An aggregate call site resolved against this tick's registry and plan
/// cache, with its parameter map pre-keyed so a probe only overwrites
/// values (no per-probe map or key-string allocation).
struct ResolvedAgg<'a> {
    def: &'a AggregateDef,
    planned: &'a PlannedAggregate,
    /// Reusable parameter bindings (`def.params[1..]` → placeholder).
    params: FxHashMap<String, ScriptValue>,
    /// Probes evaluated at this site during the run (flushed to the
    /// planner's observations at run end, keyed by `def.name`).
    probes: u64,
    /// How many of them fell back to the naive scan.
    scans: u64,
}

/// Mutable per-shard execution state for one compiled script: the register
/// file, the inline caches for record-field reads and the per-site effect
/// buffers.  The compiled script itself stays shared and immutable.
struct Vm {
    regs: Vec<ScriptValue>,
    /// Cached field positions for `Field` instructions (`usize::MAX` =
    /// cold).  Records produced by a given site share a layout, so after
    /// the first unit every field read is a direct index plus a name check.
    field_cache: Vec<usize>,
    /// Effects buffered per perform site, replayed site-major at run end.
    site_logs: Vec<Vec<(i64, AttrId, Value)>>,
    /// Reusable parameter bindings per perform site.
    perform_params: Vec<FxHashMap<String, ScriptValue>>,
    /// Scratch buffer for flattened call arguments.
    flat: Vec<Value>,
    /// Scratch buffer for candidate rows of a perform clause.
    candidates: Vec<u32>,
}

/// Pre-key a reusable parameter map for a call site: one entry per declared
/// parameter after the implicit unit.  Probes overwrite the values in place.
fn param_slots(params: &[String]) -> FxHashMap<String, ScriptValue> {
    params
        .iter()
        .skip(1)
        .map(|p| (p.clone(), ScriptValue::Scalar(Value::Int(0))))
        .collect()
}

/// Flatten the argument registers after the implicit unit into `flat` and
/// overwrite the pre-keyed parameter map — the semantics of
/// [`crate::builtin_eval::bind_params`], minus its per-call allocations.
fn rebind_params(
    name: &str,
    declared: &[String],
    arg_regs: &[u16],
    regs: &[ScriptValue],
    flat: &mut Vec<Value>,
    params: &mut FxHashMap<String, ScriptValue>,
) -> Result<()> {
    flat.clear();
    for r in arg_regs.iter().skip(1) {
        match &regs[*r as usize] {
            ScriptValue::Scalar(v) => flat.push(v.clone()),
            ScriptValue::Record(fields) => flat.extend(fields.iter().map(|(_, v)| v.clone())),
        }
    }
    let expected = declared.len().saturating_sub(1);
    if flat.len() != expected {
        return Err(ExecError::Lang(sgl_lang::LangError::Semantic(format!(
            "builtin `{name}` expects {expected} scalar arguments after the unit, got {}",
            flat.len()
        ))));
    }
    for (param, value) in declared.iter().skip(1).zip(flat.drain(..)) {
        match params.get_mut(param) {
            Some(slot) => *slot = ScriptValue::Scalar(value),
            None => {
                return Err(ExecError::Internal(format!(
                    "parameter `{param}` of `{name}` missing from the pre-keyed bindings"
                )))
            }
        }
    }
    Ok(())
}

/// Execute one compiled script for `acting_rows` within a shard, emitting
/// effects into the shard's sink in statement-major order.
pub(crate) fn run_compiled(
    shared: &TickShared<'_>,
    state: &mut ShardState<'_>,
    compiled: &CompiledScript,
    acting_rows: &[u32],
) -> Result<()> {
    // Per-run (not per-unit) resolution of call sites and named constants.
    let mut aggs = compiled
        .agg_sites
        .iter()
        .map(|site| {
            let def = shared
                .registry
                .aggregate(&site.name)
                .ok_or_else(|| ExecError::UnknownBuiltin(site.name.clone()))?;
            let planned = shared.planned.get(&site.name).ok_or_else(|| {
                ExecError::Internal(format!(
                    "aggregate `{}` missing from the plan cache",
                    site.name
                ))
            })?;
            Ok(ResolvedAgg {
                def,
                planned,
                params: param_slots(&def.params),
                probes: 0,
                scans: 0,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    // Missing names only error if an instruction actually reads them —
    // exactly when a lazy per-probe lookup would.
    let consts: Vec<Option<&Value>> = compiled
        .const_names
        .iter()
        .map(|n| shared.constants.get(n))
        .collect();

    let mut vm = Vm {
        regs: vec![ScriptValue::Scalar(Value::Int(0)); compiled.num_regs],
        field_cache: vec![usize::MAX; compiled.num_field_caches],
        site_logs: vec![Vec::new(); compiled.perform_sites.len()],
        perform_params: compiled
            .perform_sites
            .iter()
            .map(|s| param_slots(&s.params))
            .collect(),
        flat: Vec::new(),
        candidates: Vec::new(),
    };
    let schema = shared.table.schema();
    for &row in acting_rows {
        let unit = shared.table.row(row as usize);
        let ctx = EvalContext::new(schema, unit, shared.rng, shared.constants);
        vm.run_unit(shared, state, compiled, &mut aggs, &consts, &ctx)?;
    }
    for site in &aggs {
        state.stats.aggregate_probes += site.probes as usize;
        state.stats.naive_scans += site.scans as usize;
        state.obs.record_probes(&site.def.name, site.probes);
        state
            .obs
            .record_served_n(&site.def.name, PhysicalBackend::Scan, site.scans);
    }
    // Site-major replay = statement-major emission order.
    for log in vm.site_logs {
        for (key, attr, value) in log {
            state.effects.emit(key, attr, value)?;
        }
    }
    Ok(())
}

impl Vm {
    #[allow(clippy::too_many_arguments)]
    fn run_unit(
        &mut self,
        shared: &TickShared<'_>,
        state: &mut ShardState<'_>,
        compiled: &CompiledScript,
        aggs: &mut [ResolvedAgg<'_>],
        consts: &[Option<&Value>],
        ctx: &EvalContext<'_>,
    ) -> Result<()> {
        let mut pc = 0usize;
        loop {
            match &compiled.instrs[pc] {
                Instr::Const { dst, idx } => {
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(compiled.consts[*idx as usize].clone());
                }
                Instr::NamedConst { dst, idx } => {
                    let v = consts[*idx as usize].ok_or_else(|| {
                        ExecError::Lang(sgl_lang::LangError::Unresolved(
                            compiled.const_names[*idx as usize].clone(),
                        ))
                    })?;
                    self.regs[*dst as usize] = ScriptValue::Scalar(v.clone());
                }
                Instr::UnitAttr { dst, attr } => {
                    self.regs[*dst as usize] = ScriptValue::Scalar(ctx.unit.get(*attr).clone());
                }
                Instr::UnitKey { dst } => {
                    self.regs[*dst as usize] = ScriptValue::Scalar(Value::Int(ctx.unit_key));
                }
                Instr::Random { dst, seed } => {
                    let i = self.regs[*seed as usize].as_scalar()?.as_i64()?;
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(Value::Int(ctx.rng.value(ctx.unit_key, i)));
                }
                Instr::Bin { dst, op, a, b } => {
                    self.regs[*dst as usize] = ScriptValue::zip_binop(
                        *op,
                        &self.regs[*a as usize],
                        &self.regs[*b as usize],
                    )?;
                }
                Instr::Neg { dst, src } => {
                    let v = match &self.regs[*src as usize] {
                        ScriptValue::Scalar(v) => ScriptValue::Scalar(v.neg()?),
                        ScriptValue::Record(fields) => ScriptValue::Record(
                            fields
                                .iter()
                                .map(|(n, v)| Ok((n.clone(), v.neg()?)))
                                .collect::<Result<Vec<_>>>()?,
                        ),
                    };
                    self.regs[*dst as usize] = v;
                }
                Instr::Abs { dst, src } => {
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(self.regs[*src as usize].as_scalar()?.abs()?);
                }
                Instr::Sqrt { dst, src } => {
                    self.regs[*dst as usize] =
                        ScriptValue::Scalar(self.regs[*src as usize].as_scalar()?.sqrt()?);
                }
                Instr::Field {
                    dst,
                    src,
                    field,
                    cache,
                } => {
                    let name = &compiled.field_names[*field as usize];
                    let slot = &mut self.field_cache[*cache as usize];
                    let value = {
                        let v = &self.regs[*src as usize];
                        match v {
                            ScriptValue::Record(fields) => match fields.get(*slot) {
                                Some((n, val)) if n == name => val.clone(),
                                _ => {
                                    let val = v.field(name)?.clone();
                                    if let Some(pos) = fields.iter().position(|(n, _)| n == name) {
                                        *slot = pos;
                                    }
                                    val
                                }
                            },
                            // Same error as the oracle's `v.field(..)`.
                            ScriptValue::Scalar(_) => v.field(name)?.clone(),
                        }
                    };
                    self.regs[*dst as usize] = ScriptValue::Scalar(value);
                }
                Instr::Tuple { dst, items } => {
                    let mut fields = Vec::with_capacity(items.len());
                    for (i, r) in items.iter().enumerate() {
                        fields.push((
                            compiled.placeholder_names[i].clone(),
                            self.regs[*r as usize].as_scalar()?.clone(),
                        ));
                    }
                    self.regs[*dst as usize] = ScriptValue::Record(fields);
                }
                Instr::CallAgg { dst, site } => {
                    let v =
                        self.call_aggregate(shared, state, compiled, aggs, *site as usize, ctx)?;
                    self.regs[*dst as usize] = v;
                }
                Instr::Perform { site } => {
                    self.perform(shared, state, compiled, *site as usize, ctx)?;
                }
                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Instr::Branch {
                    op,
                    a,
                    b,
                    if_true,
                    if_false,
                } => {
                    let l = self.regs[*a as usize].as_scalar()?;
                    let r = self.regs[*b as usize].as_scalar()?;
                    let take = match op {
                        CmpOp::Eq => l.loose_eq(r),
                        CmpOp::Ne => !l.loose_eq(r),
                        _ => l.partial_compare(r)?.is_some_and(|ord| op.holds(ord)),
                    };
                    pc = if take { *if_true } else { *if_false } as usize;
                    continue;
                }
                Instr::Return => return Ok(()),
            }
            pc += 1;
        }
    }

    /// One aggregate probe (index cache → scan fallback) with the definition
    /// and plan pre-resolved and the parameter map reused.
    #[allow(clippy::too_many_arguments)]
    fn call_aggregate(
        &mut self,
        shared: &TickShared<'_>,
        state: &mut ShardState<'_>,
        compiled: &CompiledScript,
        aggs: &mut [ResolvedAgg<'_>],
        site_idx: usize,
        ctx: &EvalContext<'_>,
    ) -> Result<ScriptValue> {
        let site = &compiled.agg_sites[site_idx];
        let resolved = &mut aggs[site_idx];
        resolved.probes += 1;
        rebind_params(
            &resolved.def.name,
            &resolved.def.params,
            &site.args,
            &self.regs,
            &mut self.flat,
            &mut resolved.params,
        )?;
        // Lend the site's reusable parameter map to a closed probe context
        // (see `TickIndexes::evaluate`); it is handed back below.  An early
        // `?` abandons it, which is fine — the run is discarded on error.
        let probe_ctx = EvalContext {
            schema: ctx.schema,
            unit: ctx.unit,
            unit_key: ctx.unit_key,
            row: None,
            rng: ctx.rng,
            constants: ctx.constants,
            bindings: std::mem::take(&mut resolved.params),
        };
        let via_index = match state.cache.as_mut() {
            Some(cache) => cache.evaluate(resolved.planned, &probe_ctx)?,
            None => None,
        };
        let result = match via_index {
            Some(v) => v,
            None => {
                resolved.scans += 1;
                eval_aggregate_scan(resolved.def, &probe_ctx.bindings, ctx, shared.table)?
            }
        };
        resolved.params = probe_ctx.bindings;
        Ok(result)
    }

    /// One perform-site execution for one unit, with the filter analysis and
    /// effect attribute ids pre-computed, buffering emissions into the site's
    /// log.  The clause
    /// loop reuses one evaluation context, flipping its candidate row in
    /// place instead of cloning the bindings per target.
    fn perform(
        &mut self,
        shared: &TickShared<'_>,
        state: &mut ShardState<'_>,
        compiled: &CompiledScript,
        site_idx: usize,
        ctx: &EvalContext<'_>,
    ) -> Result<()> {
        let site = &compiled.perform_sites[site_idx];
        state.stats.acting_units += 1;
        rebind_params(
            &site.name,
            &site.params,
            &site.args,
            &self.regs,
            &mut self.flat,
            &mut self.perform_params[site_idx],
        )?;
        let mut full_ctx = EvalContext::new(ctx.schema, ctx.unit, ctx.rng, ctx.constants);
        // The map is moved into the context for the clause loop and moved
        // back below; an early `?` return abandons it, which is fine — the
        // whole run (and this `Vm`) is discarded when a tick errors.
        full_ctx.bindings = std::mem::take(&mut self.perform_params[site_idx]);
        let schema = shared.table.schema();
        let mut no_aggs = NoAggregates;

        for clause in &site.clauses {
            full_ctx.row = None;
            let analysis = &clause.analysis;
            self.candidates.clear();
            if let Some(key_term) = &analysis.key_eq {
                // Targeted effect: O(1) key look-up.
                let key = eval_term(key_term, &full_ctx, &mut no_aggs)?
                    .as_scalar()?
                    .as_i64()?;
                if let Some(idx) = shared.table.find_key_readonly(key) {
                    self.candidates.push(idx as u32);
                }
            } else if analysis.conjunctive {
                if let (Some(x_lo), Some(x_hi), Some(y_lo), Some(y_hi)) = (
                    &analysis.x_lo,
                    &analysis.x_hi,
                    &analysis.y_lo,
                    &analysis.y_hi,
                ) {
                    // Area-of-effect: enumerate through the spatial index.
                    let lo_x = eval_term(x_lo, &full_ctx, &mut no_aggs)?
                        .as_scalar()?
                        .as_f64()?;
                    let hi_x = eval_term(x_hi, &full_ctx, &mut no_aggs)?
                        .as_scalar()?
                        .as_f64()?;
                    let lo_y = eval_term(y_lo, &full_ctx, &mut no_aggs)?
                        .as_scalar()?
                        .as_f64()?;
                    let hi_y = eval_term(y_hi, &full_ctx, &mut no_aggs)?
                        .as_scalar()?
                        .as_f64()?;
                    let rect = sgl_index::Rect::new(lo_x, hi_x, lo_y, hi_y);
                    match state.cache.as_mut() {
                        Some(cache) => {
                            let fps = cache.partition_fps_for(&[])?;
                            for fp in fps {
                                self.candidates.extend(cache.enum_query(&[], fp, &rect)?);
                            }
                        }
                        None => self.candidates.extend(0..shared.table.len() as u32),
                    }
                } else {
                    self.candidates.extend(0..shared.table.len() as u32);
                }
            } else {
                self.candidates.extend(0..shared.table.len() as u32);
            }

            let log = &mut self.site_logs[site_idx];
            for &target in &self.candidates {
                let target_row = shared.table.row(target as usize);
                full_ctx.row = Some(target_row);
                if !eval_cond(&clause.filter, &full_ctx, &mut no_aggs)? {
                    continue;
                }
                let target_key = target_row.key(schema);
                for (attr, _attr_name, term) in &clause.effects {
                    let value = eval_term(term, &full_ctx, &mut no_aggs)?
                        .as_scalar()?
                        .clone();
                    log.push((target_key, *attr, value));
                }
            }
        }
        self.perform_params[site_idx] = std::mem::take(&mut full_ctx.bindings);
        Ok(())
    }
}
