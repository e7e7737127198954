//! # sgl-algebra — bag algebra, translation and query optimization for SGL
//!
//! This crate implements §5.1–5.2 of *Scaling Games to Epic Proportions*:
//!
//! * [`plan`] — a bag algebra over extended environment relations with the
//!   combination operator `⊕` ([`plan::LogicalPlan`]);
//! * [`mod@translate`] — the compositional translation from normalised SGL
//!   scripts to plans (`[[f1; f2]]⊕`, `[[if φ then f]]⊕`, `[[let]]⊕`, Eq. (6));
//! * [`rules`] — the rewrite rules of Figure 7 / Example 5.1: dead-column
//!   elimination, extension pull-up past selections, `⊕` flattening and
//!   elimination of the final `⊕ E`;
//! * [`optimizer`] — the rule driver, plan statistics and a simple cost model
//!   comparing naive and index-based evaluation;
//! * [`mod@explain`] — Figure-6-style rendering of plans, optionally
//!   annotated with the physical choices of the cost-based planner;
//! * [`mod@cost`] — the physical cost model pricing scan / layered-tree /
//!   quadtree / maintained-grid / sweep / kD alternatives per aggregate call
//!   site from runtime statistics.
//!
//! The physical counterpart (per-aggregate index selection, bytecode
//! lowering and evaluation) lives in `sgl-exec`.

#![warn(missing_docs)]

pub mod cost;
pub mod explain;
pub mod optimizer;
pub mod plan;
pub mod rules;
pub mod translate;

pub use cost::{
    best_alternative, price_alternatives, CallSiteInputs, CostConstants, CostedAlternative,
    MaintenanceChoice, PhysicalBackend, StrategyClass,
};
pub use explain::{explain, explain_optimized, explain_with_costs, CostAnnotation};
pub use optimizer::{
    estimate_cost, optimize, optimize_with, plan_stats, CostEstimate, Optimized, OptimizerOptions,
    PlanStats,
};
pub use plan::LogicalPlan;
pub use rules::RuleKind;
pub use translate::{translate, translate_action};

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parser::parse_script;

    #[test]
    fn end_to_end_compile_to_optimized_plan() {
        let registry = paper_registry();
        let script = parse_script(
            "main(u) { (let c = CountEnemiesInRange(u, 8)) if c > 2 then perform Heal(u); }",
        )
        .unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let optimized = optimize(translate(&normal), &registry);
        assert_eq!(optimized.after.distinct_aggregates, 1);
        assert!(explain(&optimized.plan).contains("Heal"));
    }
}
