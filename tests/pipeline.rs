//! Integration tests of the compile pipeline and the paper's running example
//! (Figure 3) end to end.

use std::sync::Arc;

use sgl::algebra::OptimizerOptions;
use sgl::battle::{battle_registry, battle_schema};
use sgl::engine::{Mechanics, UnitSelector};
use sgl::env::postprocess::paper_postprocessor;
use sgl::env::{schema::paper_schema, EnvTable, TupleBuilder};
use sgl::exec::ExecConfig;
use sgl::lang::builtins::paper_registry;
use sgl::{compile_script, compile_script_with, GameBuilder};

const FIGURE_3: &str = r#"
main(u) {
  (let c = CountEnemiesInRange(u, 12))
  (let away_vector = (u.posx, u.posy) - CentroidOfEnemyUnits(u, 12)) {
    if (c > 4) then
      perform MoveInDirection(u, u.posx + away_vector.x, u.posy + away_vector.y);
    else if (c > 0 and u.cooldown = 0) then
      (let target_key = getNearestEnemy(u).key) {
        perform FireAt(u, target_key);
      }
  }
}
"#;

#[test]
fn figure_three_compiles_and_optimization_shrinks_the_plan() {
    let schema = paper_schema();
    let registry = paper_registry();
    let optimized = compile_script("fig3", FIGURE_3, &schema, &registry).unwrap();
    let unoptimized = compile_script_with(
        "fig3",
        FIGURE_3,
        &schema,
        &registry,
        OptimizerOptions::none(),
    )
    .unwrap();
    assert!(
        optimized.optimized.after.aggregate_nodes < unoptimized.optimized.after.aggregate_nodes
    );
    assert_eq!(optimized.optimized.after.distinct_aggregates, 3);
    assert_eq!(optimized.check.aggregate_calls, 3);
    assert_eq!(optimized.check.performs, 2);
}

#[test]
fn figure_three_runs_and_units_react_to_enemies() {
    let schema = paper_schema().into_shared();
    let registry = paper_registry();
    let mut table = EnvTable::new(Arc::clone(&schema));
    // A lone unit of player 0 surrounded by six enemies: it should flee
    // (count 6 > 4), moving away from the enemy centroid.
    let mut insert = |key: i64, player: i64, x: f64, y: f64| {
        let t = TupleBuilder::new(&schema)
            .set("key", key)
            .unwrap()
            .set("player", player)
            .unwrap()
            .set("posx", x)
            .unwrap()
            .set("posy", y)
            .unwrap()
            .set("health", 20i64)
            .unwrap()
            .build();
        table.insert(t).unwrap();
    };
    insert(0, 0, 20.0, 20.0);
    for (i, (dx, dy)) in [
        (4.0, 0.0),
        (4.0, 2.0),
        (4.0, -2.0),
        (5.0, 1.0),
        (5.0, -1.0),
        (6.0, 0.0),
    ]
    .iter()
    .enumerate()
    {
        insert(i as i64 + 1, 1, 20.0 + dx, 20.0 + dy);
    }
    let mechanics = Mechanics {
        post: paper_postprocessor(&schema, 2.0, 2).unwrap(),
        movement: None,
        resurrect: None,
    };
    let mut sim = GameBuilder::new(Arc::clone(&schema), registry, mechanics)
        .exec_config(ExecConfig::indexed(&schema))
        .seed(1)
        .script("fig3", FIGURE_3, UnitSelector::All)
        .build(table)
        .unwrap();
    sim.step().unwrap();
    let posx = schema.attr_id("posx").unwrap();
    let idx = sim.table().find_key_readonly(0).unwrap();
    let x = sim.table().row(idx).get_f64(posx).unwrap();
    // The enemies are all to the right (larger x), so fleeing means moving to
    // smaller x; the post-processing step caps the move at 2 world units.
    assert!(
        x < 20.0,
        "unit should flee away from the enemy centroid, got x = {x}"
    );
    assert!(x >= 18.0 - 1e-9);
}

#[test]
fn battle_scripts_compile_against_the_battle_registry() {
    let schema = battle_schema();
    let registry = battle_registry();
    for (name, source) in [
        ("knight", sgl::battle::KNIGHT_SCRIPT),
        ("archer", sgl::battle::ARCHER_SCRIPT),
        ("healer", sgl::battle::HEALER_SCRIPT),
    ] {
        let compiled = compile_script(name, source, &schema, &registry).unwrap();
        assert!(compiled.check.aggregate_calls >= 4, "{name}");
        // Optimization never *adds* aggregate work.
        assert!(
            compiled.optimized.after.aggregate_nodes <= compiled.optimized.before.aggregate_nodes
        );
    }
}

#[test]
fn compile_rejects_unknown_builtins_and_attributes() {
    let schema = paper_schema();
    let registry = paper_registry();
    assert!(compile_script(
        "bad",
        "main(u) { perform CastFireball(u); }",
        &schema,
        &registry
    )
    .is_err());
    assert!(compile_script(
        "bad",
        "main(u) { if u.mana > 1 then perform Heal(u); }",
        &schema,
        &registry
    )
    .is_err());
    assert!(compile_script(
        "bad",
        "main(u) { (let x = Count(u)) perform Heal(u); }",
        &schema,
        &registry
    )
    .is_err());
}

/// A script at the parser's nesting budget (nested blocks around a nested
/// term, and a long `not` chain) runs through every later pass — normalize,
/// optimize, compile, the oracle, the VM, explain and the pretty-printer —
/// without exhausting the stack, in debug builds too.
#[test]
fn scripts_at_the_nesting_budget_run_through_every_pass() {
    use sgl::battle::{BattleScenario, ScenarioConfig};
    use sgl::lang::parser::MAX_NESTING;
    let n = (MAX_NESTING - 8) / 2;
    let term = format!("{}u.posx{}", "(".repeat(n), " + 1)".repeat(n));
    let perform = format!("perform MoveInDirection(u, {term}, u.posy);");
    let blocks = format!("{}{perform}{}", "{".repeat(n), "}".repeat(n));
    let conds = format!("{}u.health > 0", "not ".repeat(2 * n));
    let src = format!("main(u) {{ if {conds} then {blocks} }}");
    let script = sgl::lang::parse_script(&src).expect("within the budget");
    assert!(!sgl::lang::pretty::script_to_string(&script).is_empty());
    let scen = BattleScenario::generate(ScenarioConfig {
        units: 20,
        ..Default::default()
    });
    for config in [
        ExecConfig::oracle(&scen.schema),
        ExecConfig::indexed(&scen.schema),
    ] {
        let mut sim = scen.build_with_config(config);
        sim.clear_scripts();
        let normal = sgl::lang::normalize(&script, sim.registry()).unwrap();
        let plan = sgl::algebra::optimize(sgl::algebra::translate(&normal), sim.registry()).plan;
        sim.add_script("deep", plan, normal, UnitSelector::All)
            .unwrap();
        sim.run(2).unwrap();
        assert!(sim.explain().contains("deep"));
    }
}
