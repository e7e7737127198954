//! The three workloads: roster, world size and density, plus the pinned
//! engine configuration and the public calls that build a simulation.

use std::sync::Arc;

use sgl_battle::{
    battle_mechanics, battle_registry, BattleScenario, ScenarioConfig, UnitKind, ARCHER_SCRIPT,
    HEALER_SCRIPT, KNIGHT_SCRIPT,
};
use sgl_core::engine::{Simulation, UnitSelector};
use sgl_core::env::{Schema, Value};
use sgl_core::exec::{ExecConfig, ExecMode, Parallelism, PlannerMode};
use sgl_core::GameBuilder;

/// Which scripts the units run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// The paper's §6 knight / archer / healer scripts.
    Battle,
    /// Stationary watchtowers with wide standing sight queries.
    Sentry,
    /// A flocking rule of about 24 scalar `let`s per unit.
    Steering,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Scripts the units run.
    pub roster: Roster,
    /// Units in the timed world.
    pub units: usize,
    /// Occupied share of grid squares.
    pub density: f64,
    /// About the ticks/s of the timed world on a 2-core x86-64 container.
    /// A run times `--seconds` × this many ticks (at least 100), so that
    /// its work is fixed by its arguments rather than by the machine's speed.
    pub nominal_tps: u64,
}

/// Every workload. Why each exists is in the package README.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "battle",
        roster: Roster::Battle,
        units: 8000,
        density: 0.01,
        nominal_tps: 5,
    },
    Workload {
        name: "garrison",
        roster: Roster::Sentry,
        units: 6400,
        density: 0.0005,
        nominal_tps: 9,
    },
    Workload {
        name: "steering",
        roster: Roster::Steering,
        units: 4000,
        density: 0.01,
        nominal_tps: 13,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The seeded scenario of `units` units of a workload; dead units are
/// resurrected, so the population stays constant.
pub fn scenario_config(workload: &Workload, units: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        units,
        density: workload.density,
        seed,
        resurrect: true,
        ..ScenarioConfig::default()
    }
}

/// The configuration every timing runs under: the cost-based planner on the
/// bytecode VM, serial. Mode and parallelism are set explicitly so that
/// `SGL_EXEC_MODE` and `SGL_PARALLELISM` cannot change the numbers.
pub fn bench_config(schema: &Schema) -> ExecConfig {
    ExecConfig::cost_based(schema)
        .with_mode(ExecMode::Compiled)
        .with_parallelism(Parallelism::Off)
}

/// Ticks run before timing: through the planner's first re-cost at the end
/// of its first window, plus one tick to fill materialized answers and one
/// to serve from them.
pub fn warmup_ticks(config: &ExecConfig) -> usize {
    match config.planner {
        PlannerMode::CostBased(window) => window.ticks as usize + 2,
        _ => 2,
    }
}

/// Sight-query watchtowers: stationary, acting only when an enemy is in
/// weapon reach. Same text as the sentry roster of the `perf` scenarios,
/// kept here so that a change to `perf` leaves this benchmark's workloads
/// as they are.
pub const SENTRY_SCRIPT: &str = r#"
main(u) {
  (let visible = CountEnemiesInRange(u, u.sight * 50))
  (let threat = EnemyStrengthInRange(u, u.sight * 50))
  (let backup = CountAlliesInRange(u, u.sight * 50))
  (let ec = CentroidOfEnemies(u, u.sight * 50))
  (let wounded = MissingAllyHealthInRange(u, u.sight * 50))
  (let in_reach = CountEnemiesInRange(u, u.range)) {
    if visible > 0 and in_reach > 0 and u.cooldown = 0 and threat + u.morale + ec.x * 0.001 + wounded > backup then
      perform FireAt(u, getNearestEnemy(u).key);
  }
}
"#;

/// Damped flocking: scalar arithmetic over `let`s dominates the per-unit
/// cost. Same text as the steering roster of the `perf` scenarios.
pub const STEERING_SCRIPT: &str = r#"
main(u) {
  (let visible = CountEnemiesInRange(u, u.sight))
  (let in_reach = CountEnemiesInRange(u, u.range))
  (let ec = CentroidOfEnemies(u, u.sight))
  (let ac = CentroidOfAllies(u, u.sight))
  (let dxe = ec.x - u.posx)
  (let dye = ec.y - u.posy)
  (let de = sqrt(dxe * dxe + dye * dye) + 1.0)
  (let dxa = ac.x - u.posx)
  (let dya = ac.y - u.posy)
  (let da = sqrt(dxa * dxa + dya * dya) + 1.0)
  (let press = (visible * 1.0) / (visible + u.morale + 1))
  (let vitality = u.health / u.max_health)
  (let brave = vitality * (1.0 - press))
  (let fear = 1.0 - brave)
  (let chase_x = brave * dxe / de)
  (let chase_y = brave * dye / de)
  (let flee_x = 0.0 - fear * dxe / de)
  (let flee_y = 0.0 - fear * dye / de)
  (let cohere_x = 0.25 * dxa / da)
  (let cohere_y = 0.25 * dya / da)
  (let jitter = abs(dxe) - abs(dye))
  (let bias = jitter / (abs(jitter) + 8.0))
  (let sx = chase_x + flee_x + cohere_x + 0.05 * bias)
  (let sy = chase_y + flee_y + cohere_y - 0.05 * bias)
  (let mag = sqrt(sx * sx + sy * sy) + 0.001)
  (let step_x = 3.0 * sx / mag)
  (let step_y = 3.0 * sy / mag) {
    if in_reach > 0 and u.cooldown = 0 then
      perform Strike(u, getNearestEnemy(u).key);
    else
      perform MoveInDirection(u, u.posx + step_x, u.posy + step_y);
  }
}
"#;

impl Roster {
    /// `(name, source, selector)` of every script the roster registers.
    pub fn scripts(self, schema: &Schema) -> Vec<(&'static str, &'static str, UnitSelector)> {
        match self {
            Roster::Battle => {
                let unittype = schema.attr_id("unittype").expect("battle schema");
                let of =
                    |kind: UnitKind| UnitSelector::AttrEquals(unittype, Value::Int(kind.code()));
                vec![
                    ("knight", KNIGHT_SCRIPT, of(UnitKind::Knight)),
                    ("archer", ARCHER_SCRIPT, of(UnitKind::Archer)),
                    ("healer", HEALER_SCRIPT, of(UnitKind::Healer)),
                ]
            }
            Roster::Sentry => vec![("sentry", SENTRY_SCRIPT, UnitSelector::All)],
            Roster::Steering => vec![("steering", STEERING_SCRIPT, UnitSelector::All)],
        }
    }
}

/// Compile the roster through `GameBuilder::build` over a copy of the
/// scenario's initial table.
pub fn build(
    roster: Roster,
    scenario: &BattleScenario,
    config: ExecConfig,
) -> Result<Simulation, String> {
    let mut builder = GameBuilder::new(
        Arc::clone(&scenario.schema),
        battle_registry(),
        battle_mechanics(
            &scenario.schema,
            scenario.world_side,
            scenario.config.resurrect,
        ),
    )
    .exec_config(config)
    .seed(scenario.config.seed);
    for (name, source, selector) in roster.scripts(&scenario.schema) {
        builder = builder.script(name, source, selector);
    }
    builder
        .build(scenario.table.clone())
        .map_err(|e| format!("roster does not compile: {e}"))
}
