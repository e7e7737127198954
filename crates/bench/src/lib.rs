//! The deterministic perf suite behind the CI perf job, and the cost-model
//! calibration of the index structures.
//!
//! Three pieces:
//!
//! * [`run_perf_suite`] — engine-level scenarios at fixed seeds, timed with
//!   the engine's own [`PhaseTimings`] (wall clock per phase) and
//!   summarised per scenario as
//!   `{ticks/sec, per-phase µs, chosen backends}` — the one machine-readable
//!   format the CI perf gate and the committed `BENCH_*.json` trajectory
//!   share;
//! * [`report_to_json`] / [`parse_report`] / [`compare_reports`] — the JSON
//!   round trip and the ≤`max_regression` gate against a baseline committed
//!   in-repo.  Wall clock does not transfer between machines, so the gate
//!   compares each scenario's throughput *relative to the suite's anchor
//!   scenario measured in the same run* — machine speed cancels;
//! * [`calibrate_cost_constants`] — micro-measurements of the real index
//!   structures producing the [`CostConstants`] the cost-based planner
//!   prices with (the checked-in defaults come from this function).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use sgl_battle::{BattleScenario, ScenarioConfig};
use sgl_core::algebra::cost::CostConstants;
use sgl_core::engine::{PhaseTimings, Simulation};
use sgl_core::exec::{ExecConfig, MaintenanceChoice, PhysicalBackend, PlannerMode};
use sgl_index::agg_tree::{AggEntry, LayeredAggTree};
use sgl_index::grid::DynamicAggGrid;
use sgl_index::kdtree::KdTree;
use sgl_index::quadtree::AggQuadTree;
use sgl_index::traits::{AggIndex, DeltaCostClass, IndexDelta, IndexRow};
use sgl_index::{Point2, Rect};

// ---------------------------------------------------------------------------
// Perf suite
// ---------------------------------------------------------------------------

/// The scenario every other measurement is normalised against (machine
/// speed cancels in the ratio).
pub const ANCHOR_SCENARIO: &str = "naive_150";

/// Mean per-tick wall-clock microseconds per engine phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseMicros {
    /// Decision/action phases (incl. per-tick index building).
    pub exec: f64,
    /// Post-processing.
    pub post: f64,
    /// Movement.
    pub movement: f64,
    /// Resurrection rule.
    pub resurrect: f64,
    /// Cross-tick index maintenance.
    pub maintain: f64,
}

impl PhaseMicros {
    fn from_timings(total: &PhaseTimings, ticks: usize) -> PhaseMicros {
        let per = |d: std::time::Duration| d.as_secs_f64() * 1e6 / ticks.max(1) as f64;
        PhaseMicros {
            exec: per(total.exec),
            post: per(total.post),
            movement: per(total.movement),
            resurrect: per(total.resurrect),
            maintain: per(total.maintain),
        }
    }
}

/// Mean page allocations (fresh pages + spill fault-ins) per tick, per
/// engine phase — the bench-report mirror of the engine's `PhaseAllocs`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseAllocRates {
    /// Tick-start fault-in of pages evicted by the previous tick.
    pub fault_in: f64,
    /// Decision/action phases.
    pub exec: f64,
    /// Post-processing.
    pub post: f64,
    /// Movement.
    pub movement: f64,
    /// Resurrection rule.
    pub resurrect: f64,
    /// Cross-tick index maintenance.
    pub maintain: f64,
}

/// Memory footprint of one scenario's environment table.  Unlike wall
/// clock, every field is deterministic — the simulated battles are seeded —
/// so these numbers transfer between machines exactly and the footprint
/// gate can compare them without anchor normalisation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryMetrics {
    /// Resident heap bytes per row at the end of the measured run.
    pub bytes_per_row: f64,
    /// High-water mark of resident pages over the run.
    pub peak_resident_pages: f64,
    /// Resident heap bytes at the end of the run.
    pub resident_bytes: f64,
    /// Mean page allocations per tick, split by phase.
    pub allocs_per_tick: PhaseAllocRates,
}

/// One scenario's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfScenarioResult {
    /// Units simulated.
    pub units: usize,
    /// Ticks simulated (after warmup).
    pub ticks: usize,
    /// Simulated ticks per wall-clock second.
    pub ticks_per_sec: f64,
    /// Throughput relative to the anchor scenario of the same run.
    pub relative: f64,
    /// Mean per-tick phase timings.
    pub phase_us: PhaseMicros,
    /// Memory footprint of the environment table.  `None` when parsed from
    /// a baseline written before the columnar storage layer (schema ≤
    /// BENCH_8); the footprint gate skips such scenarios.
    pub memory: Option<MemoryMetrics>,
    /// Chosen physical backend per aggregate call site, as
    /// `backend/maintenance` labels (the executed configuration; under the
    /// cost-based planner this is what the cost model selected).
    pub backends: BTreeMap<String, String>,
}

/// The whole suite's measurements (scenario name → result, sorted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Name of the scenario the `relative` values are normalised against.
    /// Relatives from reports with different anchors are incomparable; the
    /// gate refuses to compare them.
    pub anchor: String,
    /// Per-scenario results.
    pub scenarios: BTreeMap<String, PerfScenarioResult>,
    /// Scenario names enforced by the regression gate.
    pub tracked: Vec<String>,
}

/// Which script roster a perf scenario registers.
#[derive(Clone, Copy, PartialEq)]
enum ScriptRoster {
    /// The knight/archer/healer battle scripts (aggregate-probe heavy).
    BattleDefault,
    /// One steering script for every unit (scalar-arithmetic heavy — the
    /// workload class the register bytecode accelerates most).
    Steering,
    /// One sentry script for every unit: stationary units probing fixed
    /// sight rectangles, acting only when an enemy wanders into reach.
    /// Near-zero churn — the workload class materialized answers serve.
    Sentry,
}

struct ScenarioSpec {
    name: &'static str,
    units: usize,
    density: f64,
    ticks: usize,
    tracked: bool,
    config: fn(&BattleScenario) -> ExecConfig,
    roster: ScriptRoster,
}

/// SGL source of the steering script: a damped flocking rule — blend
/// attraction to the enemy centroid with cohesion toward allies, scaled by
/// health-derived bravery, then normalise the step vector.  Most of its
/// per-unit cost is scalar arithmetic over `let` bindings rather than
/// aggregate probes, so it isolates the script-evaluation overhead the
/// bytecode VM removes.
const STEERING_SCRIPT: &str = r#"
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

/// Build a simulation running [`STEERING_SCRIPT`] on every unit of a
/// generated battle (same schema, mechanics and seed as the default roster).
fn build_steering(scenario: &BattleScenario, exec: ExecConfig) -> Simulation {
    use sgl_core::engine::UnitSelector;
    sgl_core::GameBuilder::new(
        std::sync::Arc::clone(&scenario.schema),
        sgl_battle::battle_registry(),
        sgl_battle::battle_mechanics(
            &scenario.schema,
            scenario.world_side,
            scenario.config.resurrect,
        ),
    )
    .exec_config(exec)
    .seed(scenario.config.seed)
    .script("steering", STEERING_SCRIPT, UnitSelector::All)
    .build(scenario.table.clone())
    .expect("steering script compiles")
}

/// SGL source of the sentry script: a garrison of long-range watchtowers
/// that never move.  Each unit keeps three *wide* standing subscriptions
/// (many grid cells per probe — the regime where a maintained structure
/// still pays per-cell fold cost on every evaluation) plus one short-range
/// trigger, and acts only when an enemy is inside weapon reach.  The
/// subscription rectangles are position-derived and positions never
/// change, so the questions repeat verbatim tick after tick; in a sparse
/// world almost no tick writes a row.  This is the low-churn regime where
/// holding materialized answers must beat incremental index maintenance.
const SENTRY_SCRIPT: &str = r#"
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

/// Build a simulation running [`SENTRY_SCRIPT`] on every unit of a
/// generated battle (same schema, mechanics and seed as the default roster).
fn build_sentry(scenario: &BattleScenario, exec: ExecConfig) -> Simulation {
    use sgl_core::engine::UnitSelector;
    sgl_core::GameBuilder::new(
        std::sync::Arc::clone(&scenario.schema),
        sgl_battle::battle_registry(),
        sgl_battle::battle_mechanics(
            &scenario.schema,
            scenario.world_side,
            scenario.config.resurrect,
        ),
    )
    .exec_config(exec)
    .seed(scenario.config.seed)
    .script("sentry", SENTRY_SCRIPT, UnitSelector::All)
    .build(scenario.table.clone())
    .expect("sentry script compiles")
}

/// The scenario configuration pinning `backend`, incrementally maintained
/// (the `incremental` and `materialized` scenario families).
fn pinned(s: &BattleScenario, backend: PhysicalBackend) -> ExecConfig {
    ExecConfig::indexed(&s.schema)
        .with_planner(PlannerMode::Pin(backend, MaintenanceChoice::Incremental))
}

/// The fixed scenario list: one naive anchor, the tracked bytecode-VM
/// configurations, and a materialized-answer twin for three of them.
/// Everything is seeded; the simulated battles are bit-reproducible, only
/// the wall clock varies.
fn scenario_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: ANCHOR_SCENARIO,
            units: 150,
            density: 0.01,
            ticks: 10,
            tracked: false,
            roster: ScriptRoster::BattleDefault,
            config: |s| ExecConfig::naive(&s.schema),
        },
        ScenarioSpec {
            name: "compiled_rebuild_400",
            units: 400,
            density: 0.01,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::BattleDefault,
            config: |s| ExecConfig::indexed(&s.schema),
        },
        ScenarioSpec {
            name: "compiled_incremental_400",
            units: 400,
            density: 0.01,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::BattleDefault,
            config: |s| pinned(s, PhysicalBackend::MaintainedGrid),
        },
        ScenarioSpec {
            name: "compiled_sparse_800",
            units: 800,
            density: 0.0005,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::BattleDefault,
            config: |s| pinned(s, PhysicalBackend::MaintainedGrid),
        },
        ScenarioSpec {
            name: "compiled_steering_600",
            units: 600,
            density: 0.01,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::Steering,
            config: |s| pinned(s, PhysicalBackend::MaintainedGrid),
        },
        ScenarioSpec {
            name: "compiled_costbased_400",
            units: 400,
            density: 0.01,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::BattleDefault,
            config: |s| ExecConfig::cost_based(&s.schema).with_planner(PlannerMode::cost_based(4)),
        },
        // Materialized-answer twins: the same worlds as the incremental
        // scenarios above, but every legal call site holds its folded
        // answer and patches it from the tick's delta stream.  The battle
        // rosters move every unit every tick, so each probe's subscription
        // rectangle changes and every answer misses — these two twins
        // document the churn penalty in the report (tracked, not gated).
        // The calm pair below is the gated low-churn case.
        ScenarioSpec {
            name: "materialized_sparse_800",
            units: 800,
            density: 0.0005,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::BattleDefault,
            config: |s| pinned(s, PhysicalBackend::Materialized),
        },
        ScenarioSpec {
            name: "materialized_incremental_400",
            units: 400,
            density: 0.01,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::BattleDefault,
            config: |s| pinned(s, PhysicalBackend::Materialized),
        },
        // The low-churn pair the materialized gate enforces: a stationary
        // sentry garrison in a sparse world.  Subscription rectangles never
        // move and almost no tick writes a row, so the materialized side
        // serves O(1) folded answers while the incremental side re-probes
        // its maintained structures for every call.
        ScenarioSpec {
            name: "compiled_calm_1600",
            units: 1600,
            density: 0.0005,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::Sentry,
            config: |s| pinned(s, PhysicalBackend::MaintainedGrid),
        },
        ScenarioSpec {
            name: "materialized_calm_1600",
            units: 1600,
            density: 0.0005,
            ticks: 25,
            tracked: true,
            roster: ScriptRoster::Sentry,
            config: |s| pinned(s, PhysicalBackend::Materialized),
        },
    ]
}

/// Pair each `materialized_*` scenario with its `compiled_*` incremental
/// twin and return `(pair suffix, materialized ticks/sec ÷ incremental
/// ticks/sec)`.  Both sides of a pair run in the same process, so wall
/// clock cancels.
pub fn materialized_speedups(report: &PerfReport) -> Vec<(String, f64)> {
    report
        .scenarios
        .iter()
        .filter_map(|(name, mat)| {
            let suffix = name.strip_prefix("materialized_")?;
            let twin = report.scenarios.get(&format!("compiled_{suffix}"))?;
            Some((suffix.to_string(), mat.ticks_per_sec / twin.ticks_per_sec))
        })
        .collect()
}

/// The low-churn pair suffixes where holding materialized answers must beat
/// incremental index maintenance (the high-churn pairs are tracked for the
/// trajectory but not gated — the planner is *expected* to walk away from
/// materialization there, which `tests/cost_planner.rs` pins).
pub const MATERIALIZED_LOW_CHURN_SUFFIXES: &[&str] = &["calm_1600"];

/// Gate: every low-churn materialized scenario must beat its incremental
/// twin by at least `min_speedup`.  Returns the violations (empty = pass).
pub fn materialized_gate(report: &PerfReport, min_speedup: f64) -> Vec<String> {
    let speedups = materialized_speedups(report);
    let mut violations = Vec::new();
    for suffix in MATERIALIZED_LOW_CHURN_SUFFIXES {
        match speedups.iter().find(|(s, _)| s == suffix) {
            Some((_, ratio)) if *ratio < min_speedup => violations.push(format!(
                "`materialized_{suffix}` ran at {ratio:.2}× its incremental twin \
                 (gate requires ≥ {min_speedup:.2}×)"
            )),
            Some(_) => {}
            None => violations.push(format!(
                "low-churn pair `{suffix}` missing from the report — the \
                 materialized gate would be vacuous"
            )),
        }
    }
    violations
}

fn run_scenario(spec: &ScenarioSpec) -> PerfScenarioResult {
    let scenario = BattleScenario::generate(ScenarioConfig {
        units: spec.units,
        density: spec.density,
        seed: 20260730,
        ..ScenarioConfig::default()
    });
    let mut sim: Simulation = match spec.roster {
        ScriptRoster::BattleDefault => scenario.build_with_config((spec.config)(&scenario)),
        ScriptRoster::Steering => build_steering(&scenario, (spec.config)(&scenario)),
        ScriptRoster::Sentry => build_sentry(&scenario, (spec.config)(&scenario)),
    };
    // One warmup tick so maintained structures and lazy caches exist before
    // anything is timed.
    sim.step().expect("warmup tick");
    let history_start = sim.history().len();
    let start = Instant::now();
    sim.run(spec.ticks).expect("perf ticks");
    let elapsed = start.elapsed().as_secs_f64();
    let mut totals = PhaseTimings::default();
    let mut allocs = sgl_core::engine::PhaseAllocs::default();
    for report in &sim.history()[history_start..] {
        totals.accumulate(&report.timings);
        allocs.accumulate(&report.allocs);
    }
    let memory = sim
        .history()
        .last()
        .map(|last| {
            let per_tick = |v: u64| v as f64 / spec.ticks.max(1) as f64;
            MemoryMetrics {
                bytes_per_row: last.memory.bytes_per_row,
                peak_resident_pages: last.memory.peak_resident_pages as f64,
                resident_bytes: last.memory.resident_bytes as f64,
                allocs_per_tick: PhaseAllocRates {
                    fault_in: per_tick(allocs.fault_in),
                    exec: per_tick(allocs.exec),
                    post: per_tick(allocs.post),
                    movement: per_tick(allocs.movement),
                    resurrect: per_tick(allocs.resurrect),
                    maintain: per_tick(allocs.maintain),
                },
            }
        })
        .expect("at least the warmup tick ran");
    let backends = sim
        .physical_choices()
        .into_iter()
        .map(|(name, backend, maintenance)| (name, format!("{backend}/{maintenance}")))
        .collect();
    PerfScenarioResult {
        units: spec.units,
        ticks: spec.ticks,
        ticks_per_sec: spec.ticks as f64 / elapsed.max(1e-9),
        relative: 0.0, // filled by the caller once the anchor is known
        phase_us: PhaseMicros::from_timings(&totals, spec.ticks),
        memory: Some(memory),
        backends,
    }
}

/// Run the whole deterministic perf suite.
pub fn run_perf_suite() -> PerfReport {
    let specs = scenario_specs();
    let mut report = PerfReport {
        anchor: ANCHOR_SCENARIO.to_string(),
        ..PerfReport::default()
    };
    for spec in &specs {
        let result = run_scenario(spec);
        if spec.tracked {
            report.tracked.push(spec.name.to_string());
        }
        report.scenarios.insert(spec.name.to_string(), result);
    }
    let anchor = report
        .scenarios
        .get(ANCHOR_SCENARIO)
        .map(|r| r.ticks_per_sec)
        .unwrap_or(1.0)
        .max(1e-9);
    for result in report.scenarios.values_mut() {
        result.relative = result.ticks_per_sec / anchor;
    }
    report
}

/// Gate: every tracked scenario's anchor-relative throughput must be at
/// least `(1 - max_regression)` of the baseline's.  Returns the violations
/// (empty = pass).  Scenarios missing from either side are violations too —
/// silently dropping a tracked scenario must not pass the gate.
pub fn compare_reports(
    current: &PerfReport,
    baseline: &PerfReport,
    max_regression: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.tracked.is_empty() {
        violations.push("baseline tracks no scenarios — the gate would be vacuous".into());
    }
    if current.anchor != baseline.anchor {
        violations.push(format!(
            "anchor mismatch: current run normalises against `{}`, baseline against `{}` — \
             the relatives are incomparable; regenerate the baseline",
            current.anchor, baseline.anchor
        ));
    }
    for name in &baseline.tracked {
        let Some(base) = baseline.scenarios.get(name) else {
            violations.push(format!(
                "tracked scenario `{name}` has no entry in the baseline's scenarios"
            ));
            continue;
        };
        let Some(cur) = current.scenarios.get(name) else {
            violations.push(format!(
                "tracked scenario `{name}` missing from current run"
            ));
            continue;
        };
        let floor = base.relative * (1.0 - max_regression);
        if cur.relative < floor {
            violations.push(format!(
                "`{name}` regressed: relative throughput {:.3} < {:.3} \
                 (baseline {:.3} − {:.0}% tolerance). If this PR changed the \
                 speed of the anchor scenario itself (the naive scan path), \
                 regenerate BENCH_BASELINE.json in the same PR instead.",
                cur.relative,
                floor,
                base.relative,
                max_regression * 100.0
            ));
        }
    }
    violations
}

/// Footprint gate: every tracked scenario's memory footprint must stay
/// within `(1 + max_regression)` of the baseline's, on both `bytes_per_row`
/// and `peak_resident_pages`.  The metrics are deterministic (seeded
/// battles), so no anchor normalisation is needed and the tolerance exists
/// only to absorb intentional layout changes below the gate's attention.
/// Returns the violations (empty = pass).
///
/// Scenarios whose baseline predates the memory telemetry (`memory` absent)
/// are skipped — the gate arms itself the first time a baseline with memory
/// fields is committed.  A *current* run without memory fields is a
/// violation: the telemetry must not silently disappear from the suite.
pub fn compare_memory(
    current: &PerfReport,
    baseline: &PerfReport,
    max_regression: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for name in &baseline.tracked {
        let (Some(base), Some(cur)) = (baseline.scenarios.get(name), current.scenarios.get(name))
        else {
            // compare_reports already reports missing tracked scenarios.
            continue;
        };
        let Some(base_mem) = &base.memory else {
            continue;
        };
        let Some(cur_mem) = &cur.memory else {
            violations.push(format!(
                "tracked scenario `{name}` lost its memory telemetry \
                 (baseline has it, current run does not)"
            ));
            continue;
        };
        let mut check = |metric: &str, cur_v: f64, base_v: f64| {
            let ceiling = base_v * (1.0 + max_regression);
            if cur_v > ceiling && cur_v - base_v > 1e-9 {
                violations.push(format!(
                    "`{name}` memory footprint regressed: {metric} {cur_v:.1} > {ceiling:.1} \
                     (baseline {base_v:.1} + {:.0}% tolerance). If the layout change is \
                     intentional, regenerate BENCH_BASELINE.json in the same PR.",
                    max_regression * 100.0
                ));
            }
        };
        check(
            "bytes_per_row",
            cur_mem.bytes_per_row,
            base_mem.bytes_per_row,
        );
        check(
            "peak_resident_pages",
            cur_mem.peak_resident_pages,
            base_mem.peak_resident_pages,
        );
    }
    violations
}

// ---------------------------------------------------------------------------
// JSON (no external deps in this workspace: hand-rolled writer + parser)
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0.0".to_string()
    }
}

/// Serialise a report as pretty-printed JSON (the `BENCH_*.json` format).
pub fn report_to_json(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema_version\": 1,\n");
    let _ = writeln!(out, "  \"anchor\": \"{}\",", json_escape(&report.anchor));
    let tracked: Vec<String> = report
        .tracked
        .iter()
        .map(|t| format!("\"{}\"", json_escape(t)))
        .collect();
    let _ = writeln!(out, "  \"tracked\": [{}],", tracked.join(", "));
    out.push_str("  \"scenarios\": {\n");
    let count = report.scenarios.len();
    for (i, (name, r)) in report.scenarios.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", json_escape(name));
        let _ = writeln!(out, "      \"units\": {},", r.units);
        let _ = writeln!(out, "      \"ticks\": {},", r.ticks);
        let _ = writeln!(
            out,
            "      \"ticks_per_sec\": {},",
            fmt_f64(r.ticks_per_sec)
        );
        let _ = writeln!(out, "      \"relative\": {},", fmt_f64(r.relative));
        let _ = writeln!(
            out,
            "      \"phase_us\": {{\"exec\": {}, \"post\": {}, \"movement\": {}, \
             \"resurrect\": {}, \"maintain\": {}}},",
            fmt_f64(r.phase_us.exec),
            fmt_f64(r.phase_us.post),
            fmt_f64(r.phase_us.movement),
            fmt_f64(r.phase_us.resurrect),
            fmt_f64(r.phase_us.maintain)
        );
        if let Some(mem) = &r.memory {
            let _ = writeln!(
                out,
                "      \"memory\": {{\"bytes_per_row\": {}, \"peak_resident_pages\": {}, \
                 \"resident_bytes\": {}, \"allocs_per_tick\": {{\"fault_in\": {}, \
                 \"exec\": {}, \"post\": {}, \"movement\": {}, \"resurrect\": {}, \
                 \"maintain\": {}}}}},",
                fmt_f64(mem.bytes_per_row),
                fmt_f64(mem.peak_resident_pages),
                fmt_f64(mem.resident_bytes),
                fmt_f64(mem.allocs_per_tick.fault_in),
                fmt_f64(mem.allocs_per_tick.exec),
                fmt_f64(mem.allocs_per_tick.post),
                fmt_f64(mem.allocs_per_tick.movement),
                fmt_f64(mem.allocs_per_tick.resurrect),
                fmt_f64(mem.allocs_per_tick.maintain)
            );
        }
        let backends: Vec<String> = r
            .backends
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let _ = writeln!(out, "      \"backends\": {{{}}}", backends.join(", "));
        let _ = writeln!(out, "    }}{}", if i + 1 < count { "," } else { "" });
    }
    out.push_str("  }\n}\n");
    out
}

/// A parsed JSON value (minimal: objects, arrays, strings, numbers, bools,
/// null — everything the `BENCH_*.json` format needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted map: key order is irrelevant to the format).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
}

/// Parse any JSON document (the subset the perf format uses).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing content"));
    }
    Ok(value)
}

fn get_f64(obj: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

/// Parse a `BENCH_*.json` report back into a [`PerfReport`].
pub fn parse_report(text: &str) -> Result<PerfReport, String> {
    let root = parse_json(text)?;
    let obj = root.as_obj().ok_or("report must be a JSON object")?;
    let mut report = PerfReport {
        anchor: obj
            .get("anchor")
            .and_then(Json::as_str)
            .ok_or("missing `anchor` string")?
            .to_string(),
        ..PerfReport::default()
    };
    // A baseline without a tracked list would make the gate pass vacuously —
    // refuse to parse instead.
    let Some(Json::Arr(tracked)) = obj.get("tracked") else {
        return Err("missing `tracked` array".into());
    };
    for t in tracked {
        report.tracked.push(
            t.as_str()
                .ok_or("tracked entries must be strings")?
                .to_string(),
        );
    }
    let scenarios = obj
        .get("scenarios")
        .and_then(Json::as_obj)
        .ok_or("missing `scenarios` object")?;
    for (name, entry) in scenarios {
        let e = entry
            .as_obj()
            .ok_or_else(|| format!("scenario `{name}` must be an object"))?;
        let phases = e
            .get("phase_us")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("scenario `{name}` missing phase_us"))?;
        let mut backends = BTreeMap::new();
        if let Some(Json::Obj(map)) = e.get("backends") {
            for (k, v) in map {
                backends.insert(
                    k.clone(),
                    v.as_str()
                        .ok_or("backend labels must be strings")?
                        .to_string(),
                );
            }
        }
        // Optional on read: baselines up to BENCH_8 predate the memory
        // telemetry.  When the object is present, every field is required.
        let memory = match e.get("memory") {
            None => None,
            Some(m) => {
                let m = m
                    .as_obj()
                    .ok_or_else(|| format!("scenario `{name}` memory must be an object"))?;
                let rates = m
                    .get("allocs_per_tick")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| format!("scenario `{name}` memory missing allocs_per_tick"))?;
                Some(MemoryMetrics {
                    bytes_per_row: get_f64(m, "bytes_per_row")?,
                    peak_resident_pages: get_f64(m, "peak_resident_pages")?,
                    resident_bytes: get_f64(m, "resident_bytes")?,
                    allocs_per_tick: PhaseAllocRates {
                        fault_in: get_f64(rates, "fault_in")?,
                        exec: get_f64(rates, "exec")?,
                        post: get_f64(rates, "post")?,
                        movement: get_f64(rates, "movement")?,
                        resurrect: get_f64(rates, "resurrect")?,
                        maintain: get_f64(rates, "maintain")?,
                    },
                })
            }
        };
        report.scenarios.insert(
            name.clone(),
            PerfScenarioResult {
                units: get_f64(e, "units")? as usize,
                ticks: get_f64(e, "ticks")? as usize,
                ticks_per_sec: get_f64(e, "ticks_per_sec")?,
                relative: get_f64(e, "relative")?,
                phase_us: PhaseMicros {
                    exec: get_f64(phases, "exec")?,
                    post: get_f64(phases, "post")?,
                    movement: get_f64(phases, "movement")?,
                    resurrect: get_f64(phases, "resurrect")?,
                    maintain: get_f64(phases, "maintain")?,
                },
                memory,
                backends,
            },
        );
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Cost-constant calibration
// ---------------------------------------------------------------------------

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

fn calib_rows(n: usize) -> Vec<IndexRow> {
    let mut state = 77u64;
    (0..n)
        .map(|i| {
            IndexRow::new(
                i as u64,
                Point2::new(lcg(&mut state) * 100.0, lcg(&mut state) * 100.0),
                vec![(i % 23) as f64],
            )
        })
        .collect()
}

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps.max(1) {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}

/// Measure the cost-model constants on this machine from the real index
/// structures (µs per elementary operation).  The checked-in
/// [`CostConstants::default_calibration`] values are a rounded snapshot of
/// this; the perf binary prints a fresh measurement with `--calibrate`.
pub fn calibrate_cost_constants() -> CostConstants {
    let n = 2000usize;
    let rows = calib_rows(n);
    let entries: Vec<AggEntry> = rows
        .iter()
        .map(|r| AggEntry::new(r.point, r.values.clone()))
        .collect();
    let points: Vec<Point2> = rows.iter().map(|r| r.point).collect();
    let log_n = (n as f64).log2();
    let rect = Rect::new(20.0, 45.0, 20.0, 45.0);

    // Scan: visit every row, test containment, fold one channel.
    let scan_us = time_us(50, || {
        let mut acc = 0.0;
        for r in &rows {
            if rect.contains(&r.point) {
                acc += r.values[0];
            }
        }
        std::hint::black_box(acc);
    });

    let layered_build_us = time_us(5, || {
        std::hint::black_box(LayeredAggTree::build(&entries, 1, true));
    });
    let layered = LayeredAggTree::build(&entries, 1, true);
    let layered_probe_us = time_us(2000, || {
        std::hint::black_box(layered.query(&rect));
    });

    let quad_build_us = time_us(5, || {
        std::hint::black_box(AggQuadTree::build(&entries, 1, 8));
    });
    let quad = AggQuadTree::build(&entries, 1, 8);
    let quad_probe_us = time_us(2000, || {
        std::hint::black_box(quad.query(&rect));
    });
    // Rows a probe of this rectangle actually touches (for the per-row part).
    let matched = quad.query(&rect).count().max(1.0);

    let mut grid = DynamicAggGrid::new(0.0, 1);
    grid.rebuild(&rows);
    // The measured grid_delta constant is the cost of a Constant-class
    // delta; hold the structure to its advertised class.
    assert_eq!(
        AggIndex::delta_cost_class(&grid),
        DeltaCostClass::Constant,
        "DynamicAggGrid must advertise O(1) deltas"
    );
    let grid_build_us = time_us(5, || {
        let mut g = DynamicAggGrid::new(0.0, 1);
        g.rebuild(&rows);
        std::hint::black_box(&g);
    });
    let grid_probe_us = time_us(2000, || {
        std::hint::black_box(AggIndex::probe_rect(&grid, &rect));
    });
    let grid_delta_us = time_us(2000, || {
        let row = rows[17].clone();
        grid.apply_delta(&IndexDelta::Update {
            id: row.id,
            old_point: row.point,
            row,
        });
    });

    let kd_build_us = time_us(5, || {
        std::hint::black_box(KdTree::build(&points));
    });
    let kd = KdTree::build(&points);
    let kd_probe_us = time_us(2000, || {
        std::hint::black_box(kd.nearest(&Point2::new(50.0, 50.0)));
    });

    // Materialized answer store: a serve is one fingerprint lookup plus a
    // clone of the stored answer; one maintenance step is a delta × entry
    // relevance check (rect containment plus a channel-bits compare).
    let answers: std::collections::HashMap<u64, Vec<f64>> = (0..n as u64)
        .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![1.0, 2.0]))
        .collect();
    let probe_keys: Vec<u64> = answers.keys().copied().take(16).collect();
    let mat_serve_us = time_us(2000, || {
        for k in &probe_keys {
            std::hint::black_box(answers.get(k).cloned());
        }
    });
    let mat_delta_us = time_us(2000, || {
        let mut relevant = 0usize;
        for r in rows.iter().take(64) {
            if rect.contains(&r.point) && r.values[0].to_bits() != 1 {
                relevant += 1;
            }
        }
        std::hint::black_box(relevant);
    });

    CostConstants {
        scan_row: (scan_us / n as f64).max(1e-6),
        build_layered_row: (layered_build_us / (n as f64 * log_n)).max(1e-6),
        probe_layered: (layered_probe_us / (3.0 * log_n)).max(1e-6),
        build_quad_row: (quad_build_us / n as f64).max(1e-6),
        probe_quad: (quad_probe_us / (2.0 * log_n + matched)).max(1e-6),
        build_kd_row: (kd_build_us / (n as f64 * log_n)).max(1e-6),
        probe_kd: (kd_probe_us / log_n).max(1e-6),
        // The sweep shares the sort-dominated profile of the layered build.
        sweep_row: (layered_build_us / (n as f64 * log_n)).max(1e-6),
        grid_delta: grid_delta_us.max(1e-6),
        grid_build_row: (grid_build_us / n as f64).max(1e-6),
        grid_probe_base: (grid_probe_us * 0.25).max(1e-6),
        grid_probe_row: (grid_probe_us * 0.75 / matched).max(1e-6),
        struct_overhead: CostConstants::default_calibration().struct_overhead,
        mat_delta: (mat_delta_us / 64.0).max(1e-6),
        mat_serve: (mat_serve_us / 16.0).max(1e-6),
    }
}

/// Render constants as a copy-pastable snippet (printed by `perf
/// --calibrate`).
pub fn constants_summary(c: &CostConstants) -> String {
    format!(
        "scan_row: {:.4}\nbuild_layered_row: {:.4}\nprobe_layered: {:.4}\n\
         build_quad_row: {:.4}\nprobe_quad: {:.4}\nbuild_kd_row: {:.4}\n\
         probe_kd: {:.4}\nsweep_row: {:.4}\ngrid_delta: {:.4}\n\
         grid_build_row: {:.4}\ngrid_probe_base: {:.4}\ngrid_probe_row: {:.4}\n\
         struct_overhead: {:.4}\nmat_delta: {:.4}\nmat_serve: {:.4}\n\
         break_even_update_rate: {:.3}\n",
        c.scan_row,
        c.build_layered_row,
        c.probe_layered,
        c.build_quad_row,
        c.probe_quad,
        c.build_kd_row,
        c.probe_kd,
        c.sweep_row,
        c.grid_delta,
        c.grid_build_row,
        c.grid_probe_base,
        c.grid_probe_row,
        c.struct_overhead,
        c.mat_delta,
        c.mat_serve,
        c.break_even_update_rate()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        let mut report = PerfReport {
            anchor: "naive_150".into(),
            tracked: vec!["indexed".into()],
            ..PerfReport::default()
        };
        let mut backends = BTreeMap::new();
        backends.insert("CountEnemiesInRange".into(), "grid/incremental".into());
        report.scenarios.insert(
            "naive_150".into(),
            PerfScenarioResult {
                units: 150,
                ticks: 10,
                ticks_per_sec: 100.0,
                relative: 1.0,
                phase_us: PhaseMicros {
                    exec: 900.0,
                    post: 50.0,
                    movement: 40.0,
                    resurrect: 5.0,
                    maintain: 0.0,
                },
                memory: None,
                backends: BTreeMap::new(),
            },
        );
        report.scenarios.insert(
            "indexed".into(),
            PerfScenarioResult {
                units: 400,
                ticks: 25,
                ticks_per_sec: 400.0,
                relative: 4.0,
                phase_us: PhaseMicros {
                    exec: 200.0,
                    post: 60.0,
                    movement: 45.0,
                    resurrect: 5.0,
                    maintain: 30.0,
                },
                memory: Some(MemoryMetrics {
                    bytes_per_row: 96.0,
                    peak_resident_pages: 22.0,
                    resident_bytes: 38400.0,
                    allocs_per_tick: PhaseAllocRates {
                        fault_in: 0.0,
                        exec: 0.0,
                        post: 0.2,
                        movement: 0.1,
                        resurrect: 0.0,
                        maintain: 0.0,
                    },
                }),
                backends,
            },
        );
        report
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report_to_json(&report);
        let parsed = parse_report(&json).expect("round trip parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn regression_gate_fires_on_relative_slowdowns() {
        let baseline = sample_report();
        let mut current = sample_report();
        assert!(compare_reports(&current, &baseline, 0.25).is_empty());
        // 20% down: inside the 25% tolerance.
        current.scenarios.get_mut("indexed").unwrap().relative = 3.2;
        assert!(compare_reports(&current, &baseline, 0.25).is_empty());
        // 30% down: outside.
        current.scenarios.get_mut("indexed").unwrap().relative = 2.8;
        let violations = compare_reports(&current, &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("indexed"));
        // A missing tracked scenario is a violation, not a silent pass.
        current.scenarios.remove("indexed");
        assert!(!compare_reports(&current, &baseline, 0.25).is_empty());
        // Relatives normalised against different anchors are incomparable.
        let mut moved = sample_report();
        moved.anchor = "naive_300".into();
        let violations = compare_reports(&moved, &baseline, 0.25);
        assert!(violations.iter().any(|v| v.contains("anchor mismatch")));
    }

    #[test]
    fn footprint_gate_fires_on_memory_regressions() {
        let baseline = sample_report();
        let mut current = sample_report();
        assert!(compare_memory(&current, &baseline, 0.25).is_empty());
        // 20% heavier: inside the 25% tolerance.
        current
            .scenarios
            .get_mut("indexed")
            .unwrap()
            .memory
            .as_mut()
            .unwrap()
            .bytes_per_row = 115.0;
        assert!(compare_memory(&current, &baseline, 0.25).is_empty());
        // 50% heavier: outside.
        current
            .scenarios
            .get_mut("indexed")
            .unwrap()
            .memory
            .as_mut()
            .unwrap()
            .bytes_per_row = 144.0;
        let violations = compare_memory(&current, &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("bytes_per_row"));
        // Peak resident pages are gated independently.
        current
            .scenarios
            .get_mut("indexed")
            .unwrap()
            .memory
            .as_mut()
            .unwrap()
            .peak_resident_pages = 40.0;
        assert_eq!(compare_memory(&current, &baseline, 0.25).len(), 2);
        // Telemetry must not silently vanish from a tracked scenario.
        current.scenarios.get_mut("indexed").unwrap().memory = None;
        let violations = compare_memory(&current, &baseline, 0.25);
        assert!(violations
            .iter()
            .any(|v| v.contains("lost its memory telemetry")));
        // A pre-telemetry baseline (no memory fields) leaves the gate dormant.
        let mut old_baseline = sample_report();
        old_baseline.scenarios.get_mut("indexed").unwrap().memory = None;
        assert!(compare_memory(&sample_report(), &old_baseline, 0.25).is_empty());
    }

    #[test]
    fn memory_metrics_round_trip_and_stay_optional() {
        // With memory fields: full round trip.
        let report = sample_report();
        let json = report_to_json(&report);
        assert!(json.contains("\"memory\""));
        assert_eq!(parse_report(&json).unwrap(), report);
        // Pre-BENCH_9 baselines have no memory object — they must parse.
        let mut old = sample_report();
        for r in old.scenarios.values_mut() {
            r.memory = None;
        }
        let json = report_to_json(&old);
        assert!(!json.contains("\"memory\""));
        assert_eq!(parse_report(&json).unwrap(), old);
    }

    #[test]
    fn json_parser_handles_the_format_subset() {
        let v = parse_json(r#"{"a": [1, 2.5, "x\ny"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert!(matches!(obj.get("a"), Some(Json::Arr(items)) if items.len() == 3));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        // A report without a tracked list or anchor must not parse (the
        // gate would be vacuous / incomparable).
        assert!(parse_report("{\"schema_version\": 1, \"scenarios\": {}}").is_err());
        assert!(
            parse_report("{\"schema_version\": 1, \"tracked\": [], \"scenarios\": {}}").is_err()
        );
    }

    #[test]
    fn calibration_produces_positive_finite_constants() {
        let c = calibrate_cost_constants();
        for v in [
            c.scan_row,
            c.build_layered_row,
            c.probe_layered,
            c.build_quad_row,
            c.probe_quad,
            c.build_kd_row,
            c.probe_kd,
            c.sweep_row,
            c.grid_delta,
            c.grid_build_row,
            c.grid_probe_base,
            c.grid_probe_row,
        ] {
            assert!(v.is_finite() && v > 0.0, "{c:?}");
        }
        assert!(c.break_even_update_rate() > 0.0);
    }

    #[test]
    fn perf_suite_smoke() {
        // The full suite is CI-sized; here just prove one scenario runs and
        // produces a sane record (anchor scenario, 2 ticks).
        let spec = ScenarioSpec {
            name: "smoke",
            units: 30,
            density: 0.02,
            ticks: 2,
            tracked: false,
            roster: ScriptRoster::BattleDefault,
            config: |s| ExecConfig::indexed(&s.schema),
        };
        let result = run_scenario(&spec);
        assert_eq!(result.ticks, 2);
        assert!(result.ticks_per_sec > 0.0);
        assert!(result.phase_us.exec > 0.0);
        assert!(!result.backends.is_empty());
    }
}
