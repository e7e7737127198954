//! Repository benchmark runner.
//!
//! ```text
//! simbench --workload <battle|garrison|steering> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
//! records spans around every call into the engine and reports the
//! per-layer metrics. Either way it checks the simulation against the
//! oracle, its population and a checkpoint round trip, and prints one JSON
//! object as the last line of standard output. See README.md.

mod probe;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sgl_battle::BattleScenario;
use sgl_core::engine::{Simulation, TickReport};
use sgl_core::exec::ExecConfig;
use sgl_core::lang::{check_script, normalize, parse_script};

use probe::{Probe, REFERENCE_S};
use stats::{
    highest_percentile_with_tail, interpolate_capacity, ladder_units, median, percentile, scaled,
    TAIL_SAMPLES,
};
use trace::{json_number, json_string, Span, Tracer};
use workload::{bench_config, build, scenario_config, warmup_ticks, Workload};

/// Fewest timed ticks per run: p90 then has `TAIL_SAMPLES` ticks beyond it.
const MIN_TIMED_TICKS: usize = 10 * TAIL_SAMPLES;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Units of the reduced-size oracle twin.
const TWIN_UNITS: usize = 120;
/// Throughput the §6.1 capacity figure is defined at.
const CAPACITY_TARGET_TPS: f64 = 10.0;
/// First unit count of the capacity ladder.
const CAPACITY_BASE_UNITS: usize = 2000;
/// Timed ticks per capacity ladder step.
const CAPACITY_TICKS: usize = 10;
/// Ladder steps tried in either direction before giving up.
const CAPACITY_MAX_STEPS: i32 = 24;
/// Repetitions of the front-end timing (median reported).
const FRONTEND_REPEATS: usize = 5;
/// Probes on each side of a tick whose median scales that tick's time.
const PROBE_WINDOW: usize = 5;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::workload(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed operations of the run: every step, build,
/// checkpoint, resume and digest comparison is one attempt, which fails when
/// it errors or its check does not hold.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            let problem = format!("{what}: {e}");
            self.problems.push(problem.clone());
            problem
        })
    }
}

/// A metric as reported: name, value and unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One set-up: the world, the built simulation after warm-up, how long each
/// part took (probes excluded) and the probe times taken meanwhile.
struct Setup {
    scenario: BattleScenario,
    sim: Simulation,
    generate: Duration,
    build: Duration,
    warmup: Duration,
    probes: Vec<f64>,
}

impl Setup {
    /// Seconds of generation, build and warm-up at the reference speed.
    fn scaled_s(&self) -> f64 {
        (self.generate + self.build + self.warmup).as_secs_f64() * self.scale()
    }

    /// Reference probe time ÷ the probe time measured during the set-up.
    fn scale(&self) -> f64 {
        REFERENCE_S / median(&self.probes)
    }
}

/// Measured times of timed steps and the probe time taken before each.
struct Timed {
    ticks: Vec<f64>,
    probes: Vec<f64>,
}

impl Timed {
    /// Step times at the reference machine speed.
    fn scaled(&self) -> Vec<f64> {
        scaled(&self.ticks, &self.probes, REFERENCE_S, PROBE_WINDOW)
    }
}

struct Runner {
    workload: Workload,
    seed: u64,
    config: ExecConfig,
    tally: Tally,
    tracer: Tracer,
    probe: Probe,
}

/// Attributes of a `step` span: every field of the engine's tick report and
/// the index manager's last maintenance pass.
fn step_attrs(report: &TickReport, sim: &Simulation) -> Vec<(&'static str, f64)> {
    let t = &report.timings;
    let e = &report.exec;
    let m = &report.movement;
    let a = &report.allocs;
    let mem = &report.memory;
    let maint = &sim.index_manager().last_maint;
    let ns = |d: Duration| d.as_nanos() as f64;
    vec![
        ("tick", report.tick as f64),
        ("exec_ns", ns(t.exec)),
        ("post_ns", ns(t.post)),
        ("movement_ns", ns(t.movement)),
        ("resurrect_ns", ns(t.resurrect)),
        ("maintain_ns", ns(t.maintain)),
        ("phases_ns", ns(t.total())),
        ("aggregate_probes", e.aggregate_probes as f64),
        ("naive_scans", e.naive_scans as f64),
        ("index_probes", e.index_probes as f64),
        ("shared_hits", e.shared_hits as f64),
        ("indexes_built", e.indexes_built as f64),
        ("effect_rows", e.effect_rows as f64),
        ("acting_units", e.acting_units as f64),
        ("index_delta_ops", e.index_delta_ops as f64),
        ("partition_rebuilds", e.partition_rebuilds as f64),
        ("maintained_probes", e.maintained_probes as f64),
        ("materialized_serves", e.materialized_serves as f64),
        ("planner_recosts", e.planner_recosts as f64),
        ("plan_switches", e.plan_switches as f64),
        ("movers", m.movers as f64),
        ("moved", m.moved as f64),
        ("detoured", m.detoured as f64),
        ("blocked", m.blocked as f64),
        ("deaths", report.deaths as f64),
        ("population", report.population as f64),
        ("allocs_fault_in", a.fault_in as f64),
        ("allocs_exec", a.exec as f64),
        ("allocs_post", a.post as f64),
        ("allocs_movement", a.movement as f64),
        ("allocs_resurrect", a.resurrect as f64),
        ("allocs_maintain", a.maintain as f64),
        ("allocs_total", a.total() as f64),
        ("mem_rows", mem.rows as f64),
        ("mem_resident_pages", mem.resident_pages as f64),
        ("mem_peak_resident_pages", mem.peak_resident_pages as f64),
        ("mem_spilled_pages", mem.spilled_pages as f64),
        ("mem_page_allocs", mem.page_allocs as f64),
        ("mem_evictions", mem.evictions as f64),
        ("mem_resident_bytes", mem.resident_bytes as f64),
        ("mem_bytes_per_row", mem.bytes_per_row),
        ("maint_delta_ops", maint.delta_ops as f64),
        ("maint_partition_rebuilds", maint.partition_rebuilds as f64),
        ("maint_rows_scanned", maint.rows_scanned as f64),
        ("maint_effect_hints", maint.effect_hints as f64),
        ("maint_mat_patched", maint.mat_patched as f64),
        ("maint_mat_invalidated", maint.mat_invalidated as f64),
    ]
}

/// Run one tick and check that the population is still `expected`.
fn checked_step(sim: &mut Simulation, expected: usize) -> Result<TickReport, String> {
    let report = sim.step().map_err(|e| format!("step failed: {e}"))?;
    if report.population != expected {
        return Err(format!(
            "population {} at tick {}, expected {expected}",
            report.population, report.tick
        ));
    }
    Ok(report)
}

impl Runner {
    /// One traced, counted tick.
    fn step(&mut self, sim: &mut Simulation, expected: usize) -> Result<TickReport, String> {
        self.tracer.open("engine.step");
        let result = checked_step(sim, expected);
        let attrs = match &result {
            Ok(report) => step_attrs(report, sim),
            Err(_) => Vec::new(),
        };
        self.tracer.close(attrs);
        self.tally.record("tick", result)
    }

    /// Generate, build and warm up a world of `units` units.
    fn setup(&mut self, units: usize) -> Result<Setup, String> {
        let mut probes = vec![self.probe.time()];
        self.tracer.open("setup");
        let start = Instant::now();
        self.tracer.open("battle.generate");
        let scenario = BattleScenario::generate(scenario_config(&self.workload, units, self.seed));
        self.tracer
            .close(vec![("units", scenario.table.len() as f64)]);
        let generate = start.elapsed();

        let start = Instant::now();
        self.tracer.open("core.build");
        let built = build(self.workload.roster, &scenario, self.config);
        self.tracer.close(Vec::new());
        let build = start.elapsed();
        let mut sim = self.tally.record("build", built)?;

        self.tracer.open("engine.warmup");
        let expected = scenario.table.len();
        let mut warmup = Duration::ZERO;
        let mut warmed = Ok(());
        for _ in 0..warmup_ticks(&self.config) {
            probes.push(self.probe.time());
            let start = Instant::now();
            let stepped = self.step(&mut sim, expected);
            warmup += start.elapsed();
            if let Err(e) = stepped {
                warmed = Err(e);
                break;
            }
        }
        self.tracer.close(Vec::new());
        self.tracer.close(Vec::new());
        warmed?;
        Ok(Setup {
            scenario,
            sim,
            generate,
            build,
            warmup,
            probes,
        })
    }

    /// Run a reduced-size twin of the workload under the benchmark
    /// configuration and under the oracle; every tick's digest must agree.
    fn oracle_twin(&mut self) -> Result<(), String> {
        self.tracer.open("check.oracle_twin");
        let result = self.oracle_twin_inner();
        self.tracer.close(Vec::new());
        result
    }

    fn oracle_twin_inner(&mut self) -> Result<(), String> {
        let scenario =
            BattleScenario::generate(scenario_config(&self.workload, TWIN_UNITS, self.seed));
        let oracle_config = ExecConfig::oracle(&scenario.schema);
        let mut bench = self
            .tally
            .record("build", build(self.workload.roster, &scenario, self.config))?;
        let mut oracle = self.tally.record(
            "build",
            build(self.workload.roster, &scenario, oracle_config),
        )?;
        let expected = scenario.table.len();
        for _ in 0..warmup_ticks(&self.config) + 2 {
            self.step(&mut bench, expected)?;
            let oracle_step = oracle
                .step()
                .map_err(|e| format!("oracle step failed: {e}"))
                .and_then(|_| {
                    if oracle.digest() == bench.digest() {
                        Ok(())
                    } else {
                        Err(format!(
                            "digest differs from the oracle at tick {}: {:016x} vs {:016x}",
                            oracle.current_tick() - 1,
                            bench.digest().hash,
                            oracle.digest().hash
                        ))
                    }
                });
            self.tally.record("oracle twin", oracle_step)?;
        }
        Ok(())
    }

    /// Checkpoint the simulation, resume it into a fresh build and require
    /// an equal digest, before and after one more tick of each.
    fn round_trip(&mut self, setup: &mut Setup) -> Result<(usize, Duration, Duration), String> {
        self.tracer.open("check.round_trip");
        let result = self.round_trip_inner(setup);
        self.tracer.close(Vec::new());
        result
    }

    fn round_trip_inner(
        &mut self,
        setup: &mut Setup,
    ) -> Result<(usize, Duration, Duration), String> {
        let expected = setup.scenario.table.len();
        let start = Instant::now();
        self.tracer.open("env.checkpoint");
        let bytes = setup.sim.checkpoint();
        self.tracer.close(Vec::new());
        let checkpoint = start.elapsed();
        let bytes = self
            .tally
            .record("checkpoint", bytes.map_err(|e| e.to_string()))?;

        self.tracer.open("core.build");
        let fresh = build(self.workload.roster, &setup.scenario, self.config);
        self.tracer.close(Vec::new());
        let mut fresh = self.tally.record("build", fresh)?;
        let start = Instant::now();
        self.tracer.open("engine.resume");
        let resumed = fresh.resume(&bytes, self.config);
        self.tracer.close(Vec::new());
        let resume = start.elapsed();
        self.tally.record(
            "resume",
            resumed
                .map_err(|e| e.to_string())
                .and_then(|()| digests_match("after resume", &setup.sim, &fresh)),
        )?;
        self.step(&mut setup.sim, expected)?;
        self.step(&mut fresh, expected)?;
        self.tally.record(
            "resumed tick",
            digests_match("one tick after resume", &setup.sim, &fresh),
        )?;
        Ok((bytes.len(), checkpoint, resume))
    }

    /// Time `count` calls of `step()`, each after a probe.
    fn timed_loop(
        &mut self,
        sim: &mut Simulation,
        expected: usize,
        count: usize,
    ) -> Result<Timed, String> {
        let mut timed = Timed {
            ticks: Vec::with_capacity(count),
            probes: Vec::with_capacity(count),
        };
        for _ in 0..count {
            timed.probes.push(self.probe.time());
            let start = Instant::now();
            let result = checked_step(sim, expected);
            timed.ticks.push(start.elapsed().as_secs_f64());
            self.tally.record("tick", result)?;
        }
        Ok(timed)
    }

    /// Ticks/s of the roster at `units` units: set up (warmed past the first
    /// re-cost), then the inverse of the median of `CAPACITY_TICKS` ticks at
    /// the reference speed.
    fn ladder_step(&mut self, units: usize) -> Result<f64, String> {
        let mut setup = self.setup(units)?;
        let expected = setup.scenario.table.len();
        let timed = self.timed_loop(&mut setup.sim, expected, CAPACITY_TICKS)?;
        Ok(1.0 / median(&timed.scaled()))
    }

    /// The §6.1 capacity: walk the geometric ladder from
    /// `CAPACITY_BASE_UNITS` (down instead, if that already misses 10
    /// ticks/s) until throughput crosses 10 ticks/s, then interpolate
    /// between the two steps around the crossing.
    fn capacity(&mut self) -> Result<(f64, Vec<(usize, f64)>), String> {
        let point = |(units, tps): (usize, f64)| (units as f64, tps);
        let first = (CAPACITY_BASE_UNITS, self.ladder_step(CAPACITY_BASE_UNITS)?);
        let direction = if first.1 >= CAPACITY_TARGET_TPS {
            1
        } else {
            -1
        };
        let mut steps = vec![first];
        for k in 1..=CAPACITY_MAX_STEPS {
            let units = ladder_units(CAPACITY_BASE_UNITS, direction * k);
            let step = (units, self.ladder_step(units)?);
            let prev = steps[steps.len() - 1];
            steps.push(step);
            let (held, missed) = if direction > 0 {
                (prev, step)
            } else {
                (step, prev)
            };
            if held.1 >= CAPACITY_TARGET_TPS && missed.1 < CAPACITY_TARGET_TPS {
                let capacity =
                    interpolate_capacity(point(held), point(missed), CAPACITY_TARGET_TPS);
                steps.sort_unstable_by_key(|s| s.0);
                return Ok((capacity, steps));
            }
        }
        Err(format!(
            "throughput never crossed {CAPACITY_TARGET_TPS} ticks/s within {CAPACITY_MAX_STEPS} ladder steps"
        ))
    }
}

fn digests_match(when: &str, a: &Simulation, b: &Simulation) -> Result<(), String> {
    let (a, b) = (a.digest(), b.digest());
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "digest {when} differs: {:016x} vs {:016x}",
            a.hash, b.hash
        ))
    }
}

/// Median time of the front end (parse, normalize, type check) over the
/// roster's sources.
fn frontend_time(workload: &Workload) -> Result<Duration, String> {
    let schema = sgl_battle::battle_schema();
    let registry = sgl_battle::battle_registry();
    let sources = workload.roster.scripts(&schema);
    let mut samples = Vec::with_capacity(FRONTEND_REPEATS);
    for _ in 0..FRONTEND_REPEATS {
        let start = Instant::now();
        for (name, source, _) in &sources {
            let ast = parse_script(source).map_err(|e| format!("{name}: {e}"))?;
            let normal = normalize(&ast, &registry).map_err(|e| format!("{name}: {e}"))?;
            check_script(&normal, &schema, &registry).map_err(|e| format!("{name}: {e}"))?;
        }
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(Duration::from_secs_f64(median(&samples)))
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in process status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("cannot parse `{line}`"))?;
    Ok(kb / 1024.0)
}

/// Commit of the working directory's git checkout, when it is one.
fn commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of a step attribute over `steps`.
fn mean_attr(steps: &[&Span], name: &str) -> f64 {
    sum_attr(steps, name) / steps.len().max(1) as f64
}

fn sum_attr(steps: &[&Span], name: &str) -> f64 {
    steps.iter().filter_map(|s| s.attr(name)).sum()
}

/// Ticks timed by a run of `seconds` seconds of `workload`.
fn timed_ticks(workload: &Workload, seconds: u64) -> usize {
    (seconds.saturating_mul(workload.nominal_tps) as usize).max(MIN_TIMED_TICKS)
}

fn print_header(args: &Args, config: &ExecConfig) {
    let w = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# simbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# commit: {}", commit());
    println!("# toolchain: {}", env!("SIMBENCH_RUSTC_VERSION"));
    println!("# nproc: {nproc}");
    println!(
        "# world: roster={:?} units={} density={} resurrect=on",
        w.roster, w.units, w.density
    );
    println!(
        "# config: mode={:?} parallelism={:?} planner={:?} warmup_ticks={}",
        config.mode,
        config.parallelism,
        config.planner,
        warmup_ticks(config)
    );
}

/// Print the metrics one per line and then the result as one JSON line.
fn print_result(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for problem in &tally.problems {
        println!("# FAILED: {problem}");
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, m.name);
        out.push_str(":{\"value\":");
        json_number(&mut out, m.value);
        out.push_str(",\"unit\":");
        json_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    println!("{out}");
}

/// End-to-end run: set up `SETUP_REPEATS` times, time the last world,
/// round-trip it through a checkpoint, then walk the capacity ladder.
fn end_to_end(runner: &mut Runner, args: &Args) -> Result<Vec<Metric>, String> {
    runner.oracle_twin()?;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous world first: it would inflate peak RSS.
        drop(setup.take());
        let s = runner.setup(args.workload.units)?;
        setup_s.push(s.scaled_s());
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    let expected = setup.scenario.table.len();
    let count = timed_ticks(&args.workload, args.seconds);
    let timed = runner.timed_loop(&mut setup.sim, expected, count)?;
    runner.round_trip(&mut setup)?;
    println!("# final digest: {:016x}", setup.sim.digest().hash);
    print_choices(&setup.sim);
    drop(setup);
    let peak_rss = peak_rss_mb()?;

    let (capacity, ladder) = runner.capacity()?;
    for (units, tps) in &ladder {
        println!("# capacity ladder: {units} units -> {tps:.3} ticks/s");
    }

    let mut sorted = timed.scaled();
    let total_s: f64 = sorted.iter().sum();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    println!(
        "# measured: tick p50 {:.3} ms with probe median {:.4} ms; times are scaled to a {:.4} ms probe",
        median(&timed.ticks) * 1e3,
        median(&timed.probes) * 1e3,
        REFERENCE_S * 1e3
    );
    println!(
        "# timed ticks: {n} (tick_ms_p90 is nearest-rank p90; p{} is the highest percentile with {TAIL_SAMPLES} ticks beyond it)",
        highest_percentile_with_tail(n, TAIL_SAMPLES).unwrap_or(0)
    );
    println!("# setup_s samples: {setup_s:?}");
    Ok(vec![
        metric("ticks_per_s", n as f64 / total_s, "1/s"),
        metric("tick_ms_p50", percentile(&sorted, 50.0) * 1e3, "ms"),
        metric("tick_ms_p90", percentile(&sorted, 90.0) * 1e3, "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        metric("capacity_units", capacity, "units"),
    ])
}

fn print_choices(sim: &Simulation) {
    for (site, backend, maintenance) in sim.physical_choices() {
        println!("# site {site}: backend={backend} maintenance={maintenance}");
    }
}

/// Traced run: one set-up, then timed ticks that alternate between traced
/// and untraced (flipping parity each planner window, so re-cost ticks
/// fall on both sides), then the checkpoint round trip.
fn traced(runner: &mut Runner, args: &Args, run_id: &str) -> Result<Vec<Metric>, String> {
    runner.tracer.open("run");
    runner.oracle_twin()?;
    runner.tracer.open("lang.frontend");
    let frontend = frontend_time(&args.workload)?;
    runner.tracer.close(Vec::new());
    let mut setup = runner.setup(args.workload.units)?;
    let expected = setup.scenario.table.len();
    let window = match runner.config.planner {
        sgl_core::exec::PlannerMode::CostBased(w) => u64::from(w.ticks),
        _ => 1,
    };

    runner.tracer.open("timed");
    let timed_span = runner.tracer.spans().len() - 1;
    let count = timed_ticks(&args.workload, args.seconds);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut recosts, mut switches) = (0usize, 0usize);
    let mut machine = Vec::with_capacity(count);
    for _ in 0..count {
        machine.push(runner.probe.time());
        let tick = setup.sim.current_tick();
        let tick_start = Instant::now();
        let report = if (tick + tick / window) % 2 == 0 {
            let report = runner.step(&mut setup.sim, expected)?;
            traced_s.push(tick_start.elapsed().as_secs_f64());
            report
        } else {
            let result = checked_step(&mut setup.sim, expected);
            untraced_s.push(tick_start.elapsed().as_secs_f64());
            runner.tally.record("tick", result)?
        };
        recosts += report.exec.planner_recosts;
        switches += report.exec.plan_switches;
    }
    runner.tracer.close(Vec::new());

    let (bytes, checkpoint, resume) = runner.round_trip(&mut setup)?;
    println!("# final digest: {:016x}", setup.sim.digest().hash);
    print_choices(&setup.sim);
    runner.tracer.close(Vec::new());

    let spans = runner.tracer.spans();
    let steps: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == Some(timed_span) && s.name == "engine.step")
        .collect();
    // Times at the reference machine speed: `k` for the timed ticks and the
    // round trip, `ks` for the set-up.
    let k = REFERENCE_S / median(&machine);
    let ks = setup.scale();
    let ns_to_ms = |ns: f64| ns * k / 1e6;
    let step_ms = ns_to_ms(
        steps.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / steps.len().max(1) as f64,
    );
    let phases_ms = ns_to_ms(mean_attr(&steps, "phases_ns"));
    let agg_probes = sum_attr(&steps, "aggregate_probes");
    let mean_traced = traced_s.iter().sum::<f64>() / traced_s.len().max(1) as f64;
    let mean_untraced = untraced_s.iter().sum::<f64>() / untraced_s.len().max(1) as f64;
    let last = steps.last();
    let last_attr = |name: &str| last.and_then(|s| s.attr(name)).unwrap_or(0.0);
    println!(
        "# traced ticks: {} of {count} timed ticks (the rest untraced, for the overhead)",
        steps.len()
    );
    write_trace(run_id, args, spans, &setup.sim)?;
    Ok(vec![
        metric("battle.generate_ms", ms(setup.generate) * ks, "ms"),
        metric("core.build_ms", ms(setup.build) * ks, "ms"),
        metric("lang.frontend_us", frontend.as_secs_f64() * 1e6 * ks, "us"),
        metric("engine.warmup_ms", ms(setup.warmup) * ks, "ms"),
        metric("engine.step_ms", step_ms, "ms"),
        metric(
            "engine.exec_ms",
            ns_to_ms(mean_attr(&steps, "exec_ns")),
            "ms",
        ),
        metric(
            "exec.us_per_probe",
            ns_to_ms(sum_attr(&steps, "exec_ns")) * 1e3 / agg_probes.max(1.0),
            "us",
        ),
        metric(
            "engine.maintain_ms",
            ns_to_ms(mean_attr(&steps, "maintain_ns")),
            "ms",
        ),
        metric(
            "index.delta_ops",
            mean_attr(&steps, "index_delta_ops"),
            "count/tick",
        ),
        metric(
            "index.partition_rebuilds",
            mean_attr(&steps, "partition_rebuilds"),
            "count/tick",
        ),
        metric(
            "engine.movement_ms",
            ns_to_ms(mean_attr(&steps, "movement_ns")),
            "ms",
        ),
        metric("engine.moved", mean_attr(&steps, "moved"), "count/tick"),
        metric("engine.blocked", mean_attr(&steps, "blocked"), "count/tick"),
        metric(
            "engine.post_ms",
            ns_to_ms(mean_attr(&steps, "post_ns")),
            "ms",
        ),
        metric(
            "engine.resurrect_ms",
            ns_to_ms(mean_attr(&steps, "resurrect_ns")),
            "ms",
        ),
        metric("engine.unphased_ms", step_ms - phases_ms, "ms"),
        metric(
            "exec.aggregate_probes",
            agg_probes / steps.len().max(1) as f64,
            "count/tick",
        ),
        metric(
            "exec.index_probes",
            mean_attr(&steps, "index_probes"),
            "count/tick",
        ),
        metric(
            "exec.maintained_probes",
            mean_attr(&steps, "maintained_probes"),
            "count/tick",
        ),
        metric(
            "exec.materialized_serves",
            mean_attr(&steps, "materialized_serves"),
            "count/tick",
        ),
        metric(
            "exec.indexes_built",
            mean_attr(&steps, "indexes_built"),
            "count/tick",
        ),
        metric(
            "exec.effect_rows",
            mean_attr(&steps, "effect_rows"),
            "count/tick",
        ),
        metric("exec.planner_recosts", recosts as f64, "count"),
        metric("exec.plan_switches", switches as f64, "count"),
        metric(
            "exec.materialized_hit_ratio",
            sum_attr(&steps, "materialized_serves") / agg_probes.max(1.0),
            "ratio",
        ),
        metric(
            "index.mat_patched",
            mean_attr(&steps, "maint_mat_patched"),
            "count/tick",
        ),
        metric(
            "index.mat_invalidated",
            mean_attr(&steps, "maint_mat_invalidated"),
            "count/tick",
        ),
        metric("env.bytes_per_row", last_attr("mem_bytes_per_row"), "B"),
        metric(
            "env.peak_resident_pages",
            last_attr("mem_peak_resident_pages"),
            "count",
        ),
        metric(
            "env.page_allocs_per_tick",
            mean_attr(&steps, "allocs_total"),
            "count/tick",
        ),
        metric("env.checkpoint_ms", ms(checkpoint) * k, "ms"),
        metric("env.checkpoint_bytes", bytes as f64, "B"),
        metric("engine.resume_ms", ms(resume) * k, "ms"),
        metric(
            "bench.trace_overhead_pct",
            (mean_traced / mean_untraced - 1.0) * 100.0,
            "%",
        ),
        metric("bench.probe_ms", median(&machine) * 1e3, "ms"),
    ])
}

/// Write the spans as JSON lines under `TRACE_DIR`, after a first line
/// with the run's header and the chosen backend of every call site.
fn write_trace(run_id: &str, args: &Args, spans: &[Span], sim: &Simulation) -> Result<(), String> {
    let mut meta = String::from("{\"run_id\":");
    json_string(&mut meta, run_id);
    meta.push_str(",\"workload\":");
    json_string(&mut meta, args.workload.name);
    let _ = write!(
        meta,
        ",\"seed\":{},\"units\":{},\"commit\":",
        args.seed, args.workload.units
    );
    json_string(&mut meta, &commit());
    meta.push_str(",\"toolchain\":");
    json_string(&mut meta, env!("SIMBENCH_RUSTC_VERSION"));
    meta.push_str(",\"sites\":[");
    for (i, (site, backend, maintenance)) in sim.physical_choices().iter().enumerate() {
        if i > 0 {
            meta.push(',');
        }
        for (j, field) in [site, backend, maintenance].into_iter().enumerate() {
            meta.push(if j == 0 { '[' } else { ',' });
            json_string(&mut meta, field);
        }
        meta.push(']');
    }
    meta.push_str("]}\n");
    let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", args.workload.name, args.seed);
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    std::fs::write(&path, meta + &trace::to_json_lines(run_id, spans))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("# spans: {} written to {path}", spans.len());
    for (name, self_ns) in self_time_by_name(spans) {
        println!("# self time {name}: {:.3} ms", self_ns as f64 / 1e6);
    }
    Ok(())
}

/// Total self time per span name, in first-seen order.
fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        match out.iter_mut().find(|(name, _)| *name == span.name) {
            Some(entry) => entry.1 += self_ns,
            None => out.push((span.name, self_ns)),
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <battle|garrison|steering> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // `EnvTable::new` reads the page budget while the scenario is generated;
    // a spilling table would measure the pager, not the engine.
    if std::env::var_os("SGL_PAGE_BUDGET").is_some() {
        eprintln!("simbench: refusing to run with SGL_PAGE_BUDGET set");
        return ExitCode::from(2);
    }
    let config = bench_config(&sgl_battle::battle_schema());
    print_header(&args, &config);
    let unix_ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = format!("{}-{}-{unix_ns:x}", args.workload.name, args.seed);
    let mut runner = Runner {
        workload: args.workload,
        seed: args.seed,
        config,
        tally: Tally::default(),
        tracer: Tracer::new(args.trace),
        probe: Probe::new(),
    };
    let result = if args.trace {
        traced(&mut runner, &args, &run_id)
    } else {
        end_to_end(&mut runner, &args)
    };
    match result {
        Ok(metrics) => {
            print_result(&runner.tally, &metrics);
            if runner.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            if runner.tally.failed == 0 {
                // A failure outside any counted operation (I/O, parsing).
                eprintln!("simbench: {e}");
                return ExitCode::from(2);
            }
            print_result(&runner.tally, &[]);
            ExitCode::FAILURE
        }
    }
}
