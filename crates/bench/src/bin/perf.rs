//! Deterministic perf runner behind the CI perf job.
//!
//! Runs the engine-level perf suite (fixed seeds, wall-clock per-phase
//! timings via the engine's `PhaseTimings`), writes
//! the machine-readable summary as `BENCH_10.json`, and fails with exit
//! code 1 if any gate fires:
//!
//! * a baseline was given and a tracked scenario's anchor-relative
//!   throughput regressed more than the tolerance (default 25 %);
//! * a low-churn `materialized_*` scenario failed to beat its `compiled_*`
//!   incremental twin by `--min-materialized-speedup` (default 1.1);
//! * a tracked scenario's memory footprint (bytes/row or peak resident
//!   pages) grew more than `--max-footprint-regression` (default 25 %)
//!   over a baseline that carries memory fields.
//!
//! ```text
//! perf [--out PATH] [--baseline PATH] [--max-regression FRACTION]
//!      [--min-materialized-speedup RATIO]
//!      [--max-footprint-regression FRACTION] [--calibrate]
//! ```

use std::process::ExitCode;

use sgl_bench::{
    calibrate_cost_constants, compare_memory, compare_reports, constants_summary,
    materialized_gate, materialized_speedups, parse_report, report_to_json, run_perf_suite,
};

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_10.json");
    let mut baseline_path: Option<String> = None;
    let mut max_regression = 0.25f64;
    let mut min_materialized_speedup = 1.1f64;
    let mut max_footprint_regression = 0.25f64;
    let mut calibrate = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a path")),
            "--max-regression" => {
                max_regression = args
                    .next()
                    .expect("--max-regression needs a fraction")
                    .parse()
                    .expect("--max-regression must be a number in (0, 1)");
            }
            "--min-materialized-speedup" => {
                min_materialized_speedup = args
                    .next()
                    .expect("--min-materialized-speedup needs a ratio")
                    .parse()
                    .expect("--min-materialized-speedup must be a positive number");
            }
            "--max-footprint-regression" => {
                max_footprint_regression = args
                    .next()
                    .expect("--max-footprint-regression needs a fraction")
                    .parse()
                    .expect("--max-footprint-regression must be a number in (0, 1)");
            }
            "--calibrate" => calibrate = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: perf [--out PATH] [--baseline PATH] \
                     [--max-regression FRACTION] [--min-materialized-speedup RATIO] \
                     [--max-footprint-regression FRACTION] [--calibrate]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if calibrate {
        println!("cost-model constants measured on this machine (µs):");
        print!("{}", constants_summary(&calibrate_cost_constants()));
        return ExitCode::SUCCESS;
    }

    eprintln!("running perf suite...");
    let report = run_perf_suite();
    for (name, r) in &report.scenarios {
        eprintln!(
            "  {name}: {:.1} ticks/s (relative {:.3}), exec {:.0}µs/tick, maintain {:.0}µs/tick",
            r.ticks_per_sec, r.relative, r.phase_us.exec, r.phase_us.maintain
        );
        if let Some(mem) = &r.memory {
            eprintln!(
                "    memory: {:.1} bytes/row, peak {:.0} resident pages, \
                 {:.2} page allocs/tick",
                mem.bytes_per_row,
                mem.peak_resident_pages,
                mem.allocs_per_tick.fault_in
                    + mem.allocs_per_tick.exec
                    + mem.allocs_per_tick.post
                    + mem.allocs_per_tick.movement
                    + mem.allocs_per_tick.resurrect
                    + mem.allocs_per_tick.maintain
            );
        }
    }
    let json = report_to_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");

    for (suffix, ratio) in materialized_speedups(&report) {
        eprintln!("  materialized vs incremental ({suffix}): {ratio:.2}×");
    }
    let materialized_violations = materialized_gate(&report, min_materialized_speedup);
    if !materialized_violations.is_empty() {
        eprintln!("materialized gate FAILED:");
        for v in &materialized_violations {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }
    eprintln!(
        "materialized gate passed: every low-churn materialized scenario ≥ \
         {min_materialized_speedup:.2}× its incremental twin"
    );

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_report(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("failed to parse baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations = compare_reports(&report, &baseline, max_regression);
        if violations.is_empty() {
            eprintln!(
                "perf gate passed: {} tracked scenarios within {:.0}% of baseline",
                baseline.tracked.len(),
                max_regression * 100.0
            );
        } else {
            eprintln!("perf gate FAILED:");
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
        let footprint_violations = compare_memory(&report, &baseline, max_footprint_regression);
        if footprint_violations.is_empty() {
            eprintln!(
                "footprint gate passed: tracked scenarios within {:.0}% of baseline memory",
                max_footprint_regression * 100.0
            );
        } else {
            eprintln!("footprint gate FAILED:");
            for v in &footprint_violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
