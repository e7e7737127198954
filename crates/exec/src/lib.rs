//! # sgl-exec — naive and indexed execution of SGL scripts
//!
//! The physical layer of *Scaling Games to Epic Proportions*.  Scripts are
//! lowered to register bytecode ([`compile`]) and run by one VM; the
//! **naive** mode answers every aggregate probe by scanning the environment
//! (`O(n²)` per tick — the baseline of §6), while the **indexed** mode
//! ([`ExecMode::Compiled`]) answers each probe in `O(log n)` from the index
//! structures of `sgl-index` (layered aggregate range trees, quadtrees,
//! kD-trees, sweep-lines and maintained grids behind a categorical hash
//! layer).  Which structure answers each call site, and whether it is
//! rebuilt per tick or maintained across ticks, is the call site's
//! [`PhysicalChoice`] — priced by the cost-based planner or pinned by
//! [`PlannerMode::Pin`] — and the cross-tick [`IndexManager`] keeps the
//! maintained ones in sync.
//!
//! Main entry points: [`execute_tick`] (throwaway manager) and
//! [`execute_tick_with`] (caller-owned manager, used by the engine).

#![warn(missing_docs)]

pub mod builtin_eval;
pub mod checkpoint;
pub mod compile;
pub mod config;
pub mod error;
pub mod filter;
pub mod indexes;
pub(crate) mod mirror;
pub mod oracle;
pub mod planner;
pub mod stats;
pub mod tick;
pub(crate) mod vm;

pub use compile::{compile_script, CompileError, CompiledScript};
pub use config::{
    AdaptiveWindow, ExecConfig, ExecMode, Parallelism, PlannerMode, SpatialAttrs, TickStats,
};
pub use error::{ExecError, Result};
pub use filter::{analyze_filter, FilterAnalysis};
pub use indexes::{fingerprint_values, IndexManager, MaintStats, TickIndexes};
pub use oracle::{execute_tick_oracle, OracleRun};
pub use planner::{
    choose_physical, install_pin, plan_aggregate, strategy_class, AggStrategy, PhysicalChoice,
    PlannedAggregate,
};
/// The two halves of a [`PlannerMode::Pin`], re-exported from the cost model.
pub use sgl_algebra::cost::{MaintenanceChoice, PhysicalBackend};
pub use stats::{CallObs, CallSiteStats, RuntimeStats, TickObservations, BACKEND_COUNT};
pub use tick::{execute_tick, execute_tick_planned, execute_tick_with, plan_registry, ScriptRun};
