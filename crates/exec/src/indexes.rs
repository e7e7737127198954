//! The cross-tick index subsystem: a persistent [`IndexManager`] keeping
//! maintained structures in sync, plus the per-tick [`TickIndexes`] probe
//! cache.
//!
//! Mirrors the experimental setup of §6: the categorical part of each filter
//! (player, unit type) selects partitions of a hash layer; each partition
//! owns the structure required by the aggregate's strategy.  Unlike the
//! paper's engine — which hardcodes rebuild-per-tick — the structures behind
//! the hash layer are pluggable ([`sgl_index::traits`]) and their lifetime
//! is each call site's [`MaintenanceChoice`]:
//!
//! * **`PerTick`** — structures are built lazily on first use and discarded
//!   at end of tick (the paper's choice, §5.3);
//! * **`Incremental`** — maintained [`DynamicAggGrid`]s (and materialized
//!   answers) live inside the [`IndexManager`] across ticks; after each
//!   tick's post-processing and movement the engine hands the environment
//!   back and the manager applies only the per-unit deltas (diffed against
//!   its mirror of the last indexed state — the effect relation alone
//!   cannot describe collision-resolved movement);
//! * **`Rebuild`** — maintained grids whose touched partitions are rebuilt
//!   wholesale instead of patched (the update rate crossed the modeled
//!   break-even).
//!
//! Partition keys are `u64` fingerprints of the categorical `Value` vector
//! (no per-probe string building — the former `encode_values` hot path).

use rustc_hash::FxHashMap;
use std::hash::Hasher;

use sgl_env::{AttrId, EnvTable, Value};
use sgl_index::divisible::DivAcc;
use sgl_index::grid::DynamicAggGrid;
use sgl_index::kdtree::KdTree;
use sgl_index::range_tree::RangeTree2D;
use sgl_index::sweepline::{sweep_min_max, SweepKind};
use sgl_index::traits::{build_agg_index, AggIndex, AggStructureKind, IndexDelta, IndexRow};
use sgl_index::{Point2, Rect};
use sgl_lang::ast::Term;
use sgl_lang::builtins::{AggSpec, SimpleAgg};
use sgl_lang::eval::{eval_term, EvalContext, NoAggregates, ScriptValue};

use sgl_algebra::cost::{MaintenanceChoice, PhysicalBackend};

use crate::config::{ExecConfig, SpatialAttrs, TickStats};
use crate::error::{ExecError, Result};
use crate::filter::FilterAnalysis;
use crate::mirror::{
    channel_column, extract_f64_column, MirrorColumns, MirrorPass, RowMirror, RowSnap, SiteColumns,
};
use crate::planner::{AggStrategy, PlannedAggregate};
use crate::stats::TickObservations;

// ---------------------------------------------------------------------------
// Value fingerprints (the categorical hash layer's key type)
// ---------------------------------------------------------------------------

pub(crate) fn hash_value(h: &mut rustc_hash::FxHasher, v: &Value) {
    match v {
        Value::Int(i) => {
            h.write_u8(1);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write_u8(2);
            h.write_u64(f.to_bits());
        }
        Value::Bool(b) => {
            h.write_u8(3);
            h.write_u8(*b as u8);
        }
        Value::Str(s) => {
            h.write_u8(4);
            // Length-delimit: FxHasher zero-pads the trailing partial word,
            // so "a" and "a\0" would otherwise hash identically — and the
            // fingerprint IS the partition map key.
            h.write_usize(s.len());
            h.write(s.as_bytes());
        }
    }
}

/// Fingerprint of a categorical value vector — the partition key.
pub fn fingerprint_values(vs: &[Value]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for v in vs {
        hash_value(&mut h, v);
    }
    h.finish()
}

/// Strict (type- and bit-sensitive) value equality, matching the semantics
/// of the fingerprint: two values compare equal iff they fingerprint equal.
pub(crate) fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

pub(crate) fn fingerprint_attrs(attrs: &[AttrId]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for a in attrs {
        h.write_usize(*a);
    }
    h.finish()
}

fn fingerprint_terms(terms: &[Term]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    h.write(format!("{terms:?}").as_bytes());
    h.finish()
}

/// A categorical constraint evaluated for one probing unit: required (or
/// forbidden) value per partition attribute, in `cat_attr_ids` order.
type RequiredValues = Vec<(bool, Value)>;

fn partition_matches(partition_values: &[Value], required: &RequiredValues) -> bool {
    for (i, (equal, value)) in required.iter().enumerate() {
        let actual = &partition_values[i];
        if *equal != same_value(actual, value) {
            return false;
        }
    }
    true
}

/// Fingerprint of a single term (the channel-column cache key).
pub(crate) fn fingerprint_term(term: &Term) -> u64 {
    fingerprint_terms(std::slice::from_ref(term))
}

/// Fingerprint of one unit's subscription shape: the categorical constraint
/// values plus the exact rectangle bits.  Two probes with the same
/// fingerprint ask the same question, so a materialized answer keyed by it
/// can be served verbatim.  (Same collision tradeoff as the partition
/// fingerprints above.)
fn subscription_fp(required: &RequiredValues, rect: Option<&Rect>) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for (equal, v) in required {
        h.write_u8(*equal as u8);
        hash_value(&mut h, v);
    }
    match rect {
        None => h.write_u8(0),
        Some(r) => {
            h.write_u8(1);
            h.write_u64(r.x_min.to_bits());
            h.write_u64(r.x_max.to_bits());
            h.write_u64(r.y_min.to_bits());
            h.write_u64(r.y_max.to_bits());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The persistent manager
// ---------------------------------------------------------------------------

/// Counters of one maintenance pass (surfaced per tick by the engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Incremental delta operations applied to maintained structures.
    pub delta_ops: usize,
    /// Maintained partitions rebuilt from scratch.
    pub partition_rebuilds: usize,
    /// Rows diffed against the shared row mirror: the table length, counted
    /// once per pass however many sites read the mirror.
    pub rows_scanned: usize,
    /// Unit keys touched by the tick's combined effect relation (a hint for
    /// correlating effect volume with delta volume; correctness never
    /// depends on it because movement mutates positions outside the effect
    /// relation).
    pub effect_hints: usize,
    /// Materialized answers patched in place from the delta stream.
    pub mat_patched: usize,
    /// Materialized answers invalidated (a supporting row left the
    /// subscription's scope, the subscriber itself changed, or the patch was
    /// not exact) — the next probe recomputes and re-materializes them.
    pub mat_invalidated: usize,
}

impl MaintStats {
    /// Accumulate another pass.
    pub fn accumulate(&mut self, other: &MaintStats) {
        self.delta_ops += other.delta_ops;
        self.partition_rebuilds += other.partition_rebuilds;
        self.rows_scanned += other.rows_scanned;
        self.effect_hints += other.effect_hints;
        self.mat_patched += other.mat_patched;
        self.mat_invalidated += other.mat_invalidated;
    }
}

/// The maintained state of one aggregate definition: one [`DynamicAggGrid`]
/// per categorical partition.
#[derive(Default)]
struct DynAggState {
    cols: SiteColumns,
    /// The mirror generation the grids reflect (`None` = never built).
    synced: Option<u64>,
    grids: FxHashMap<u64, DynamicAggGrid>,
    partition_values: FxHashMap<u64, Vec<Value>>,
}

/// How a materialized call site's folded answers can be patched from the
/// delta stream.  Decided once per site from the aggregate's spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatPatch {
    /// Every output is COUNT: any relevant delta adjusts the support count
    /// and the answer is rebuilt exactly from it.
    Count,
    /// Every output is MIN or MAX: relevant inserts fold into the stored
    /// extremum; removing (or updating) a row whose value equals the
    /// extremum invalidates, because the remaining support is unknown.
    MinMax,
    /// Everything else (float SUM/AVG/STDDEV folds): any relevant delta
    /// invalidates — patching would replay the fold in a different order
    /// than a fresh recompute and the answer must stay bit-identical.
    Replace,
}

/// One materialized answer: the folded result of a subscription, kept
/// current by [`sync_answers`] until a delta it cannot patch exactly
/// arrives.
pub(crate) struct MatEntry {
    /// The categorical constraint the subscription evaluated to.
    required: RequiredValues,
    /// The subscription rectangle (`None` = whole world).
    rect: Option<Rect>,
    /// The folded answer, bit-identical to a fresh recompute.
    pub(crate) answer: ScriptValue,
    /// COUNT sites: number of supporting rows (exact patches).
    support: i64,
    /// MIN/MAX sites: per-output extremum, `None` when the answer serves a
    /// default (possibly-empty support — not insert-patchable).
    extrema: Vec<Option<f64>>,
}

/// A miss-path recompute queued by a shard for materialization.  Shards
/// probe the manager through a shared borrow, so answers travel back to the
/// absorb seam by value; absorbing is idempotent (same subscription → same
/// bits) and entries of distinct subscriptions never collide, so the merge
/// is order-independent across shard counts.
pub(crate) struct MatWrite {
    pub(crate) name: String,
    pub(crate) key: i64,
    pub(crate) sub_fp: u64,
    pub(crate) entry: MatEntry,
}

/// The materialized state of one aggregate call site: the per-subscriber
/// answers, patched from the shared mirror's row changes.
struct MatAggState {
    cols: SiteColumns,
    /// The mirror generation the answers reflect (`None` = never synced).
    synced: Option<u64>,
    patch: MatPatch,
    /// MIN/MAX sites: per-output minimize flag.
    minimize: Vec<bool>,
    /// subscriber key → answers per subscription fingerprint.
    entries: FxHashMap<i64, Vec<(u64, MatEntry)>>,
}

/// The cross-tick owner of aggregate index structures.
///
/// While every call site is rebuilt per tick the manager is stateless
/// (structures live only in the per-tick [`TickIndexes`]).  For maintained
/// and materialized call sites it owns the structures, the shared columnar
/// mirror of the last indexed environment, and the diff/patch machinery
/// that keeps them in sync: [`IndexManager::end_tick`] is called by the
/// engine after post-processing, movement and resurrection have mutated the
/// environment.
pub struct IndexManager {
    spatial: Option<SpatialAttrs>,
    dynamic: FxHashMap<String, DynAggState>,
    /// Materialized answer stores, one per call site the planner routed to
    /// [`PhysicalBackend::Materialized`].  Deliberately absent from
    /// checkpoints: rebuilt lazily on resume, like the per-tick structures.
    materialized: FxHashMap<String, MatAggState>,
    /// What every maintained and materialized site last absorbed.
    mirror: RowMirror,
    synced: bool,
    /// Counters of the most recent maintenance pass.
    pub last_maint: MaintStats,
}

/// The patch class of a materialized site (see [`MatPatch`]).
fn mat_patch_of(plan: &PlannedAggregate) -> MatPatch {
    match &plan.strategy {
        AggStrategy::SweepMinMax => MatPatch::MinMax,
        AggStrategy::DivisibleTree { .. } => {
            let all_count = match &plan.def.spec {
                AggSpec::Simple { outputs } => outputs.iter().all(|o| o.func == SimpleAgg::Count),
                AggSpec::ArgBest { .. } => false,
            };
            if all_count {
                MatPatch::Count
            } else {
                MatPatch::Replace
            }
        }
        _ => MatPatch::Replace,
    }
}

/// Per-output minimize flags of a MIN/MAX site (empty otherwise).
fn mat_minimize_of(plan: &PlannedAggregate) -> Vec<bool> {
    match (&plan.strategy, &plan.def.spec) {
        (AggStrategy::SweepMinMax, AggSpec::Simple { outputs }) => {
            outputs.iter().map(|o| o.func == SimpleAgg::Min).collect()
        }
        _ => Vec::new(),
    }
}

impl IndexManager {
    /// Create a manager for a configuration.
    pub fn new(config: &ExecConfig) -> IndexManager {
        IndexManager {
            spatial: config.spatial,
            dynamic: FxHashMap::default(),
            materialized: FxHashMap::default(),
            mirror: RowMirror::default(),
            synced: false,
            last_maint: MaintStats::default(),
        }
    }

    /// Number of maintained aggregate states (0 while every call site is
    /// rebuilt per tick).
    pub fn maintained_aggregates(&self) -> usize {
        self.dynamic.len()
    }

    /// Number of call sites with a materialized answer store.
    pub fn materialized_sites(&self) -> usize {
        self.materialized.len()
    }

    /// Number of live materialized answers across all sites.
    pub fn materialized_entries(&self) -> usize {
        self.materialized
            .values()
            .map(|s| s.entries.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Drop all maintained state (e.g. after out-of-band environment edits);
    /// the next tick rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.dynamic.clear();
        self.materialized.clear();
        self.mirror = RowMirror::default();
        self.synced = false;
    }

    /// Mark the maintained state as out of sync with the environment (the
    /// engine calls this after mutation phases that ran without a
    /// maintenance pass, and after the cost-based planner changed which
    /// call sites are maintained).  Structures are kept; the next
    /// [`IndexManager::prepare`] re-syncs them.
    pub fn mark_stale(&mut self) {
        self.synced = false;
    }

    /// Rows-per-area density measured by the live maintained grids (their
    /// own size hints), if any are alive.  The statistics collector prefers
    /// this over the bounding-box estimate: occupied cells describe where
    /// units actually are.
    pub fn density_hint(&self) -> Option<f64> {
        let mut rows = 0usize;
        let mut area = 0.0f64;
        for state in self.dynamic.values() {
            for grid in state.grids.values() {
                if let Some(d) = AggIndex::density_hint(grid) {
                    let n = AggIndex::size_hint_rows(grid);
                    rows += n;
                    area += n as f64 / d;
                }
            }
        }
        (rows > 0 && area > 0.0).then(|| rows as f64 / area)
    }

    /// Synchronize the maintained structures with the environment.  Called
    /// by the engine after the mutation phases of each tick (and lazily
    /// before execution when the state is stale).
    ///
    /// One pass serves every site: each distinct column the sites read is
    /// extracted once and compared row by row with the shared mirror, and
    /// each site then works only on the rows that changed in its own
    /// columns.  Correctness comes from this diff, not from the tick's
    /// effect relation, because movement resolves collisions outside it.
    pub fn end_tick(
        &mut self,
        table: &EnvTable,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
    ) -> Result<MaintStats> {
        if !planned.values().any(PlannedAggregate::needs_maintenance) {
            self.invalidate();
            self.synced = true;
            return Ok(MaintStats::default());
        }
        let Some(spatial) = self.spatial else {
            return Ok(MaintStats::default());
        };
        // Drop states for aggregates that disappeared from the registry or
        // are no longer routed to a maintained structure; register new ones.
        // A site whose columns changed starts over.
        self.dynamic.retain(|name, _| {
            planned
                .get(name)
                .is_some_and(PlannedAggregate::is_maintained)
        });
        self.materialized.retain(|name, _| {
            planned
                .get(name)
                .is_some_and(PlannedAggregate::is_materialized)
        });
        for (name, plan) in planned {
            if plan.is_maintained() {
                let cols = SiteColumns::of(plan, table)?;
                let state = self.dynamic.entry(name.clone()).or_default();
                if state.cols != cols {
                    *state = DynAggState {
                        cols,
                        ..DynAggState::default()
                    };
                }
            }
            if plan.is_materialized() {
                let cols = SiteColumns::of(plan, table)?;
                let state = self
                    .materialized
                    .entry(name.clone())
                    .or_insert_with(|| MatAggState {
                        cols: cols.clone(),
                        synced: None,
                        patch: MatPatch::Replace,
                        minimize: Vec::new(),
                        entries: FxHashMap::default(),
                    });
                if state.cols != cols {
                    state.cols = cols;
                    state.synced = None;
                }
                state.patch = mat_patch_of(plan);
                state.minimize = mat_minimize_of(plan);
            }
        }

        let cur = MirrorColumns::extract(
            table,
            spatial,
            constants,
            self.dynamic
                .values()
                .map(|s| &s.cols)
                .chain(self.materialized.values().map(|s| &s.cols)),
        )?;
        let mut pass = self.mirror.pass(&cur);
        let mut stats = MaintStats {
            rows_scanned: table.len(),
            ..MaintStats::default()
        };
        for (name, plan) in planned {
            if let Some(state) = self.dynamic.get_mut(name) {
                let rebuild = plan
                    .choice
                    .as_ref()
                    .is_some_and(|c| c.maintenance == MaintenanceChoice::Rebuild);
                sync_grids(state, &mut pass, &cur, rebuild, &mut stats)?;
                state.synced = Some(pass.next_generation());
            }
            if let Some(state) = self.materialized.get_mut(name) {
                sync_answers(state, &pass, &cur, table.len(), &mut stats)?;
                state.synced = Some(pass.next_generation());
            }
        }
        self.mirror.advance(cur);
        self.synced = true;
        self.last_maint = stats;
        Ok(stats)
    }

    /// [`IndexManager::end_tick`] plus accounting of the tick's effect
    /// relation — the engine's hand-back entry point after post-processing,
    /// movement and resurrection.
    pub fn end_tick_with_effects(
        &mut self,
        table: &EnvTable,
        effects: &sgl_env::EffectBuffer,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
    ) -> Result<MaintStats> {
        let mut stats = self.end_tick(table, planned, constants)?;
        stats.effect_hints = effects.len();
        self.last_maint = stats;
        Ok(stats)
    }

    /// Ensure the maintained state is usable before a tick executes; no-op
    /// when [`IndexManager::end_tick`] already synced it.
    pub fn prepare(
        &mut self,
        table: &EnvTable,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &FxHashMap<String, Value>,
    ) -> Result<MaintStats> {
        if self.synced {
            return Ok(MaintStats::default());
        }
        self.end_tick(table, planned, constants)
    }

    fn state(&self, name: &str) -> Option<&DynAggState> {
        self.dynamic.get(name)
    }

    /// Absorb the miss-path recomputes of one tick into the materialized
    /// answer stores.  Writes are sorted before insertion so the store's
    /// layout — and therefore every later serve/patch pass — is independent
    /// of shard count and completion order.  Writes for sites that lost
    /// their store (the plan changed mid-flight) are dropped.
    pub(crate) fn absorb_materialized(&mut self, mut writes: Vec<MatWrite>) -> usize {
        if writes.is_empty() {
            return 0;
        }
        writes.sort_by(|a, b| {
            (a.name.as_str(), a.key, a.sub_fp).cmp(&(b.name.as_str(), b.key, b.sub_fp))
        });
        let mut absorbed = 0;
        for w in writes {
            let Some(state) = self.materialized.get_mut(&w.name) else {
                continue;
            };
            let slot = state.entries.entry(w.key).or_default();
            match slot.iter_mut().find(|(fp, _)| *fp == w.sub_fp) {
                // Duplicate recomputes of one subscription carry the same
                // bits; keeping the last is idempotent.
                Some((_, entry)) => *entry = w.entry,
                None => slot.push((w.sub_fp, w.entry)),
            }
            absorbed += 1;
        }
        absorbed
    }
}

pub(crate) fn resolve_cat_attrs(
    analysis: &FilterAnalysis,
    table: &EnvTable,
) -> Result<Vec<AttrId>> {
    analysis
        .cat_attr_names()
        .iter()
        .map(|n| {
            table
                .schema()
                .attr_id(n)
                .ok_or_else(|| ExecError::Internal(format!("unknown categorical attribute `{n}`")))
        })
        .collect()
}

/// One maintained row operation on a partition, by mirror / current row.
enum GridOp {
    Insert(u32),
    Remove(u32),
    Update(u32, u32),
}

/// Bring one maintained aggregate's grids to the current columns.  A site
/// that is new or missed a pass builds every partition from the columns;
/// otherwise its row changes are patched in — or, under `rebuild` (and for
/// a partition whose grid is empty), every touched partition is rebuilt
/// from the columns instead.
fn sync_grids(
    state: &mut DynAggState,
    pass: &mut MirrorPass<'_>,
    cur: &MirrorColumns,
    rebuild: bool,
    stats: &mut MaintStats,
) -> Result<()> {
    let channels = state.cols.channels.len();
    let cur = cur.site(&state.cols)?;
    let Some(old) = pass.prior(&state.cols, state.synced) else {
        state.grids.clear();
        state.partition_values.clear();
        for (&part, rows) in pass.partitions(&state.cols, &cur) {
            let mut grid = DynamicAggGrid::new(0.0, channels);
            grid.rebuild_owned(rows.iter().map(|&r| cur.index_row(r)).collect());
            state.grids.insert(part, grid);
            state.partition_values.insert(part, cur.cat_values(rows[0]));
            stats.partition_rebuilds += 1;
        }
        return Ok(());
    };

    let mut ops: FxHashMap<u64, Vec<GridOp>> = FxHashMap::default();
    for change in pass.changes(&state.cols) {
        let (removed, inserted) = match (change.old, change.new) {
            (Some(o), Some(r)) => {
                let (old_part, part) = (old.partition(o), cur.partition(r));
                if old_part != part {
                    (Some((old_part, o)), Some((part, r)))
                } else {
                    if old.point(o) != cur.point(r) || !old.same_chans(o, &cur, r, |a, b| a == b) {
                        ops.entry(part).or_default().push(GridOp::Update(o, r));
                    }
                    continue;
                }
            }
            (Some(o), None) => (Some((old.partition(o), o)), None),
            (None, Some(r)) => (None, Some((cur.partition(r), r))),
            (None, None) => continue,
        };
        if let Some((part, o)) = removed {
            ops.entry(part).or_default().push(GridOp::Remove(o));
        }
        if let Some((part, r)) = inserted {
            state
                .partition_values
                .entry(part)
                .or_insert_with(|| cur.cat_values(r));
            ops.entry(part).or_default().push(GridOp::Insert(r));
        }
    }

    for (part, part_ops) in ops {
        let (inserts, removes) = part_ops.iter().fold((0, 0), |(i, r), op| match op {
            GridOp::Insert(_) => (i + 1, r),
            GridOp::Remove(_) => (i, r + 1),
            GridOp::Update(..) => (i, r),
        });
        let indexed = state.grids.get(&part).map_or(0, AggIndex::len);
        let size = (indexed + inserts).saturating_sub(removes);
        if size == 0 {
            // Partition emptied out entirely.
            state.grids.remove(&part);
            state.partition_values.remove(&part);
            continue;
        }
        let grid = state
            .grids
            .entry(part)
            .or_insert_with(|| DynamicAggGrid::new(0.0, channels));
        if rebuild || AggIndex::is_empty(grid) {
            let rows = pass.partitions(&state.cols, &cur).get(&part);
            grid.rebuild_owned(
                rows.into_iter()
                    .flatten()
                    .map(|&r| cur.index_row(r))
                    .collect(),
            );
            stats.partition_rebuilds += 1;
            continue;
        }
        for op in &part_ops {
            grid.apply_delta(&match *op {
                GridOp::Insert(r) => IndexDelta::Insert {
                    row: cur.index_row(r),
                },
                GridOp::Remove(o) => IndexDelta::Remove {
                    id: old.key(o) as u64,
                    point: old.point(o),
                },
                GridOp::Update(o, r) => IndexDelta::Update {
                    id: cur.key(r) as u64,
                    old_point: old.point(o),
                    row: cur.index_row(r),
                },
            });
        }
        stats.delta_ops += part_ops.len();
    }
    Ok(())
}

/// One row's change as a materialized site reads it (`None` = absent).
struct MatDelta {
    key: i64,
    old: Option<RowSnap>,
    new: Option<RowSnap>,
}

/// Is a row snapshot inside an entry's subscription scope?
fn mat_relevant(side: Option<&RowSnap>, entry: &MatEntry) -> bool {
    side.is_some_and(|(cats, point, _)| {
        partition_matches(cats, &entry.required)
            && entry.rect.as_ref().is_none_or(|r| r.contains(point))
    })
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Apply one tick's delta list to a materialized entry.  `Some(touched)`
/// keeps the entry (patched in place when `touched`); `None` means it
/// cannot be patched exactly and must be dropped (the next probe recomputes
/// and re-materializes it).
fn mat_patch_entry(
    entry: &mut MatEntry,
    deltas: &[MatDelta],
    patch: MatPatch,
    minimize: &[bool],
) -> Option<bool> {
    let mut touched = false;
    let mut count_touched = false;
    for d in deltas {
        let old_rel = mat_relevant(d.old.as_ref(), entry);
        let new_rel = mat_relevant(d.new.as_ref(), entry);
        if !old_rel && !new_rel {
            continue;
        }
        // A row that stayed in scope with unchanged channel values cannot
        // change the fold (positions feed membership, channels feed the
        // outputs): the common "moved within the rectangle" delta.
        if old_rel && new_rel {
            if let (Some((_, _, oc)), Some((_, _, nc))) = (&d.old, &d.new) {
                if bits_equal(oc, nc) {
                    continue;
                }
            }
        }
        touched = true;
        match patch {
            MatPatch::Replace => return None,
            MatPatch::Count => {
                entry.support += new_rel as i64 - old_rel as i64;
                count_touched = true;
            }
            MatPatch::MinMax => {
                if old_rel {
                    let (_, _, chans) = d.old.as_ref()?;
                    if !mat_minmax_removal_safe(entry, chans) {
                        return None;
                    }
                }
                if new_rel {
                    let (_, _, chans) = d.new.as_ref()?;
                    if !mat_minmax_insert(entry, chans, minimize) {
                        return None;
                    }
                }
            }
        }
    }
    if count_touched {
        if entry.support <= 0 {
            // Support drained (or the patch lost track): serve the defaults
            // through a fresh recompute instead of guessing.
            return None;
        }
        let ScriptValue::Record(fields) = &mut entry.answer else {
            return None;
        };
        for (_, v) in fields.iter_mut() {
            *v = Value::Int(entry.support);
        }
    }
    Some(touched)
}

/// Removing a row never changes a MIN/MAX answer unless the row's value
/// *is* the extremum (then the remaining support is unknown → invalidate).
/// Unknown emptiness (`None` extremum) is never removal-safe.
fn mat_minmax_removal_safe(entry: &MatEntry, chans: &[f64]) -> bool {
    entry
        .extrema
        .iter()
        .enumerate()
        .all(|(i, e)| e.is_some_and(|e| chans.get(i).is_some_and(|v| v.to_bits() != e.to_bits())))
}

/// Fold an inserted row into a MIN/MAX answer.  Bails out (→ invalidate)
/// on possibly-empty answers, NaN values, and ±0 ties whose folded bits
/// could differ from a fresh recompute.
fn mat_minmax_insert(entry: &mut MatEntry, chans: &[f64], minimize: &[bool]) -> bool {
    for (i, slot) in entry.extrema.iter_mut().enumerate() {
        let Some(e) = *slot else {
            return false;
        };
        let Some(&v) = chans.get(i) else {
            return false;
        };
        if v.is_nan() {
            return false;
        }
        let better = if minimize[i] { v < e } else { v > e };
        if better {
            *slot = Some(v);
        } else if v == e && v.to_bits() != e.to_bits() {
            return false;
        }
    }
    let ScriptValue::Record(fields) = &mut entry.answer else {
        return false;
    };
    if fields.len() != entry.extrema.len() {
        return false;
    }
    for ((_, v), e) in fields.iter_mut().zip(&entry.extrema) {
        match e {
            Some(e) => *v = Value::Float(*e),
            None => return false,
        }
    }
    true
}

/// Bring one materialized site's answers to the current columns: patch (or
/// invalidate) them from the site's row changes.  A site that is new or
/// missed a pass cannot tell what changed under its answers and drops them.
fn sync_answers(
    state: &mut MatAggState,
    pass: &MirrorPass<'_>,
    cur: &MirrorColumns,
    rows: usize,
    stats: &mut MaintStats,
) -> Result<()> {
    let cur = cur.site(&state.cols)?;
    let mut entry_count: usize = state.entries.values().map(Vec::len).sum();
    // Subscriptions accumulate per (subscriber, fingerprint); a subscriber
    // probing with ever-changing arguments would otherwise grow the store
    // without bound (its stale fingerprints are never served again).
    let cap = 8 * (rows + 64);
    let old = pass
        .prior(&state.cols, state.synced)
        .filter(|_| entry_count <= cap);
    let Some(old) = old else {
        stats.mat_invalidated += entry_count;
        state.entries.clear();
        return Ok(());
    };
    if entry_count == 0 {
        return Ok(());
    }
    let deltas: Vec<MatDelta> = pass
        .changes(&state.cols)
        .into_iter()
        .filter(|c| match (c.old, c.new) {
            (Some(o), Some(r)) => {
                !old.same_cats(o, &cur, r)
                    || old.point(o) != cur.point(r)
                    || !old.same_chans(o, &cur, r, |a, b| a.to_bits() == b.to_bits())
            }
            _ => true,
        })
        .map(|c| MatDelta {
            key: c.key,
            old: c.old.map(|o| old.snap(o)),
            new: c.new.map(|r| cur.snap(r)),
        })
        .collect();
    if deltas.is_empty() {
        return Ok(());
    }

    // A changed (or dead) subscriber invalidates its own answers: its probe
    // arguments may derive from any of its attributes, including some the
    // mirror does not track.
    for d in &deltas {
        if let Some(dropped) = state.entries.remove(&d.key) {
            stats.mat_invalidated += dropped.len();
            entry_count -= dropped.len();
        }
    }

    // Mass-invalidation guard: when the patch pass would cost more than the
    // recomputes it saves, drop everything and let the misses rebuild.
    if deltas.len().saturating_mul(entry_count) > 256 * (rows + 64) {
        stats.mat_invalidated += entry_count;
        state.entries.clear();
        return Ok(());
    }

    let patch = state.patch;
    let minimize = &state.minimize;
    for entries in state.entries.values_mut() {
        entries.retain_mut(
            |(_, entry)| match mat_patch_entry(entry, &deltas, patch, minimize) {
                Some(touched) => {
                    stats.mat_patched += touched as usize;
                    true
                }
                None => {
                    stats.mat_invalidated += 1;
                    false
                }
            },
        );
    }
    state.entries.retain(|_, v| !v.is_empty());
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-tick probe cache
// ---------------------------------------------------------------------------

/// The backend label a per-tick structure kind reports to the statistics
/// collector (the *executed* choice surfaced in `explain`).
fn served_backend_of(kind: AggStructureKind) -> PhysicalBackend {
    match kind {
        AggStructureKind::LayeredTree => PhysicalBackend::LayeredTree,
        AggStructureKind::QuadTree { .. } => PhysicalBackend::QuadTree,
        AggStructureKind::DynamicGrid { .. } => PhysicalBackend::MaintainedGrid,
    }
}

/// A categorical partition of the environment.
struct Partition {
    values: Vec<Value>,
    rows: Vec<u32>,
}

/// The per-tick cache of index structures (the rebuild side of the
/// maintenance spectrum), layered over the persistent [`IndexManager`] (the maintained
/// side).  Structures are built lazily on first use and discarded when the
/// tick's `TickIndexes` is dropped.
pub struct TickIndexes<'a> {
    manager: &'a IndexManager,
    table: &'a EnvTable,
    spatial: SpatialAttrs,
    constants: &'a FxHashMap<String, Value>,
    /// partition signature fp → (attr ids, partition fp → partition).
    partitions: FxHashMap<u64, FxHashMap<u64, Partition>>,
    /// (sig fp, partition fp, channel fp) → aggregate structure.
    agg_structs: FxHashMap<(u64, u64, u64), Box<dyn AggIndex + Send>>,
    /// (sig fp, partition fp) → (kD-tree, row ids in tree order).
    kd_trees: FxHashMap<(u64, u64), (KdTree, Vec<u32>)>,
    /// (sig fp, partition fp) → (enumeration range tree, row ids).
    enum_trees: FxHashMap<(u64, u64), (RangeTree2D, Vec<u32>)>,
    /// sweep fingerprint → per-row best (value, row id) results.
    sweeps: FxHashMap<u64, Vec<Option<(f64, u32)>>>,
    /// Statistics.
    pub stats: TickStats,
    /// Per-call-site observations (selectivity, rect areas, served
    /// backends) for the cost-based planner's statistics feedback loop.
    pub obs: TickObservations,
    /// Lazily extracted position columns: one page walk per tick the first
    /// time a structure build or sweep batch needs points, then every
    /// subsequent point read is a plain vector index.
    positions: Option<(Vec<f64>, Vec<f64>)>,
    /// Lazily extracted key column (kD-tree tie-break ordering and
    /// nearest-hit key lookups).
    keys: Option<Vec<i64>>,
    /// Channel terms evaluated column-at-a-time, keyed by term fingerprint
    /// — shared across the partitions of one tick so a multi-partition
    /// build still evaluates each term once per row.
    chan_cols: FxHashMap<u64, Vec<f64>>,
    /// Scratch: matching grid fingerprints of the current probe, reused
    /// across probes to keep the hot path allocation-free.
    fps_scratch: Vec<u64>,
    /// Scratch: the running accumulator of the current divisible probe.
    probe_acc: DivAcc,
    /// Scratch: one grid's partial accumulator within a probe (kept separate
    /// from `probe_acc` so the merge order — per-grid partial, then merge —
    /// is bit-identical to building a fresh accumulator per grid).
    part_acc: DivAcc,
    /// Miss-path recomputes of materialized sites, queued for
    /// [`IndexManager::absorb_materialized`] once the executor regains the
    /// mutable manager borrow after the shards join.
    mat_writes: Vec<MatWrite>,
}

impl IndexManager {
    /// Open a per-tick probe cache through a shared borrow — the executor's
    /// entry point, where several shards may probe one manager concurrently.
    /// Maintained state must already be in sync ([`IndexManager::prepare`] /
    /// [`IndexManager::end_tick`]); this never mutates the manager.
    pub fn tick_view<'a>(
        &'a self,
        table: &'a EnvTable,
        constants: &'a FxHashMap<String, Value>,
    ) -> Result<Option<TickIndexes<'a>>> {
        let Some(spatial) = self.spatial else {
            return Ok(None);
        };
        if !self.synced && (!self.dynamic.is_empty() || !self.materialized.is_empty()) {
            return Err(ExecError::Internal(
                "tick_view on an unsynced manager (call prepare/end_tick first)".into(),
            ));
        }
        Ok(Some(TickIndexes {
            manager: self,
            table,
            spatial,
            constants,
            partitions: FxHashMap::default(),
            agg_structs: FxHashMap::default(),
            kd_trees: FxHashMap::default(),
            enum_trees: FxHashMap::default(),
            sweeps: FxHashMap::default(),
            stats: TickStats::default(),
            obs: TickObservations::default(),
            positions: None,
            keys: None,
            chan_cols: FxHashMap::default(),
            fps_scratch: Vec::new(),
            probe_acc: DivAcc::identity(0),
            part_acc: DivAcc::identity(0),
            mat_writes: Vec::new(),
        }))
    }
}

impl<'a> TickIndexes<'a> {
    /// Extract the position columns once per tick (plain indexing after).
    fn ensure_positions(&mut self) -> Result<()> {
        if self.positions.is_none() {
            self.positions = Some((
                extract_f64_column(self.table, self.spatial.x)?,
                extract_f64_column(self.table, self.spatial.y)?,
            ));
        }
        Ok(())
    }

    /// Extract the key column once per tick.
    fn ensure_keys(&mut self) -> Result<()> {
        if self.keys.is_none() {
            self.keys = Some(self.table.column_i64(self.table.schema().key_attr())?);
        }
        Ok(())
    }

    /// Evaluate (and cache) a channel term's per-row values; returns the
    /// cache key.
    fn ensure_chan_col(&mut self, term: &Term) -> Result<u64> {
        let fp = fingerprint_term(term);
        if !self.chan_cols.contains_key(&fp) {
            let col = channel_column(term, self.table, self.constants)?;
            self.chan_cols.insert(fp, col);
        }
        Ok(fp)
    }

    /// Ensure the partition map for a set of categorical attributes exists;
    /// returns its signature fingerprint.
    fn ensure_partitions(&mut self, cat_attrs: &[AttrId]) -> Result<u64> {
        let sig = fingerprint_attrs(cat_attrs);
        if !self.partitions.contains_key(&sig) {
            // One page walk per categorical column, then fingerprint from
            // the extracted vectors — the per-row value vector is only
            // materialised the first time a partition appears.
            let cat_cols: Vec<Vec<Value>> = cat_attrs
                .iter()
                .map(|a| self.table.column_values(*a))
                .collect::<std::result::Result<_, _>>()?;
            let mut map: FxHashMap<u64, Partition> = FxHashMap::default();
            for idx in 0..self.table.len() {
                let mut h = rustc_hash::FxHasher::default();
                for col in &cat_cols {
                    hash_value(&mut h, &col[idx]);
                }
                let fp = h.finish();
                map.entry(fp)
                    .or_insert_with(|| Partition {
                        values: cat_cols.iter().map(|col| col[idx].clone()).collect(),
                        rows: Vec::new(),
                    })
                    .rows
                    .push(idx as u32);
            }
            self.partitions.insert(sig, map);
        }
        Ok(sig)
    }

    /// Partition fingerprints under a signature, with deterministic order.
    fn partition_fps(&self, sig: u64) -> Vec<u64> {
        let mut fps: Vec<u64> = self
            .partitions
            .get(&sig)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        fps.sort_unstable();
        fps
    }

    fn partition_rows(&self, sig: u64, fp: u64) -> Vec<u32> {
        self.partitions
            .get(&sig)
            .and_then(|m| m.get(&fp))
            .map(|p| p.rows.clone())
            .unwrap_or_default()
    }

    fn partition_values(&self, sig: u64, fp: u64) -> Vec<Value> {
        self.partitions
            .get(&sig)
            .and_then(|m| m.get(&fp))
            .map(|p| p.values.clone())
            .unwrap_or_default()
    }

    /// Resolve the categorical attribute ids of an analysis (sorted by name,
    /// matching the order of `required_values`).
    fn cat_attr_ids(&self, analysis: &FilterAnalysis) -> Result<Vec<AttrId>> {
        resolve_cat_attrs(analysis, self.table)
    }

    /// Evaluate the categorical constraint values for one probing unit, in
    /// the same order as [`Self::cat_attr_ids`].
    fn required_values(
        analysis: &FilterAnalysis,
        unit_ctx: &EvalContext<'_>,
    ) -> Result<RequiredValues> {
        let mut no_aggs = NoAggregates;
        let names = analysis.cat_attr_names();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            // If several constraints mention the same attribute we evaluate
            // the first (our builtins never have more than one per attribute).
            // The names come from the constraint list itself, so the find
            // can only miss on an internal invariant violation.
            let Some(c) = analysis.cats.iter().find(|c| c.attr == name) else {
                return Err(ExecError::Internal(format!(
                    "categorical constraint for `{name}` disappeared from its analysis"
                )));
            };
            let v = eval_term(&c.value, unit_ctx, &mut no_aggs)?
                .as_scalar()?
                .clone();
            out.push((c.equal, v));
        }
        Ok(out)
    }

    /// Evaluate the rectangle of an analysis for one probing unit.  `None`
    /// when the analysis has no spatial bounds (aggregate over the whole
    /// world).
    fn rect_for(analysis: &FilterAnalysis, unit_ctx: &EvalContext<'_>) -> Result<Option<Rect>> {
        let (Some(x_lo), Some(x_hi), Some(y_lo), Some(y_hi)) = (
            &analysis.x_lo,
            &analysis.x_hi,
            &analysis.y_lo,
            &analysis.y_hi,
        ) else {
            return Ok(None);
        };
        let mut no_aggs = NoAggregates;
        let mut get = |t: &Term| -> Result<f64> {
            Ok(eval_term(t, unit_ctx, &mut no_aggs)?
                .as_scalar()?
                .as_f64()?)
        };
        Ok(Some(Rect::new(
            get(x_lo)?,
            get(x_hi)?,
            get(y_lo)?,
            get(y_hi)?,
        )))
    }

    /// The maintained state for an aggregate, when its choice keeps one.
    fn maintained(&self, plan: &PlannedAggregate) -> Option<&'a DynAggState> {
        if plan.is_maintained() {
            self.manager.state(&plan.def.name)
        } else {
            None
        }
    }

    /// Fill `fps` with the fingerprints of the maintained grids whose
    /// partitions match the constraints, in deterministic (sorted) order —
    /// the allocation-free replacement for collecting matching grid
    /// references on every probe.
    fn fill_matching_fps(state: &DynAggState, required: &RequiredValues, fps: &mut Vec<u64>) {
        fps.clear();
        fps.extend(state.grids.keys().copied().filter(|fp| {
            state
                .partition_values
                .get(fp)
                .is_some_and(|values| partition_matches(values, required))
        }));
        fps.sort_unstable();
    }

    fn ensure_agg_struct(
        &mut self,
        kind: AggStructureKind,
        sig: u64,
        part_fp: u64,
        channels: &[Term],
    ) -> Result<(u64, u64, u64)> {
        let key = (sig, part_fp, fingerprint_terms(channels));
        if self.agg_structs.contains_key(&key) {
            return Ok(key);
        }
        let rows = self.partition_rows(sig, part_fp);
        let chan_fps: Vec<u64> = channels
            .iter()
            .map(|c| self.ensure_chan_col(c))
            .collect::<Result<_>>()?;
        self.ensure_positions()?;
        let index_rows: Vec<IndexRow> = {
            let (xs, ys) = self
                .positions
                .as_ref()
                .ok_or_else(|| ExecError::Internal("positions vanished after ensure".into()))?;
            rows.iter()
                .map(|&r| {
                    let r = r as usize;
                    let point = Point2::new(xs[r], ys[r]);
                    let values: Vec<f64> =
                        chan_fps.iter().map(|fp| self.chan_cols[fp][r]).collect();
                    IndexRow::new(r as u64, point, values)
                })
                .collect()
        };
        self.stats.indexes_built += 1;
        self.agg_structs
            .insert(key, build_agg_index(kind, channels.len(), &index_rows));
        Ok(key)
    }

    fn ensure_kd_tree(&mut self, sig: u64, part_fp: u64) -> Result<()> {
        if self.kd_trees.contains_key(&(sig, part_fp)) {
            return Ok(());
        }
        let mut rows = self.partition_rows(sig, part_fp);
        // Local ids in ascending key order: the kD-tree breaks exact
        // distance ties toward the smallest local id, which this ordering
        // turns into the reference "smallest key wins" rule.  Keys are
        // unique, so the unstable sort is deterministic.
        self.ensure_keys()?;
        self.ensure_positions()?;
        let points: Vec<Point2> = {
            let keys = self
                .keys
                .as_ref()
                .ok_or_else(|| ExecError::Internal("keys vanished after ensure".into()))?;
            rows.sort_unstable_by_key(|r| keys[*r as usize]);
            let (xs, ys) = self
                .positions
                .as_ref()
                .ok_or_else(|| ExecError::Internal("positions vanished after ensure".into()))?;
            rows.iter()
                .map(|&r| Point2::new(xs[r as usize], ys[r as usize]))
                .collect()
        };
        self.stats.indexes_built += 1;
        self.kd_trees
            .insert((sig, part_fp), (KdTree::build(&points), rows));
        Ok(())
    }

    /// Ensure an enumeration range tree over a partition (used for indexed
    /// area-of-effect actions, §5.4).
    pub fn ensure_enum_tree(&mut self, cat_attrs: &[AttrId], part_fp: u64) -> Result<(u64, u64)> {
        let sig = self.ensure_partitions(cat_attrs)?;
        if !self.enum_trees.contains_key(&(sig, part_fp)) {
            let rows = self.partition_rows(sig, part_fp);
            self.ensure_positions()?;
            let points: Vec<Point2> = {
                let (xs, ys) = self
                    .positions
                    .as_ref()
                    .ok_or_else(|| ExecError::Internal("positions vanished after ensure".into()))?;
                rows.iter()
                    .map(|&r| Point2::new(xs[r as usize], ys[r as usize]))
                    .collect()
            };
            self.stats.indexes_built += 1;
            self.enum_trees
                .insert((sig, part_fp), (RangeTree2D::build(&points), rows));
        }
        Ok((sig, part_fp))
    }

    /// Enumerate the row ids of a partition falling inside a rectangle.
    pub fn enum_query(
        &mut self,
        cat_attrs: &[AttrId],
        part_fp: u64,
        rect: &Rect,
    ) -> Result<Vec<u32>> {
        let key = self.ensure_enum_tree(cat_attrs, part_fp)?;
        let (tree, rows) = self
            .enum_trees
            .get(&key)
            .ok_or_else(|| ExecError::Internal("enumeration tree vanished after ensure".into()))?;
        self.stats.index_probes += 1;
        Ok(tree
            .query(rect)
            .into_iter()
            .map(|i| rows[i as usize])
            .collect())
    }

    /// Partition fingerprints for a categorical signature (building the
    /// partition map first).
    pub fn partition_fps_for(&mut self, cat_attrs: &[AttrId]) -> Result<Vec<u64>> {
        let sig = self.ensure_partitions(cat_attrs)?;
        Ok(self.partition_fps(sig))
    }

    /// Evaluate a planned aggregate for one probing unit through its index.
    ///
    /// `ctx.bindings` must already hold the call's bound parameters (`range`
    /// etc.) and nothing else needs to be visible: built-in aggregate
    /// definitions are *closed* — their analysis terms reference parameters,
    /// `u.*`/`e.*` attributes and named constants only, never the calling
    /// script's `let` bindings — so callers hand over their reusable
    /// parameter map directly instead of this function cloning and merging
    /// binding maps on every probe.
    pub fn evaluate(
        &mut self,
        planned: &PlannedAggregate,
        ctx: &EvalContext<'_>,
    ) -> Result<Option<ScriptValue>> {
        // A `Scan` choice — or no choice yet — sends the probe back to the
        // caller's scan path (identical results, no structure built).
        if planned
            .choice
            .as_ref()
            .is_none_or(|c| c.backend == PhysicalBackend::Scan)
        {
            return Ok(None);
        }
        if planned.is_materialized() {
            return self.eval_materialized(planned, ctx).map(Some);
        }
        match &planned.strategy {
            AggStrategy::Scan => Ok(None),
            AggStrategy::DivisibleTree {
                channels,
                output_channels,
            } => self
                .eval_divisible(planned, channels, output_channels, ctx)
                .map(Some),
            AggStrategy::KdNearest => self.eval_nearest(planned, ctx).map(Some),
            AggStrategy::SweepMinMax => self.eval_min_max(planned, ctx).map(Some),
        }
    }

    /// Look up one subscriber's materialized answer (shared manager borrow,
    /// so the reference outlives `&mut self` calls on the cache).
    fn mat_entry(&self, name: &str, key: i64, sub_fp: u64) -> Option<&'a MatEntry> {
        let state = self.manager.materialized.get(name)?;
        state
            .entries
            .get(&key)?
            .iter()
            .find(|(fp, _)| *fp == sub_fp)
            .map(|(_, e)| e)
    }

    /// Take the tick's queued materialized writes (the absorb seam).
    pub(crate) fn take_mat_writes(&mut self) -> Vec<MatWrite> {
        std::mem::take(&mut self.mat_writes)
    }

    /// Serve a materialized call site: answer from the store when the
    /// subscription is live, otherwise recompute through the per-tick
    /// structure path and queue the answer for materialization.
    fn eval_materialized(
        &mut self,
        planned: &PlannedAggregate,
        ctx: &EvalContext<'_>,
    ) -> Result<ScriptValue> {
        let required = Self::required_values(&planned.analysis, ctx)?;
        let rect = Self::rect_for(&planned.analysis, ctx)?;
        let sub_fp = subscription_fp(&required, rect.as_ref());
        let key = ctx.unit_key;
        if let Some(entry) = self.mat_entry(&planned.def.name, key, sub_fp) {
            self.stats.index_probes += 1;
            self.stats.materialized_serves += 1;
            self.obs
                .record_served(&planned.def.name, PhysicalBackend::Materialized);
            return Ok(entry.answer.clone());
        }
        match &planned.strategy {
            AggStrategy::DivisibleTree {
                channels,
                output_channels,
            } => {
                let answer = self.eval_divisible(planned, channels, output_channels, ctx)?;
                // `probe_acc` still holds this probe's fold.
                let support = self.probe_acc.count() as i64;
                self.mat_writes.push(MatWrite {
                    name: planned.def.name.clone(),
                    key,
                    sub_fp,
                    entry: MatEntry {
                        required,
                        rect,
                        answer: answer.clone(),
                        support,
                        extrema: Vec::new(),
                    },
                });
                Ok(answer)
            }
            AggStrategy::SweepMinMax => {
                let answer = self.eval_min_max(planned, ctx)?;
                let outputs = match &planned.def.spec {
                    AggSpec::Simple { outputs } => outputs,
                    AggSpec::ArgBest { .. } => {
                        return Err(ExecError::Internal(
                            "min/max strategy on an ArgBest aggregate".into(),
                        ))
                    }
                };
                // A field bitwise-equal to its default cannot be told apart
                // from an empty answer: mark it not insert-patchable.
                let extrema: Vec<Option<f64>> = match &answer {
                    ScriptValue::Record(fields) => outputs
                        .iter()
                        .zip(fields)
                        .map(|(o, (_, v))| match v {
                            Value::Float(x) if !same_value(v, &o.default) => Some(*x),
                            _ => None,
                        })
                        .collect(),
                    _ => return Err(ExecError::Internal("min/max answer is not a record".into())),
                };
                self.mat_writes.push(MatWrite {
                    name: planned.def.name.clone(),
                    key,
                    sub_fp,
                    entry: MatEntry {
                        required,
                        rect,
                        answer: answer.clone(),
                        support: 0,
                        extrema,
                    },
                });
                Ok(answer)
            }
            _ => Err(ExecError::Internal(
                "materialized choice on a non-materializable strategy".into(),
            )),
        }
    }

    fn eval_divisible(
        &mut self,
        planned: &PlannedAggregate,
        channels: &[Term],
        output_channels: &[Option<usize>],
        ctx: &EvalContext<'_>,
    ) -> Result<ScriptValue> {
        let required = Self::required_values(&planned.analysis, ctx)?;
        let rect = Self::rect_for(&planned.analysis, ctx)?.unwrap_or(Rect::new(
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ));
        self.probe_acc.reset(channels.len());

        let name = &planned.def.name;
        let (partitions, backend);
        if let Some(state) = self.maintained(planned) {
            Self::fill_matching_fps(state, &required, &mut self.fps_scratch);
            for fp in &self.fps_scratch {
                let Some(grid) = state.grids.get(fp) else {
                    continue;
                };
                self.part_acc.reset(channels.len());
                grid.probe_rect_into(&rect, &mut self.part_acc);
                self.probe_acc.merge(&self.part_acc);
            }
            self.stats.maintained_probes += 1;
            partitions = state.grids.len();
            backend = PhysicalBackend::MaintainedGrid;
        } else {
            let kind = planned.structure().ok_or_else(|| {
                ExecError::Internal("divisible strategy without a structure".into())
            })?;
            let cat_attrs = self.cat_attr_ids(&planned.analysis)?;
            let sig = self.ensure_partitions(&cat_attrs)?;
            let fps = self.partition_fps(sig);
            partitions = fps.len();
            for part_fp in fps {
                if !partition_matches(&self.partition_values(sig, part_fp), &required) {
                    continue;
                }
                let key = self.ensure_agg_struct(kind, sig, part_fp, channels)?;
                let index = self.agg_structs.get(&key).ok_or_else(|| {
                    ExecError::Internal("aggregate structure vanished after ensure".into())
                })?;
                let partial = index.probe_rect(&rect);
                self.probe_acc.merge(&partial);
            }
            backend = served_backend_of(kind);
        }
        self.stats.index_probes += 1;
        let acc = &self.probe_acc;
        let rect_area = (rect.x_max - rect.x_min) * (rect.y_max - rect.y_min);
        self.obs.record_index_probe(
            name,
            partitions,
            backend,
            acc.count().max(0.0) as u64,
            rect_area,
        );

        let outputs = match &planned.def.spec {
            AggSpec::Simple { outputs } => outputs,
            AggSpec::ArgBest { .. } => {
                return Err(ExecError::Internal(
                    "divisible strategy on an ArgBest aggregate".into(),
                ))
            }
        };
        let mut fields = Vec::with_capacity(outputs.len());
        for (o, chan) in outputs.iter().zip(output_channels) {
            let value = if acc.count() == 0.0 {
                o.default.clone()
            } else {
                match (o.func, chan) {
                    (SimpleAgg::Count, _) => Value::Int(acc.count() as i64),
                    (SimpleAgg::Sum, Some(c)) => Value::Float(acc.channel_sum(*c)),
                    (SimpleAgg::Avg, Some(c)) => Value::Float(acc.mean(*c).unwrap_or(0.0)),
                    (SimpleAgg::StdDev, Some(c)) => Value::Float(acc.std_dev(*c).unwrap_or(0.0)),
                    _ => {
                        return Err(ExecError::Internal(format!(
                            "unsupported divisible output {:?}",
                            o.func
                        )))
                    }
                }
            };
            fields.push((o.name.clone(), value));
        }
        Ok(ScriptValue::Record(fields))
    }

    fn eval_nearest(
        &mut self,
        planned: &PlannedAggregate,
        ctx: &EvalContext<'_>,
    ) -> Result<ScriptValue> {
        let required = Self::required_values(&planned.analysis, ctx)?;
        let query = Point2::new(
            ctx.unit.get_f64(self.spatial.x).map_err(ExecError::from)?,
            ctx.unit.get_f64(self.spatial.y).map_err(ExecError::from)?,
        );
        // Best candidate as (squared distance, unit key).  Across
        // partitions/grids, exact ties prefer the smaller key — the same
        // rule the structures apply internally and the scan reference uses,
        // so argmin over duplicated positions never depends on which
        // partition is probed first.
        let mut best: Option<(f64, i64)> = None;
        let offer = |best: &mut Option<(f64, i64)>, d2: f64, key: i64| {
            if best.is_none_or(|(bd, bkey)| d2 < bd || (d2 == bd && key < bkey)) {
                *best = Some((d2, key));
            }
        };

        let name = &planned.def.name;
        if let Some(state) = self.maintained(planned) {
            use sgl_index::traits::SpatialIndex;
            Self::fill_matching_fps(state, &required, &mut self.fps_scratch);
            for fp in &self.fps_scratch {
                let Some(grid) = state.grids.get(fp) else {
                    continue;
                };
                if let Some((id, d2)) = grid.probe_nearest(&query) {
                    offer(&mut best, d2, id as i64);
                }
            }
            self.stats.maintained_probes += 1;
            self.obs.record_partitioned_serve(
                name,
                state.grids.len(),
                PhysicalBackend::MaintainedGrid,
            );
        } else {
            self.obs.record_served(name, PhysicalBackend::KdTree);
            let cat_attrs = self.cat_attr_ids(&planned.analysis)?;
            let sig = self.ensure_partitions(&cat_attrs)?;
            for part_fp in self.partition_fps(sig) {
                if !partition_matches(&self.partition_values(sig, part_fp), &required) {
                    continue;
                }
                self.ensure_kd_tree(sig, part_fp)?;
                let (tree, rows) = self
                    .kd_trees
                    .get(&(sig, part_fp))
                    .ok_or_else(|| ExecError::Internal("kd-tree vanished after ensure".into()))?;
                if let Some((local_id, d2)) = tree.nearest(&query) {
                    let row = rows[local_id as usize] as usize;
                    // The key column was extracted when the tree was built.
                    let key = match &self.keys {
                        Some(keys) => keys[row],
                        None => self.table.row(row).key(self.table.schema()),
                    };
                    offer(&mut best, d2, key);
                }
            }
        }
        self.stats.index_probes += 1;
        let outputs = match &planned.def.spec {
            AggSpec::ArgBest { outputs, .. } => outputs,
            AggSpec::Simple { .. } => {
                return Err(ExecError::Internal(
                    "nearest strategy on a Simple aggregate".into(),
                ))
            }
        };
        let mut no_aggs = NoAggregates;
        let fields = match best {
            Some((_, key)) => {
                let row = self.table.find_key_readonly(key).ok_or_else(|| {
                    ExecError::Internal("nearest hit vanished from the table".into())
                })?;
                let row_ctx = ctx.with_row(self.table.row(row));
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
                .map(|(n, _, d)| (n.clone(), d.clone()))
                .collect(),
        };
        Ok(ScriptValue::Record(fields))
    }

    /// MIN/MAX aggregates: maintained grids answer them directly; otherwise
    /// the sweep-line batch of Figure 9 answers them when the
    /// probe rectangle is centred on the unit (the `u.pos ± range` pattern),
    /// and a per-partition quadtree answers the remaining shapes.
    fn eval_min_max(
        &mut self,
        planned: &PlannedAggregate,
        ctx: &EvalContext<'_>,
    ) -> Result<ScriptValue> {
        let outputs = match &planned.def.spec {
            AggSpec::Simple { outputs } => outputs.clone(),
            AggSpec::ArgBest { .. } => {
                return Err(ExecError::Internal(
                    "min/max strategy on an ArgBest aggregate".into(),
                ))
            }
        };
        let rect = Self::rect_for(&planned.analysis, ctx)?
            .ok_or_else(|| ExecError::Internal("min/max strategy requires a rectangle".into()))?;
        let required = Self::required_values(&planned.analysis, ctx)?;

        let name = &planned.def.name;
        self.obs
            .record_rect_area(name, (rect.x_max - rect.x_min) * (rect.y_max - rect.y_min));
        if let Some(state) = self.maintained(planned) {
            self.obs.record_partitioned_serve(
                name,
                state.grids.len(),
                PhysicalBackend::MaintainedGrid,
            );
            Self::fill_matching_fps(state, &required, &mut self.fps_scratch);
            let mut fields = Vec::with_capacity(outputs.len());
            for (channel, o) in outputs.iter().enumerate() {
                let minimize = o.func == SimpleAgg::Min;
                let mut best: Option<f64> = None;
                for fp in &self.fps_scratch {
                    let Some(grid) = state.grids.get(fp) else {
                        continue;
                    };
                    if let Some(e) = grid.probe_extremum(&rect, channel, minimize) {
                        best = Some(match best {
                            None => e.value,
                            Some(b) => {
                                if minimize {
                                    b.min(e.value)
                                } else {
                                    b.max(e.value)
                                }
                            }
                        });
                    }
                }
                let value = match best {
                    Some(v) => Value::Float(v),
                    None => o.default.clone(),
                };
                fields.push((o.name.clone(), value));
            }
            self.stats.maintained_probes += 1;
            self.stats.index_probes += 1;
            return Ok(ScriptValue::Record(fields));
        }

        let unit_x = ctx.unit.get_f64(self.spatial.x).map_err(ExecError::from)?;
        let unit_y = ctx.unit.get_f64(self.spatial.y).map_err(ExecError::from)?;
        let rx = ((rect.x_max - rect.x_min) / 2.0).abs();
        let ry = ((rect.y_max - rect.y_min) / 2.0).abs();
        // The sweep batch assumes the rectangle is centred on the unit (true
        // for the `u.pos ± range` filters); otherwise probe per-partition
        // quadtrees instead.
        let centred =
            (rect.x_min + rx - unit_x).abs() <= 1e-9 && (rect.y_min + ry - unit_y).abs() <= 1e-9;
        // A quadtree choice skips the sweep batch even for
        // centred probes (same results, different cost profile).  Misses of
        // a materialized site take the quadtree too: on a low-churn tick only
        // a few probes miss, and a whole-batch sweep would be priced for all
        // of them.
        let quad_chosen = planned.choice.as_ref().is_some_and(|c| {
            matches!(
                c.backend,
                PhysicalBackend::QuadTree | PhysicalBackend::Materialized
            )
        });
        if !centred || quad_chosen {
            self.obs.record_served(name, PhysicalBackend::QuadTree);
            return self.eval_min_max_quadtree(planned, &outputs, &rect, &required);
        }
        self.obs.record_served(name, PhysicalBackend::Sweep);
        let cat_attrs = self.cat_attr_ids(&planned.analysis)?;
        let sig = self.ensure_partitions(&cat_attrs)?;
        let my_row = self.table.find_key_readonly(ctx.unit_key).ok_or_else(|| {
            ExecError::Internal("probing unit not present in the environment".into())
        })?;

        let mut fields = Vec::with_capacity(outputs.len());
        for o in &outputs {
            let minimize = o.func == SimpleAgg::Min;
            let kind = if minimize {
                SweepKind::Min
            } else {
                SweepKind::Max
            };
            // The extent is reconstructed from per-unit floating point bounds
            // (`u.posx ± range`), so it can differ in the last bits between
            // units of the same type; quantise it for the cache key so one
            // sweep serves the whole batch.
            let sweep_fp = {
                let mut h = rustc_hash::FxHasher::default();
                h.write_u64(sig);
                for (equal, v) in &required {
                    h.write_u8(*equal as u8);
                    hash_value(&mut h, v);
                }
                h.write_u64(((rx * 1e6).round() as i64) as u64);
                h.write_u64(((ry * 1e6).round() as i64) as u64);
                h.write_u8(minimize as u8);
                h.write(format!("{:?}", o.value).as_bytes());
                h.finish()
            };
            if !self.sweeps.contains_key(&sweep_fp) {
                // Data points: all rows in matching partitions; queries: every
                // row of the table (every unit of this type will probe).
                let value_fp = self.ensure_chan_col(&o.value)?;
                self.ensure_positions()?;
                let mut data_points = Vec::new();
                let mut data_values = Vec::new();
                let mut data_rows: Vec<u32> = Vec::new();
                let (xs, ys) = self
                    .positions
                    .as_ref()
                    .ok_or_else(|| ExecError::Internal("positions vanished after ensure".into()))?;
                let value_col = &self.chan_cols[&value_fp];
                for part_fp in self.partition_fps(sig) {
                    if !partition_matches(&self.partition_values(sig, part_fp), &required) {
                        continue;
                    }
                    for r in self.partition_rows(sig, part_fp) {
                        data_points.push(Point2::new(xs[r as usize], ys[r as usize]));
                        data_values.push(value_col[r as usize]);
                        data_rows.push(r);
                    }
                }
                let queries: Vec<Point2> = xs
                    .iter()
                    .zip(ys.iter())
                    .map(|(&x, &y)| Point2::new(x, y))
                    .collect();
                let raw = sweep_min_max(&data_points, &data_values, &queries, rx, ry, kind);
                let remapped: Vec<Option<(f64, u32)>> = raw
                    .into_iter()
                    .map(|r| r.map(|(v, local)| (v, data_rows[local as usize])))
                    .collect();
                self.stats.indexes_built += 1;
                self.sweeps.insert(sweep_fp, remapped);
            }
            self.stats.index_probes += 1;
            let result =
                self.sweeps.get(&sweep_fp).ok_or_else(|| {
                    ExecError::Internal("sweep batch vanished after build".into())
                })?[my_row];
            let value = match result {
                Some((v, _)) => Value::Float(v),
                None => o.default.clone(),
            };
            fields.push((o.name.clone(), value));
        }
        Ok(ScriptValue::Record(fields))
    }

    /// Quadtree path for MIN/MAX probes the sweep batch cannot serve.
    fn eval_min_max_quadtree(
        &mut self,
        planned: &PlannedAggregate,
        outputs: &[sgl_lang::builtins::AggOutput],
        rect: &Rect,
        required: &RequiredValues,
    ) -> Result<ScriptValue> {
        let channels = planned.channel_terms();
        let kind = AggStructureKind::QuadTree { bucket: 8 };
        let cat_attrs = self.cat_attr_ids(&planned.analysis)?;
        let sig = self.ensure_partitions(&cat_attrs)?;
        let mut best: Vec<Option<f64>> = vec![None; outputs.len()];
        for part_fp in self.partition_fps(sig) {
            if !partition_matches(&self.partition_values(sig, part_fp), required) {
                continue;
            }
            let key = self.ensure_agg_struct(kind, sig, part_fp, &channels)?;
            let index = self.agg_structs.get(&key).ok_or_else(|| {
                ExecError::Internal("aggregate structure vanished after ensure".into())
            })?;
            for (channel, o) in outputs.iter().enumerate() {
                let minimize = o.func == SimpleAgg::Min;
                if let Some(e) = index.probe_extremum(rect, channel, minimize) {
                    best[channel] = Some(match best[channel] {
                        None => e.value,
                        Some(b) => {
                            if minimize {
                                b.min(e.value)
                            } else {
                                b.max(e.value)
                            }
                        }
                    });
                }
            }
        }
        self.stats.index_probes += 1;
        let fields = outputs
            .iter()
            .zip(&best)
            .map(|(o, b)| {
                (
                    o.name.clone(),
                    match b {
                        Some(v) => Value::Float(*v),
                        None => o.default.clone(),
                    },
                )
            })
            .collect();
        Ok(ScriptValue::Record(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin_eval::{bind_params, eval_aggregate_scan};
    use crate::config::PlannerMode;
    use crate::planner::{install_pin, plan_aggregate, PhysicalChoice};
    use sgl_env::{schema::paper_schema, GameRng, Schema, TupleBuilder};
    use sgl_lang::builtins::paper_registry;
    use std::sync::Arc;

    /// The production tick-open sequence (what `execute_tick_planned`
    /// does): sync maintained state, then open the shared-borrow cache.
    fn open_tick<'a>(
        manager: &'a mut IndexManager,
        table: &'a EnvTable,
        config: &'a ExecConfig,
        planned: &FxHashMap<String, PlannedAggregate>,
        constants: &'a FxHashMap<String, Value>,
    ) -> TickIndexes<'a> {
        assert_eq!(manager.spatial, config.spatial);
        manager.prepare(table, planned, constants).unwrap();
        manager.tick_view(table, constants).unwrap().unwrap()
    }

    fn make_table(n: usize) -> (Arc<Schema>, EnvTable) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for key in 0..n {
            let t = TupleBuilder::new(&schema)
                .set("key", key as i64)
                .unwrap()
                .set("player", (key % 2) as i64)
                .unwrap()
                .set("posx", next() * 60.0)
                .unwrap()
                .set("posy", next() * 60.0)
                .unwrap()
                .set("health", 5 + (key % 20) as i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        (schema, table)
    }

    fn pinned(schema: &Schema, backend: PhysicalBackend, maint: MaintenanceChoice) -> ExecConfig {
        ExecConfig::indexed(schema).with_planner(PlannerMode::Pin(backend, maint))
    }

    fn configs(schema: &Schema) -> Vec<(&'static str, ExecConfig)> {
        use MaintenanceChoice::*;
        use PhysicalBackend::*;
        vec![
            ("layered", pinned(schema, LayeredTree, PerTick)),
            ("quadtree", pinned(schema, QuadTree, PerTick)),
            (
                "grid-incremental",
                pinned(schema, MaintainedGrid, Incremental),
            ),
            ("grid-rebuild", pinned(schema, MaintainedGrid, Rebuild)),
        ]
    }

    /// Pin one call site to a choice (the planner pins whole registries).
    fn pin_site(plan: &mut PlannedAggregate, backend: PhysicalBackend, maint: MaintenanceChoice) {
        plan.choice = Some(PhysicalChoice {
            backend,
            maintenance: maint,
            est_us: 0.0,
            alternatives: Vec::new(),
        });
    }

    /// A MIN aggregate outside the registry (the sweep-line strategy),
    /// planned alone under `config`'s pin.
    fn weakest_enemy_site(
        schema: &Schema,
        config: &ExecConfig,
    ) -> FxHashMap<String, PlannedAggregate> {
        use sgl_lang::ast::{Cond, Term};
        use sgl_lang::builtins::{enemy_filter, rect_range_filter, AggOutput, AggregateDef};
        let def = AggregateDef {
            name: "WeakestEnemyHealth".into(),
            params: vec!["u".into(), "range".into()],
            filter: Cond::and(rect_range_filter(Term::name("range")), enemy_filter()),
            spec: AggSpec::Simple {
                outputs: vec![AggOutput {
                    name: "value".into(),
                    func: SimpleAgg::Min,
                    value: Term::row("health"),
                    default: Value::Float(-1.0),
                }],
            },
        };
        let plan = plan_aggregate(&def, schema, config.spatial);
        assert_eq!(plan.strategy, AggStrategy::SweepMinMax);
        let mut planned = FxHashMap::default();
        planned.insert(def.name, plan);
        let PlannerMode::Pin(backend, maint) = config.planner else {
            unreachable!("every test config pins");
        };
        install_pin(&mut planned, backend, maint);
        planned
    }

    #[test]
    fn indexed_aggregates_agree_with_scans_under_every_policy() {
        let (schema, table) = make_table(120);
        for (label, config) in configs(&schema) {
            let planned_map = crate::tick::plan_registry(&paper_registry(), &table, &config);
            let mut manager = IndexManager::new(&config);
            for name in [
                "CountEnemiesInRange",
                "CentroidOfEnemyUnits",
                "getNearestEnemy",
            ] {
                assert!(planned_map[name].is_indexed(), "{name} should be indexable");
                let stats =
                    assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
                // Indexes are reused across probes.
                assert!(stats.indexes_built <= 4, "{label}: {name} built {stats:?}");
                assert_eq!(stats.index_probes, table.len(), "{label}");
                if planned_map[name].is_maintained() {
                    assert_eq!(stats.maintained_probes, table.len(), "{label}");
                }
            }
        }
    }

    #[test]
    fn sweep_min_aggregate_agrees_with_scan() {
        let (schema, table) = make_table(80);
        for (label, config) in configs(&schema) {
            let planned_map = weakest_enemy_site(&schema, &config);
            let mut manager = IndexManager::new(&config);
            let stats = assert_agrees_with_scans(
                &mut manager,
                &table,
                &config,
                &planned_map,
                "WeakestEnemyHealth",
            );
            // One sweep (or quadtree) per player value — two structures for
            // the whole batch; maintained grids need none.
            assert!(stats.indexes_built <= 2, "{label}");
        }
    }

    #[test]
    fn enum_queries_return_rows_in_rect() {
        let (schema, table) = make_table(50);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = ExecConfig::indexed(&schema);
        let planned_map: FxHashMap<String, PlannedAggregate> = FxHashMap::default();
        let mut manager = IndexManager::new(&config);
        let mut cache = open_tick(&mut manager, &table, &config, &planned_map, &constants);
        let player_attr = schema.attr_id("player").unwrap();
        let fps = cache.partition_fps_for(&[player_attr]).unwrap();
        assert_eq!(fps.len(), 2);
        let rect = Rect::new(0.0, 60.0, 0.0, 60.0);
        let total: usize = fps
            .iter()
            .map(|fp| cache.enum_query(&[player_attr], *fp, &rect).unwrap().len())
            .sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn incremental_maintenance_applies_deltas_not_rebuilds() {
        let (schema, mut table) = make_table(100);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = pinned(
            &schema,
            PhysicalBackend::MaintainedGrid,
            MaintenanceChoice::Incremental,
        );
        let planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let mut manager = IndexManager::new(&config);

        // First sync builds every partition from scratch.
        let first = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(first.partition_rebuilds > 0);
        assert_eq!(first.delta_ops, 0);
        assert!(manager.maintained_aggregates() > 0);

        // Move a handful of units; the next sync must patch, not rebuild.
        let posx = schema.attr_id("posx").unwrap();
        for row in 0..10 {
            let new_x = table.row(row).get_f64(posx).unwrap() + 3.0;
            table.set_attr(row, posx, Value::Float(new_x)).unwrap();
        }
        let second = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!(
            second.partition_rebuilds, 0,
            "incremental must never rebuild"
        );
        assert!(second.delta_ops > 0);

        // And the maintained probes agree with a scan afterwards.
        let name = "CountEnemiesInRange";
        let stats = assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        assert_eq!(stats.indexes_built, 0, "maintained grids serve every probe");
    }

    #[test]
    fn rebuild_maintenance_rebuilds_touched_partitions() {
        let (schema, mut table) = make_table(60);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = pinned(
            &schema,
            PhysicalBackend::MaintainedGrid,
            MaintenanceChoice::Rebuild,
        );
        let planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let mut manager = IndexManager::new(&config);
        manager.end_tick(&table, &planned_map, &constants).unwrap();

        // Even a two-unit move rebuilds the touched partitions wholesale
        // instead of patching them.
        let posx = schema.attr_id("posx").unwrap();
        for row in 0..2 {
            let new_x = table.row(row).get_f64(posx).unwrap() + 0.5;
            table.set_attr(row, posx, Value::Float(new_x)).unwrap();
        }
        let light = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(light.partition_rebuilds > 0);
        assert_eq!(light.delta_ops, 0);

        // An untouched pass does nothing.
        let idle = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!((idle.partition_rebuilds, idle.delta_ops), (0, 0));
    }

    #[test]
    fn invalidation_forces_a_full_rebuild() {
        let (schema, table) = make_table(30);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = pinned(
            &schema,
            PhysicalBackend::MaintainedGrid,
            MaintenanceChoice::Incremental,
        );
        let planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let mut manager = IndexManager::new(&config);
        manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(manager.maintained_aggregates() > 0);
        manager.invalidate();
        assert_eq!(manager.maintained_aggregates(), 0);
        let again = manager.prepare(&table, &planned_map, &constants).unwrap();
        assert!(again.partition_rebuilds > 0);
    }

    /// Probe every row of the table through the named site, absorbing its
    /// materialized writes afterwards; returns the answers and the probe
    /// statistics.
    fn probe_all(
        manager: &mut IndexManager,
        table: &EnvTable,
        config: &ExecConfig,
        planned_map: &FxHashMap<String, PlannedAggregate>,
        name: &str,
    ) -> (Vec<ScriptValue>, TickStats) {
        let planned = &planned_map[name];
        let args = probe_args(&planned.def);
        let constants = paper_registry().constants().clone();
        let rng = GameRng::new(7).for_tick(3);
        let mut cache = open_tick(manager, table, config, planned_map, &constants);
        let mut answers = Vec::with_capacity(table.len());
        for row in 0..table.len() {
            let mut ctx = EvalContext::new(table.schema(), table.row(row), &rng, &constants);
            ctx.bindings = bind_params(&planned.def.name, &planned.def.params, &args).unwrap();
            answers.push(cache.evaluate(planned, &ctx).unwrap().unwrap());
        }
        let stats = cache.stats;
        let writes = cache.take_mat_writes();
        drop(cache);
        manager.absorb_materialized(writes);
        (answers, stats)
    }

    #[test]
    fn materialized_answers_agree_with_scans_across_churn() {
        let (schema, mut table) = make_table(90);
        let constants = paper_registry().constants().clone();
        let config = pinned(
            &schema,
            PhysicalBackend::Materialized,
            MaintenanceChoice::Incremental,
        );
        let planned_map = crate::tick::plan_registry(&paper_registry(), &table, &config);

        // CountEnemiesInRange (COUNT patch class) and CentroidOfEnemyUnits
        // (replace class) both carry a Materialized choice now.
        for name in ["CountEnemiesInRange", "CentroidOfEnemyUnits"] {
            assert!(planned_map[name].is_materialized(), "{name}");
            let mut manager = IndexManager::new(&config);

            // Tick 0: every probe misses, recomputes, and materializes.
            let (_, stats) = probe_all(&mut manager, &table, &config, &planned_map, name);
            assert_eq!(
                stats.materialized_serves, 0,
                "{name}: no store on the first tick"
            );
            assert!(manager.materialized_entries() > 0, "{name}");

            // Churn a handful of rows, hand the table back, probe again:
            // most answers are served from the store, all agree with scans.
            let posx = schema.attr_id("posx").unwrap();
            for row in 0..6 {
                let new_x = table.row(row).get_f64(posx).unwrap() + 2.5;
                table.set_attr(row, posx, Value::Float(new_x)).unwrap();
            }
            manager.end_tick(&table, &planned_map, &constants).unwrap();
            let stats = assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
            assert!(
                stats.materialized_serves > 0,
                "{name}: store must serve after churn"
            );
        }
    }

    #[test]
    fn materialized_min_patches_inserts_and_invalidates_extremum_loss() {
        let (schema, mut table) = make_table(60);
        let constants = paper_registry().constants().clone();
        let config = pinned(
            &schema,
            PhysicalBackend::Materialized,
            MaintenanceChoice::Incremental,
        );
        let planned_map = weakest_enemy_site(&schema, &config);
        let name = "WeakestEnemyHealth";
        assert!(planned_map[name].is_materialized());

        let mut manager = IndexManager::new(&config);
        probe_all(&mut manager, &table, &config, &planned_map, name);
        assert!(manager.materialized_entries() > 0);

        // Raise one unit's health far above every minimum: subscriptions
        // whose extremum was its *old* value invalidate, the rest patch in
        // place.  The store keeps serving correct answers.
        let health = schema.attr_id("health").unwrap();
        table.set_attr(5, health, Value::Int(999)).unwrap();
        manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(
            manager.last_maint.mat_patched > 0,
            "non-extremum updates must patch in place"
        );
        let stats = assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        assert!(stats.materialized_serves > 0);

        // Now make that unit the global minimum: every subscription that
        // sees it gets an exact insert-patch (their stored minimum folds
        // down), and the answers still match scans.
        table.set_attr(5, health, Value::Int(1)).unwrap();
        manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
    }

    #[test]
    fn materialized_stores_clear_when_choices_leave() {
        let (schema, table) = make_table(40);
        let registry = paper_registry();
        let constants = registry.constants().clone();
        let config = pinned(
            &schema,
            PhysicalBackend::Materialized,
            MaintenanceChoice::Incremental,
        );
        let mut planned_map = crate::tick::plan_registry(&registry, &table, &config);
        let mut manager = IndexManager::new(&config);
        probe_all(
            &mut manager,
            &table,
            &config,
            &planned_map,
            "CountEnemiesInRange",
        );
        assert!(manager.materialized_sites() > 0);

        // Pin the paper's per-tick structures instead: the next maintenance
        // pass retires the stores.
        install_pin(
            &mut planned_map,
            PhysicalBackend::LayeredTree,
            MaintenanceChoice::PerTick,
        );
        manager.mark_stale();
        manager.prepare(&table, &planned_map, &constants).unwrap();
        assert_eq!(manager.materialized_sites(), 0);
        assert_eq!(manager.materialized_entries(), 0);
    }

    #[test]
    fn value_fingerprints_are_strict() {
        assert_eq!(
            fingerprint_values(&[Value::Int(1), Value::str("a")]),
            fingerprint_values(&[Value::Int(1), Value::str("a")])
        );
        assert_ne!(
            fingerprint_values(&[Value::Int(1)]),
            fingerprint_values(&[Value::Float(1.0)])
        );
        assert_ne!(
            fingerprint_values(&[Value::Int(1)]),
            fingerprint_values(&[Value::Int(2)])
        );
        assert!(same_value(&Value::Float(2.5), &Value::Float(2.5)));
        assert!(!same_value(&Value::Int(1), &Value::Float(1.0)));
        assert!(partition_matches(
            &[Value::Int(0)],
            &vec![(true, Value::Int(0))]
        ));
        assert!(!partition_matches(
            &[Value::Int(0)],
            &vec![(false, Value::Int(0))]
        ));
    }

    /// Registry plans with materialized answers pinned wherever offered
    /// (`CountEnemiesInRange`, `CentroidOfEnemyUnits`, ...) and an
    /// incrementally maintained grid for `getNearestEnemy`: both kinds share
    /// one mirror.
    fn mixed_sites(table: &EnvTable) -> (ExecConfig, FxHashMap<String, PlannedAggregate>) {
        let config = pinned(
            table.schema(),
            PhysicalBackend::Materialized,
            MaintenanceChoice::Incremental,
        );
        let mut planned = crate::tick::plan_registry(&paper_registry(), table, &config);
        pin_site(
            planned.get_mut("getNearestEnemy").unwrap(),
            PhysicalBackend::MaintainedGrid,
            MaintenanceChoice::Incremental,
        );
        (config, planned)
    }

    /// The arguments every test probes an aggregate with.
    fn probe_args(def: &sgl_lang::builtins::AggregateDef) -> Vec<ScriptValue> {
        if def.params.len() == 2 {
            vec![ScriptValue::scalar(0i64), ScriptValue::scalar(15.0)]
        } else {
            vec![ScriptValue::scalar(0i64)]
        }
    }

    /// Probe every row through the named site and compare each answer with
    /// a scan of the table; returns the probe statistics.
    fn assert_agrees_with_scans(
        manager: &mut IndexManager,
        table: &EnvTable,
        config: &ExecConfig,
        planned_map: &FxHashMap<String, PlannedAggregate>,
        name: &str,
    ) -> TickStats {
        let (fast, stats) = probe_all(manager, table, config, planned_map, name);
        let constants = paper_registry().constants().clone();
        let def = &planned_map[name].def;
        let args = probe_args(def);
        let spatial = config.spatial.unwrap();
        let rng = GameRng::new(7).for_tick(3);
        for (row, answer) in fast.iter().enumerate() {
            let unit = table.row(row);
            let mut ctx = EvalContext::new(table.schema(), unit, &rng, &constants);
            ctx.bindings = bind_params(&def.name, &def.params, &args).unwrap();
            let slow = eval_aggregate_scan(def, &ctx.bindings, &ctx, table).unwrap();
            if name == "getNearestEnemy" {
                // Ties may pick different keys; distances must agree (`None`
                // for the default answer of a unit with no nearest enemy).
                let dist = |answer: &ScriptValue| {
                    let key = answer.field("key").unwrap().as_i64().unwrap();
                    let hit = table.row(table.find_key_readonly(key)?);
                    let dx = hit.get_f64(spatial.x).unwrap() - unit.get_f64(spatial.x).unwrap();
                    let dy = hit.get_f64(spatial.y).unwrap() - unit.get_f64(spatial.y).unwrap();
                    Some(dx * dx + dy * dy)
                };
                assert_eq!(dist(answer), dist(&slow), "{name} row {row}");
                continue;
            }
            let (ScriptValue::Record(f), ScriptValue::Record(s)) = (answer, &slow) else {
                panic!("{name} row {row}: record answers expected");
            };
            assert_eq!(f.len(), s.len());
            for ((field, a), (_, b)) in f.iter().zip(s) {
                let (a, b) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                assert!((a - b).abs() < 1e-9, "{name} row {row} {field}: {a} vs {b}");
            }
        }
        stats
    }

    #[test]
    fn shared_mirror_key_join_patches_inserted_and_removed_rows() {
        let (schema, mut table) = make_table(80);
        let constants = paper_registry().constants().clone();
        let (config, planned_map) = mixed_sites(&table);
        let mut manager = IndexManager::new(&config);
        for name in ["CountEnemiesInRange", "getNearestEnemy"] {
            assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        }
        assert!(manager.maintained_aggregates() > 0);
        let entries = manager.materialized_entries();
        assert!(entries > 0);

        // Out-of-band edits that change the key column: one unit leaves, one
        // arrives.
        let key = schema.key_attr();
        assert_eq!(
            table
                .remove_where(|r| r.get_i64(key).unwrap() == 5)
                .unwrap(),
            1
        );
        let spawned = TupleBuilder::new(&schema)
            .set("key", 500i64)
            .unwrap()
            .set("player", 1i64)
            .unwrap()
            .set("posx", 30.0)
            .unwrap()
            .set("posy", 31.0)
            .unwrap()
            .set("health", 9i64)
            .unwrap()
            .build();
        table.insert(spawned).unwrap();
        let stats = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!(stats.rows_scanned, table.len(), "one diff per pass");
        assert_eq!(stats.partition_rebuilds, 0, "the key join patches");
        assert!(stats.delta_ops >= 2);
        assert!(manager.materialized_entries() > 0);
        for name in ["CountEnemiesInRange", "getNearestEnemy"] {
            assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        }
    }

    #[test]
    fn a_site_added_mid_run_builds_from_new_mirror_columns() {
        let (schema, mut table) = make_table(70);
        let constants = paper_registry().constants().clone();
        let (config, all) = mixed_sites(&table);
        let mut planned_map: FxHashMap<String, PlannedAggregate> = all
            .iter()
            .filter(|(name, _)| ["CountEnemiesInRange", "getNearestEnemy"].contains(&name.as_str()))
            .map(|(name, plan)| (name.clone(), plan.clone()))
            .collect();
        let mut manager = IndexManager::new(&config);
        for name in ["CountEnemiesInRange", "getNearestEnemy"] {
            assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        }

        // A maintained centroid grid joins: its channel columns are new to
        // the mirror, so it builds from scratch while the others diff.
        let mut centroid = all.get("CentroidOfEnemyUnits").unwrap().clone();
        pin_site(
            &mut centroid,
            PhysicalBackend::MaintainedGrid,
            MaintenanceChoice::Incremental,
        );
        planned_map.insert(centroid.def.name.clone(), centroid);
        let posx = schema.attr_id("posx").unwrap();
        for row in 0..4 {
            let x = table.row(row).get_f64(posx).unwrap();
            table.set_attr(row, posx, Value::Float(x + 1.5)).unwrap();
        }
        manager.mark_stale();
        let stats = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!(stats.rows_scanned, table.len());
        assert_eq!(
            stats.partition_rebuilds, 2,
            "one build per player partition"
        );
        assert!(stats.delta_ops > 0, "the nearest-enemy grid patches");
        for name in [
            "CountEnemiesInRange",
            "getNearestEnemy",
            "CentroidOfEnemyUnits",
        ] {
            assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        }
    }

    #[test]
    fn nan_positions_count_as_changed_on_every_pass() {
        let (schema, mut table) = make_table(50);
        let constants = paper_registry().constants().clone();
        let (config, planned_map) = mixed_sites(&table);
        let mut manager = IndexManager::new(&config);
        for name in ["CountEnemiesInRange", "getNearestEnemy"] {
            assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        }
        let posx = schema.attr_id("posx").unwrap();
        table.set_attr(4, posx, Value::Float(f64::NAN)).unwrap();
        let first = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert!(first.delta_ops > 0);
        // Nothing changed since, but NaN never equals itself: every grid
        // re-sends the row.
        let second = manager.end_tick(&table, &planned_map, &constants).unwrap();
        assert_eq!(second.delta_ops, first.delta_ops);
        // A NaN position lies in no rectangle and is no one's nearest unit,
        // for scans and indexes alike.
        for name in [
            "CountEnemiesInRange",
            "getNearestEnemy",
            "CentroidOfEnemyUnits",
        ] {
            assert_agrees_with_scans(&mut manager, &table, &config, &planned_map, name);
        }
    }
}
