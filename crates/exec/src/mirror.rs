//! The shared columnar row mirror behind [`crate::IndexManager`]'s
//! maintenance pass.
//!
//! Every maintained grid and materialized answer store absorbs the same
//! environment, so one mirror serves them all: per pass, each distinct
//! column the live sites read (keys, positions, categorical attributes,
//! channel terms) is extracted once and compared row by row with the
//! mirror's copy, and each site then works only on the rows that changed in
//! its own columns.  When rows were inserted, removed or reordered the key
//! columns differ and a single key join pairs old and new rows for every
//! site.  A pass in which nothing changed costs one comparison per column,
//! however many sites there are.

use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hasher;

use sgl_env::{AttrId, EnvTable, Value};
use sgl_index::traits::IndexRow;
use sgl_index::Point2;
use sgl_lang::ast::{Term, VarRef};
use sgl_lang::eval::{eval_term, EvalContext, NoAggregates};

use crate::config::SpatialAttrs;
use crate::error::{ExecError, Result};
use crate::indexes::{
    fingerprint_attrs, fingerprint_term, hash_value, resolve_cat_attrs, same_value,
};
use crate::planner::PlannedAggregate;

/// Evaluate a term whose only row context is the candidate row itself
/// (channel values, categorical attribute reads).
fn eval_row_term(
    term: &Term,
    table: &EnvTable,
    row: usize,
    constants: &FxHashMap<String, Value>,
) -> Result<Value> {
    // The term must not reference `u.*`; planner guarantees this.  We still
    // need *some* unit in the context, so we use the row itself.
    let schema = table.schema();
    let tuple = table.row(row);
    let rng = sgl_env::GameRng::new(0).for_tick(0);
    let ctx = EvalContext::new(schema, tuple, &rng, constants);
    let ctx = ctx.with_row(tuple);
    let mut no_aggs = NoAggregates;
    Ok(eval_term(term, &ctx, &mut no_aggs)?.as_scalar()?.clone())
}

/// One whole attribute column as `f64`, with the same coercions as the
/// per-row `Value::as_f64` (the typed extractor rejects Bool pages, the
/// per-row read does not — fall through to the generic view for those).
pub(crate) fn extract_f64_column(table: &EnvTable, attr: AttrId) -> Result<Vec<f64>> {
    if let Ok(col) = table.column_f64(attr) {
        return Ok(col);
    }
    let mut out = Vec::with_capacity(table.len());
    for v in table.column_values(attr)? {
        out.push(v.as_f64()?);
    }
    Ok(out)
}

/// Evaluate a channel term for every row of the table, column-at-a-time
/// when the term is a bare `e.attr` read (the common shape for SUM/AVG/
/// MIN/MAX channels); anything more complex falls back to the per-row
/// evaluator, which builds a full evaluation context per row.
pub(crate) fn channel_column(
    term: &Term,
    table: &EnvTable,
    constants: &FxHashMap<String, Value>,
) -> Result<Vec<f64>> {
    if let Term::Var(VarRef::Row(name)) = term {
        if let Some(attr) = table.schema().attr_id(name) {
            return extract_f64_column(table, attr);
        }
    }
    (0..table.len())
        .map(|r| Ok(eval_row_term(term, table, r, constants)?.as_f64()?))
        .collect()
}

/// The mirror columns one maintained or materialized site reads, besides
/// the keys and positions every site reads.
#[derive(Clone, Default, PartialEq)]
pub(crate) struct SiteColumns {
    pub(crate) cat_attrs: Vec<AttrId>,
    pub(crate) channels: Vec<Term>,
    /// [`fingerprint_term`] of each channel: its key in the mirror.
    chan_fps: Vec<u64>,
}

impl SiteColumns {
    pub(crate) fn of(plan: &PlannedAggregate, table: &EnvTable) -> Result<SiteColumns> {
        let channels = plan.channel_terms();
        Ok(SiteColumns {
            cat_attrs: resolve_cat_attrs(&plan.analysis, table)?,
            chan_fps: channels.iter().map(fingerprint_term).collect(),
            channels,
        })
    }
}

/// One snapshot of the keys, the positions and every column the live sites
/// read, in table row order.
#[derive(Default)]
pub(crate) struct MirrorColumns {
    keys: Vec<i64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    cats: FxHashMap<AttrId, Vec<Value>>,
    /// Channel term fingerprint → column.
    chans: FxHashMap<u64, Vec<f64>>,
}

impl MirrorColumns {
    /// Extract the keys, the positions and each distinct column `sites`
    /// read — once, however many sites share it.
    pub(crate) fn extract<'s>(
        table: &EnvTable,
        spatial: SpatialAttrs,
        constants: &FxHashMap<String, Value>,
        sites: impl Iterator<Item = &'s SiteColumns>,
    ) -> Result<MirrorColumns> {
        let mut cols = MirrorColumns {
            keys: table.column_i64(table.schema().key_attr())?,
            xs: extract_f64_column(table, spatial.x)?,
            ys: extract_f64_column(table, spatial.y)?,
            ..MirrorColumns::default()
        };
        for site in sites {
            for &attr in &site.cat_attrs {
                if let Entry::Vacant(slot) = cols.cats.entry(attr) {
                    slot.insert(table.column_values(attr)?);
                }
            }
            for (term, &fp) in site.channels.iter().zip(&site.chan_fps) {
                if let Entry::Vacant(slot) = cols.chans.entry(fp) {
                    slot.insert(channel_column(term, table, constants)?);
                }
            }
        }
        Ok(cols)
    }

    /// The columns one site reads, or `None` when this snapshot lacks one.
    fn view(&self, site: &SiteColumns) -> Option<SiteView<'_>> {
        Some(SiteView {
            keys: &self.keys,
            xs: &self.xs,
            ys: &self.ys,
            cats: site
                .cat_attrs
                .iter()
                .map(|a| self.cats.get(a).map(Vec::as_slice))
                .collect::<Option<_>>()?,
            chans: site
                .chan_fps
                .iter()
                .map(|fp| self.chans.get(fp).map(Vec::as_slice))
                .collect::<Option<_>>()?,
        })
    }

    /// [`MirrorColumns::view`] for a site whose columns were extracted.
    pub(crate) fn site(&self, site: &SiteColumns) -> Result<SiteView<'_>> {
        self.view(site)
            .ok_or_else(|| ExecError::Internal("mirror column missing after extraction".into()))
    }
}

/// One row as a site reads it: categorical values, position, channel values.
pub(crate) type RowSnap = (Vec<Value>, Point2, Vec<f64>);

/// One site's columns within one snapshot.
pub(crate) struct SiteView<'c> {
    keys: &'c [i64],
    xs: &'c [f64],
    ys: &'c [f64],
    cats: Vec<&'c [Value]>,
    chans: Vec<&'c [f64]>,
}

impl SiteView<'_> {
    pub(crate) fn key(&self, row: u32) -> i64 {
        self.keys[row as usize]
    }

    pub(crate) fn point(&self, row: u32) -> Point2 {
        Point2::new(self.xs[row as usize], self.ys[row as usize])
    }

    pub(crate) fn cat_values(&self, row: u32) -> Vec<Value> {
        self.cats
            .iter()
            .map(|col| col[row as usize].clone())
            .collect()
    }

    fn channel_values(&self, row: u32) -> Vec<f64> {
        self.chans.iter().map(|col| col[row as usize]).collect()
    }

    /// The row's partition fingerprint (`fingerprint_values` of its
    /// categorical values).
    pub(crate) fn partition(&self, row: u32) -> u64 {
        let mut h = rustc_hash::FxHasher::default();
        for col in &self.cats {
            hash_value(&mut h, &col[row as usize]);
        }
        h.finish()
    }

    pub(crate) fn snap(&self, row: u32) -> RowSnap {
        (
            self.cat_values(row),
            self.point(row),
            self.channel_values(row),
        )
    }

    pub(crate) fn index_row(&self, row: u32) -> IndexRow {
        IndexRow::new(
            self.key(row) as u64,
            self.point(row),
            self.channel_values(row),
        )
    }

    /// Do a row here and a row of `other` hold the same categorical values?
    pub(crate) fn same_cats(&self, row: u32, other: &SiteView<'_>, other_row: u32) -> bool {
        let (a, b) = (row as usize, other_row as usize);
        self.cats
            .iter()
            .zip(&other.cats)
            .all(|(x, y)| same_value(&x[a], &y[b]))
    }

    /// Do a row here and a row of `other` hold channel values equal under `eq`?
    pub(crate) fn same_chans(
        &self,
        row: u32,
        other: &SiteView<'_>,
        other_row: u32,
        eq: impl Fn(f64, f64) -> bool,
    ) -> bool {
        let (a, b) = (row as usize, other_row as usize);
        self.chans
            .iter()
            .zip(&other.chans)
            .all(|(x, y)| eq(x[a], y[b]))
    }
}

/// The row states every maintained and materialized site last absorbed.
#[derive(Default)]
pub(crate) struct RowMirror {
    cols: MirrorColumns,
    /// Completed passes.  A site synced at another generation (or never)
    /// builds from scratch instead of diffing.
    generation: u64,
}

impl RowMirror {
    /// Open a pass from the mirror to the current columns.
    pub(crate) fn pass<'p>(&'p self, cur: &'p MirrorColumns) -> MirrorPass<'p> {
        MirrorPass {
            old: &self.cols,
            cur,
            diff: RowDiff::between(&self.cols, cur),
            generation: self.generation,
            feed_order: None,
            groups: FxHashMap::default(),
        }
    }

    /// The mirror after a pass absorbed `cur`; sites synced in that pass
    /// record [`MirrorPass::next_generation`].
    pub(crate) fn advance(&mut self, cur: MirrorColumns) {
        self.cols = cur;
        self.generation += 1;
    }
}

/// One row's change between the mirror and the current columns: its mirror
/// row and its current row (`None` = absent on that side).
pub(crate) struct RowChange {
    pub(crate) key: i64,
    pub(crate) old: Option<u32>,
    pub(crate) new: Option<u32>,
}

/// Which rows changed between the mirror and the current columns.  The
/// per-column lists hold current rows in ascending order and over-approximate
/// every site's change test (each site re-checks its own semantics): `!=`
/// for positions (NaN always counts as changed), `same_value` for
/// categoricals, bit or `!=` inequality for channels.
struct RowDiff {
    /// Mirror row of each current row.  `None` when the key columns are
    /// equal, so rows align one to one; otherwise the key join.
    old_rows: Option<Vec<Option<u32>>>,
    /// Current rows whose key the mirror lacks.
    inserted: Vec<u32>,
    /// Mirror rows whose key left the table.
    removed: Vec<u32>,
    pos: Vec<u32>,
    cats: FxHashMap<AttrId, Vec<u32>>,
    chans: FxHashMap<u64, Vec<u32>>,
}

impl RowDiff {
    fn between(old: &MirrorColumns, cur: &MirrorColumns) -> RowDiff {
        let mut diff = RowDiff {
            old_rows: None,
            inserted: Vec::new(),
            removed: Vec::new(),
            pos: Vec::new(),
            cats: FxHashMap::default(),
            chans: FxHashMap::default(),
        };
        if old.keys != cur.keys {
            let index: FxHashMap<i64, u32> = (0..).zip(&old.keys).map(|(o, &k)| (k, o)).collect();
            let mut kept = vec![false; old.keys.len()];
            let old_rows = (0..)
                .zip(&cur.keys)
                .map(|(row, key)| {
                    let old_row = index.get(key).copied();
                    match old_row {
                        Some(o) => kept[o as usize] = true,
                        None => diff.inserted.push(row),
                    }
                    old_row
                })
                .collect();
            diff.removed = (0..)
                .zip(kept)
                .filter(|(_, k)| !k)
                .map(|(o, _)| o)
                .collect();
            diff.old_rows = Some(old_rows);
        }
        let rows = cur.keys.len();
        diff.pos = diff.changed(rows, |o, r| {
            Point2::new(old.xs[o], old.ys[o]) != Point2::new(cur.xs[r], cur.ys[r])
        });
        for (attr, col) in &cur.cats {
            if let Some(prev) = old.cats.get(attr) {
                let changed = diff.changed(rows, |o, r| !same_value(&prev[o], &col[r]));
                diff.cats.insert(*attr, changed);
            }
        }
        for (fp, col) in &cur.chans {
            if let Some(prev) = old.chans.get(fp) {
                let changed = diff.changed(rows, |o, r| {
                    prev[o].to_bits() != col[r].to_bits() || prev[o] != col[r]
                });
                diff.chans.insert(*fp, changed);
            }
        }
        diff
    }

    fn old_row(&self, row: usize) -> Option<usize> {
        match &self.old_rows {
            None => Some(row),
            Some(old_rows) => old_rows[row].map(|o| o as usize),
        }
    }

    /// Current rows present in the mirror for which `differs(old, cur)`.
    fn changed(&self, rows: usize, mut differs: impl FnMut(usize, usize) -> bool) -> Vec<u32> {
        (0..rows)
            .filter(|&r| self.old_row(r).is_some_and(|o| differs(o, r)))
            .map(|r| r as u32)
            .collect()
    }
}

/// What one maintenance pass shares across its sites.
pub(crate) struct MirrorPass<'p> {
    old: &'p MirrorColumns,
    cur: &'p MirrorColumns,
    diff: RowDiff,
    generation: u64,
    /// [`feed_order`] of the current keys, computed on first use.
    feed_order: Option<Vec<u32>>,
    /// Categorical signature → partition fingerprint → rows in feed order.
    groups: FxHashMap<u64, FxHashMap<u64, Vec<u32>>>,
}

impl<'p> MirrorPass<'p> {
    /// The generation sites synced in this pass record.
    pub(crate) fn next_generation(&self) -> u64 {
        self.generation + 1
    }

    /// The mirror's view of a site synced at `synced`, when the site can
    /// diff against it (it absorbed the previous pass and the mirror holds
    /// its columns); otherwise the site builds from the current columns.
    pub(crate) fn prior(&self, site: &SiteColumns, synced: Option<u64>) -> Option<SiteView<'p>> {
        self.old
            .view(site)
            .filter(|_| synced == Some(self.generation))
    }

    /// Every row change a site may see: new keys and rows changed in a
    /// column the site reads (in current row order), then the removed rows.
    pub(crate) fn changes(&self, site: &SiteColumns) -> Vec<RowChange> {
        let diff = &self.diff;
        let mut rows: Vec<u32> = diff
            .inserted
            .iter()
            .chain(&diff.pos)
            .chain(
                site.cat_attrs
                    .iter()
                    .filter_map(|a| diff.cats.get(a))
                    .flatten(),
            )
            .chain(
                site.chan_fps
                    .iter()
                    .filter_map(|fp| diff.chans.get(fp))
                    .flatten(),
            )
            .copied()
            .collect();
        // Stable sort: merges the ascending runs.
        rows.sort();
        rows.dedup();
        let changed = rows.into_iter().map(|r| RowChange {
            key: self.cur.keys[r as usize],
            old: diff.old_row(r as usize).map(|o| o as u32),
            new: Some(r),
        });
        let removed = diff.removed.iter().map(|&o| RowChange {
            key: self.old.keys[o as usize],
            old: Some(o),
            new: None,
        });
        changed.chain(removed).collect()
    }

    /// The current rows grouped by partition under a site's categorical
    /// columns, each group in [`feed_order`] — computed once per pass and
    /// categorical signature.
    pub(crate) fn partitions(
        &mut self,
        site: &SiteColumns,
        cur: &SiteView<'_>,
    ) -> &FxHashMap<u64, Vec<u32>> {
        let keys = &self.cur.keys;
        let order = self.feed_order.get_or_insert_with(|| feed_order(keys));
        self.groups
            .entry(fingerprint_attrs(&site.cat_attrs))
            .or_insert_with(|| {
                let mut groups: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                for &row in order.iter() {
                    groups.entry(cur.partition(row)).or_default().push(row);
                }
                groups
            })
    }
}

/// The order in which full partition builds feed rows to a grid: the
/// iteration order of a key → row map filled in row order.  Grid cells fold
/// their rows in insertion order, so this order fixes the low bits of every
/// maintained float aggregate and must stay stable.
fn feed_order(keys: &[i64]) -> Vec<u32> {
    let mut map: FxHashMap<i64, u32> =
        FxHashMap::with_capacity_and_hasher(keys.len(), Default::default());
    for (row, &key) in (0..).zip(keys) {
        map.insert(key, row);
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(keys: &[i64], xs: &[f64], chan: &[f64]) -> MirrorColumns {
        let mut cols = MirrorColumns {
            keys: keys.to_vec(),
            xs: xs.to_vec(),
            ys: vec![0.0; keys.len()],
            ..MirrorColumns::default()
        };
        cols.chans.insert(9, chan.to_vec());
        cols
    }

    #[test]
    fn aligned_rows_flag_only_changed_cells() {
        let old = columns(
            &[1, 2, 3, 4],
            &[0.0, 1.0, f64::NAN, 3.0],
            &[0.0, 1.0, 2.0, f64::NAN],
        );
        let cur = columns(
            &[1, 2, 3, 4],
            &[0.0, 1.5, f64::NAN, 3.0],
            &[-0.0, 1.0, 2.0, f64::NAN],
        );
        let diff = RowDiff::between(&old, &cur);
        assert!(diff.old_rows.is_none());
        // A NaN position never equals itself.
        assert_eq!(diff.pos, vec![1, 2]);
        // -0.0 differs in bits, NaN under `!=`.
        assert_eq!(diff.chans[&9], vec![0, 3]);
        assert!(diff.inserted.is_empty() && diff.removed.is_empty());
    }

    #[test]
    fn changed_keys_join_rows_by_key() {
        let old = columns(&[1, 2, 3], &[0.0, 1.0, 2.0], &[5.0, 5.0, 5.0]);
        let cur = columns(&[3, 1, 4], &[2.0, 0.5, 9.0], &[5.0, 5.0, 5.0]);
        let diff = RowDiff::between(&old, &cur);
        assert_eq!(diff.old_rows, Some(vec![Some(2), Some(0), None]));
        assert_eq!(diff.inserted, vec![2]);
        assert_eq!(diff.removed, vec![1]);
        // Key 3 kept its position; key 1 moved; key 4 is new (not diffed).
        assert_eq!(diff.pos, vec![1]);
        assert!(diff.chans[&9].is_empty());
    }

    #[test]
    fn feed_order_is_the_iteration_order_of_a_key_indexed_mirror_map() {
        // The maintained grids' fold order — and with it every recorded
        // digest — is the iteration order of a key-indexed map of row states
        // filled in row order; `feed_order` must reproduce it, whatever the
        // map's value type.
        let mut state = 99u64;
        for n in [0usize, 1, 7, 15, 16, 100, 6400] {
            let keys: Vec<i64> = (0..n as i64)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 40) as i64) * 8192 + i
                })
                .collect();
            let mut map: FxHashMap<i64, (u64, Point2, Vec<f64>)> =
                FxHashMap::with_capacity_and_hasher(n, Default::default());
            for (row, &key) in keys.iter().enumerate() {
                map.insert(key, (row as u64, Point2::new(0.0, 0.0), vec![1.0]));
            }
            let expected: Vec<u32> = map.values().map(|v| v.0 as u32).collect();
            assert_eq!(feed_order(&keys), expected, "n = {n}");
        }
    }
}
