//! Uniform bucket-grid spatial index.
//!
//! Not described in the paper; included as an ablation baseline for the range
//! tree (grids are what many game engines actually ship) and used by the
//! movement phase of the simulation engine for cheap collision queries.

use crate::{Point2, Rect};

/// A uniform grid over a rectangular world, bucketing point ids by cell.
///
/// Bucket memory is bounded by the point count, never by the world area:
/// when the requested cell would need more than [`MAX_CELLS_PER_POINT`]
/// cells per point (and more than [`MIN_CELL_BUDGET`] cells), the cell side
/// doubles until it fits.  Queries filter by the exact rectangle, so the
/// cell side never changes an answer.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    origin_x: f64,
    origin_y: f64,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Point ids grouped by cell: cell `b` holds `ids[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    ids: Vec<u32>,
    points: Vec<Point2>,
}

/// Most cells a grid allocates per indexed point.
pub const MAX_CELLS_PER_POINT: usize = 4;

/// Cells a grid may always allocate, however few points it holds.
pub const MIN_CELL_BUDGET: usize = 1024;

impl UniformGrid {
    /// Build a grid with cells of size `cell` (or coarser, see the type
    /// docs) covering the world extent provided; points outside it are
    /// clamped into the border cells.
    pub fn build(
        points: &[Point2],
        world_min: Point2,
        world_max: Point2,
        cell: f64,
    ) -> UniformGrid {
        assert!(cell > 0.0, "cell size must be positive");
        let budget = (MAX_CELLS_PER_POINT * points.len()).max(MIN_CELL_BUDGET);
        let mut cell = cell;
        let (cols, rows) = loop {
            let span = |extent: f64| ((extent.max(cell) / cell).ceil() as usize).saturating_add(1);
            let dims = (
                span(world_max.x - world_min.x),
                span(world_max.y - world_min.y),
            );
            if dims.0.saturating_mul(dims.1) <= budget {
                break dims;
            }
            cell *= 2.0;
        };
        let mut grid = UniformGrid {
            origin_x: world_min.x,
            origin_y: world_min.y,
            cell,
            cols,
            rows,
            starts: Vec::new(),
            ids: Vec::new(),
            points: points.to_vec(),
        };
        // Counting sort of the point ids by cell (stable: ids ascend within
        // a cell).
        let cells: Vec<usize> = points.iter().map(|p| grid.bucket_of(p)).collect();
        let mut starts = vec![0u32; cols * rows + 1];
        for &b in &cells {
            starts[b + 1] += 1;
        }
        let mut running = 0;
        for start in &mut starts {
            running += *start;
            *start = running;
        }
        let mut next = starts.clone();
        let mut ids = vec![0u32; points.len()];
        for (id, &b) in cells.iter().enumerate() {
            ids[next[b] as usize] = id as u32;
            next[b] += 1;
        }
        grid.starts = starts;
        grid.ids = ids;
        grid
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Grid dimensions `(columns, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    fn clamp_col(&self, x: f64) -> usize {
        (((x - self.origin_x) / self.cell).floor().max(0.0) as usize).min(self.cols - 1)
    }

    fn clamp_row(&self, y: f64) -> usize {
        (((y - self.origin_y) / self.cell).floor().max(0.0) as usize).min(self.rows - 1)
    }

    fn bucket_of(&self, p: &Point2) -> usize {
        self.clamp_row(p.y) * self.cols + self.clamp_col(p.x)
    }

    /// Ids of the points in one cell.
    fn bucket(&self, row: usize, col: usize) -> &[u32] {
        let b = row * self.cols + col;
        &self.ids[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// Ids of all points inside the rectangle (inclusive bounds).
    pub fn query(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(rect, &mut out);
        out
    }

    /// Enumerate into an existing buffer (cleared first).
    pub fn query_into(&self, rect: &Rect, out: &mut Vec<u32>) {
        out.clear();
        if self.is_empty() || rect.is_empty() {
            return;
        }
        let c0 = self.clamp_col(rect.x_min);
        let c1 = self.clamp_col(rect.x_max);
        let r0 = self.clamp_row(rect.y_min);
        let r1 = self.clamp_row(rect.y_max);
        for row in r0..=r1 {
            for col in c0..=c1 {
                for id in self.bucket(row, col) {
                    if rect.contains(&self.points[*id as usize]) {
                        out.push(*id);
                    }
                }
            }
        }
    }

    /// Count the points inside the rectangle.
    pub fn count(&self, rect: &Rect) -> usize {
        let mut buf = Vec::new();
        self.query_into(rect, &mut buf);
        buf.len()
    }

    /// Is any point within `radius` (Euclidean) of `p`, other than `exclude`?
    pub fn any_within(&self, p: &Point2, radius: f64, exclude: Option<u32>) -> bool {
        let rect = Rect::centered(p.x, p.y, radius);
        let c0 = self.clamp_col(rect.x_min);
        let c1 = self.clamp_col(rect.x_max);
        let r0 = self.clamp_row(rect.y_min);
        let r1 = self.clamp_row(rect.y_max);
        let r2 = radius * radius;
        for row in r0..=r1 {
            for col in c0..=c1 {
                for id in self.bucket(row, col) {
                    if Some(*id) == exclude {
                        continue;
                    }
                    if self.points[*id as usize].dist2(p) <= r2 {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn random_points(n: usize, seed: u64, world: f64) -> Vec<Point2> {
        let mut state = seed;
        (0..n)
            .map(|_| Point2::new(lcg(&mut state) * world, lcg(&mut state) * world))
            .collect()
    }

    fn world_grid(points: &[Point2], cell: f64) -> UniformGrid {
        UniformGrid::build(
            points,
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 100.0),
            cell,
        )
    }

    #[test]
    fn empty_grid() {
        let grid = world_grid(&[], 5.0);
        assert!(grid.is_empty());
        assert_eq!(grid.count(&Rect::centered(50.0, 50.0, 10.0)), 0);
        assert!(!grid.any_within(&Point2::new(0.0, 0.0), 100.0, None));
    }

    #[test]
    fn queries_match_brute_force() {
        let points = random_points(400, 17, 100.0);
        let grid = world_grid(&points, 7.0);
        assert_eq!(grid.len(), 400);
        let mut state = 23u64;
        for _ in 0..100 {
            let rect = Rect::centered(
                lcg(&mut state) * 100.0,
                lcg(&mut state) * 100.0,
                lcg(&mut state) * 20.0,
            );
            let mut fast = grid.query(&rect);
            fast.sort_unstable();
            let mut slow: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| rect.contains(p))
                .map(|(i, _)| i as u32)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn points_outside_the_declared_world_are_clamped_not_lost() {
        let points = vec![
            Point2::new(-10.0, -10.0),
            Point2::new(150.0, 150.0),
            Point2::new(50.0, 50.0),
        ];
        let grid = world_grid(&points, 10.0);
        assert_eq!(grid.count(&Rect::new(-20.0, 200.0, -20.0, 200.0)), 3);
        assert_eq!(grid.count(&Rect::new(40.0, 60.0, 40.0, 60.0)), 1);
    }

    #[test]
    fn any_within_respects_exclusion_and_radius() {
        let points = vec![Point2::new(10.0, 10.0), Point2::new(11.0, 10.0)];
        let grid = world_grid(&points, 5.0);
        assert!(grid.any_within(&Point2::new(10.0, 10.0), 0.5, None));
        // Excluding the only point in radius → nothing found.
        assert!(!grid.any_within(&Point2::new(10.0, 10.0), 0.5, Some(0)));
        // The other point is 1.0 away.
        assert!(grid.any_within(&Point2::new(10.0, 10.0), 1.0, Some(0)));
        assert!(!grid.any_within(&Point2::new(10.0, 10.0), 0.9, Some(0)));
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = world_grid(&[], 0.0);
    }

    #[test]
    fn dims_reflect_world_and_cell_size() {
        let grid = world_grid(&[], 10.0);
        let (cols, rows) = grid.dims();
        assert!(cols >= 10 && rows >= 10);
    }

    #[test]
    fn huge_worlds_keep_bucket_memory_proportional_to_points() {
        let points = random_points(50, 5, 1e6);
        let grid = UniformGrid::build(&points, Point2::new(0.0, 0.0), Point2::new(1e6, 1e6), 2.8);
        let (cols, rows) = grid.dims();
        assert!(cols * rows <= MIN_CELL_BUDGET.max(MAX_CELLS_PER_POINT * 50));
        // The coarser cell changes no answer.
        let mut state = 41u64;
        for _ in 0..50 {
            let rect = Rect::centered(
                lcg(&mut state) * 1e6,
                lcg(&mut state) * 1e6,
                lcg(&mut state) * 2e5,
            );
            let mut fast = grid.query(&rect);
            fast.sort_unstable();
            let slow: Vec<u32> = (0..points.len() as u32)
                .filter(|&i| rect.contains(&points[i as usize]))
                .collect();
            assert_eq!(fast, slow);
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamically maintained aggregate grid
// ---------------------------------------------------------------------------

use rustc_hash::FxHashMap;

use crate::divisible::DivAcc;
use crate::traits::{AggIndex, DeltaCostClass, ExtremumResult, IndexDelta, IndexRow, SpatialIndex};

/// Per-cell summary of a [`DynamicAggGrid`]: the resident rows plus a
/// divisible accumulator and per-channel extrema over them.
#[derive(Debug, Clone)]
struct DynCell {
    rows: Vec<IndexRow>,
    acc: DivAcc,
    /// Per channel: `(min value, id attaining it, max value, id attaining it)`.
    ext: Vec<(f64, u64, f64, u64)>,
}

impl DynCell {
    fn new(channels: usize) -> DynCell {
        DynCell {
            rows: Vec::new(),
            acc: DivAcc::identity(channels),
            ext: vec![(f64::INFINITY, 0, f64::NEG_INFINITY, 0); channels],
        }
    }

    fn absorb(&mut self, row: &IndexRow) {
        self.acc.insert(&row.values);
        for (c, v) in row.values.iter().enumerate() {
            let e = &mut self.ext[c];
            if *v < e.0 {
                e.0 = *v;
                e.1 = row.id;
            }
            if *v > e.2 {
                e.2 = *v;
                e.3 = row.id;
            }
        }
    }

    /// Recompute the summary from the resident rows (after a removal, when
    /// subtracting from float accumulators would accumulate rounding error).
    fn recompute(&mut self, channels: usize) {
        self.acc = DivAcc::identity(channels);
        self.ext = vec![(f64::INFINITY, 0, f64::NEG_INFINITY, 0); channels];
        let rows = std::mem::take(&mut self.rows);
        for row in &rows {
            self.absorb(row);
        }
        self.rows = rows;
    }
}

/// A dynamically maintained uniform hash grid with per-cell aggregate
/// summaries — the *maintained* counterpart of the per-tick structures
/// (§5.3 argues rebuilding beats maintaining; this structure is the
/// maintenance side of that measurement, wired into the engine as the
/// `MaintainedGrid` physical backend).
///
/// Supports `O(1)` expected-time row insertion/removal/update
/// ([`AggIndex::apply_delta`]), exact divisible aggregates and exact
/// per-channel MIN/MAX over rectangles, id enumeration, and exact nearest
/// neighbour via an expanding ring search.
#[derive(Debug, Clone)]
pub struct DynamicAggGrid {
    /// Cell side; `configured_cell == 0.0` means "derive at rebuild".
    configured_cell: f64,
    cell: f64,
    channels: usize,
    cells: FxHashMap<(i64, i64), DynCell>,
    /// id → (point, values): the authoritative row set.
    rows: FxHashMap<u64, (Point2, Vec<f64>)>,
    /// Grow-only bounding box of occupied cell coordinates (bounds the ring
    /// search; removals may leave it loose, which only costs empty probes).
    cell_bounds: Option<(i64, i64, i64, i64)>,
}

impl DynamicAggGrid {
    /// Create an empty grid.  `cell == 0.0` derives the cell side from the
    /// data on the first [`AggIndex::rebuild`].
    pub fn new(cell: f64, channels: usize) -> DynamicAggGrid {
        DynamicAggGrid {
            configured_cell: cell,
            cell: if cell > 0.0 { cell } else { 1.0 },
            channels,
            cells: FxHashMap::default(),
            rows: FxHashMap::default(),
            cell_bounds: None,
        }
    }

    /// The active cell side length.
    pub fn cell_side(&self) -> f64 {
        self.cell
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    fn coord(&self, v: f64) -> i64 {
        // Clamp so degenerate coordinates (±inf from unbounded filters)
        // cannot overflow the cell arithmetic.
        const LIMIT: f64 = (1i64 << 40) as f64;
        (v / self.cell).floor().clamp(-LIMIT, LIMIT) as i64
    }

    fn cell_of(&self, p: &Point2) -> (i64, i64) {
        (self.coord(p.x), self.coord(p.y))
    }

    fn grow_bounds(&mut self, c: (i64, i64)) {
        self.cell_bounds = Some(match self.cell_bounds {
            None => (c.0, c.0, c.1, c.1),
            Some((x0, x1, y0, y1)) => (x0.min(c.0), x1.max(c.0), y0.min(c.1), y1.max(c.1)),
        });
    }

    fn insert_row(&mut self, row: IndexRow) {
        debug_assert_eq!(row.values.len(), self.channels);
        // Quarantine non-finite positions: a NaN coordinate casts to cell 0,
        // where it would match any rectangle covering that cell (the
        // reference filter `|dx| ≤ r ∧ |dy| ≤ r` never matches NaN).  The row
        // stays in the authoritative id map so deltas can still find it.
        if !row.point.x.is_finite() || !row.point.y.is_finite() {
            self.rows.insert(row.id, (row.point, row.values));
            return;
        }
        let key = self.cell_of(&row.point);
        self.grow_bounds(key);
        self.rows.insert(row.id, (row.point, row.values.clone()));
        let channels = self.channels;
        let cell = self
            .cells
            .entry(key)
            .or_insert_with(|| DynCell::new(channels));
        cell.absorb(&row);
        cell.rows.push(row);
    }

    fn remove_row(&mut self, id: u64) -> bool {
        let Some((point, _)) = self.rows.remove(&id) else {
            return false;
        };
        if !point.x.is_finite() || !point.y.is_finite() {
            // Quarantined row: it was never placed in a cell.
            return true;
        }
        let key = self.cell_of(&point);
        let channels = self.channels;
        if let Some(cell) = self.cells.get_mut(&key) {
            cell.rows.retain(|r| r.id != id);
            if cell.rows.is_empty() {
                self.cells.remove(&key);
            } else {
                cell.recompute(channels);
            }
            true
        } else {
            false
        }
    }

    /// Full scan over the authoritative row set — the fallback when the
    /// ring walk would probe more empty cell coordinates than a scan costs.
    /// Matches the ring search exactly: quarantined (non-finite) rows never
    /// win, and exact distance ties resolve to the smallest id.
    fn brute_nearest(&self, query: &Point2) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (&id, (point, _)) in &self.rows {
            if !point.x.is_finite() || !point.y.is_finite() {
                continue;
            }
            let d2 = query.dist2(point);
            if !d2.is_nan() && best.is_none_or(|(bid, bd)| d2 < bd || (d2 == bd && id < bid)) {
                best = Some((id, d2));
            }
        }
        best
    }

    /// Visit every cell overlapping `rect`; the callback receives the cell
    /// and whether the cell square is fully contained in the rectangle.
    /// Chooses between a coordinate sweep and a full cell-map scan by
    /// whichever touches fewer cells.
    fn visit_cells<'a>(&'a self, rect: &Rect, mut visit: impl FnMut(&'a DynCell, bool)) {
        if rect.is_empty() || self.cells.is_empty() {
            return;
        }
        let c0 = self.coord(rect.x_min);
        let c1 = self.coord(rect.x_max);
        let r0 = self.coord(rect.y_min);
        let r1 = self.coord(rect.y_max);
        let contained = |key: (i64, i64)| {
            let x_lo = key.0 as f64 * self.cell;
            let x_hi = (key.0 + 1) as f64 * self.cell;
            let y_lo = key.1 as f64 * self.cell;
            let y_hi = (key.1 + 1) as f64 * self.cell;
            x_lo >= rect.x_min && x_hi <= rect.x_max && y_lo >= rect.y_min && y_hi <= rect.y_max
        };
        let span = (c1.saturating_sub(c0).saturating_add(1) as u128)
            .saturating_mul(r1.saturating_sub(r0).saturating_add(1) as u128);
        if span <= self.cells.len() as u128 {
            for cx in c0..=c1 {
                for cy in r0..=r1 {
                    if let Some(cell) = self.cells.get(&(cx, cy)) {
                        visit(cell, contained((cx, cy)));
                    }
                }
            }
        } else {
            for (key, cell) in &self.cells {
                if key.0 < c0 || key.0 > c1 || key.1 < r0 || key.1 > r1 {
                    continue;
                }
                visit(cell, contained(*key));
            }
        }
    }

    /// Accumulate the rows inside `rect` into an existing accumulator — the
    /// allocation-free form of [`AggIndex::probe_rect`] for hot probe loops
    /// that reuse one scratch accumulator across probes.
    pub fn probe_rect_into(&self, rect: &Rect, acc: &mut DivAcc) {
        self.visit_cells(rect, |cell, contained| {
            if contained {
                acc.merge(&cell.acc);
            } else {
                for row in &cell.rows {
                    if rect.contains(&row.point) {
                        acc.insert(&row.values);
                    }
                }
            }
        });
    }

    /// Rebuild from owned rows (the allocation-free form of
    /// [`AggIndex::rebuild`] for callers that assemble the rows anyway).
    pub fn rebuild_owned(&mut self, rows: Vec<IndexRow>) {
        self.cells.clear();
        self.rows.clear();
        self.cell_bounds = None;
        if self.configured_cell > 0.0 {
            self.cell = self.configured_cell;
        } else if !rows.is_empty() {
            // Derive a cell side giving ~1 row per cell on uniform data: the
            // bounding-box side over sqrt(n).
            let mut lo = Point2::new(f64::INFINITY, f64::INFINITY);
            let mut hi = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
            for r in &rows {
                lo.x = lo.x.min(r.point.x);
                lo.y = lo.y.min(r.point.y);
                hi.x = hi.x.max(r.point.x);
                hi.y = hi.y.max(r.point.y);
            }
            let side = (hi.x - lo.x).max(hi.y - lo.y);
            // A degenerate bounding box (single row, or every row stacked on
            // one point) must not produce a microscopic cell: rows that
            // later drift apart under incremental maintenance would land
            // millions of cells away, and every ring search would crawl
            // through the gap.  (Found by the conformance suite: a
            // one-knight partition whose knight then marched across the map.)
            self.cell = if side > 1e-9 {
                (side / (rows.len() as f64).sqrt()).max(1e-6)
            } else {
                1.0
            };
        }
        for row in rows {
            self.insert_row(row);
        }
    }
}

impl AggIndex for DynamicAggGrid {
    fn channels(&self) -> usize {
        self.channels
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn rebuild(&mut self, rows: &[IndexRow]) {
        self.rebuild_owned(rows.to_vec());
    }

    fn probe_rect(&self, rect: &Rect) -> DivAcc {
        let mut acc = DivAcc::identity(self.channels);
        self.probe_rect_into(rect, &mut acc);
        acc
    }

    fn probe_extremum(
        &self,
        rect: &Rect,
        channel: usize,
        minimize: bool,
    ) -> Option<ExtremumResult> {
        let mut best: Option<ExtremumResult> = None;
        let better = |best: &Option<ExtremumResult>, v: f64| match best {
            None => true,
            Some(b) => {
                if minimize {
                    v < b.value
                } else {
                    v > b.value
                }
            }
        };
        self.visit_cells(rect, |cell, contained| {
            if contained {
                let e = cell.ext[channel];
                let (v, id) = if minimize { (e.0, e.1) } else { (e.2, e.3) };
                if cell.acc.count > 0.0 && better(&best, v) {
                    best = Some(ExtremumResult { value: v, id });
                }
            } else {
                for row in &cell.rows {
                    if rect.contains(&row.point) && better(&best, row.values[channel]) {
                        best = Some(ExtremumResult {
                            value: row.values[channel],
                            id: row.id,
                        });
                    }
                }
            }
        });
        best
    }

    fn supports_extremum(&self) -> bool {
        true
    }

    fn apply_delta(&mut self, delta: &IndexDelta) -> bool {
        match delta {
            IndexDelta::Insert { row } => self.insert_row(row.clone()),
            IndexDelta::Remove { id, .. } => {
                self.remove_row(*id);
            }
            IndexDelta::Update { id, row, .. } => {
                self.remove_row(*id);
                self.insert_row(row.clone());
            }
        }
        true
    }

    fn supports_deltas(&self) -> bool {
        true
    }

    fn delta_cost_class(&self) -> DeltaCostClass {
        DeltaCostClass::Constant
    }

    fn density_hint(&self) -> Option<f64> {
        let cells = self.occupied_cells();
        if cells == 0 || self.rows.is_empty() || self.cell <= 0.0 {
            return None;
        }
        let area = cells as f64 * self.cell * self.cell;
        (area > 0.0).then(|| self.rows.len() as f64 / area)
    }
}

impl SpatialIndex for DynamicAggGrid {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn probe_rect_ids(&self, rect: &Rect, out: &mut Vec<u64>) {
        self.visit_cells(rect, |cell, contained| {
            if contained {
                out.extend(cell.rows.iter().map(|r| r.id));
            } else {
                for row in &cell.rows {
                    if rect.contains(&row.point) {
                        out.push(row.id);
                    }
                }
            }
        });
    }

    fn probe_nearest(&self, query: &Point2) -> Option<(u64, f64)> {
        let (x0, x1, y0, y1) = self.cell_bounds?;
        // Every distance from a NaN query is NaN, and a NaN distance never
        // wins (as in `KdTree::nearest` and the scan reference).
        if self.rows.is_empty() || query.x.is_nan() || query.y.is_nan() {
            return None;
        }
        let qc = self.cell_of(query);
        // Largest Chebyshev cell distance from the query cell to any occupied
        // cell (the ring search never needs to go further).
        let max_ring = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
            .iter()
            .map(|(cx, cy)| (cx - qc.0).abs().max((cy - qc.1).abs()))
            .max()
            .unwrap_or(0);
        let mut best: Option<(u64, f64)> = None;
        // Exact distance ties resolve to the smallest id — the same rule as
        // `KdTree::nearest`, so every nearest-neighbour structure agrees
        // with the scan-based reference semantics on duplicated positions.
        let consider = |cell: &DynCell, best: &mut Option<(u64, f64)>| {
            for row in &cell.rows {
                let d2 = query.dist2(&row.point);
                if best.is_none_or(|(bid, bd)| d2 < bd || (d2 == bd && row.id < bid)) {
                    *best = Some((row.id, d2));
                }
            }
        };
        // The ring walk probes cell *coordinates*, most of which are empty
        // when the occupancy is sparse relative to the bounds (e.g. two
        // clusters far apart, or bounds left loose by removals).  Cap the
        // wasted lookups at a small multiple of the occupied-cell count and
        // fall back to brute force over the rows beyond that — O(rows),
        // which is exactly what the walk was trying to beat, so the probe
        // is never *worse* than a scan by more than a constant factor.
        let mut lookup_budget = 4 * self.cells.len() + 64;
        for ring in 0..=max_ring {
            // Any point in a cell at Chebyshev cell-distance `ring` is at
            // least `(ring - 1) * cell` away from the query point.  Strict
            // `<`: a later-ring point at *exactly* the best distance may
            // still win the smaller-id tie-break.
            if let Some((_, bd)) = best {
                let reach = (ring - 1).max(0) as f64 * self.cell;
                if bd < reach * reach {
                    break;
                }
            }
            let perimeter = if ring == 0 { 1 } else { 8 * ring as usize };
            if perimeter > lookup_budget {
                return self.brute_nearest(query);
            }
            lookup_budget -= perimeter;
            if ring == 0 {
                if let Some(cell) = self.cells.get(&qc) {
                    consider(cell, &mut best);
                }
                continue;
            }
            let (lo_x, hi_x) = (qc.0 - ring, qc.0 + ring);
            let (lo_y, hi_y) = (qc.1 - ring, qc.1 + ring);
            for cx in lo_x..=hi_x {
                for cy in [lo_y, hi_y] {
                    if let Some(cell) = self.cells.get(&(cx, cy)) {
                        consider(cell, &mut best);
                    }
                }
            }
            for cy in (lo_y + 1)..hi_y {
                for cx in [lo_x, hi_x] {
                    if let Some(cell) = self.cells.get(&(cx, cy)) {
                        consider(cell, &mut best);
                    }
                }
            }
        }
        best
    }

    fn supports_nearest(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn random_rows(n: usize, seed: u64, world: f64) -> Vec<IndexRow> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                IndexRow::new(
                    i as u64,
                    Point2::new(lcg(&mut state) * world, lcg(&mut state) * world),
                    vec![(i % 23) as f64, lcg(&mut state) * 10.0],
                )
            })
            .collect()
    }

    fn brute(rows: &[IndexRow], rect: &Rect) -> DivAcc {
        let mut acc = DivAcc::identity(2);
        for r in rows {
            if rect.contains(&r.point) {
                acc.insert(&r.values);
            }
        }
        acc
    }

    /// Regression (conformance seed 3, stacked layout): exactly duplicated
    /// positions tie on distance; the winner must be the smallest id under
    /// every insertion order and ring-search path, matching the scan-based
    /// reference semantics.
    #[test]
    fn nearest_ties_resolve_to_the_smallest_id() {
        let stacked = Point2::new(21.057808, 34.255306);
        // Ids deliberately inserted out of order.
        let rows = vec![
            IndexRow::new(46, stacked, vec![]),
            IndexRow::new(44, stacked, vec![]),
            IndexRow::new(42, Point2::new(23.018062, 24.096183), vec![]),
        ];
        let mut grid = DynamicAggGrid::new(0.0, 0);
        grid.rebuild(&rows);
        let q = Point2::new(29.412077, 34.638682);
        let (id, _) = grid.probe_nearest(&q).unwrap();
        assert_eq!(id, 44, "tie must go to the smallest id");
        // Mirror tie across cells: equidistant points in different cells.
        let rows = vec![
            IndexRow::new(9, Point2::new(10.0, 0.0), vec![]),
            IndexRow::new(3, Point2::new(-10.0, 0.0), vec![]),
        ];
        let mut grid = DynamicAggGrid::new(4.0, 0);
        grid.rebuild(&rows);
        let (id, _) = grid.probe_nearest(&Point2::new(0.0, 0.0)).unwrap();
        assert_eq!(id, 3);
    }

    #[test]
    fn grid_probes_match_brute_force_after_maintenance() {
        let mut rows = random_rows(400, 11, 120.0);
        let mut grid = DynamicAggGrid::new(0.0, 2);
        grid.rebuild(&rows);
        assert_eq!(AggIndex::len(&grid), 400);
        assert!(grid.cell_side() > 0.0);
        assert!(grid.occupied_cells() > 0);

        // A tick's worth of churn: move a third, remove some, insert some.
        let mut state = 77u64;
        for r in rows.iter_mut().take(130) {
            let old = r.point;
            r.point = Point2::new(lcg(&mut state) * 120.0, lcg(&mut state) * 120.0);
            assert!(grid.apply_delta(&IndexDelta::Update {
                id: r.id,
                old_point: old,
                row: r.clone()
            }));
        }
        for _ in 0..30 {
            let victim = rows.pop().unwrap();
            assert!(grid.apply_delta(&IndexDelta::Remove {
                id: victim.id,
                point: victim.point
            }));
        }
        for i in 0..25u64 {
            let row = IndexRow::new(
                10_000 + i,
                Point2::new(lcg(&mut state) * 120.0, lcg(&mut state) * 120.0),
                vec![i as f64, 1.0],
            );
            assert!(grid.apply_delta(&IndexDelta::Insert { row: row.clone() }));
            rows.push(row);
        }

        let mut qstate = 3u64;
        for _ in 0..100 {
            let rect = Rect::centered(
                lcg(&mut qstate) * 120.0,
                lcg(&mut qstate) * 120.0,
                lcg(&mut qstate) * 30.0,
            );
            let fast = grid.probe_rect(&rect);
            let slow = brute(&rows, &rect);
            assert_eq!(fast.count(), slow.count());
            assert!((fast.channel_sum(0) - slow.channel_sum(0)).abs() < 1e-6);
            assert!((fast.channel_sum(1) - slow.channel_sum(1)).abs() < 1e-6);
        }
    }

    #[test]
    fn grid_extrema_match_brute_force() {
        let rows = random_rows(300, 5, 90.0);
        let mut grid = DynamicAggGrid::new(4.0, 2);
        grid.rebuild(&rows);
        let mut state = 9u64;
        for _ in 0..100 {
            let rect = Rect::centered(
                lcg(&mut state) * 90.0,
                lcg(&mut state) * 90.0,
                5.0 + lcg(&mut state) * 25.0,
            );
            let matching: Vec<&IndexRow> =
                rows.iter().filter(|r| rect.contains(&r.point)).collect();
            for (channel, minimize) in [(0usize, true), (0, false), (1, true), (1, false)] {
                let fast = grid.probe_extremum(&rect, channel, minimize);
                match fast {
                    None => assert!(matching.is_empty()),
                    Some(e) => {
                        let slow = matching.iter().map(|r| r.values[channel]).fold(
                            if minimize {
                                f64::INFINITY
                            } else {
                                f64::NEG_INFINITY
                            },
                            |a, b| {
                                if minimize {
                                    a.min(b)
                                } else {
                                    a.max(b)
                                }
                            },
                        );
                        assert_eq!(e.value, slow);
                        // The reported id attains the value inside the rect.
                        let attaining = rows.iter().find(|r| r.id == e.id).unwrap();
                        assert!(rect.contains(&attaining.point));
                        assert_eq!(attaining.values[channel], slow);
                    }
                }
            }
        }
    }

    #[test]
    fn grid_nearest_matches_brute_force() {
        let rows = random_rows(250, 21, 100.0);
        let mut grid = DynamicAggGrid::new(0.0, 2);
        grid.rebuild(&rows);
        let mut state = 13u64;
        for _ in 0..200 {
            let q = Point2::new(
                lcg(&mut state) * 140.0 - 20.0,
                lcg(&mut state) * 140.0 - 20.0,
            );
            let (_, d2) = grid.probe_nearest(&q).unwrap();
            let best = rows
                .iter()
                .map(|r| q.dist2(&r.point))
                .fold(f64::INFINITY, f64::min);
            assert!((d2 - best).abs() < 1e-9, "query {q:?}: {d2} vs {best}");
        }
    }

    #[test]
    fn nearest_survives_heavy_removal() {
        // Leave a single far-away row: the ring search must still find it and
        // the loose bounding box must not break correctness.
        let rows = random_rows(100, 2, 50.0);
        let mut grid = DynamicAggGrid::new(2.0, 2);
        grid.rebuild(&rows);
        for r in &rows[..99] {
            grid.apply_delta(&IndexDelta::Remove {
                id: r.id,
                point: r.point,
            });
        }
        assert_eq!(AggIndex::len(&grid), 1);
        let survivor = &rows[99];
        let (id, _) = grid.probe_nearest(&Point2::new(-100.0, -100.0)).unwrap();
        assert_eq!(id, survivor.id);
        // Empty grid answers None.
        grid.apply_delta(&IndexDelta::Remove {
            id: survivor.id,
            point: survivor.point,
        });
        assert_eq!(grid.probe_nearest(&Point2::new(0.0, 0.0)), None);
        assert_eq!(
            grid.probe_rect(&Rect::new(-1e9, 1e9, -1e9, 1e9)).count(),
            0.0
        );
    }

    #[test]
    fn unbounded_rect_probes_cover_everything() {
        let rows = random_rows(150, 31, 60.0);
        let mut grid = DynamicAggGrid::new(0.0, 2);
        grid.rebuild(&rows);
        let whole = Rect::new(
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
        );
        assert_eq!(grid.probe_rect(&whole).count() as usize, 150);
        let mut ids = Vec::new();
        grid.probe_rect_ids(&whole, &mut ids);
        assert_eq!(ids.len(), 150);
    }
}
