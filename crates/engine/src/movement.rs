//! Movement phase: units move along their combined movement vectors in random
//! order, with collision detection and very simple pathfinding (§6).

use rustc_hash::FxHashMap;

use sgl_env::{AttrId, EffectBuffer, EnvTable, TickRandom, Value};

use crate::Result;
use sgl_index::grid::UniformGrid;
use sgl_index::{Point2, Rect};

pub use sgl_index::grid::UniformGrid as CollisionGrid;

/// Configuration of the movement phase.
#[derive(Debug, Clone, Copy)]
pub struct MovementConfig {
    /// Position attributes.
    pub x: AttrId,
    /// Position attributes.
    pub y: AttrId,
    /// Movement-vector effect attributes.
    pub dx: AttrId,
    /// Movement-vector effect attributes.
    pub dy: AttrId,
    /// Maximum distance a unit moves per tick.
    pub step: f64,
    /// Two units may not come closer than this distance.
    pub collision_radius: f64,
    /// World bounds `(x_min, y_min, x_max, y_max)`; positions are clamped.
    pub world: (f64, f64, f64, f64),
}

/// Statistics of one movement phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MovementStats {
    /// Units that wanted to move.
    pub movers: usize,
    /// Units that moved along their full vector.
    pub moved: usize,
    /// Units that fell back to an axis-only move (simple pathfinding).
    pub detoured: usize,
    /// Units that could not move at all.
    pub blocked: usize,
}

/// Simple spatial hash for the positions units have already moved to this
/// phase (the static grid only knows pre-move positions).
struct MovedHash {
    cell: f64,
    map: FxHashMap<(i64, i64), Vec<Point2>>,
}

impl MovedHash {
    fn new(cell: f64) -> MovedHash {
        MovedHash {
            cell: cell.max(1e-6),
            map: FxHashMap::default(),
        }
    }

    fn cell_of(&self, p: &Point2) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    fn insert(&mut self, p: Point2) {
        let c = self.cell_of(&p);
        self.map.entry(c).or_default().push(p);
    }

    fn any_within(&self, p: &Point2, radius: f64) -> bool {
        let r2 = radius * radius;
        let (cx, cy) = self.cell_of(p);
        let reach = (radius / self.cell).ceil() as i64 + 1;
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                if let Some(points) = self.map.get(&(cx + dx, cy + dy)) {
                    if points.iter().any(|q| q.dist2(p) <= r2) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Run the movement phase: apply the combined `movevect` effects to unit
/// positions, in a deterministic pseudo-random order, skipping moves that
/// would collide with another unit.
pub fn run_movement(
    table: &mut EnvTable,
    effects: &EffectBuffer,
    config: &MovementConfig,
    rng: &TickRandom,
) -> Result<MovementStats> {
    let mut stats = MovementStats::default();
    let n = table.len();
    if n == 0 {
        return Ok(stats);
    }
    let positions = position_snapshot(table, config);
    // Collision grid over the pre-move positions, built when the first
    // mover needs it: a tick in which nobody moves never pays for it.
    let mut grid: Option<UniformGrid> = None;
    let mut hits = Vec::new();
    let mut moved_hash = MovedHash::new((config.collision_radius * 2.0).max(1.0));
    let mut moved_rows: Vec<bool> = vec![false; n];

    // Deterministic pseudo-random processing order.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as i64, 7_777, (i + 1) as i64) as usize;
        order.swap(i, j);
    }

    let clamp = |p: Point2| -> Point2 {
        Point2::new(
            p.x.clamp(config.world.0, config.world.2),
            p.y.clamp(config.world.1, config.world.3),
        )
    };

    for idx in order {
        let key = table.key_of(idx);
        let dx = effects
            .get_or_default(key, config.dx)
            .as_f64()
            .unwrap_or(0.0);
        let dy = effects
            .get_or_default(key, config.dy)
            .as_f64()
            .unwrap_or(0.0);
        let norm = (dx * dx + dy * dy).sqrt();
        if norm <= f64::EPSILON {
            continue;
        }
        stats.movers += 1;
        let current = positions[idx];
        // A NaN or infinite movement vector would pass the `norm` guard above
        // (NaN fails `<=`; infinities exceed it) and write non-finite
        // positions into the table, permanently poisoning the collision grid
        // and every state digest after this tick.  Such movers stay put and
        // count as blocked.
        if !dx.is_finite() || !dy.is_finite() {
            stats.blocked += 1;
            moved_rows[idx] = true;
            moved_hash.insert(current);
            continue;
        }
        let scale = (config.step / norm).min(1.0);
        // Candidate positions: full move, x-only, y-only (simple pathfinding).
        let candidates = [
            clamp(Point2::new(current.x + dx * scale, current.y + dy * scale)),
            clamp(Point2::new(current.x + dx * scale, current.y)),
            clamp(Point2::new(current.x, current.y + dy * scale)),
        ];
        let mut accepted = None;
        for (ci, candidate) in candidates.iter().enumerate() {
            // Never write a non-finite position (a NaN current position can
            // leak through `clamp`, which keeps NaN).
            if !candidate.x.is_finite() || !candidate.y.is_finite() {
                continue;
            }
            // Collide against pre-move positions of units that have not moved
            // yet, and against the post-move positions of units that have.
            let rect = Rect::centered(candidate.x, candidate.y, config.collision_radius);
            grid.get_or_insert_with(|| {
                UniformGrid::build(
                    &positions,
                    Point2::new(config.world.0, config.world.1),
                    Point2::new(config.world.2, config.world.3),
                    (config.collision_radius * 4.0).max(1.0),
                )
            })
            .query_into(&rect, &mut hits);
            let static_clash = hits.iter().any(|h| {
                let h = *h as usize;
                h != idx
                    && !moved_rows[h]
                    && positions[h].dist2(candidate) < config.collision_radius.powi(2)
            });
            let moved_clash = moved_hash.any_within(candidate, config.collision_radius);
            if !static_clash && !moved_clash {
                accepted = Some((ci, *candidate));
                break;
            }
        }
        match accepted {
            Some((ci, target)) => {
                if ci == 0 {
                    stats.moved += 1;
                } else {
                    stats.detoured += 1;
                }
                table.set_attr(idx, config.x, Value::Float(target.x))?;
                table.set_attr(idx, config.y, Value::Float(target.y))?;
                moved_rows[idx] = true;
                moved_hash.insert(target);
            }
            None => {
                stats.blocked += 1;
                moved_rows[idx] = true;
                moved_hash.insert(current);
            }
        }
    }
    Ok(stats)
}

/// Every unit's position, column-at-a-time.  A column that is not numeric
/// throughout is read row by row, a non-numeric value reading as 0.
fn position_snapshot(table: &EnvTable, config: &MovementConfig) -> Vec<Point2> {
    match (table.column_f64(config.x), table.column_f64(config.y)) {
        (Ok(xs), Ok(ys)) => xs
            .into_iter()
            .zip(ys)
            .map(|(x, y)| Point2::new(x, y))
            .collect(),
        _ => (0..table.len())
            .map(|i| {
                let row = table.row(i);
                Point2::new(
                    row.get_f64(config.x).unwrap_or(0.0),
                    row.get_f64(config.y).unwrap_or(0.0),
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::{schema::paper_schema, GameRng, Schema, TupleBuilder};
    use std::sync::Arc;

    fn setup(positions: &[(f64, f64)]) -> (Arc<Schema>, EnvTable, MovementConfig) {
        let schema = paper_schema().into_shared();
        let mut table = EnvTable::new(Arc::clone(&schema));
        for (i, (x, y)) in positions.iter().enumerate() {
            let t = TupleBuilder::new(&schema)
                .set("key", i as i64)
                .unwrap()
                .set("posx", *x)
                .unwrap()
                .set("posy", *y)
                .unwrap()
                .set("health", 10i64)
                .unwrap()
                .build();
            table.insert(t).unwrap();
        }
        let config = MovementConfig {
            x: schema.attr_id("posx").unwrap(),
            y: schema.attr_id("posy").unwrap(),
            dx: schema.attr_id("movevect_x").unwrap(),
            dy: schema.attr_id("movevect_y").unwrap(),
            step: 1.0,
            collision_radius: 0.9,
            world: (0.0, 0.0, 100.0, 100.0),
        };
        (schema, table, config)
    }

    #[test]
    fn units_move_along_their_vectors() {
        let (schema, mut table, config) = setup(&[(10.0, 10.0)]);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        effects.apply(0, config.dx, Value::Float(3.0)).unwrap();
        effects.apply(0, config.dy, Value::Float(4.0)).unwrap();
        let rng = GameRng::new(1).for_tick(0);
        let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
        assert_eq!(stats.movers, 1);
        assert_eq!(stats.moved, 1);
        let row = table.row(0);
        assert!((row.get_f64(config.x).unwrap() - 10.6).abs() < 1e-9);
        assert!((row.get_f64(config.y).unwrap() - 10.8).abs() < 1e-9);
    }

    #[test]
    fn blocked_moves_fall_back_or_stay() {
        // Two units side by side; the left one tries to move straight into
        // the right one.
        let (schema, mut table, config) = setup(&[(10.0, 10.0), (11.0, 10.0)]);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        effects.apply(0, config.dx, Value::Float(1.0)).unwrap();
        let rng = GameRng::new(3).for_tick(0);
        let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
        assert_eq!(stats.movers, 1);
        // The direct move collides; the x-only candidate is the same, the
        // y-only candidate keeps position — so the unit is either detoured
        // (no-op y move counts as detour) or blocked, but never overlapping.
        let x0 = table.row(0).get_f64(config.x).unwrap();
        let x1 = table.row(1).get_f64(config.x).unwrap();
        assert!((x1 - x0).abs() >= config.collision_radius - 1e-9);
        assert_eq!(stats.moved, 0);
    }

    #[test]
    fn world_bounds_clamp_positions() {
        let (schema, mut table, config) = setup(&[(0.5, 0.5)]);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        effects.apply(0, config.dx, Value::Float(-10.0)).unwrap();
        effects.apply(0, config.dy, Value::Float(-10.0)).unwrap();
        let rng = GameRng::new(1).for_tick(5);
        run_movement(&mut table, &effects, &config, &rng).unwrap();
        assert!(table.row(0).get_f64(config.x).unwrap() >= 0.0);
        assert!(table.row(0).get_f64(config.y).unwrap() >= 0.0);
    }

    #[test]
    fn no_effects_means_nobody_moves() {
        let (schema, mut table, config) = setup(&[(5.0, 5.0), (20.0, 20.0)]);
        let effects = EffectBuffer::new(Arc::clone(&schema));
        let rng = GameRng::new(1).for_tick(1);
        let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
        assert_eq!(stats, MovementStats::default());
        assert_eq!(table.row(0).get_f64(config.x).unwrap(), 5.0);
    }

    #[test]
    fn non_finite_vectors_block_instead_of_poisoning_positions() {
        for (dx, dy) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (f64::INFINITY, 0.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (1.0, f64::NEG_INFINITY),
        ] {
            let (schema, mut table, config) = setup(&[(10.0, 10.0), (20.0, 20.0)]);
            let mut effects = EffectBuffer::new(Arc::clone(&schema));
            effects.apply(0, config.dx, Value::Float(dx)).unwrap();
            effects.apply(0, config.dy, Value::Float(dy)).unwrap();
            // A healthy mover in the same phase still moves.
            effects.apply(1, config.dx, Value::Float(1.0)).unwrap();
            let rng = GameRng::new(4).for_tick(0);
            let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
            assert_eq!(stats.movers, 2, "vector ({dx}, {dy})");
            assert_eq!(stats.blocked, 1, "vector ({dx}, {dy})");
            assert_eq!(stats.moved, 1, "vector ({dx}, {dy})");
            // The poisoned unit stayed exactly where it was, finite.
            let x = table.row(0).get_f64(config.x).unwrap();
            let y = table.row(0).get_f64(config.y).unwrap();
            assert_eq!((x, y), (10.0, 10.0), "vector ({dx}, {dy})");
            assert!(
                table.row(1).get_f64(config.x).unwrap().is_finite(),
                "vector ({dx}, {dy})"
            );
        }
    }

    #[test]
    fn dense_crowds_never_overlap_after_movement() {
        let positions: Vec<(f64, f64)> = (0..25)
            .map(|i| ((i % 5) as f64 * 2.0 + 10.0, (i / 5) as f64 * 2.0 + 10.0))
            .collect();
        let (schema, mut table, config) = setup(&positions);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        // Everyone tries to move toward the centre.
        for i in 0..25i64 {
            let (x, y) = positions[i as usize];
            effects.apply(i, config.dx, Value::Float(14.0 - x)).unwrap();
            effects.apply(i, config.dy, Value::Float(14.0 - y)).unwrap();
        }
        let rng = GameRng::new(9).for_tick(3);
        run_movement(&mut table, &effects, &config, &rng).unwrap();
        for i in 0..25 {
            for j in (i + 1)..25 {
                let a = Point2::new(
                    table.row(i).get_f64(config.x).unwrap(),
                    table.row(i).get_f64(config.y).unwrap(),
                );
                let b = Point2::new(
                    table.row(j).get_f64(config.x).unwrap(),
                    table.row(j).get_f64(config.y).unwrap(),
                );
                assert!(
                    a.dist2(&b).sqrt() >= config.collision_radius - 1e-9,
                    "units {i} and {j} overlap"
                );
            }
        }
    }

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// O(n²) reference for [`run_movement`]: the same processing order and
    /// candidate moves, with every collision check a scan over all units.
    fn brute_force_movement(
        start: &[Point2],
        vectors: &[(f64, f64)],
        config: &MovementConfig,
        rng: &TickRandom,
    ) -> (Vec<Point2>, MovementStats) {
        let n = start.len();
        let r2 = config.collision_radius * config.collision_radius;
        let mut stats = MovementStats::default();
        let mut now = start.to_vec();
        let mut moved = vec![false; n];
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as i64, 7_777, (i + 1) as i64) as usize);
        }
        let (x0, y0, x1, y1) = config.world;
        let clamp = |x: f64, y: f64| Point2::new(x.clamp(x0, x1), y.clamp(y0, y1));
        for idx in order {
            let (dx, dy) = vectors[idx];
            let norm = (dx * dx + dy * dy).sqrt();
            if norm <= f64::EPSILON {
                continue;
            }
            stats.movers += 1;
            let scale = (config.step / norm).min(1.0);
            let p = start[idx];
            let candidates = [
                clamp(p.x + dx * scale, p.y + dy * scale),
                clamp(p.x + dx * scale, p.y),
                clamp(p.x, p.y + dy * scale),
            ];
            let free = |c: &Point2| {
                (0..n).all(|j| {
                    if moved[j] {
                        now[j].dist2(c) > r2
                    } else {
                        j == idx || start[j].dist2(c) >= r2
                    }
                })
            };
            match candidates.iter().position(free) {
                Some(ci) => {
                    if ci == 0 {
                        stats.moved += 1;
                    } else {
                        stats.detoured += 1;
                    }
                    now[idx] = candidates[ci];
                }
                None => stats.blocked += 1,
            }
            moved[idx] = true;
        }
        (now, stats)
    }

    /// Run the movement phase and the brute-force reference on one world;
    /// assert identical positions (bit for bit) and statistics, and that no
    /// two units overlap afterwards.
    fn assert_matches_brute_force(start: &[(f64, f64)], vectors: &[(f64, f64)], side: f64) {
        let (schema, mut table, mut config) = setup(start);
        config.world = (0.0, 0.0, side, side);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        for (key, (dx, dy)) in vectors.iter().enumerate() {
            effects
                .apply(key as i64, config.dx, Value::Float(*dx))
                .unwrap();
            effects
                .apply(key as i64, config.dy, Value::Float(*dy))
                .unwrap();
        }
        let rng = GameRng::new(21).for_tick(4);
        let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
        let points: Vec<Point2> = start.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let (expected, expected_stats) = brute_force_movement(&points, vectors, &config, &rng);
        assert_eq!(stats, expected_stats);
        for (row, want) in expected.iter().enumerate() {
            let got = Point2::new(
                table.row(row).get_f64(config.x).unwrap(),
                table.row(row).get_f64(config.y).unwrap(),
            );
            assert_eq!(
                (got.x.to_bits(), got.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits()),
                "unit {row}"
            );
        }
        let r2 = config.collision_radius * config.collision_radius;
        for i in 0..expected.len() {
            for j in (i + 1)..expected.len() {
                assert!(
                    expected[i].dist2(&expected[j]) >= r2 - 1e-9,
                    "{i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn sparse_worlds_match_the_brute_force_reference() {
        // 300 units at 0.05 % density.
        let n = 300;
        let side = (n as f64 / 0.0005).sqrt();
        let mut state = 77u64;
        let start: Vec<(f64, f64)> = (0..n)
            .map(|_| (lcg(&mut state) * side, lcg(&mut state) * side))
            .collect();
        let vectors: Vec<(f64, f64)> = (0..n)
            .map(|_| (lcg(&mut state) * 4.0 - 2.0, lcg(&mut state) * 4.0 - 2.0))
            .collect();
        assert_matches_brute_force(&start, &vectors, side);
    }

    #[test]
    fn dense_formations_match_the_brute_force_reference() {
        // A 15 × 15 block at unit spacing, everyone pushing to its centre:
        // most moves collide, detour or block.
        let start: Vec<(f64, f64)> = (0..225)
            .map(|i| (20.0 + (i % 15) as f64, 20.0 + (i / 15) as f64))
            .collect();
        let vectors: Vec<(f64, f64)> = start.iter().map(|&(x, y)| (27.0 - x, 27.0 - y)).collect();
        assert_matches_brute_force(&start, &vectors, 60.0);
    }

    #[test]
    fn a_tick_without_movers_leaves_the_table_untouched() {
        let positions: Vec<(f64, f64)> = (0..40).map(|i| (i as f64 * 2.0, 7.5)).collect();
        let (schema, mut table, config) = setup(&positions);
        let columns = |table: &EnvTable| -> Vec<Vec<Value>> {
            (0..schema.len())
                .map(|attr| table.column_values(attr).unwrap())
                .collect()
        };
        let before = columns(&table);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        // A zero vector is not a move.
        effects.apply(3, config.dx, Value::Float(0.0)).unwrap();
        let rng = GameRng::new(2).for_tick(9);
        let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
        assert_eq!(stats, MovementStats::default());
        assert_eq!(columns(&table), before);
    }

    #[test]
    fn huge_sparse_worlds_keep_the_collision_grid_proportional_to_units() {
        // A 1e6 × 1e6 world: cell-per-area bucketing would need ~8e10
        // buckets for the 3.6-unit collision cell.
        let side = 1e6;
        let start: Vec<(f64, f64)> = (0..6).map(|i| (1e5 * (i + 1) as f64, 5e5)).collect();
        let (schema, mut table, mut config) = setup(&start);
        config.world = (0.0, 0.0, side, side);
        let grid = CollisionGrid::build(
            &start
                .iter()
                .map(|&(x, y)| Point2::new(x, y))
                .collect::<Vec<_>>(),
            Point2::new(0.0, 0.0),
            Point2::new(side, side),
            config.collision_radius * 4.0,
        );
        let (cols, rows) = grid.dims();
        assert!(cols * rows <= sgl_index::grid::MIN_CELL_BUDGET);
        let mut effects = EffectBuffer::new(Arc::clone(&schema));
        for key in 0..6 {
            effects.apply(key, config.dy, Value::Float(1.0)).unwrap();
        }
        let rng = GameRng::new(8).for_tick(1);
        let stats = run_movement(&mut table, &effects, &config, &rng).unwrap();
        assert_eq!(stats.moved, 6);
        for row in 0..6 {
            assert_eq!(table.row(row).get_f64(config.y).unwrap(), 5e5 + 1.0);
        }
    }
}
