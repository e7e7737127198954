//! A fixed machine-speed probe: circular range counts over a uniform grid of
//! points, written here and sharing no code with the engine.
//!
//! Other tenants of a shared machine slow it down by up to 2× for spells of
//! seconds to minutes. The probe does the same kind of work as an engine
//! tick (grid cell walks, float distance tests, cache misses over a few MB),
//! so it slows down by about the same factor, and its time next to a tick
//! tells how fast the machine was running then.

use std::time::Instant;

/// Probe time at which reported times equal measured times: about the
/// probe's median time on the 2-core x86-64 container the benchmark was
/// tuned on (1.5 ms when no other tenant ran, up to 2.9 ms when they did).
pub const REFERENCE_S: f64 = 2.0e-3;

const POINTS: usize = 1 << 18;
const SIDE: f32 = 4096.0;
const CELL: f32 = 16.0;
const GRID: usize = (SIDE / CELL) as usize;
const QUERIES: usize = 1500;
const RADIUS: f32 = 40.0;

/// Points bucketed by grid cell, and the fixed query centres.
pub struct Probe {
    cell_start: Vec<u32>,
    xs: Vec<f32>,
    ys: Vec<f32>,
    queries: Vec<(f32, f32)>,
}

/// Deterministic uniform draw in [0, 1).
fn next_unit(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 40) as f32 / (1u64 << 24) as f32
}

fn cell_of(v: f32) -> usize {
    ((v / CELL) as usize).min(GRID - 1)
}

impl Probe {
    /// Build the point grid and queries (always the same).
    pub fn new() -> Probe {
        let mut state = 7u64;
        let mut points: Vec<(usize, f32, f32)> = (0..POINTS)
            .map(|_| {
                let x = next_unit(&mut state) * SIDE;
                let y = next_unit(&mut state) * SIDE;
                (cell_of(y) * GRID + cell_of(x), x, y)
            })
            .collect();
        points.sort_by_key(|p| p.0);
        let mut cell_start = vec![0u32; GRID * GRID + 1];
        for p in &points {
            cell_start[p.0 + 1] += 1;
        }
        for i in 0..GRID * GRID {
            cell_start[i + 1] += cell_start[i];
        }
        let queries = (0..QUERIES)
            .map(|_| (next_unit(&mut state) * SIDE, next_unit(&mut state) * SIDE))
            .collect();
        Probe {
            cell_start,
            xs: points.iter().map(|p| p.1).collect(),
            ys: points.iter().map(|p| p.2).collect(),
            queries,
        }
    }

    /// Seconds one pass over the queries takes now.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut hits = 0u64;
        let r2 = RADIUS * RADIUS;
        for &(qx, qy) in &self.queries {
            let lo = |v: f32| cell_of((v - RADIUS).max(0.0));
            let hi = |v: f32| cell_of(v + RADIUS);
            for cy in lo(qy)..=hi(qy) {
                for cx in lo(qx)..=hi(qx) {
                    let c = cy * GRID + cx;
                    for i in self.cell_start[c] as usize..self.cell_start[c + 1] as usize {
                        let (dx, dy) = (self.xs[i] - qx, self.ys[i] - qy);
                        if dx * dx + dy * dy <= r2 {
                            hits += 1;
                        }
                    }
                }
            }
        }
        std::hint::black_box(hits);
        start.elapsed().as_secs_f64()
    }
}
