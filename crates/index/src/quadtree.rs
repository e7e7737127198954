//! Bucket PR quadtree with per-node aggregate summaries.
//!
//! The paper's primary index for divisible aggregates is the layered range
//! tree of Figure 8 ([`crate::agg_tree`]).  Game engines in practice often
//! prefer hierarchical spatial subdivisions because they adapt to the heavy
//! clustering of combat formations and can answer **both** divisible
//! aggregates and MIN/MAX aggregates exactly from the same structure.  This
//! module provides such a structure as an ablation point: an
//! [`AggQuadTree`] — a point-region quadtree whose internal nodes carry a
//! [`DivAcc`] accumulator plus per-channel minima and maxima over their
//! subtree.
//!
//! A rectangle query decomposes the region into nodes that are either fully
//! contained (their summary is used wholesale) or partially overlapped
//! (recursion continues, down to leaf buckets whose points are tested
//! individually).  On clustered data the number of visited nodes is
//! `O(log n + p)` where `p` is the number of partially overlapped leaves, so
//! queries behave like the range tree for divisible aggregates while also
//! supporting exact MIN/MAX — the case the paper otherwise handles with the
//! sweep-line of Figure 9 (which requires the query range to be constant).

use crate::agg_tree::AggEntry;
use crate::divisible::DivAcc;
use crate::{Point2, Rect};

const NO_CHILD: u32 = u32::MAX;

/// Per-subtree summary: a divisible accumulator plus channel-wise extrema.
#[derive(Debug, Clone)]
struct Summary {
    acc: DivAcc,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Summary {
    fn identity(channels: usize) -> Summary {
        Summary {
            acc: DivAcc::identity(channels),
            min: vec![f64::INFINITY; channels],
            max: vec![f64::NEG_INFINITY; channels],
        }
    }

    fn insert(&mut self, values: &[f64]) {
        self.acc.insert(values);
        for (i, v) in values.iter().enumerate() {
            if *v < self.min[i] {
                self.min[i] = *v;
            }
            if *v > self.max[i] {
                self.max[i] = *v;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Bounding square of the node.
    bounds: Rect,
    /// Children in NW, NE, SW, SE order; `NO_CHILD` when absent (leaves have
    /// all four absent).
    children: [u32; 4],
    /// Ids of the points stored directly in this node (non-empty only for
    /// leaves).
    points: Vec<u32>,
    /// Aggregate summary of the whole subtree.
    summary: Summary,
}

/// A bucket point-region quadtree whose nodes carry aggregate summaries.
#[derive(Debug, Clone)]
pub struct AggQuadTree {
    nodes: Vec<Node>,
    entries: Vec<AggEntry>,
    channels: usize,
    bucket: usize,
    root: u32,
}

/// Result of a MIN/MAX query: the best value and the id of a row attaining it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremum {
    /// The extreme channel value.
    pub value: f64,
    /// Id (index into the build slice) of a point attaining it.
    pub id: u32,
}

impl AggQuadTree {
    /// Build a quadtree over the entries.
    ///
    /// * `channels` — number of aggregate channels carried by each entry
    ///   (must match `AggEntry::values.len()`).
    /// * `bucket` — leaf capacity before a node splits (8–16 is a good
    ///   default for per-tick rebuilds).
    pub fn build(entries: &[AggEntry], channels: usize, bucket: usize) -> AggQuadTree {
        let bucket = bucket.max(1);
        let mut tree = AggQuadTree {
            nodes: Vec::new(),
            entries: entries.to_vec(),
            channels,
            bucket,
            root: NO_CHILD,
        };
        // Quarantine non-finite positions (as the maintained grid does): a
        // NaN point lies in no rectangle, yet inserted it would be folded
        // into the summary of whichever node it fell into.
        let finite: Vec<u32> = (0..entries.len() as u32)
            .filter(|&id| {
                let p = &entries[id as usize].point;
                p.x.is_finite() && p.y.is_finite()
            })
            .collect();
        if finite.is_empty() {
            return tree;
        }
        // World bounds: the tight bounding square of the points, slightly
        // inflated so boundary points never fall outside due to rounding.
        let mut x_min = f64::INFINITY;
        let mut x_max = f64::NEG_INFINITY;
        let mut y_min = f64::INFINITY;
        let mut y_max = f64::NEG_INFINITY;
        for &id in &finite {
            let p = &entries[id as usize].point;
            x_min = x_min.min(p.x);
            x_max = x_max.max(p.x);
            y_min = y_min.min(p.y);
            y_max = y_max.max(p.y);
        }
        let side = ((x_max - x_min).max(y_max - y_min)).max(1e-9) * 1.000_001;
        let bounds = Rect::new(x_min, x_min + side, y_min, y_min + side);
        let root = tree.new_node(bounds);
        tree.root = root;
        for id in finite {
            tree.insert(root, id, 0);
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of aggregate channels carried per entry.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of tree nodes (exposed for ablation reporting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn new_node(&mut self, bounds: Rect) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            bounds,
            children: [NO_CHILD; 4],
            points: Vec::new(),
            summary: Summary::identity(self.channels),
        });
        idx
    }

    fn quadrant_bounds(bounds: &Rect, quadrant: usize) -> Rect {
        let mx = (bounds.x_min + bounds.x_max) / 2.0;
        let my = (bounds.y_min + bounds.y_max) / 2.0;
        match quadrant {
            0 => Rect::new(bounds.x_min, mx, my, bounds.y_max), // NW
            1 => Rect::new(mx, bounds.x_max, my, bounds.y_max), // NE
            2 => Rect::new(bounds.x_min, mx, bounds.y_min, my), // SW
            _ => Rect::new(mx, bounds.x_max, bounds.y_min, my), // SE
        }
    }

    fn quadrant_of(bounds: &Rect, p: &Point2) -> usize {
        let mx = (bounds.x_min + bounds.x_max) / 2.0;
        let my = (bounds.y_min + bounds.y_max) / 2.0;
        match (p.x < mx, p.y < my) {
            (true, false) => 0,
            (false, false) => 1,
            (true, true) => 2,
            (false, true) => 3,
        }
    }

    /// Maximum subdivision depth; beyond it points pile up in one leaf.  This
    /// bounds the tree height when many units share a position (duplicate
    /// points are common: units standing on the same tile).
    const MAX_DEPTH: usize = 32;

    fn insert(&mut self, node_idx: u32, id: u32, depth: usize) {
        let point = self.entries[id as usize].point;
        let values = self.entries[id as usize].values.clone();
        self.nodes[node_idx as usize].summary.insert(&values);

        let is_leaf = self.nodes[node_idx as usize].children == [NO_CHILD; 4];
        if is_leaf {
            self.nodes[node_idx as usize].points.push(id);
            let overflow = self.nodes[node_idx as usize].points.len() > self.bucket;
            if overflow && depth < Self::MAX_DEPTH {
                self.split(node_idx, depth);
            }
            return;
        }
        let bounds = self.nodes[node_idx as usize].bounds;
        let q = Self::quadrant_of(&bounds, &point);
        let child = self.ensure_child(node_idx, q);
        self.insert_into_child(child, id, depth + 1);
    }

    /// Insert without re-adding to the parent summary (used by `split`, where
    /// the parent summary already includes the point).
    fn insert_into_child(&mut self, node_idx: u32, id: u32, depth: usize) {
        self.insert(node_idx, id, depth);
    }

    fn ensure_child(&mut self, node_idx: u32, quadrant: usize) -> u32 {
        if self.nodes[node_idx as usize].children[quadrant] != NO_CHILD {
            return self.nodes[node_idx as usize].children[quadrant];
        }
        let bounds = Self::quadrant_bounds(&self.nodes[node_idx as usize].bounds, quadrant);
        let child = self.new_node(bounds);
        self.nodes[node_idx as usize].children[quadrant] = child;
        child
    }

    fn split(&mut self, node_idx: u32, depth: usize) {
        let points = std::mem::take(&mut self.nodes[node_idx as usize].points);
        let bounds = self.nodes[node_idx as usize].bounds;
        for id in points {
            let p = self.entries[id as usize].point;
            let q = Self::quadrant_of(&bounds, &p);
            let child = self.ensure_child(node_idx, q);
            // The parent's summary already accounts for these points; only the
            // child's summary chain needs updating, which `insert` does.
            self.insert_into_child(child, id, depth + 1);
        }
    }

    fn node_rect_relation(node: &Node, rect: &Rect) -> Relation {
        let b = &node.bounds;
        if b.x_min > rect.x_max
            || b.x_max < rect.x_min
            || b.y_min > rect.y_max
            || b.y_max < rect.y_min
        {
            return Relation::Disjoint;
        }
        if b.x_min >= rect.x_min
            && b.x_max <= rect.x_max
            && b.y_min >= rect.y_min
            && b.y_max <= rect.y_max
        {
            return Relation::Contained;
        }
        Relation::Partial
    }

    /// Divisible aggregate of all points inside `rect`.
    pub fn query(&self, rect: &Rect) -> DivAcc {
        let mut acc = DivAcc::identity(self.channels);
        if self.root != NO_CHILD && !rect.is_empty() {
            self.query_rec(self.root, rect, &mut acc);
        }
        acc
    }

    fn query_rec(&self, node_idx: u32, rect: &Rect, acc: &mut DivAcc) {
        let node = &self.nodes[node_idx as usize];
        if node.summary.acc.count == 0.0 {
            return;
        }
        match Self::node_rect_relation(node, rect) {
            Relation::Disjoint => {}
            Relation::Contained => acc.merge(&node.summary.acc),
            Relation::Partial => {
                for &id in &node.points {
                    let e = &self.entries[id as usize];
                    if rect.contains(&e.point) {
                        acc.insert(&e.values);
                    }
                }
                for &child in &node.children {
                    if child != NO_CHILD {
                        self.query_rec(child, rect, acc);
                    }
                }
            }
        }
    }

    /// Number of points inside `rect`.
    pub fn count(&self, rect: &Rect) -> usize {
        self.query(rect).count() as usize
    }

    /// Exact minimum of a channel over the points inside `rect`, together with
    /// the id of a point attaining it.  Returns `None` when no point matches.
    pub fn min_in_rect(&self, rect: &Rect, channel: usize) -> Option<Extremum> {
        self.extremum(rect, channel, true)
    }

    /// Exact maximum of a channel over the points inside `rect`.
    pub fn max_in_rect(&self, rect: &Rect, channel: usize) -> Option<Extremum> {
        self.extremum(rect, channel, false)
    }

    fn extremum(&self, rect: &Rect, channel: usize, minimize: bool) -> Option<Extremum> {
        if self.root == NO_CHILD || rect.is_empty() {
            return None;
        }
        let mut best: Option<Extremum> = None;
        self.extremum_rec(self.root, rect, channel, minimize, &mut best);
        best
    }

    fn improves(best: &Option<Extremum>, candidate: f64, minimize: bool) -> bool {
        match best {
            None => true,
            Some(b) => {
                if minimize {
                    candidate < b.value
                } else {
                    candidate > b.value
                }
            }
        }
    }

    fn extremum_rec(
        &self,
        node_idx: u32,
        rect: &Rect,
        channel: usize,
        minimize: bool,
        best: &mut Option<Extremum>,
    ) {
        let node = &self.nodes[node_idx as usize];
        if node.summary.acc.count == 0.0 {
            return;
        }
        // Prune: the whole subtree cannot improve on the current best.
        let bound = if minimize {
            node.summary.min[channel]
        } else {
            node.summary.max[channel]
        };
        if !Self::improves(best, bound, minimize) {
            return;
        }
        match Self::node_rect_relation(node, rect) {
            Relation::Disjoint => {}
            Relation::Contained => {
                // The subtree bound is attainable; descend to find the id.
                self.extremum_descend(node_idx, channel, minimize, best);
            }
            Relation::Partial => {
                for &id in &node.points {
                    let e = &self.entries[id as usize];
                    if rect.contains(&e.point) && Self::improves(best, e.values[channel], minimize)
                    {
                        *best = Some(Extremum {
                            value: e.values[channel],
                            id,
                        });
                    }
                }
                for &child in &node.children {
                    if child != NO_CHILD {
                        self.extremum_rec(child, rect, channel, minimize, best);
                    }
                }
            }
        }
    }

    /// Descend into a fully contained subtree looking for the extreme value.
    fn extremum_descend(
        &self,
        node_idx: u32,
        channel: usize,
        minimize: bool,
        best: &mut Option<Extremum>,
    ) {
        let node = &self.nodes[node_idx as usize];
        let bound = if minimize {
            node.summary.min[channel]
        } else {
            node.summary.max[channel]
        };
        if !Self::improves(best, bound, minimize) {
            return;
        }
        for &id in &node.points {
            let v = self.entries[id as usize].values[channel];
            if Self::improves(best, v, minimize) {
                *best = Some(Extremum { value: v, id });
            }
        }
        for &child in &node.children {
            if child != NO_CHILD {
                self.extremum_descend(child, channel, minimize, best);
            }
        }
    }

    /// Enumerate the ids of all points inside `rect` (ascending order).
    pub fn query_points(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        if self.root != NO_CHILD && !rect.is_empty() {
            self.enumerate_rec(self.root, rect, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn enumerate_rec(&self, node_idx: u32, rect: &Rect, out: &mut Vec<u32>) {
        let node = &self.nodes[node_idx as usize];
        if node.summary.acc.count == 0.0 {
            return;
        }
        match Self::node_rect_relation(node, rect) {
            Relation::Disjoint => {}
            Relation::Contained => self.collect_all(node_idx, out),
            Relation::Partial => {
                for &id in &node.points {
                    if rect.contains(&self.entries[id as usize].point) {
                        out.push(id);
                    }
                }
                for &child in &node.children {
                    if child != NO_CHILD {
                        self.enumerate_rec(child, rect, out);
                    }
                }
            }
        }
    }

    fn collect_all(&self, node_idx: u32, out: &mut Vec<u32>) {
        let node = &self.nodes[node_idx as usize];
        out.extend_from_slice(&node.points);
        for &child in &node.children {
            if child != NO_CHILD {
                self.collect_all(child, out);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    Disjoint,
    Contained,
    Partial,
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

    /// Clustered entries with two channels: [health, strength].
    fn entries(n: usize, seed: u64, world: f64) -> Vec<AggEntry> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                let cx = ((i % 5) as f64 + 0.5) * world / 5.0;
                let cy = ((i % 3) as f64 + 0.5) * world / 3.0;
                let p = Point2::new(
                    cx + (lcg(&mut state) - 0.5) * world / 8.0,
                    cy + (lcg(&mut state) - 0.5) * world / 8.0,
                );
                AggEntry::new(p, vec![(i % 37) as f64, lcg(&mut state) * 10.0])
            })
            .collect()
    }

    fn brute_acc(entries: &[AggEntry], rect: &Rect) -> DivAcc {
        let mut acc = DivAcc::identity(2);
        for e in entries {
            if rect.contains(&e.point) {
                acc.insert(&e.values);
            }
        }
        acc
    }

    #[test]
    fn empty_tree_answers_identity() {
        let tree = AggQuadTree::build(&[], 2, 8);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        let acc = tree.query(&Rect::new(0.0, 10.0, 0.0, 10.0));
        assert_eq!(acc.count(), 0.0);
        assert_eq!(tree.min_in_rect(&Rect::new(0.0, 10.0, 0.0, 10.0), 0), None);
        assert!(tree
            .query_points(&Rect::new(0.0, 10.0, 0.0, 10.0))
            .is_empty());
    }

    #[test]
    fn single_point_tree() {
        let e = vec![AggEntry::new(Point2::new(3.0, 4.0), vec![7.0])];
        let tree = AggQuadTree::build(&e, 1, 4);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.count(&Rect::centered(3.0, 4.0, 1.0)), 1);
        assert_eq!(tree.count(&Rect::centered(30.0, 40.0, 1.0)), 0);
        let m = tree.min_in_rect(&Rect::centered(3.0, 4.0, 1.0), 0).unwrap();
        assert_eq!(m.value, 7.0);
        assert_eq!(m.id, 0);
    }

    #[test]
    fn divisible_query_matches_brute_force() {
        let es = entries(800, 11, 200.0);
        let tree = AggQuadTree::build(&es, 2, 8);
        let mut state = 99u64;
        for _ in 0..200 {
            let cx = lcg(&mut state) * 200.0;
            let cy = lcg(&mut state) * 200.0;
            let r = lcg(&mut state) * 40.0;
            let rect = Rect::centered(cx, cy, r);
            let fast = tree.query(&rect);
            let slow = brute_acc(&es, &rect);
            assert_eq!(fast.count(), slow.count());
            assert!((fast.channel_sum(0) - slow.channel_sum(0)).abs() < 1e-6);
            assert!((fast.channel_sum(1) - slow.channel_sum(1)).abs() < 1e-6);
        }
    }

    #[test]
    fn min_max_queries_match_brute_force() {
        let es = entries(600, 23, 150.0);
        let tree = AggQuadTree::build(&es, 2, 8);
        let mut state = 3u64;
        for _ in 0..200 {
            let cx = lcg(&mut state) * 150.0;
            let cy = lcg(&mut state) * 150.0;
            let r = 5.0 + lcg(&mut state) * 30.0;
            let rect = Rect::centered(cx, cy, r);
            let matching: Vec<&AggEntry> = es.iter().filter(|e| rect.contains(&e.point)).collect();
            let fast_min = tree.min_in_rect(&rect, 0);
            let fast_max = tree.max_in_rect(&rect, 0);
            if matching.is_empty() {
                assert_eq!(fast_min, None);
                assert_eq!(fast_max, None);
            } else {
                let slow_min = matching
                    .iter()
                    .map(|e| e.values[0])
                    .fold(f64::INFINITY, f64::min);
                let slow_max = matching
                    .iter()
                    .map(|e| e.values[0])
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(fast_min.unwrap().value, slow_min);
                assert_eq!(fast_max.unwrap().value, slow_max);
                // The returned id must attain the value and lie in the rect.
                let id = fast_min.unwrap().id as usize;
                assert_eq!(es[id].values[0], slow_min);
                assert!(rect.contains(&es[id].point));
            }
        }
    }

    #[test]
    fn enumeration_matches_brute_force() {
        let es = entries(400, 5, 100.0);
        let tree = AggQuadTree::build(&es, 2, 4);
        let mut state = 31u64;
        for _ in 0..100 {
            let rect = Rect::centered(
                lcg(&mut state) * 100.0,
                lcg(&mut state) * 100.0,
                lcg(&mut state) * 25.0,
            );
            let fast = tree.query_points(&rect);
            let slow: Vec<u32> = es
                .iter()
                .enumerate()
                .filter(|(_, e)| rect.contains(&e.point))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn duplicate_positions_do_not_blow_up_depth() {
        // 500 units standing on the same tile: MAX_DEPTH keeps the structure
        // shallow and queries stay correct.
        let mut es: Vec<AggEntry> = (0..500)
            .map(|i| AggEntry::new(Point2::new(7.0, 7.0), vec![i as f64]))
            .collect();
        es.push(AggEntry::new(Point2::new(90.0, 90.0), vec![1000.0]));
        let tree = AggQuadTree::build(&es, 1, 4);
        assert_eq!(tree.count(&Rect::centered(7.0, 7.0, 0.5)), 500);
        assert_eq!(tree.count(&Rect::new(0.0, 100.0, 0.0, 100.0)), 501);
        assert_eq!(
            tree.min_in_rect(&Rect::centered(7.0, 7.0, 0.5), 0)
                .unwrap()
                .value,
            0.0
        );
        assert_eq!(
            tree.max_in_rect(&Rect::centered(7.0, 7.0, 0.5), 0)
                .unwrap()
                .value,
            499.0
        );
    }

    #[test]
    fn whole_world_query_equals_total() {
        let es = entries(300, 41, 80.0);
        let tree = AggQuadTree::build(&es, 2, 8);
        let rect = Rect::new(-1e9, 1e9, -1e9, 1e9);
        let acc = tree.query(&rect);
        assert_eq!(acc.count(), 300.0);
        let total: f64 = es.iter().map(|e| e.values[1]).sum();
        assert!((acc.channel_sum(1) - total).abs() < 1e-6);
        assert_eq!(tree.query_points(&rect).len(), 300);
    }

    #[test]
    fn empty_rect_yields_nothing() {
        let es = entries(50, 2, 30.0);
        let tree = AggQuadTree::build(&es, 2, 8);
        let rect = Rect::new(10.0, 5.0, 0.0, 30.0);
        assert!(rect.is_empty());
        assert_eq!(tree.query(&rect).count(), 0.0);
        assert_eq!(tree.min_in_rect(&rect, 0), None);
    }

    #[test]
    fn node_count_is_linear_in_points() {
        let es = entries(2000, 77, 500.0);
        let tree = AggQuadTree::build(&es, 2, 8);
        // A bucket quadtree over n points has O(n) nodes; allow generous slack.
        assert!(
            tree.node_count() < 4 * es.len(),
            "node_count = {}",
            tree.node_count()
        );
        assert_eq!(tree.channels(), 2);
    }
}
