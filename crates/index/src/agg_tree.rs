//! Layered range tree with divisible-aggregate leaves (paper §5.3.1, Fig. 8).
//!
//! The tree is a balanced binary tree over the points sorted by `x`; every
//! node stores the `y` values of the points in its subtree in sorted order
//! together with **prefix accumulators**, so the aggregate of any `y`-range
//! inside the node is the difference of two prefix accumulators (this is
//! exactly the replacement of the last tree layer by aggregate values shown
//! in Figure 8).  An orthogonal range query decomposes the `x`-range into
//! `O(log n)` canonical nodes; with plain binary searches per node a query
//! costs `O(log² n)`, with **fractional cascading** (bridge pointers from a
//! node's `y`-list into its children's `y`-lists) the per-node search is
//! `O(1)` after a single binary search at the root, giving `O(log n)`.

use crate::divisible::DivAcc;
use std::cmp::Ordering;

use crate::{Point2, Rect};

/// One data entry: a position plus the values of the aggregated channels.
#[derive(Debug, Clone, PartialEq)]
pub struct AggEntry {
    /// Position of the unit.
    pub point: Point2,
    /// Channel values contributed by the unit (e.g. `[posx, posy]` for a
    /// centroid, `[strength]` for a weighted sum, empty for a pure count).
    pub values: Vec<f64>,
}

impl AggEntry {
    /// Build an entry.
    pub fn new(point: Point2, values: Vec<f64>) -> AggEntry {
        AggEntry { point, values }
    }
}

const NO_CHILD: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
struct Node {
    left: u32,
    right: u32,
    /// y values of the subtree's points, sorted ascending.
    ys: Vec<f64>,
    /// prefix_count[i] = number of the first `i` entries (by y order).
    pre_count: Vec<f64>,
    /// prefix sums per channel, laid out `[i * channels + c]`.
    pre_sum: Vec<f64>,
    /// prefix sums of squares per channel, same layout.
    pre_sumsq: Vec<f64>,
    /// Fractional-cascading bridges: lower-bound position in the left/right
    /// child for each position of this node's `ys` (length `ys.len() + 1`).
    lb_left: Vec<u32>,
    lb_right: Vec<u32>,
    /// Upper-bound bridges (see `build_bridges`).
    ub_left: Vec<u32>,
    ub_right: Vec<u32>,
}

/// The layered aggregate range tree.
#[derive(Debug, Clone)]
pub struct LayeredAggTree {
    channels: usize,
    cascading: bool,
    /// x coordinates of the points in x-sorted order.
    xs: Vec<f64>,
    nodes: Vec<Node>,
    root: u32,
}

fn lower_bound(slice: &[f64], value: f64) -> usize {
    slice.partition_point(|v| *v < value)
}

fn upper_bound(slice: &[f64], value: f64) -> usize {
    slice.partition_point(|v| *v <= value)
}

impl LayeredAggTree {
    /// Build the tree. `cascading` selects the fractional-cascading variant.
    pub fn build(entries: &[AggEntry], channels: usize, cascading: bool) -> LayeredAggTree {
        let n = entries.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        // nan_last_cmp: a NaN coordinate (of either sign) must not panic the
        // sort or produce an inconsistent order (`unwrap_or(Equal)` is not a
        // total order), and must sort *after* every ordinary number so the
        // `lower_bound`/`upper_bound` searches stay monotonic.
        order.sort_by(|a, b| {
            crate::nan_last_cmp(entries[*a as usize].point.x, entries[*b as usize].point.x)
        });
        let xs: Vec<f64> = order.iter().map(|i| entries[*i as usize].point.x).collect();
        let mut tree = LayeredAggTree {
            channels,
            cascading,
            xs,
            nodes: Vec::new(),
            root: NO_CHILD,
        };
        if n > 0 {
            tree.nodes.reserve(2 * n);
            let root = tree.build_node(&order, entries);
            tree.root = root;
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of aggregate channels carried by each entry.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Whether the tree was built with fractional cascading.
    pub fn cascading(&self) -> bool {
        self.cascading
    }

    fn build_node(&mut self, order: &[u32], entries: &[AggEntry]) -> u32 {
        debug_assert!(!order.is_empty());
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::default());
        if order.len() == 1 {
            let e = &entries[order[0] as usize];
            let node = self.leaf_node(e);
            self.nodes[idx as usize] = node;
            return idx;
        }
        let mid = order.len() / 2;
        let left = self.build_node(&order[..mid], entries);
        let right = self.build_node(&order[mid..], entries);
        let node = self.merge_node(left, right, entries);
        self.nodes[idx as usize] = node;
        idx
    }

    fn leaf_node(&self, e: &AggEntry) -> Node {
        let channels = self.channels;
        let mut pre_count = vec![0.0; 2];
        let mut pre_sum = vec![0.0; 2 * channels];
        let mut pre_sumsq = vec![0.0; 2 * channels];
        pre_count[1] = 1.0;
        for c in 0..channels {
            pre_sum[channels + c] = e.values[c];
            pre_sumsq[channels + c] = e.values[c] * e.values[c];
        }
        Node {
            left: NO_CHILD,
            right: NO_CHILD,
            ys: vec![e.point.y],
            pre_count,
            pre_sum,
            pre_sumsq,
            ..Node::default()
        }
    }

    fn merge_node(&self, left: u32, right: u32, entries: &[AggEntry]) -> Node {
        let channels = self.channels;
        // Merge the children's y-lists; we also need the channel values in
        // merged order, which we obtain by merging (y, entry) pairs.  Children
        // only expose ys, so we re-derive values from prefix differences: the
        // i-th entry of a child contributes prefix[i+1] - prefix[i].
        let (lys, rys) = (
            &self.nodes[left as usize].ys,
            &self.nodes[right as usize].ys,
        );
        let len = lys.len() + rys.len();
        let mut ys = Vec::with_capacity(len);
        let mut pre_count = Vec::with_capacity(len + 1);
        let mut pre_sum = Vec::with_capacity((len + 1) * channels);
        let mut pre_sumsq = Vec::with_capacity((len + 1) * channels);
        pre_count.push(0.0);
        pre_sum.extend(std::iter::repeat_n(0.0, channels));
        pre_sumsq.extend(std::iter::repeat_n(0.0, channels));

        let lnode = &self.nodes[left as usize];
        let rnode = &self.nodes[right as usize];
        let (mut li, mut ri) = (0usize, 0usize);
        let push_from = |node: &Node,
                         i: usize,
                         ys: &mut Vec<f64>,
                         pre_count: &mut Vec<f64>,
                         pre_sum: &mut Vec<f64>,
                         pre_sumsq: &mut Vec<f64>| {
            let k = ys.len();
            ys.push(node.ys[i]);
            pre_count.push(pre_count[k] + (node.pre_count[i + 1] - node.pre_count[i]));
            for c in 0..channels {
                let s = node.pre_sum[(i + 1) * channels + c] - node.pre_sum[i * channels + c];
                let q = node.pre_sumsq[(i + 1) * channels + c] - node.pre_sumsq[i * channels + c];
                pre_sum.push(pre_sum[k * channels + c] + s);
                pre_sumsq.push(pre_sumsq[k * channels + c] + q);
            }
        };
        while li < lys.len() || ri < rys.len() {
            // nan_last_cmp keeps the merged list sorted even under NaN ys of
            // either sign; the naive `<=` stalls on NaN and interleaves
            // finite values out of order, after which the prefix binary
            // searches skip them.
            let take_left = ri >= rys.len()
                || (li < lys.len()
                    && crate::nan_last_cmp(lys[li], rys[ri]) != std::cmp::Ordering::Greater);
            if take_left {
                push_from(
                    lnode,
                    li,
                    &mut ys,
                    &mut pre_count,
                    &mut pre_sum,
                    &mut pre_sumsq,
                );
                li += 1;
            } else {
                push_from(
                    rnode,
                    ri,
                    &mut ys,
                    &mut pre_count,
                    &mut pre_sum,
                    &mut pre_sumsq,
                );
                ri += 1;
            }
        }
        let _ = entries;

        let mut node = Node {
            left,
            right,
            ys,
            pre_count,
            pre_sum,
            pre_sumsq,
            ..Node::default()
        };
        if self.cascading {
            self.build_bridges(&mut node, lnode, rnode);
        }
        node
    }

    /// Build the fractional-cascading bridge arrays.
    ///
    /// * `lb_child[i]` = lower-bound position in the child of `ys[i]`
    ///   (`child.len()` for `i = len`): if a query value `v` has lower bound
    ///   `i` in this node, its lower bound in the child is `lb_child[i]`.
    /// * `ub_child[i]` = upper-bound position in the child of `ys[i-1]`
    ///   (`0` for `i = 0`): if `v` has upper bound `i` here, its upper bound
    ///   in the child is `ub_child[i]`.
    fn build_bridges(&self, node: &mut Node, lnode: &Node, rnode: &Node) {
        let len = node.ys.len();
        let build = |child: &Node| -> (Vec<u32>, Vec<u32>) {
            let mut lb = Vec::with_capacity(len + 1);
            let mut ub = Vec::with_capacity(len + 1);
            let mut pl = 0usize;
            // Positions follow the lists' NaN-last order: a NaN in this
            // node bridges past every finite child value.  (With IEEE `<` a
            // query whose lower bound lands on a NaN would inherit the
            // bridge of the largest finite value and re-admit its ties.)
            let before = |a: f64, b: f64| crate::nan_last_cmp(a, b) == Ordering::Less;
            for i in 0..len {
                while pl < child.ys.len() && before(child.ys[pl], node.ys[i]) {
                    pl += 1;
                }
                lb.push(pl as u32);
            }
            lb.push(child.ys.len() as u32);
            ub.push(0);
            let mut pu = 0usize;
            for i in 1..=len {
                let v = node.ys[i - 1];
                while pu < child.ys.len() && !before(v, child.ys[pu]) {
                    pu += 1;
                }
                ub.push(pu as u32);
            }
            (lb, ub)
        };
        let (lbl, ubl) = build(lnode);
        let (lbr, ubr) = build(rnode);
        node.lb_left = lbl;
        node.ub_left = ubl;
        node.lb_right = lbr;
        node.ub_right = ubr;
    }

    fn acc_from_prefix(&self, node: &Node, lo: usize, hi: usize, acc: &mut DivAcc) {
        if hi <= lo {
            return;
        }
        acc.count += node.pre_count[hi] - node.pre_count[lo];
        for c in 0..self.channels {
            acc.sum[c] +=
                node.pre_sum[hi * self.channels + c] - node.pre_sum[lo * self.channels + c];
            acc.sum_sq[c] +=
                node.pre_sumsq[hi * self.channels + c] - node.pre_sumsq[lo * self.channels + c];
        }
    }

    /// Aggregate every point inside the rectangle (inclusive bounds).
    pub fn query(&self, rect: &Rect) -> DivAcc {
        let mut acc = DivAcc::identity(self.channels);
        if self.is_empty() || rect.is_empty() {
            return acc;
        }
        let l = lower_bound(&self.xs, rect.x_min);
        let r = upper_bound(&self.xs, rect.x_max);
        if l >= r {
            return acc;
        }
        let root = &self.nodes[self.root as usize];
        let ylo = lower_bound(&root.ys, rect.y_min);
        let yhi = upper_bound(&root.ys, rect.y_max);
        self.visit(self.root, 0, self.xs.len(), l, r, ylo, yhi, rect, &mut acc);
        acc
    }

    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        node_idx: u32,
        node_lo: usize,
        node_hi: usize,
        l: usize,
        r: usize,
        ylo: usize,
        yhi: usize,
        rect: &Rect,
        acc: &mut DivAcc,
    ) {
        if node_idx == NO_CHILD || r <= node_lo || node_hi <= l {
            return;
        }
        let node = &self.nodes[node_idx as usize];
        if l <= node_lo && node_hi <= r {
            // Canonical node: aggregate its y-range using the prefix arrays.
            let (lo, hi) = if self.cascading {
                (ylo, yhi)
            } else {
                (
                    lower_bound(&node.ys, rect.y_min),
                    upper_bound(&node.ys, rect.y_max),
                )
            };
            self.acc_from_prefix(node, lo, hi, acc);
            return;
        }
        let mid = node_lo + (node_hi - node_lo) / 2;
        if self.cascading {
            let (ylo_l, yhi_l) = (node.lb_left[ylo] as usize, node.ub_left[yhi] as usize);
            let (ylo_r, yhi_r) = (node.lb_right[ylo] as usize, node.ub_right[yhi] as usize);
            self.visit(node.left, node_lo, mid, l, r, ylo_l, yhi_l, rect, acc);
            self.visit(node.right, mid, node_hi, l, r, ylo_r, yhi_r, rect, acc);
        } else {
            self.visit(node.left, node_lo, mid, l, r, 0, 0, rect, acc);
            self.visit(node.right, mid, node_hi, l, r, 0, 0, rect, acc);
        }
    }

    /// Convenience: number of points in the rectangle.
    pub fn count(&self, rect: &Rect) -> usize {
        self.query(rect).count() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random generator for test data.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn random_entries(n: usize, seed: u64, world: f64) -> Vec<AggEntry> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let x = lcg(&mut state) * world;
                let y = lcg(&mut state) * world;
                let w = lcg(&mut state) * 10.0;
                AggEntry::new(Point2::new(x, y), vec![x, y, w])
            })
            .collect()
    }

    fn brute_force(entries: &[AggEntry], rect: &Rect, channels: usize) -> DivAcc {
        let mut acc = DivAcc::identity(channels);
        for e in entries {
            if rect.contains(&e.point) {
                acc.insert(&e.values);
            }
        }
        acc
    }

    fn assert_acc_eq(a: &DivAcc, b: &DivAcc) {
        assert!(
            (a.count - b.count).abs() < 1e-9,
            "count {} vs {}",
            a.count,
            b.count
        );
        for c in 0..a.channels() {
            assert!(
                (a.sum[c] - b.sum[c]).abs() < 1e-6,
                "sum[{c}] {} vs {}",
                a.sum[c],
                b.sum[c]
            );
            assert!(
                (a.sum_sq[c] - b.sum_sq[c]).abs() < 1e-3,
                "sumsq[{c}] {} vs {}",
                a.sum_sq[c],
                b.sum_sq[c]
            );
        }
    }

    #[test]
    fn empty_tree_returns_identity() {
        let tree = LayeredAggTree::build(&[], 2, true);
        assert!(tree.is_empty());
        let acc = tree.query(&Rect::centered(0.0, 0.0, 10.0));
        assert_eq!(acc.count(), 0.0);
    }

    #[test]
    fn single_point() {
        let entries = vec![AggEntry::new(Point2::new(5.0, 5.0), vec![5.0, 5.0, 3.0])];
        for cascading in [false, true] {
            let tree = LayeredAggTree::build(&entries, 3, cascading);
            assert_eq!(tree.count(&Rect::centered(5.0, 5.0, 1.0)), 1);
            assert_eq!(tree.count(&Rect::centered(10.0, 10.0, 1.0)), 0);
            // Inclusive boundaries.
            assert_eq!(tree.count(&Rect::new(5.0, 5.0, 5.0, 5.0)), 1);
        }
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        let entries = random_entries(400, 42, 100.0);
        for cascading in [false, true] {
            let tree = LayeredAggTree::build(&entries, 3, cascading);
            assert_eq!(tree.len(), 400);
            assert_eq!(tree.channels(), 3);
            assert_eq!(tree.cascading(), cascading);
            let mut state = 7u64;
            for _ in 0..200 {
                let cx = lcg(&mut state) * 100.0;
                let cy = lcg(&mut state) * 100.0;
                let r = lcg(&mut state) * 30.0;
                let rect = Rect::centered(cx, cy, r);
                let fast = tree.query(&rect);
                let slow = brute_force(&entries, &rect, 3);
                assert_acc_eq(&fast, &slow);
            }
        }
    }

    #[test]
    fn cascading_and_plain_queries_agree() {
        let entries = random_entries(257, 99, 50.0);
        let plain = LayeredAggTree::build(&entries, 3, false);
        let cascaded = LayeredAggTree::build(&entries, 3, true);
        let mut state = 1u64;
        for _ in 0..100 {
            let rect = Rect::centered(
                lcg(&mut state) * 50.0,
                lcg(&mut state) * 50.0,
                lcg(&mut state) * 20.0,
            );
            assert_acc_eq(&plain.query(&rect), &cascaded.query(&rect));
        }
    }

    #[test]
    fn duplicate_coordinates_are_handled() {
        // Many points stacked on the same position and collinear points.
        let mut entries = Vec::new();
        for i in 0..50 {
            entries.push(AggEntry::new(Point2::new(10.0, 10.0), vec![i as f64]));
            entries.push(AggEntry::new(Point2::new(10.0, i as f64), vec![1.0]));
            entries.push(AggEntry::new(Point2::new(i as f64, 10.0), vec![2.0]));
        }
        for cascading in [false, true] {
            let tree = LayeredAggTree::build(&entries, 1, cascading);
            let rect = Rect::new(10.0, 10.0, 10.0, 10.0);
            let brute = brute_force(&entries, &rect, 1);
            assert_acc_eq(&tree.query(&rect), &brute);
            let rect = Rect::new(0.0, 20.0, 9.5, 10.5);
            assert_acc_eq(&tree.query(&rect), &brute_force(&entries, &rect, 1));
        }
    }

    #[test]
    fn whole_plane_query_aggregates_everything() {
        let entries = random_entries(123, 5, 10.0);
        let tree = LayeredAggTree::build(&entries, 3, true);
        let rect = Rect::new(
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
        );
        let acc = tree.query(&rect);
        assert_eq!(acc.count() as usize, 123);
        let total: f64 = entries.iter().map(|e| e.values[2]).sum();
        assert!((acc.channel_sum(2) - total).abs() < 1e-6);
    }

    #[test]
    fn centroid_and_std_dev_queries() {
        // Four points at the corners of a square: centroid in the middle.
        let entries = vec![
            AggEntry::new(Point2::new(0.0, 0.0), vec![0.0, 0.0]),
            AggEntry::new(Point2::new(2.0, 0.0), vec![2.0, 0.0]),
            AggEntry::new(Point2::new(0.0, 2.0), vec![0.0, 2.0]),
            AggEntry::new(Point2::new(2.0, 2.0), vec![2.0, 2.0]),
        ];
        let tree = LayeredAggTree::build(&entries, 2, true);
        let acc = tree.query(&Rect::new(-1.0, 3.0, -1.0, 3.0));
        assert_eq!(acc.mean(0), Some(1.0));
        assert_eq!(acc.mean(1), Some(1.0));
        assert_eq!(acc.std_dev(0), Some(1.0));
    }

    #[test]
    fn degenerate_rectangles() {
        let entries = random_entries(64, 3, 20.0);
        let tree = LayeredAggTree::build(&entries, 3, true);
        assert_eq!(tree.query(&Rect::new(5.0, 4.0, 0.0, 20.0)).count(), 0.0);
        assert_eq!(
            tree.query(&Rect::new(100.0, 200.0, 100.0, 200.0)).count(),
            0.0
        );
    }

    #[test]
    fn zero_channel_trees_count_only() {
        let entries: Vec<AggEntry> = (0..20)
            .map(|i| AggEntry::new(Point2::new(i as f64, i as f64), vec![]))
            .collect();
        let tree = LayeredAggTree::build(&entries, 0, true);
        assert_eq!(tree.count(&Rect::new(0.0, 9.0, 0.0, 9.0)), 10);
    }
}
