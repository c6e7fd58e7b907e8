//! The bounded top-k heap shared by the brute scan and the VP-tree.
//!
//! Both search paths select the k smallest `(squared distance, position)`
//! pairs with the *same* comparison, so whichever path runs, the selected
//! set — and therefore every downstream imputation — is identical. The
//! heap buffer itself is reusable ([`KnnScratch`]) so steady-state serving
//! performs no per-query allocation.

use crate::dist::sq_dist_many;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One top-k heap entry: the Formula-1 *squared* distance plus the
/// candidate position. Ordered by `(sq, pos)` so ties break on position —
/// the workspace-wide determinism contract.
#[derive(PartialEq)]
pub(crate) struct Entry {
    pub sq: f64,
    pub pos: u32,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sq.total_cmp(&other.sq).then(self.pos.cmp(&other.pos))
    }
}

/// Pushes `e` into a heap bounded at `k` entries, evicting the current
/// worst when `e` beats it on `(sq, pos)`.
#[inline]
pub(crate) fn push_bounded(heap: &mut BinaryHeap<Entry>, k: usize, e: Entry) {
    if heap.len() < k {
        heap.push(e);
    } else if let Some(worst) = heap.peek() {
        if (e.sq, e.pos) < (worst.sq, worst.pos) {
            heap.pop();
            heap.push(e);
        }
    }
}

/// Rows per [`sq_dist_many`] tile in the block-scan helpers: large enough
/// to amortize the selection pass, small enough that the distance buffer
/// lives on the stack.
pub(crate) const SCAN_TILE: usize = 64;

/// Scans a contiguous row-major `block` (rows of `query.len()` values),
/// pushing `(squared distance, base_pos + row)` entries into the bounded
/// heap. Distances come from the batched kernel in tiles, so the scan
/// autovectorizes; every pushed value is bitwise what the scalar
/// [`sq_dist_f`](crate::dist::sq_dist_f) would produce, and heap selection
/// under the `(sq, pos)` total order is insertion-order-independent — so
/// tiling can never change an answer.
#[inline]
pub(crate) fn scan_rows_seq(
    heap: &mut BinaryHeap<Entry>,
    k: usize,
    query: &[f64],
    block: &[f64],
    base_pos: u32,
) {
    let m = query.len();
    let mut buf = [0.0f64; SCAN_TILE];
    let mut pos = base_pos;
    for tile in block.chunks(SCAN_TILE * m) {
        let rows = tile.len() / m;
        sq_dist_many(query, tile, &mut buf[..rows]);
        for (i, &sq) in buf[..rows].iter().enumerate() {
            push_bounded(
                heap,
                k,
                Entry {
                    sq,
                    pos: pos + i as u32,
                },
            );
        }
        pos += rows as u32;
    }
}

/// [`scan_rows_seq`] for permuted storage: row `i` of `block` carries the
/// point at position `positions[i]` (the tree-leaf shape, where points are
/// gathered into traversal order and `positions` is the permutation back).
#[inline]
pub(crate) fn scan_rows_perm(
    heap: &mut BinaryHeap<Entry>,
    k: usize,
    query: &[f64],
    block: &[f64],
    positions: &[u32],
) {
    let m = query.len();
    debug_assert_eq!(block.len(), positions.len() * m);
    let mut buf = [0.0f64; SCAN_TILE];
    for (tile, tile_pos) in block.chunks(SCAN_TILE * m).zip(positions.chunks(SCAN_TILE)) {
        let rows = tile.len() / m;
        sq_dist_many(query, tile, &mut buf[..rows]);
        for (&sq, &pos) in buf[..rows].iter().zip(tile_pos) {
            push_bounded(heap, k, Entry { sq, pos });
        }
    }
}

/// Caller-owned scratch for repeated kNN queries.
///
/// Holds the top-k selection heap so steady-state queries reuse one
/// allocation. Scratch contents never influence results — a query run with
/// a fresh scratch and one run with a heavily reused scratch return
/// bit-identical neighbor lists.
#[derive(Default)]
pub struct KnnScratch {
    pub(crate) heap: BinaryHeap<Entry>,
    pub(crate) sorted: Vec<Entry>,
}

impl KnnScratch {
    /// Drains the selection heap into the ordering buffer, ascending by
    /// `(squared distance, position)` — the *same* key the bounded heap
    /// selects on, so selection and presentation can never disagree (a
    /// `sqrt` applied before ordering could collapse distinct squared
    /// distances into rounding ties).
    pub(crate) fn drain_sorted(&mut self) -> &[Entry] {
        self.sorted.clear();
        while let Some(e) = self.heap.pop() {
            self.sorted.push(e);
        }
        // The max-heap pops worst-first: reversing yields ascending order.
        self.sorted.reverse();
        &self.sorted
    }
}

impl KnnScratch {
    /// An empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_push_keeps_k_smallest_with_pos_ties() {
        let mut heap = BinaryHeap::new();
        for (sq, pos) in [(4.0, 0), (1.0, 5), (1.0, 2), (9.0, 1), (0.5, 7)] {
            push_bounded(&mut heap, 3, Entry { sq, pos });
        }
        let mut got: Vec<(f64, u32)> = heap.into_iter().map(|e| (e.sq, e.pos)).collect();
        got.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(got, vec![(0.5, 7), (1.0, 2), (1.0, 5)]);
    }

    #[test]
    fn scratch_reuse_is_observationally_pure() {
        let mut scratch = KnnScratch::new();
        scratch.heap.push(Entry { sq: 1.0, pos: 0 });
        scratch.heap.clear();
        assert!(scratch.heap.is_empty());
    }
}
