//! A uniform grid-bucket spatial index over axis-aligned bounding boxes.
//!
//! The routing flow's hot paths — design-rule spacing sweeps, routing-space
//! rebuilds, clearance trials — all reduce to the same primitive: *find
//! every item whose bounding box intersects this rectangle*. The naive
//! all-pairs scan is O(n²) over the layout; [`GridIndex`] makes each query
//! proportional to the geometry actually near the probe.
//!
//! Design points:
//!
//! - **Uniform buckets.** The indexed region is cut into a fixed grid of
//!   rectangular buckets; an item is registered in every bucket its
//!   bounding box overlaps. Package geometry (pads, vias, wire segments)
//!   is small and near-uniformly scattered, which is the regime where a
//!   uniform grid beats tree structures — O(1) insertion/removal and no
//!   rebalancing.
//! - **Deterministic queries.** [`GridIndex::query`] returns entry ids in
//!   ascending insertion order, deduplicated, regardless of how many
//!   buckets an item straddles. Callers that iterate query results and
//!   push findings therefore produce byte-identical output to the naive
//!   ordered scan — the property the golden-layout suite pins.
//! - **Stable handles.** [`EntryId`]s survive unrelated insertions and
//!   removals (slot reuse is explicit via a free list), so incremental
//!   rip-up/re-insert keeps ids of untouched geometry valid.
//! - **Unbounded outliers are fine.** Items and probes outside the indexed
//!   bounds are clamped to the boundary buckets; correctness never depends
//!   on the bounds, only the query speed does.

use crate::point::Point;
use crate::rect::Rect;
use crate::Coord;

/// Stable handle of one indexed item (valid until [`GridIndex::remove`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(u32);

impl EntryId {
    /// The raw slot index (stable for the lifetime of the entry).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    bbox: Rect,
    value: T,
}

/// A uniform grid-bucket index of `(bbox, value)` items.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    bounds: Rect,
    cols: usize,
    rows: usize,
    /// `rows × cols` buckets of entry slots, row-major.
    buckets: Vec<Vec<u32>>,
    entries: Vec<Option<Entry<T>>>,
    free: Vec<u32>,
    len: usize,
    /// Monotonic stamp per query pass, used to dedup without sorting.
    stamp: u64,
    seen: Vec<u64>,
}

impl<T> GridIndex<T> {
    /// An index over `bounds` with an explicit `cols × rows` bucket grid.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn with_grid(bounds: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one bucket");
        GridIndex {
            bounds,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
            stamp: 0,
            seen: Vec::new(),
        }
    }

    /// An index over `bounds` sized for roughly `expected_items` items:
    /// about four items per bucket, clamped to a `4..=96` grid per axis.
    ///
    /// The cell-sizing rationale (see DESIGN.md §4c): buckets much smaller
    /// than the typical item duplicate every item into many buckets;
    /// buckets much larger than the query reach degrade to the naive scan.
    /// √(n/4) per axis keeps the expected bucket occupancy constant as the
    /// instance grows.
    pub fn with_capacity_hint(bounds: Rect, expected_items: usize) -> Self {
        let per_axis = ((expected_items as f64 / 4.0).sqrt().ceil() as usize).clamp(4, 96);
        Self::with_grid(bounds, per_axis, per_axis)
    }

    /// An index over `bounds` with buckets no smaller than `min_cell` on
    /// either axis (use the dominant clearance reach so a typical probe
    /// touches O(1) buckets).
    pub fn with_min_cell(bounds: Rect, min_cell: Coord, expected_items: usize) -> Self {
        let min_cell = min_cell.max(1);
        let cols_fit = (bounds.width() / min_cell).max(1) as usize;
        let rows_fit = (bounds.height() / min_cell).max(1) as usize;
        let per_axis = ((expected_items as f64 / 4.0).sqrt().ceil() as usize).clamp(4, 96);
        Self::with_grid(bounds, per_axis.min(cols_fit), per_axis.min(rows_fit))
    }

    /// The indexed bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The bucket grid dimensions `(cols, rows)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket column range `[lo, hi]` covered by `[x0, x1]`, clamped.
    fn col_span(&self, x0: Coord, x1: Coord) -> (usize, usize) {
        (self.axis_bucket(x0, true), self.axis_bucket(x1, true))
    }

    fn row_span(&self, y0: Coord, y1: Coord) -> (usize, usize) {
        (self.axis_bucket(y0, false), self.axis_bucket(y1, false))
    }

    fn axis_bucket(&self, v: Coord, horizontal: bool) -> usize {
        let (lo, extent, n) = if horizontal {
            (self.bounds.lo.x, self.bounds.width().max(1) as i128, self.cols)
        } else {
            (self.bounds.lo.y, self.bounds.height().max(1) as i128, self.rows)
        };
        let off = (v as i128 - lo as i128).max(0);
        (((off * n as i128) / extent) as usize).min(n - 1)
    }

    /// The buckets `bbox` covers, row-major. The iterator holds no borrow
    /// of the index, so callers can mutate buckets while walking it.
    fn buckets_of(&self, bbox: Rect) -> impl Iterator<Item = usize> {
        let (c0, c1) = self.col_span(bbox.lo.x, bbox.hi.x);
        let (r0, r1) = self.row_span(bbox.lo.y, bbox.hi.y);
        let cols = self.cols;
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| r * cols + c))
    }

    /// Inserts an item under its bounding box, returning its stable id.
    pub fn insert(&mut self, bbox: Rect, value: T) -> EntryId {
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s as usize] = Some(Entry { bbox, value });
                s
            }
            None => {
                self.entries.push(Some(Entry { bbox, value }));
                self.seen.push(0);
                (self.entries.len() - 1) as u32
            }
        };
        for b in self.buckets_of(bbox) {
            self.buckets[b].push(slot);
        }
        self.len += 1;
        EntryId(slot)
    }

    /// Removes an item, returning its value (`None` if already removed).
    pub fn remove(&mut self, id: EntryId) -> Option<T> {
        let entry = self.entries.get_mut(id.index())?.take()?;
        for b in self.buckets_of(entry.bbox) {
            self.buckets[b].retain(|&s| s != id.0);
        }
        self.free.push(id.0);
        self.len -= 1;
        Some(entry.value)
    }

    /// The `(bbox, value)` of a live entry.
    pub fn get(&self, id: EntryId) -> Option<(Rect, &T)> {
        self.entries
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|e| (e.bbox, &e.value))
    }

    /// Ids of all items whose bounding box intersects `area`, in ascending
    /// insertion (slot) order, deduplicated.
    pub fn query(&mut self, area: Rect) -> Vec<EntryId> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut out: Vec<EntryId> = Vec::new();
        let (c0, c1) = self.col_span(area.lo.x, area.hi.x);
        let (r0, r1) = self.row_span(area.lo.y, area.hi.y);
        for r in r0..=r1 {
            for c in c0..=c1 {
                for &slot in &self.buckets[r * self.cols + c] {
                    let s = slot as usize;
                    if self.seen[s] == stamp {
                        continue;
                    }
                    self.seen[s] = stamp;
                    if let Some(e) = &self.entries[s] {
                        if e.bbox.intersects(area) {
                            out.push(EntryId(slot));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Like [`query`](Self::query) but immutable: ids are deduplicated via
    /// sort, without the stamp optimization. Prefer `query` on hot paths.
    pub fn query_ref(&self, area: Rect) -> Vec<EntryId> {
        let mut out: Vec<EntryId> = Vec::new();
        let (c0, c1) = self.col_span(area.lo.x, area.hi.x);
        let (r0, r1) = self.row_span(area.lo.y, area.hi.y);
        for r in r0..=r1 {
            for c in c0..=c1 {
                for &slot in &self.buckets[r * self.cols + c] {
                    if let Some(e) = &self.entries[slot as usize] {
                        if e.bbox.intersects(area) {
                            out.push(EntryId(slot));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Calls `f` for every item intersecting `area`, in ascending insertion
    /// order.
    pub fn for_each_in<F: FnMut(EntryId, Rect, &T)>(&self, area: Rect, mut f: F) {
        for id in self.query_ref(area) {
            let e = self.entries[id.index()].as_ref().expect("live entry");
            f(id, e.bbox, &e.value);
        }
    }

    /// Iterates all live entries in slot order (diagnostics / tests).
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Rect, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (EntryId(i as u32), e.bbox, &e.value)))
    }

    /// Point containment query: items whose bbox contains `p`.
    pub fn query_point(&mut self, p: Point) -> Vec<EntryId> {
        self.query(Rect::new(p, p))
    }
}

/// Builds an index from an ordered item list (id `k` ↔ the `k`-th item).
impl<T> FromIterator<(Rect, T)> for GridIndex<T> {
    fn from_iter<I: IntoIterator<Item = (Rect, T)>>(iter: I) -> Self {
        let items: Vec<(Rect, T)> = iter.into_iter().collect();
        let bounds = items
            .iter()
            .map(|(b, _)| *b)
            .reduce(|a, b| a.union(b))
            .unwrap_or_else(|| Rect::new(Point::new(0, 0), Point::new(1, 1)));
        let mut idx = GridIndex::with_capacity_hint(bounds, items.len());
        for (bbox, value) in items {
            idx.insert(bbox, value);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut idx = GridIndex::with_grid(r(0, 0, 1_000, 1_000), 8, 8);
        let a = idx.insert(r(10, 10, 100, 100), "a");
        let b = idx.insert(r(500, 500, 600, 600), "b");
        let c = idx.insert(r(90, 90, 510, 510), "c"); // straddles both
        assert_eq!(idx.len(), 3);

        assert_eq!(idx.query(r(0, 0, 50, 50)), vec![a]);
        assert_eq!(idx.query(r(95, 95, 99, 99)), vec![a, c]);
        assert_eq!(idx.query(r(505, 505, 700, 700)), vec![b, c]);
        assert_eq!(idx.query(r(0, 0, 1_000, 1_000)), vec![a, b, c]);

        assert_eq!(idx.remove(c), Some("c"));
        assert_eq!(idx.remove(c), None);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.query(r(95, 95, 99, 99)), vec![a]);
    }

    #[test]
    fn queries_are_sorted_and_deduped() {
        let mut idx = GridIndex::with_grid(r(0, 0, 100, 100), 10, 10);
        // An item spanning many buckets appears once.
        let big = idx.insert(r(0, 0, 100, 100), ());
        let small = idx.insert(r(5, 5, 6, 6), ());
        let hits = idx.query(r(0, 0, 100, 100));
        assert_eq!(hits, vec![big, small]);
        assert_eq!(idx.query_ref(r(0, 0, 100, 100)), hits);
    }

    #[test]
    fn out_of_bounds_items_clamp_to_border_buckets() {
        let mut idx = GridIndex::with_grid(r(0, 0, 100, 100), 4, 4);
        let out = idx.insert(r(-500, -500, -400, -400), "out");
        // An intersecting probe outside the bounds still finds it.
        assert_eq!(idx.query(r(-1_000, -1_000, -450, -450)), vec![out]);
        // A probe on the opposite corner does not.
        assert!(idx.query(r(200, 200, 300, 300)).is_empty());
    }

    #[test]
    fn slot_reuse_keeps_other_ids_stable() {
        let mut idx = GridIndex::with_grid(r(0, 0, 100, 100), 4, 4);
        let a = idx.insert(r(0, 0, 10, 10), 1);
        let b = idx.insert(r(20, 20, 30, 30), 2);
        idx.remove(a);
        let c = idx.insert(r(40, 40, 50, 50), 3);
        // Freed slot is reused, so c takes a's slot; b is untouched.
        assert_eq!(c.index(), a.index());
        assert_eq!(idx.get(b).map(|(_, v)| *v), Some(2));
        assert_eq!(idx.query(r(0, 0, 100, 100)).len(), 2);
    }

    #[test]
    fn from_iterator_preserves_order() {
        let items = vec![(r(0, 0, 10, 10), 0usize), (r(50, 50, 60, 60), 1), (r(5, 5, 55, 55), 2)];
        let mut idx: GridIndex<usize> = items.into_iter().collect();
        let ids = idx.query(r(0, 0, 100, 100));
        let vals: Vec<usize> = ids.iter().map(|&i| *idx.get(i).unwrap().1).collect();
        assert_eq!(vals, vec![0, 1, 2]);
    }

    #[test]
    fn degenerate_bounds_do_not_panic() {
        let mut idx = GridIndex::with_grid(r(0, 0, 0, 0), 1, 1);
        let a = idx.insert(r(0, 0, 0, 0), ());
        assert_eq!(idx.query(r(-10, -10, 10, 10)), vec![a]);
        let idx2 = GridIndex::<()>::with_capacity_hint(r(0, 0, 0, 0), 0);
        assert_eq!(idx2.grid(), (4, 4));
    }
}
