//! Uniform cell grid over node positions — the spatial index behind
//! [`crate::MediumIndex::Grid`].
//!
//! Cells are squares of a fixed edge length (the medium uses its sensing
//! horizon, so a disk query touches at most a 3×3 neighborhood). Cell
//! coordinates are signed, so nodes that wander outside the nominal field
//! (mobility does not clamp to it) keep working. The grid stores *candidate*
//! sets only: callers apply the exact distance / threshold filter, which
//! keeps every power computation bit-identical to the naive full scan.

use crate::NodeId;
use mg_geom::Vec2;
use std::collections::HashMap;

/// Grid of node ids bucketed by `floor(coord / cell)`.
pub(crate) struct CellGrid {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<NodeId>>,
    /// Current cell key of every node (incremental maintenance).
    keys: Vec<(i64, i64)>,
}

impl CellGrid {
    /// Builds the grid with the given cell edge length over `positions`.
    pub fn new(cell: f64, positions: &[Vec2]) -> Self {
        // Guard degenerate edge lengths (zero ranges, NaN budgets): a 1 m
        // cell is always a valid, if fine-grained, bucketing.
        let cell = if cell.is_finite() && cell >= 1.0 { cell } else { 1.0 };
        let mut grid = CellGrid {
            cell,
            cells: HashMap::new(),
            keys: vec![(0, 0); positions.len()],
        };
        for (node, &p) in positions.iter().enumerate() {
            let k = grid.key(p);
            grid.keys[node] = k;
            grid.cells.entry(k).or_default().push(node);
        }
        grid
    }

    /// The cell edge length in meters.
    #[cfg(test)]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of occupied cells (diagnostic).
    #[cfg(test)]
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    fn key(&self, p: Vec2) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// Re-buckets `node` after a position change. O(occupants of the old
    /// cell); a no-op when the move stays inside one cell.
    pub fn move_node(&mut self, node: NodeId, to: Vec2) {
        let new = self.key(to);
        let old = self.keys[node];
        if new == old {
            return;
        }
        let list = self.cells.get_mut(&old).expect("node's cell is occupied");
        let at = list
            .iter()
            .position(|&v| v == node)
            .expect("node is in its recorded cell");
        list.swap_remove(at);
        if list.is_empty() {
            self.cells.remove(&old);
        }
        self.keys[node] = new;
        self.cells.entry(new).or_default().push(node);
    }

    /// Collects into `out` every node whose cell intersects the axis-aligned
    /// bounding square of the disk (`center`, `range`), in ascending node-id
    /// order. A superset of the nodes within `range`: callers apply the
    /// exact filter.
    pub fn candidates_within(&self, center: Vec2, range: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let r = range.max(0.0);
        let x0 = ((center.x - r) / self.cell).floor() as i64;
        let x1 = ((center.x + r) / self.cell).floor() as i64;
        let y0 = ((center.y - r) / self.cell).floor() as i64;
        let y1 = ((center.y + r) / self.cell).floor() as i64;
        let window = (x1 - x0 + 1) as i128 * (y1 - y0 + 1) as i128;
        if window > self.cells.len() as i128 {
            // The query disk spans more cells than are occupied (huge range
            // or tiny cells): walking the occupied cells is cheaper and
            // never loops over empty space.
            for (&(cx, cy), list) in &self.cells {
                if (x0..=x1).contains(&cx) && (y0..=y1).contains(&cy) {
                    out.extend_from_slice(list);
                }
            }
        } else {
            for cx in x0..=x1 {
                for cy in y0..=y1 {
                    if let Some(list) = self.cells.get(&(cx, cy)) {
                        out.extend_from_slice(list);
                    }
                }
            }
        }
        // Hash-map iteration order must never leak into results: ascending
        // node order is the contract (it mirrors the naive 0..n scan).
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of(cell: f64, pts: &[(f64, f64)]) -> CellGrid {
        let v: Vec<Vec2> = pts.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        CellGrid::new(cell, &v)
    }

    fn query(g: &CellGrid, x: f64, y: f64, r: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        g.candidates_within(Vec2::new(x, y), r, &mut out);
        out
    }

    #[test]
    fn candidates_cover_the_disk_and_come_back_sorted() {
        let g = grid_of(100.0, &[(50.0, 50.0), (250.0, 50.0), (950.0, 950.0)]);
        let c = query(&g, 60.0, 60.0, 250.0);
        assert_eq!(c, vec![0, 1], "both near nodes, far node excluded");
    }

    #[test]
    fn node_exactly_on_a_cell_boundary_is_found_from_both_sides() {
        // x = 100.0 buckets into cell 1 (floor), but a query from cell 0
        // whose window reaches the boundary must still see it.
        let g = grid_of(100.0, &[(100.0, 0.0)]);
        assert_eq!(query(&g, 99.0, 0.0, 1.0), vec![0]);
        assert_eq!(query(&g, 101.0, 0.0, 1.0), vec![0]);
        // Negative-side boundary too: -0.0/-epsilon straddle cell -1 / 0.
        let g = grid_of(100.0, &[(0.0, 0.0)]);
        assert_eq!(query(&g, -1.0, 0.0, 2.0), vec![0]);
    }

    #[test]
    fn moves_across_cells_and_out_of_field_bounds() {
        let mut g = grid_of(100.0, &[(50.0, 50.0), (150.0, 50.0)]);
        // Wander far outside any nominal field, including negative space.
        g.move_node(0, Vec2::new(-730.0, 12_345.0));
        assert_eq!(query(&g, -700.0, 12_300.0, 100.0), vec![0]);
        assert_eq!(query(&g, 50.0, 50.0, 120.0), vec![1], "old cell vacated");
        // And back.
        g.move_node(0, Vec2::new(55.0, 55.0));
        assert_eq!(query(&g, 50.0, 50.0, 120.0), vec![0, 1]);
        assert_eq!(g.occupied_cells(), 2); // cells (0,0) and (1,0)
    }

    #[test]
    fn all_nodes_in_one_cell_is_fine() {
        let pts: Vec<(f64, f64)> = (0..32).map(|i| (i as f64 * 0.1, 0.0)).collect();
        let g = grid_of(1000.0, &pts);
        assert_eq!(g.occupied_cells(), 1);
        let c = query(&g, 0.0, 0.0, 5.0);
        assert_eq!(c, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn range_spanning_many_cells_finds_everything() {
        // Cell 100 m, query radius 450 m → a 9×9 cell window (> 3×3).
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 100.0, 0.0)).collect();
        let g = grid_of(100.0, &pts);
        let c = query(&g, 0.0, 0.0, 450.0);
        assert_eq!(c, vec![0, 1, 2, 3, 4], "bounding square keeps 0..=450 m");
    }

    #[test]
    fn oversized_window_falls_back_to_occupied_cell_walk() {
        let g = grid_of(1.0, &[(0.0, 0.0), (1e6, 1e6)]);
        // 2e6-cell window with 2 occupied cells: must terminate instantly.
        let c = query(&g, 0.0, 0.0, 2e6);
        assert_eq!(c, vec![0, 1]);
    }

    #[test]
    fn move_across_a_cell_boundary_keeps_both_sides_queryable() {
        // Walk a node in small steps across x = 500 (inside a 551 m cell, so
        // it stays in the same bucket) and then across the cell boundary at
        // x = 551; it must always be found from both sides of x = 500.
        let mut g = grid_of(551.0, &[(460.0, 100.0), (2500.0, 100.0)]);
        for step in 0..20 {
            let x = 460.0 + f64::from(step) * 5.0; // crosses 500, then 551
            g.move_node(0, Vec2::new(x, 100.0));
            assert_eq!(query(&g, 499.0, 100.0, 80.0), vec![0], "left-side query, x={x}");
            assert_eq!(query(&g, 501.0, 100.0, 80.0), vec![0], "right-side query, x={x}");
        }
        // Landing exactly on the cell boundary.
        g.move_node(0, Vec2::new(551.0, 100.0));
        assert_eq!(query(&g, 550.9, 100.0, 1.0), vec![0]);
        assert_eq!(query(&g, 551.1, 100.0, 1.0), vec![0]);
    }

    #[test]
    fn degenerate_cell_size_is_clamped() {
        let g = grid_of(0.0, &[(5.0, 5.0)]);
        assert_eq!(g.cell_size(), 1.0);
        assert_eq!(query(&g, 5.0, 5.0, 1.0), vec![0]);
    }
}
