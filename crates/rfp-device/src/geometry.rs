//! Rectangle geometry on the tile grid.
//!
//! All coordinates are **1-based** and **inclusive**, matching the paper's
//! convention (`x_n >= 1`, `maxW` is the last valid column). Columns grow
//! from left to right, rows from top to bottom (the partitioning procedure
//! scans "top to bottom, left to right").

use std::fmt;

/// An axis-aligned rectangle of tiles, expressed in 1-based inclusive tile
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Leftmost column covered (1-based).
    pub x: u32,
    /// Topmost row covered (1-based).
    pub y: u32,
    /// Width in tiles (>= 1).
    pub w: u32,
    /// Height in tiles (>= 1).
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and size.
    ///
    /// # Panics
    /// Panics if `w` or `h` is zero: a region always covers at least one tile.
    pub fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        assert!(x >= 1 && y >= 1, "tile coordinates are 1-based");
        assert!(w >= 1 && h >= 1, "a rectangle covers at least one tile");
        Rect { x, y, w, h }
    }

    /// Creates a rectangle from two opposite corners (both inclusive).
    pub fn from_corners(x1: u32, y1: u32, x2: u32, y2: u32) -> Self {
        let (x1, x2) = (x1.min(x2), x1.max(x2));
        let (y1, y2) = (y1.min(y2), y1.max(y2));
        Rect::new(x1, y1, x2 - x1 + 1, y2 - y1 + 1)
    }

    /// Rightmost column covered (inclusive).
    #[inline]
    pub fn x2(&self) -> u32 {
        self.x + self.w - 1
    }

    /// Bottommost row covered (inclusive).
    #[inline]
    pub fn y2(&self) -> u32 {
        self.y + self.h - 1
    }

    /// Number of tiles covered.
    #[inline]
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// Half-perimeter (w + h), the interface-cost proxy used by floorplanning
    /// objectives.
    #[inline]
    pub fn half_perimeter(&self) -> u32 {
        self.w + self.h
    }

    /// Returns `true` if the tile at `(col, row)` is covered.
    #[inline]
    pub fn contains(&self, col: u32, row: u32) -> bool {
        col >= self.x && col <= self.x2() && row >= self.y && row <= self.y2()
    }

    /// Returns `true` if the two rectangles share at least one tile.
    #[inline]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x <= other.x2() && other.x <= self.x2() && self.y <= other.y2() && other.y <= self.y2()
    }

    /// Returns `true` if `other` is fully contained in `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x >= self.x && other.x2() <= self.x2() && other.y >= self.y && other.y2() <= self.y2()
    }

    /// Returns the intersection of the two rectangles, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = self.x2().min(other.x2());
        let y2 = self.y2().min(other.y2());
        Some(Rect::from_corners(x1, y1, x2, y2))
    }

    /// Returns `true` if the projections of the two rectangles on the x axis
    /// intersect (the quantity the `k_{n,p}` variables of the MILP model
    /// encode).
    #[inline]
    pub fn x_projection_overlaps(&self, other: &Rect) -> bool {
        self.x <= other.x2() && other.x <= self.x2()
    }

    /// Number of columns shared by the x projections of the two rectangles.
    pub fn x_overlap_width(&self, other: &Rect) -> u32 {
        if !self.x_projection_overlaps(other) {
            0
        } else {
            self.x2().min(other.x2()) - self.x.max(other.x) + 1
        }
    }

    /// Manhattan distance between the centres of the two rectangles, in tile
    /// units scaled by 2 (so the value stays integral for odd sizes).
    pub fn center_distance_x2(&self, other: &Rect) -> u64 {
        let cx_a = 2 * self.x as i64 + self.w as i64 - 1;
        let cy_a = 2 * self.y as i64 + self.h as i64 - 1;
        let cx_b = 2 * other.x as i64 + other.w as i64 - 1;
        let cy_b = 2 * other.y as i64 + other.h as i64 - 1;
        ((cx_a - cx_b).abs() + (cy_a - cy_b).abs()) as u64
    }

    /// Iterates over all `(col, row)` tile coordinates covered, row-major.
    pub fn cells(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let xs = self.x..=self.x2();
        let ys = self.y..=self.y2();
        ys.flat_map(move |r| xs.clone().map(move |c| (c, r)))
    }

    /// Columns covered, left to right.
    pub fn columns(&self) -> impl Iterator<Item = u32> {
        self.x..=self.x2()
    }

    /// Rows covered, top to bottom.
    pub fn rows(&self) -> impl Iterator<Item = u32> {
        self.y..=self.y2()
    }

    /// Translates the rectangle by a signed column/row delta, returning `None`
    /// if the result would leave the 1-based coordinate space.
    pub fn translated(&self, dx: i64, dy: i64) -> Option<Rect> {
        let nx = self.x as i64 + dx;
        let ny = self.y as i64 + dy;
        if nx < 1 || ny < 1 || nx > u32::MAX as i64 || ny > u32::MAX as i64 {
            return None;
        }
        Some(Rect { x: nx as u32, y: ny as u32, w: self.w, h: self.h })
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[x={}..{}, y={}..{}]", self.x, self.x2(), self.y, self.y2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_and_area() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.x2(), 5);
        assert_eq!(r.y2(), 7);
        assert_eq!(r.area(), 20);
        assert_eq!(r.half_perimeter(), 9);
    }

    #[test]
    fn from_corners_normalizes_order() {
        let r = Rect::from_corners(5, 7, 2, 3);
        assert_eq!(r, Rect::new(2, 3, 4, 5));
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_width_panics() {
        let _ = Rect::new(1, 1, 0, 1);
    }

    #[test]
    fn contains_boundaries() {
        let r = Rect::new(2, 2, 3, 2);
        assert!(r.contains(2, 2));
        assert!(r.contains(4, 3));
        assert!(!r.contains(5, 2));
        assert!(!r.contains(2, 4));
        assert!(!r.contains(1, 2));
    }

    #[test]
    fn overlap_is_symmetric_and_tight() {
        let a = Rect::new(1, 1, 3, 3);
        let b = Rect::new(3, 3, 2, 2); // shares tile (3,3)
        let c = Rect::new(4, 1, 2, 2); // adjacent to a, no shared tile
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn intersection_matches_overlap() {
        let a = Rect::new(1, 1, 4, 4);
        let b = Rect::new(3, 2, 4, 4);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::from_corners(3, 2, 4, 4));
        let far = Rect::new(10, 10, 1, 1);
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn x_projection_and_overlap_width() {
        let a = Rect::new(2, 1, 3, 1); // cols 2..4
        let b = Rect::new(4, 9, 3, 1); // cols 4..6
        let c = Rect::new(5, 1, 2, 1); // cols 5..6
        assert!(a.x_projection_overlaps(&b));
        assert_eq!(a.x_overlap_width(&b), 1);
        assert!(!a.x_projection_overlaps(&c));
        assert_eq!(a.x_overlap_width(&c), 0);
    }

    #[test]
    fn center_distance_is_manhattan() {
        let a = Rect::new(1, 1, 2, 2); // centre (1.5, 1.5) -> x2 = (3,3)
        let b = Rect::new(4, 1, 2, 2); // centre (4.5, 1.5) -> x2 = (9,3)
        assert_eq!(a.center_distance_x2(&b), 6); // 3 tiles * 2
        assert_eq!(a.center_distance_x2(&a), 0);
    }

    #[test]
    fn cells_enumerates_every_tile_once() {
        let r = Rect::new(2, 3, 2, 2);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells, vec![(2, 3), (3, 3), (2, 4), (3, 4)]);
        assert_eq!(cells.len() as u64, r.area());
    }

    #[test]
    fn translated_respects_bounds() {
        let r = Rect::new(2, 2, 2, 2);
        assert_eq!(r.translated(-1, -1), Some(Rect::new(1, 1, 2, 2)));
        assert_eq!(r.translated(-2, 0), None);
        assert_eq!(r.translated(3, 4), Some(Rect::new(5, 6, 2, 2)));
    }

    #[test]
    fn contains_rect_checks_full_containment() {
        let outer = Rect::new(1, 1, 5, 5);
        assert!(outer.contains_rect(&Rect::new(2, 2, 2, 2)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&Rect::new(4, 4, 3, 3)));
    }
}
