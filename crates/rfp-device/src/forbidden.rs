//! Forbidden areas (set `A` of Section III-A).
//!
//! A forbidden area is a fixed rectangular area of the device that cannot be
//! crossed by reconfigurable regions nor by free-compatible areas. They model
//! hard blocks that break the columnar structure of the fabric — for example
//! the PowerPC 440 block in the middle of a Virtex-5 FX70T — and any region
//! the designer wants to reserve (static logic, IO banks, …).
//!
//! Unlike the portions of set `P`, forbidden areas *overlap* with the
//! portions: the columnar partitioning first replaces the tiles under a
//! forbidden area with tiles of the same column (step 1) and only afterwards
//! derives the portions, so portions still tile the whole device.

use crate::geometry::Rect;
use std::fmt;

/// A named rectangular forbidden area.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForbiddenArea {
    /// Designer-visible name (e.g. `"PPC440"`).
    pub name: String,
    /// The tiles covered by the area.
    pub rect: Rect,
}

impl ForbiddenArea {
    /// Creates a forbidden area.
    pub fn new(name: impl Into<String>, rect: Rect) -> Self {
        ForbiddenArea { name: name.into(), rect }
    }

    /// Parameter `xa1_a`: leftmost column of a tile in the area.
    #[inline]
    pub fn xa1(&self) -> u32 {
        self.rect.x
    }

    /// Parameter `xa2_a`: rightmost column of a tile in the area.
    #[inline]
    pub fn xa2(&self) -> u32 {
        self.rect.x2()
    }

    /// Parameter `raa_{a,r}`: `true` if the area lies on row `r`.
    #[inline]
    pub fn lies_on_row(&self, row: u32) -> bool {
        row >= self.rect.y && row <= self.rect.y2()
    }

    /// Returns `true` if the area covers the tile at `(col, row)`.
    #[inline]
    pub fn covers(&self, col: u32, row: u32) -> bool {
        self.rect.contains(col, row)
    }

    /// Returns `true` if a candidate region rectangle crosses this area.
    #[inline]
    pub fn blocks(&self, candidate: &Rect) -> bool {
        self.rect.overlaps(candidate)
    }
}

impl fmt::Display for ForbiddenArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ppc() -> ForbiddenArea {
        ForbiddenArea::new("PPC440", Rect::new(19, 4, 4, 3))
    }

    #[test]
    fn x_extent_parameters() {
        let a = ppc();
        assert_eq!(a.xa1(), 19);
        assert_eq!(a.xa2(), 22);
    }

    #[test]
    fn row_membership() {
        let a = ppc();
        assert!(!a.lies_on_row(3));
        assert!(a.lies_on_row(4));
        assert!(a.lies_on_row(6));
        assert!(!a.lies_on_row(7));
    }

    #[test]
    fn covers_and_blocks() {
        let a = ppc();
        assert!(a.covers(20, 5));
        assert!(!a.covers(20, 7));
        // A region overlapping a single tile of the area is blocked.
        assert!(a.blocks(&Rect::new(22, 6, 3, 3)));
        // A region next to the area is not blocked.
        assert!(!a.blocks(&Rect::new(23, 1, 3, 8)));
        assert!(!a.blocks(&Rect::new(19, 7, 4, 2)));
    }

    #[test]
    fn display_includes_name() {
        assert!(ppc().to_string().contains("PPC440"));
    }
}
