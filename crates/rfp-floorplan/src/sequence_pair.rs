//! Pairwise relations for the HO algorithm.
//!
//! The HO (Heuristic-Optimal) algorithm of [10] takes the relative positions
//! of a first feasible solution — its sequence pair — and adds them as
//! constraints to the MILP, so that the initial solution can be locally
//! improved in a small amount of time. When relocation-as-a-constraint is
//! used, the input heuristic solution also contains the free-compatible-area
//! placements, so the relations are "naturally extended" to those areas
//! (Section II-A of the paper) and the non-overlapping constraints are
//! guaranteed for all of them.
//!
//! [`extract_relations`] gives one **pairwise relation** (left-of, right-of,
//! above or below) per pair of entities; the MILP build
//! ([`crate::model::FloorplanMilp::build`]) fixes the corresponding
//! relative-position binary of the non-overlap constraints for each.

use rfp_device::Rect;

/// Relative position of entity `a` with respect to entity `b` in a feasible
/// placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a` lies entirely to the left of `b` (`x_a + w_a <= x_b`).
    LeftOf,
    /// `a` lies entirely to the right of `b`.
    RightOf,
    /// `a` lies entirely above `b` (`y_a + h_a <= y_b`, rows grow downward).
    Above,
    /// `a` lies entirely below `b`.
    Below,
}

/// A pairwise relation between two entities (indices into the placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRelation {
    /// First entity.
    pub a: usize,
    /// Second entity.
    pub b: usize,
    /// Relation of `a` with respect to `b`.
    pub relation: Relation,
}

/// Extracts, for every pair of placed rectangles, one relation that the
/// placement satisfies. Preference goes to the axis with the larger
/// separation, which gives the follow-up MILP the loosest constraint.
///
/// # Panics
/// Panics if two rectangles overlap (the input must be a feasible placement).
pub fn extract_relations(rects: &[Rect]) -> Vec<PairRelation> {
    let mut out = Vec::with_capacity(rects.len().saturating_sub(1) * rects.len() / 2);
    for a in 0..rects.len() {
        for b in (a + 1)..rects.len() {
            let ra = &rects[a];
            let rb = &rects[b];
            // Signed separations (negative = the relation does not hold).
            let left = rb.x as i64 - (ra.x + ra.w) as i64; // a left of b
            let right = ra.x as i64 - (rb.x + rb.w) as i64; // a right of b
            let above = rb.y as i64 - (ra.y + ra.h) as i64; // a above b
            let below = ra.y as i64 - (rb.y + rb.h) as i64; // a below b
            let candidates = [
                (left, Relation::LeftOf),
                (right, Relation::RightOf),
                (above, Relation::Above),
                (below, Relation::Below),
            ];
            let best = candidates.iter().filter(|(sep, _)| *sep >= 0).max_by_key(|(sep, _)| *sep);
            match best {
                Some(&(_, relation)) => out.push(PairRelation { a, b, relation }),
                None => panic!(
                    "rectangles {a} ({ra}) and {b} ({rb}) overlap; \
                     sequence pairs exist only for feasible placements"
                ),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_pair_is_left_of() {
        let rects = [Rect::new(1, 1, 2, 2), Rect::new(4, 1, 2, 2)];
        let rel = extract_relations(&rects);
        assert_eq!(rel, vec![PairRelation { a: 0, b: 1, relation: Relation::LeftOf }]);
    }

    #[test]
    fn vertical_pair_is_above() {
        let rects = [Rect::new(1, 1, 2, 2), Rect::new(1, 4, 2, 2)];
        let rel = extract_relations(&rects);
        assert_eq!(rel, vec![PairRelation { a: 0, b: 1, relation: Relation::Above }]);
    }

    #[test]
    fn prefers_the_axis_with_larger_separation() {
        // b is both to the right of and below a, but much farther to the right.
        let rects = [Rect::new(1, 1, 2, 2), Rect::new(8, 4, 2, 2)];
        let rel = extract_relations(&rects);
        assert_eq!(rel[0].relation, Relation::LeftOf);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_input_panics() {
        let rects = [Rect::new(1, 1, 3, 3), Rect::new(2, 2, 3, 3)];
        let _ = extract_relations(&rects);
    }

    #[test]
    fn relations_count_is_n_choose_2() {
        let rects = [
            Rect::new(1, 1, 1, 1),
            Rect::new(3, 1, 1, 1),
            Rect::new(5, 1, 1, 1),
            Rect::new(1, 3, 6, 1),
        ];
        assert_eq!(extract_relations(&rects).len(), 6);
    }
}
