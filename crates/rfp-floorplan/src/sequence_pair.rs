//! Sequence-pair extraction for the HO algorithm.
//!
//! The HO (Heuristic-Optimal) algorithm of [10] extracts the sequence-pair
//! representation of a first feasible solution and adds it as a constraint to
//! the MILP, so that the initial solution can be locally improved in a small
//! amount of time. When relocation-as-a-constraint is used, the input
//! heuristic solution also contains the free-compatible-area placements, so
//! the sequence pair is "naturally extended" to those areas (Section II-A of
//! the paper) and the non-overlapping constraints are guaranteed for all of
//! them.
//!
//! The MILP consumes the sequence pair as a set of **pairwise relations**
//! (left-of / above), one per pair of entities, each of which fixes the
//! corresponding relative-position binary of the non-overlap constraints.

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

/// A sequence pair over `n` entities: two permutations of `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    /// The positive sequence `Γ+`.
    pub gamma_plus: Vec<usize>,
    /// The negative sequence `Γ-`.
    pub gamma_minus: Vec<usize>,
}

impl SequencePair {
    /// Relation encoded by the sequence pair for a pair `(a, b)`:
    /// `a` before `b` in both sequences means `a` is left of `b`; `a` before
    /// `b` only in `Γ+` means `a` is above `b`.
    pub fn relation(&self, a: usize, b: usize) -> Relation {
        let pos = |seq: &[usize], x: usize| seq.iter().position(|&e| e == x).unwrap();
        let plus = pos(&self.gamma_plus, a) < pos(&self.gamma_plus, b);
        let minus = pos(&self.gamma_minus, a) < pos(&self.gamma_minus, b);
        match (plus, minus) {
            (true, true) => Relation::LeftOf,
            (false, false) => Relation::RightOf,
            (true, false) => Relation::Above,
            (false, true) => Relation::Below,
        }
    }
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

/// Builds an explicit sequence pair from a feasible placement.
///
/// The construction orders `Γ+` by the "up-right" staircase (left-of or
/// above precede) and `Γ-` by the "down-right" staircase (left-of or below
/// precede), using the extracted pairwise relations; ties are broken by the
/// rectangle centre coordinates, which keeps the result deterministic.
pub fn extract_sequence_pair(rects: &[Rect]) -> SequencePair {
    let relations = extract_relations(rects);
    let rel = |a: usize, b: usize| -> Option<Relation> {
        relations.iter().find_map(|r| {
            if r.a == a && r.b == b {
                Some(r.relation)
            } else if r.a == b && r.b == a {
                Some(match r.relation {
                    Relation::LeftOf => Relation::RightOf,
                    Relation::RightOf => Relation::LeftOf,
                    Relation::Above => Relation::Below,
                    Relation::Below => Relation::Above,
                })
            } else {
                None
            }
        })
    };
    let n = rects.len();
    let center_key = |i: usize| {
        let r = &rects[i];
        (2 * r.x + r.w, 2 * r.y + r.h)
    };
    let order_by = |prefer_above: bool| -> Vec<usize> {
        // Count, for each entity, how many entities must precede it.
        let mut score = vec![0usize; n];
        for (a, score_a) in score.iter_mut().enumerate() {
            for b in 0..n {
                if a == b {
                    continue;
                }
                if let Some(r) = rel(a, b) {
                    let a_first = match r {
                        Relation::LeftOf => true,
                        Relation::RightOf => false,
                        Relation::Above => prefer_above,
                        Relation::Below => !prefer_above,
                    };
                    if !a_first {
                        *score_a += 1;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (score[i], center_key(i)));
        order
    };
    SequencePair { gamma_plus: order_by(true), gamma_minus: order_by(false) }
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
    fn sequence_pair_reproduces_relations_on_a_grid_placement() {
        // Four quadrant blocks: 0 top-left, 1 top-right, 2 bottom-left,
        // 3 bottom-right.
        let rects = [
            Rect::new(1, 1, 2, 2),
            Rect::new(4, 1, 2, 2),
            Rect::new(1, 4, 2, 2),
            Rect::new(4, 4, 2, 2),
        ];
        let sp = extract_sequence_pair(&rects);
        assert_eq!(sp.relation(0, 1), Relation::LeftOf);
        assert_eq!(sp.relation(2, 3), Relation::LeftOf);
        assert_eq!(sp.relation(1, 0), Relation::RightOf);
        // 0 vs 3 and 1 vs 2 are diagonal: any non-overlapping relation is
        // acceptable; just check consistency of the inverse.
        let r03 = sp.relation(0, 3);
        let r30 = sp.relation(3, 0);
        let inverse = match r03 {
            Relation::LeftOf => Relation::RightOf,
            Relation::RightOf => Relation::LeftOf,
            Relation::Above => Relation::Below,
            Relation::Below => Relation::Above,
        };
        assert_eq!(r30, inverse);
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

    #[test]
    fn stacked_columns_relation_is_vertical() {
        let rects = [Rect::new(2, 1, 1, 3), Rect::new(2, 5, 1, 3)];
        let sp = extract_sequence_pair(&rects);
        assert_eq!(sp.relation(0, 1), Relation::Above);
        assert_eq!(sp.relation(1, 0), Relation::Below);
    }
}
