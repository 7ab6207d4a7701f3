//! Resource kinds and per-type resource accounting.
//!
//! The floorplanner reasons about heterogeneous FPGA resources: configurable
//! logic blocks (CLB), block RAM (BRAM), DSP slices and a catch-all `Other`
//! kind for anything else (IO, clocking, hard IP observed as a resource).
//! Requirements and capacities are expressed as a small dense vector indexed
//! by [`ResourceKind`].

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub};

/// The kinds of reconfigurable resources tracked by the floorplanner
/// (set `T` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Configurable logic block columns (LUTs + flip-flops).
    Clb,
    /// Block RAM.
    Bram,
    /// DSP slices.
    Dsp,
    /// Any other resource kind (IO, clock management, hard IP).
    Other,
}

/// All resource kinds, in index order. Useful for iteration.
pub const RESOURCE_KINDS: [ResourceKind; 4] =
    [ResourceKind::Clb, ResourceKind::Bram, ResourceKind::Dsp, ResourceKind::Other];

impl ResourceKind {
    /// Dense index of the kind inside a [`ResourceVec`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Clb => 0,
            ResourceKind::Bram => 1,
            ResourceKind::Dsp => 2,
            ResourceKind::Other => 3,
        }
    }

    /// Short uppercase name used in tables ("CLB", "BRAM", "DSP", "OTHER").
    pub const fn name(self) -> &'static str {
        match self {
            ResourceKind::Clb => "CLB",
            ResourceKind::Bram => "BRAM",
            ResourceKind::Dsp => "DSP",
            ResourceKind::Other => "OTHER",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense count of resources per [`ResourceKind`].
///
/// Used both for tile contents (resources carried by one tile) and for region
/// requirements (`c_{n,t}` in the paper, expressed in tiles or raw resources).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResourceVec(pub [u32; 4]);

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec([0; 4]);

    /// Creates a vector with the given CLB/BRAM/DSP counts and zero `Other`.
    pub const fn new(clb: u32, bram: u32, dsp: u32) -> Self {
        ResourceVec([clb, bram, dsp, 0])
    }

    /// Creates a vector holding `count` units of a single kind.
    pub fn single(kind: ResourceKind, count: u32) -> Self {
        let mut v = ResourceVec::ZERO;
        v[kind] = count;
        v
    }

    /// Component-wise `self >= other` (the capacity covers the requirement).
    pub fn covers(&self, other: &ResourceVec) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a >= b)
    }

    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&c| c as u64).sum()
    }

    /// Component-wise saturating subtraction (`self - other`, floored at 0).
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = ResourceVec::ZERO;
        for i in 0..4 {
            out.0[i] = self.0[i].saturating_sub(other.0[i]);
        }
        out
    }

    /// Component-wise scaling by an integer factor.
    pub fn scaled(&self, factor: u32) -> ResourceVec {
        let mut out = *self;
        for c in out.0.iter_mut() {
            *c *= factor;
        }
        out
    }

    /// Iterates over `(kind, count)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, u32)> + '_ {
        RESOURCE_KINDS.iter().map(move |&k| (k, self[k]))
    }
}

impl Index<ResourceKind> for ResourceVec {
    type Output = u32;
    #[inline]
    fn index(&self, kind: ResourceKind) -> &u32 {
        &self.0[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVec {
    #[inline]
    fn index_mut(&mut self, kind: ResourceKind) -> &mut u32 {
        &mut self.0[kind.index()]
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        for i in 0..4 {
            self.0[i] += rhs.0[i];
        }
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    /// Exact subtraction; panics in debug builds on underflow.
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self;
        for i in 0..4 {
            out.0[i] -= rhs.0[i];
        }
        out
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CLB:{} BRAM:{} DSP:{} OTHER:{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_distinct_and_dense() {
        let mut seen = [false; 4];
        for k in RESOURCE_KINDS {
            assert!(!seen[k.index()], "duplicate index for {k}");
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn new_sets_components() {
        let v = ResourceVec::new(3, 2, 1);
        assert_eq!(v[ResourceKind::Clb], 3);
        assert_eq!(v[ResourceKind::Bram], 2);
        assert_eq!(v[ResourceKind::Dsp], 1);
        assert_eq!(v[ResourceKind::Other], 0);
        assert_eq!(v.total(), 6);
    }

    #[test]
    fn covers_is_component_wise() {
        let cap = ResourceVec::new(5, 2, 1);
        assert!(cap.covers(&ResourceVec::new(5, 2, 1)));
        assert!(cap.covers(&ResourceVec::new(4, 0, 0)));
        assert!(!cap.covers(&ResourceVec::new(6, 0, 0)));
        assert!(!cap.covers(&ResourceVec::new(0, 3, 0)));
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = ResourceVec::new(4, 1, 2);
        let b = ResourceVec::new(1, 1, 0);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = ResourceVec::new(1, 0, 5);
        let b = ResourceVec::new(3, 1, 2);
        assert_eq!(a.saturating_sub(&b), ResourceVec::new(0, 0, 3));
    }

    #[test]
    fn single_and_scaled() {
        let v = ResourceVec::single(ResourceKind::Dsp, 4);
        assert_eq!(v[ResourceKind::Dsp], 4);
        assert_eq!(v.scaled(3)[ResourceKind::Dsp], 12);
    }

    #[test]
    fn display_lists_all_kinds() {
        let s = ResourceVec::new(1, 2, 3).to_string();
        assert!(s.contains("CLB:1") && s.contains("BRAM:2") && s.contains("DSP:3"));
    }
}
