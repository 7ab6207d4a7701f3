//! Tile types and the tile-type registry.
//!
//! A *tile* is the minimal area considered for reconfiguration. Definition .1
//! of the paper strengthens the notion of tile type with respect to [10]:
//! two tiles are of the same type only if they carry the same number and
//! types of resources **and** the configuration data needed to configure them
//! is the same. We model the latter with a `frames` field (number of
//! configuration frames per tile) plus an opaque `config_signature` that lets
//! users distinguish tiles with equal resources but different configuration
//! layouts (for example CLBL vs CLBM columns on 7-series devices).

use crate::error::DeviceError;
use crate::resources::ResourceVec;
use std::fmt;

/// Identifier of a [`TileType`] inside a [`TileTypeRegistry`].
///
/// The floorplanner's MILP formulation refers to tile types with the integer
/// parameter `tid_p` in the range `[1, nTypes]`; [`TileTypeId::milp_id`]
/// provides that 1-based value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileTypeId(pub u16);

impl TileTypeId {
    /// Zero-based index into the registry.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One-based identifier as used by the MILP parameter `tid_p`.
    #[inline]
    pub fn milp_id(self) -> u32 {
        self.0 as u32 + 1
    }
}

impl fmt::Display for TileTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Description of a tile type (Definition .1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileType {
    /// Human-readable name ("CLB", "BRAM", "DSP", ...).
    pub name: String,
    /// Resources carried by one tile of this type.
    pub resources: ResourceVec,
    /// Number of configuration frames needed to configure one tile of this
    /// type (e.g. 36/30/28 for CLB/BRAM/DSP tiles on the Virtex-5 FX70T).
    pub frames: u32,
    /// Opaque discriminator for tiles whose resources and frame counts are
    /// equal but whose configuration data layout differs. Two tile types with
    /// the same `resources`, `frames` and `config_signature` are the *same*
    /// type per Definition .1 and may not be registered twice.
    pub config_signature: u32,
}

impl TileType {
    /// Convenience constructor with a zero configuration signature.
    pub fn new(name: impl Into<String>, resources: ResourceVec, frames: u32) -> Self {
        TileType { name: name.into(), resources, frames, config_signature: 0 }
    }

    /// The fingerprint used to decide whether two tile types are "the same
    /// type" per Definition .1.
    fn fingerprint(&self) -> (ResourceVec, u32, u32) {
        (self.resources, self.frames, self.config_signature)
    }
}

/// Registry of the tile types present on a device.
///
/// `nTypes` in the paper is [`TileTypeRegistry::len`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileTypeRegistry {
    types: Vec<TileType>,
}

impl TileTypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tile type and returns its id.
    ///
    /// Returns [`DeviceError::DuplicateTileType`] if a type with an identical
    /// fingerprint (resources, frames, configuration signature) already
    /// exists: per Definition .1 those are the same type.
    pub fn register(&mut self, tile: TileType) -> Result<TileTypeId, DeviceError> {
        if let Some(existing) = self.types.iter().find(|t| t.fingerprint() == tile.fingerprint()) {
            return Err(DeviceError::DuplicateTileType {
                first: existing.name.clone(),
                second: tile.name,
            });
        }
        let id = TileTypeId(self.types.len() as u16);
        self.types.push(tile);
        Ok(id)
    }

    /// Registers a tile type, or returns the id of the already-registered
    /// type with the same fingerprint.
    pub fn register_or_get(&mut self, tile: TileType) -> TileTypeId {
        if let Some((i, _)) =
            self.types.iter().enumerate().find(|(_, t)| t.fingerprint() == tile.fingerprint())
        {
            return TileTypeId(i as u16);
        }
        let id = TileTypeId(self.types.len() as u16);
        self.types.push(tile);
        id
    }

    /// Number of registered tile types (`nTypes`).
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Returns `true` if no tile type has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Looks a tile type up by id.
    pub fn get(&self, id: TileTypeId) -> Option<&TileType> {
        self.types.get(id.index())
    }

    /// Looks a tile type up by id, panicking on an unknown id.
    ///
    /// Intended for internal use where ids are known to originate from this
    /// registry.
    pub fn expect(&self, id: TileTypeId) -> &TileType {
        self.get(id).expect("tile type id not present in registry")
    }

    /// Finds a tile type by name (first match).
    pub fn by_name(&self, name: &str) -> Option<TileTypeId> {
        self.types.iter().position(|t| t.name == name).map(|i| TileTypeId(i as u16))
    }

    /// Iterates over `(id, type)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (TileTypeId, &TileType)> {
        self.types.iter().enumerate().map(|(i, t)| (TileTypeId(i as u16), t))
    }

    /// Validates that an id belongs to this registry.
    pub fn validate(&self, id: TileTypeId) -> Result<(), DeviceError> {
        if id.index() < self.types.len() {
            Ok(())
        } else {
            Err(DeviceError::UnknownTileType(id.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVec;

    fn clb() -> TileType {
        TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)
    }
    fn bram() -> TileType {
        TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)
    }

    #[test]
    fn register_assigns_sequential_ids() {
        let mut reg = TileTypeRegistry::new();
        let a = reg.register(clb()).unwrap();
        let b = reg.register(bram()).unwrap();
        assert_eq!(a, TileTypeId(0));
        assert_eq!(b, TileTypeId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a).unwrap().name, "CLB");
        assert_eq!(reg.get(b).unwrap().frames, 30);
    }

    #[test]
    fn milp_id_is_one_based() {
        assert_eq!(TileTypeId(0).milp_id(), 1);
        assert_eq!(TileTypeId(4).milp_id(), 5);
    }

    #[test]
    fn duplicate_fingerprint_is_rejected() {
        let mut reg = TileTypeRegistry::new();
        reg.register(clb()).unwrap();
        let dup = TileType::new("CLB-copy", ResourceVec::new(1, 0, 0), 36);
        let err = reg.register(dup).unwrap_err();
        assert!(matches!(err, DeviceError::DuplicateTileType { .. }));
    }

    #[test]
    fn same_resources_different_signature_is_allowed() {
        let mut reg = TileTypeRegistry::new();
        reg.register(clb()).unwrap();
        let mut clbm = TileType::new("CLBM", ResourceVec::new(1, 0, 0), 36);
        clbm.config_signature = 1;
        assert!(reg.register(clbm).is_ok());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn register_or_get_returns_existing_id() {
        let mut reg = TileTypeRegistry::new();
        let a = reg.register_or_get(clb());
        let b = reg.register_or_get(clb());
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn by_name_and_validate() {
        let mut reg = TileTypeRegistry::new();
        let a = reg.register(clb()).unwrap();
        assert_eq!(reg.by_name("CLB"), Some(a));
        assert_eq!(reg.by_name("DSP"), None);
        assert!(reg.validate(a).is_ok());
        assert!(reg.validate(TileTypeId(9)).is_err());
    }

    #[test]
    fn iter_preserves_registration_order() {
        let mut reg = TileTypeRegistry::new();
        reg.register(clb()).unwrap();
        reg.register(bram()).unwrap();
        let names: Vec<_> = reg.iter().map(|(_, t)| t.name.as_str()).collect();
        assert_eq!(names, vec!["CLB", "BRAM"]);
    }
}
