//! Objects and the allocation context that classifies them as FGO or BGO.

use crate::region::RegionId;
use serde::{Deserialize, Serialize};

/// Identifier of an object in the heap's arena.
///
/// Identifiers are stable across copying GCs — a collector moves the object's
/// *address*, never its id — which is what lets the workload models keep
/// handles to objects across collections, mirroring how real references are
/// fixed up transparently by ART's concurrent-copying collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The app state at allocation time — the paper's FGO/BGO distinction (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocContext {
    /// Allocated while the owner app was in the foreground (an FGO).
    Foreground,
    /// Allocated while the owner app was in the background (a BGO).
    Background,
}

impl std::fmt::Display for AllocContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocContext::Foreground => write!(f, "FGO"),
            AllocContext::Background => write!(f, "BGO"),
        }
    }
}

/// The classification assigned by the RGS grouping GC (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Near-roots object: BFS depth from the roots ≤ the depth parameter D.
    Nro,
    /// Foreground young object: allocated after the last GC before the app
    /// switched to the background.
    Fyo,
    /// Working-set object: marked by a mutator thread's read barrier while
    /// the grouping GC ran.
    Ws,
    /// Everything else; eligible for proactive swap-out.
    Cold,
}

impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectClass::Nro => write!(f, "NRO"),
            ObjectClass::Fyo => write!(f, "FYO"),
            ObjectClass::Ws => write!(f, "WS"),
            ObjectClass::Cold => write!(f, "cold"),
        }
    }
}

/// A heap object: a size, outgoing reference edges, and placement metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Object {
    size: u32,
    refs: Vec<ObjectId>,
    context: AllocContext,
    alloc_epoch: u32,
    region: RegionId,
    offset: u32,
    /// Index of the object's entry in its region's object list (fits in
    /// the struct's padding: no memory beyond the other fields).
    list_index: u32,
    class: Option<ObjectClass>,
}

impl Object {
    pub(crate) fn new(
        size: u32,
        context: AllocContext,
        alloc_epoch: u32,
        region: RegionId,
        offset: u32,
        list_index: u32,
    ) -> Self {
        Object {
            size,
            refs: Vec::new(),
            context,
            alloc_epoch,
            region,
            offset,
            list_index,
            class: None,
        }
    }

    /// Payload size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Outgoing reference edges.
    pub fn refs(&self) -> &[ObjectId] {
        &self.refs
    }

    pub(crate) fn refs_mut(&mut self) -> &mut Vec<ObjectId> {
        &mut self.refs
    }

    /// Whether this is an FGO or a BGO.
    pub fn context(&self) -> AllocContext {
        self.context
    }

    /// GC epoch (collection count) at allocation; used for lifetime
    /// histograms and FYO detection.
    pub fn alloc_epoch(&self) -> u32 {
        self.alloc_epoch
    }

    /// The region currently holding the object.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Byte offset inside the region.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    pub(crate) fn list_index(&self) -> u32 {
        self.list_index
    }

    pub(crate) fn set_list_index(&mut self, list_index: u32) {
        self.list_index = list_index;
    }

    pub(crate) fn relocate(&mut self, region: RegionId, offset: u32, list_index: u32) {
        self.region = region;
        self.offset = offset;
        self.list_index = list_index;
    }

    /// RGS classification, if a grouping GC has run.
    pub fn class(&self) -> Option<ObjectClass> {
        self.class
    }

    pub(crate) fn set_class(&mut self, class: Option<ObjectClass>) {
        self.class = class;
    }

    pub(crate) fn set_context(&mut self, context: AllocContext) {
        self.context = context;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(7).to_string(), "obj#7");
        assert_eq!(AllocContext::Foreground.to_string(), "FGO");
        assert_eq!(AllocContext::Background.to_string(), "BGO");
        assert_eq!(ObjectClass::Nro.to_string(), "NRO");
        assert_eq!(ObjectClass::Cold.to_string(), "cold");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn list_index_fits_in_padding() {
        assert_eq!(std::mem::size_of::<Option<Object>>(), 48);
    }

    #[test]
    fn object_metadata() {
        let mut o = Object::new(48, AllocContext::Background, 3, RegionId(2), 128, 0);
        assert_eq!(o.size(), 48);
        assert_eq!(o.alloc_epoch(), 3);
        assert_eq!(o.region(), RegionId(2));
        assert_eq!(o.offset(), 128);
        assert!(o.refs().is_empty());
        assert_eq!(o.class(), None);
        o.set_class(Some(ObjectClass::Ws));
        assert_eq!(o.class(), Some(ObjectClass::Ws));
        o.relocate(RegionId(5), 0, 7);
        assert_eq!(o.region(), RegionId(5));
        assert_eq!(o.list_index(), 7);
    }
}
