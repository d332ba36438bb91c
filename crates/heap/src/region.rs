//! Heap regions: fixed-size segments with bump-pointer allocation.
//!
//! ART divides the heap into 256 KiB regions (Table 2). Fleet extends the
//! per-region metadata with a *region-type flag* marking regions that hold
//! foreground objects (§5.2 "FGO & BGO separation") and relies on ART's
//! existing *newly-allocated* flag to find FYO (§5.3.1). The RGS grouping GC
//! adds three to-region kinds: Launch, WS and Cold (§5.3.1 "Group into
//! regions").

use crate::object::ObjectId;
use serde::{Deserialize, Serialize};

/// Identifier of a region. Regions are never renumbered; freed slots are
/// retired and new regions extend the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// What a region holds. This combines ART's allocation spaces with Fleet's
/// region-type flag and the RGS to-region kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// Ordinary allocation region for foreground mutator allocation.
    Eden,
    /// Compacted foreground objects (region-type flag set, §5.2).
    Fg,
    /// Background allocation region (BGO live here).
    Bg,
    /// RGS launch region: NRO and FYO grouped for the next hot-launch.
    Launch,
    /// RGS working-set region: objects the background app still uses.
    Ws,
    /// RGS cold region: proactively swapped out.
    Cold,
}

impl RegionKind {
    /// Number of region kinds.
    pub const COUNT: usize = 6;

    /// A dense index in `0..COUNT`, for per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            RegionKind::Eden => 0,
            RegionKind::Fg => 1,
            RegionKind::Bg => 2,
            RegionKind::Launch => 3,
            RegionKind::Ws => 4,
            RegionKind::Cold => 5,
        }
    }

    /// True for regions that hold foreground objects — the regions whose
    /// writes must dirty the card table and which BGC must not trace into.
    pub fn holds_foreground(self) -> bool {
        matches!(
            self,
            RegionKind::Eden
                | RegionKind::Fg
                | RegionKind::Launch
                | RegionKind::Ws
                | RegionKind::Cold
        )
    }
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegionKind::Eden => "eden",
            RegionKind::Fg => "fg",
            RegionKind::Bg => "bg",
            RegionKind::Launch => "launch",
            RegionKind::Ws => "ws",
            RegionKind::Cold => "cold",
        };
        write!(f, "{s}")
    }
}

/// Tag bit of a removed entry in a region's object list.
const TOMBSTONE: u32 = 1 << 31;

/// Largest region size the object list can index: a tombstone keeps the
/// removed object's offset in the 31 bits below [`TOMBSTONE`].
pub(crate) const MAX_REGION_SIZE: u32 = TOMBSTONE;

/// Tombstones are compacted away once they outnumber live entries and
/// there are at least this many of them.
const COMPACT_MIN: u32 = 32;

/// One entry of a region's object list, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// A live object.
    Live(ObjectId),
    /// A removed object, which sat at this offset.
    Removed(u32),
}

/// A fixed-size heap segment with a bump pointer.
///
/// The region's object list keeps bump (hence offset) order. An object
/// knows its own list index ([`Object::list_index`]), so removing it
/// overwrites its entry with a tombstone instead of searching and shifting
/// the list. A tombstone keeps the removed object's offset, so the list
/// stays sorted by offset and can be binary-searched for a card's span
/// ([`Region::objects_overlapping`]).
///
/// [`Object::list_index`]: crate::object::Object
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    id: RegionId,
    kind: RegionKind,
    base: u64,
    size: u32,
    top: u32,
    newly_allocated: bool,
    /// Live object ids and tombstones (`TOMBSTONE | offset`), in
    /// increasing-offset order (bump allocation appends monotonically).
    entries: Vec<u32>,
    /// Live entries in `entries`.
    live: u32,
}

impl Region {
    pub(crate) fn new(
        id: RegionId,
        kind: RegionKind,
        base: u64,
        size: u32,
        newly_allocated: bool,
    ) -> Self {
        Region { id, kind, base, size, top: 0, newly_allocated, entries: Vec::new(), live: 0 }
    }

    /// The region's identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The region's kind.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    pub(crate) fn set_kind(&mut self, kind: RegionKind) {
        self.kind = kind;
    }

    /// First heap address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Region capacity in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Bytes already bump-allocated.
    pub fn used(&self) -> u32 {
        self.top
    }

    /// Bytes still available.
    pub fn free(&self) -> u32 {
        self.size - self.top
    }

    /// ART's newly-allocated flag: true until the first GC after the region
    /// was created. §5.3.1 uses it to detect FYO.
    pub fn newly_allocated(&self) -> bool {
        self.newly_allocated
    }

    pub(crate) fn clear_newly_allocated(&mut self) {
        self.newly_allocated = false;
    }

    /// Objects in the region in increasing-offset order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.entries.iter().filter(|&&e| e & TOMBSTONE == 0).map(|&e| ObjectId(e))
    }

    /// Number of objects in the region.
    pub fn object_count(&self) -> usize {
        self.live as usize
    }

    /// True when the region holds no object (it may still hold garbage
    /// bytes below [`Region::used`]).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Bump-allocates `size` bytes for `obj`, returning its offset and its
    /// index in the object list, or `None` when the region is full.
    pub(crate) fn bump(&mut self, size: u32, obj: ObjectId) -> Option<(u32, u32)> {
        if size == 0 || size > self.free() {
            return None;
        }
        debug_assert!(obj.0 & TOMBSTONE == 0, "object id {obj} collides with the tombstone tag");
        let offset = self.top;
        self.top += size;
        let index = self.entries.len() as u32;
        self.entries.push(obj.0);
        self.live += 1;
        Some((offset, index))
    }

    /// Removes the object at list index `index`, which sat at `offset`.
    /// Returns `true` when tombstones now outnumber live entries enough that
    /// the caller should [`Region::compact`] the list.
    pub(crate) fn remove_at(&mut self, index: u32, offset: u32) -> bool {
        let entry = &mut self.entries[index as usize];
        assert!(*entry & TOMBSTONE == 0, "entry {index} of {} removed twice", self.id);
        *entry = TOMBSTONE | offset;
        self.live -= 1;
        if self.live == 0 {
            self.entries.clear();
            return false;
        }
        self.needs_compaction()
    }

    /// True when tombstones outnumber live entries (and are at least
    /// `COMPACT_MIN`): the heap compacts the list as soon as this holds.
    pub(crate) fn needs_compaction(&self) -> bool {
        let removed = self.entries.len() as u32 - self.live;
        removed >= COMPACT_MIN && removed > self.live
    }

    /// Drops every tombstone, keeping the order of live entries, and calls
    /// `moved(object, new_index)` for each live object whose index changed.
    pub(crate) fn compact(&mut self, mut moved: impl FnMut(ObjectId, u32)) {
        let mut kept = 0;
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            if e & TOMBSTONE != 0 {
                continue;
            }
            if i != kept {
                self.entries[kept] = e;
                moved(ObjectId(e), kept as u32);
            }
            kept += 1;
        }
        self.entries.truncate(kept);
    }

    /// The list's entries in order, tombstones included.
    pub(crate) fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.entries.iter().map(|&e| decode(e))
    }

    /// The list entry at `index`, if the list is that long.
    pub(crate) fn entry(&self, index: u32) -> Option<Entry> {
        self.entries.get(index as usize).map(|&e| decode(e))
    }

    /// Objects overlapping the region-relative byte span `[start, end)`, in
    /// increasing-offset order. `span_of` gives a live object's
    /// `(offset, size)`.
    ///
    /// The list is sorted by offset, so a binary search finds the first
    /// entry that can overlap and only the entries up to `end` are read.
    /// Searching needs a key that rises along the list: a live object's end
    /// offset, and a tombstone's offset plus one (a lower bound on the end
    /// of the object it replaced, and no larger than the next entry's
    /// offset, since objects never overlap).
    pub(crate) fn objects_overlapping(
        &self,
        start: u32,
        end: u32,
        span_of: impl Fn(ObjectId) -> (u32, u32),
    ) -> Vec<ObjectId> {
        let key = |e: u32| match decode(e) {
            Entry::Live(id) => {
                let (offset, size) = span_of(id);
                offset + size
            }
            Entry::Removed(offset) => offset + 1,
        };
        let first = self.entries.partition_point(|&e| key(e) <= start);
        let mut found = Vec::new();
        for &e in &self.entries[first..] {
            match decode(e) {
                Entry::Live(id) => {
                    if span_of(id).0 >= end {
                        break;
                    }
                    found.push(id);
                }
                Entry::Removed(offset) if offset >= end => break,
                Entry::Removed(_) => {}
            }
        }
        found
    }

    /// End address (exclusive) of the allocated part of the region.
    pub fn allocated_end(&self) -> u64 {
        self.base + self.top as u64
    }

    /// The address range `[base, base + size)` of the whole region.
    pub fn address_range(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.size as u64
    }
}

fn decode(e: u32) -> Entry {
    if e & TOMBSTONE == 0 {
        Entry::Live(ObjectId(e))
    } else {
        Entry::Removed(e & !TOMBSTONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_monotonic() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 1024, true);
        assert_eq!(r.bump(100, ObjectId(0)), Some((0, 0)));
        assert_eq!(r.bump(200, ObjectId(1)), Some((100, 1)));
        assert_eq!(r.used(), 300);
        assert_eq!(r.free(), 724);
        assert_eq!(r.objects().collect::<Vec<_>>(), vec![ObjectId(0), ObjectId(1)]);
        assert_eq!(r.object_count(), 2);
    }

    #[test]
    fn bump_rejects_overflow_and_zero() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 128, true);
        assert_eq!(r.bump(0, ObjectId(0)), None);
        assert_eq!(r.bump(129, ObjectId(0)), None);
        assert_eq!(r.bump(128, ObjectId(0)), Some((0, 0)));
        assert_eq!(r.bump(1, ObjectId(1)), None);
    }

    #[test]
    fn kind_indices_are_dense() {
        let kinds = [
            RegionKind::Eden,
            RegionKind::Fg,
            RegionKind::Bg,
            RegionKind::Launch,
            RegionKind::Ws,
            RegionKind::Cold,
        ];
        assert_eq!(kinds.len(), RegionKind::COUNT);
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn foreground_kinds() {
        assert!(RegionKind::Eden.holds_foreground());
        assert!(RegionKind::Fg.holds_foreground());
        assert!(RegionKind::Launch.holds_foreground());
        assert!(RegionKind::Ws.holds_foreground());
        assert!(RegionKind::Cold.holds_foreground());
        assert!(!RegionKind::Bg.holds_foreground());
    }

    #[test]
    fn address_range_and_flags() {
        let mut r = Region::new(RegionId(3), RegionKind::Bg, 4096, 256, true);
        assert_eq!(r.address_range(), 4096..4352);
        assert!(r.newly_allocated());
        r.clear_newly_allocated();
        assert!(!r.newly_allocated());
        r.bump(10, ObjectId(9));
        assert_eq!(r.allocated_end(), 4106);
        r.remove_at(0, 0);
        assert!(r.is_empty());
        assert_eq!(r.objects().count(), 0);
    }

    #[test]
    fn removal_keeps_order_and_compacts() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 1 << 16, true);
        let n = 3 * COMPACT_MIN;
        for i in 0..n {
            assert_eq!(r.bump(16, ObjectId(i)), Some((16 * i, i)));
        }
        // Remove every even object: tombstones keep the list's order.
        let mut compact_at = None;
        for i in (0..n).step_by(2) {
            if r.remove_at(i, 16 * i) && compact_at.is_none() {
                compact_at = Some(i);
            }
        }
        let odd: Vec<ObjectId> = (1..n).step_by(2).map(ObjectId).collect();
        assert_eq!(r.objects().collect::<Vec<_>>(), odd);
        assert_eq!(compact_at, None, "half removed: tombstones do not outnumber live entries");
        assert!(r.remove_at(1, 16), "one more removal tips the balance");
        let mut moved = Vec::new();
        r.compact(|id, index| moved.push((id, index)));
        assert_eq!(r.entries().count(), r.object_count());
        assert_eq!(moved.first(), Some(&(ObjectId(3), 0)));
        assert_eq!(r.objects().collect::<Vec<_>>(), odd[1..].to_vec());
    }

    #[test]
    fn overlap_search_skips_to_the_span() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 4096, true);
        let sizes = [100u32, 1000, 50, 2000, 10];
        let mut spans = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let (offset, _) = r.bump(size, ObjectId(i as u32)).unwrap();
            spans.push((offset, size));
        }
        r.remove_at(2, spans[2].0);
        let span_of = |id: ObjectId| spans[id.0 as usize];
        // [1100, 1150) held object 2, now removed: object 1 ends at 1100.
        assert!(r.objects_overlapping(1100, 1150, span_of).is_empty());
        assert_eq!(r.objects_overlapping(1099, 1151, span_of), vec![ObjectId(1), ObjectId(3)]);
        assert_eq!(r.objects_overlapping(0, 4096, span_of).len(), 4);
        assert_eq!(r.objects_overlapping(3150, 3160, span_of), vec![ObjectId(4)]);
    }

    #[test]
    fn kind_display() {
        assert_eq!(RegionKind::Launch.to_string(), "launch");
        assert_eq!(RegionId(2).to_string(), "region#2");
    }
}
