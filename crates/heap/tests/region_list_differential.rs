//! Differential test of the offset-indexed region object lists.
//!
//! The reference model is the list the heap used to keep: a plain
//! `Vec<ObjectId>` per region, appended on allocation and edited with a
//! linear `position` plus an order-preserving `Vec::remove` on every copy
//! and free. Random scripts of allocations, copies, frees, sweeps and
//! region frees run against both; after every step each region's
//! `objects()` must equal the model's list, `objects_in_card` must equal
//! the old whole-region overlap filter over that list, and
//! `Heap::validate` must pass.

use fleet_heap::{AllocContext, Heap, HeapConfig, ObjectId, RegionId, RegionKind, SweepStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

const REGION: u32 = 32 * 1024;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate `size` bytes in the current context.
    Alloc { size: u32 },
    /// Allocate a burst of small objects (fills regions with many entries).
    Burst { count: u8 },
    /// Copy a live object into a to-region of some kind.
    Copy { pick: u8, kind: u8 },
    /// Free a live object.
    Free { pick: u8 },
    /// Free every other object of one region, oldest first.
    Thin { pick: u8 },
    /// Sweep every region, keeping the objects `keep` selects.
    Sweep { keep: u8 },
    /// Retire the allocation targets and free every empty region.
    FreeEmpty,
    /// Flip the allocation context.
    Flip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` takes no weights: repeats weight an arm.
    prop_oneof![
        (16u32..3000).prop_map(|size| Op::Alloc { size }),
        (16u32..3000).prop_map(|size| Op::Alloc { size }),
        (1u8..80).prop_map(|count| Op::Burst { count }),
        (any::<u8>(), 0u8..6).prop_map(|(pick, kind)| Op::Copy { pick, kind }),
        (any::<u8>(), 0u8..6).prop_map(|(pick, kind)| Op::Copy { pick, kind }),
        any::<u8>().prop_map(|pick| Op::Free { pick }),
        any::<u8>().prop_map(|pick| Op::Free { pick }),
        any::<u8>().prop_map(|pick| Op::Thin { pick }),
        any::<u8>().prop_map(|keep| Op::Sweep { keep }),
        Just(Op::FreeEmpty),
        Just(Op::Flip),
    ]
}

const KINDS: [RegionKind; 6] = [
    RegionKind::Eden,
    RegionKind::Fg,
    RegionKind::Bg,
    RegionKind::Launch,
    RegionKind::Ws,
    RegionKind::Cold,
];

/// The old region object lists.
#[derive(Default)]
struct Model {
    lists: BTreeMap<RegionId, Vec<ObjectId>>,
}

impl Model {
    fn add(&mut self, heap: &Heap, id: ObjectId) {
        self.lists.entry(heap.object(id).region()).or_default().push(id);
    }

    fn remove(&mut self, region: RegionId, id: ObjectId) {
        let list = self.lists.get_mut(&region).expect("model region");
        if let Some(pos) = list.iter().position(|&o| o == id) {
            list.remove(pos);
        }
    }
}

/// The old `objects_in_card`: every object of the card's region, filtered
/// for overlap with the card.
fn objects_in_card_reference(heap: &Heap, model: &Model, card: usize) -> Vec<ObjectId> {
    let range = heap.cards().card_range(card);
    let Some(rid) = heap.region_of_addr(range.start) else {
        return Vec::new();
    };
    let base = heap.region(rid).base();
    model.lists[&rid]
        .iter()
        .copied()
        .filter(|&id| {
            let o = heap.object(id);
            let addr = base + o.offset() as u64;
            addr < range.end && addr + o.size() as u64 > range.start
        })
        .collect()
}

fn pick(heap: &Heap, index: u8) -> Option<ObjectId> {
    let live = heap.live_objects() as usize;
    (live > 0).then(|| heap.object_ids().nth(index as usize % live).expect("live object"))
}

fn check(heap: &Heap, model: &Model) -> Result<(), TestCaseError> {
    heap.validate().map_err(TestCaseError::fail)?;
    let mapped: Vec<RegionId> = heap.region_ids();
    let modelled: Vec<RegionId> = model.lists.keys().copied().collect();
    prop_assert_eq!(&mapped, &modelled);
    for rid in mapped {
        let region = heap.region(rid);
        let objects: Vec<ObjectId> = region.objects().collect();
        prop_assert_eq!(&objects, &model.lists[&rid], "{} list order", rid);
        prop_assert_eq!(region.object_count(), objects.len());
        let first = heap.cards().card_of(region.base());
        let last = heap.cards().card_of(region.base() + region.size() as u64 - 1);
        for card in first..=last {
            prop_assert_eq!(
                heap.objects_in_card(card),
                objects_in_card_reference(heap, model, card),
                "card {} of {}",
                card,
                rid
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn region_lists_match_the_linear_reference(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut heap = Heap::new(HeapConfig {
            region_size: REGION,
            initial_limit: 4 * REGION as u64,
            ..HeapConfig::default()
        });
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Alloc { size } => {
                    let id = heap.alloc(size);
                    model.add(&heap, id);
                }
                Op::Burst { count } => {
                    for i in 0..count {
                        let id = heap.alloc(16 + 8 * (i as u32 % 5));
                        model.add(&heap, id);
                    }
                }
                Op::Copy { pick: p, kind } => {
                    if let Some(id) = pick(&heap, p) {
                        let from = heap.object(id).region();
                        heap.copy_object(id, KINDS[kind as usize]);
                        model.remove(from, id);
                        model.add(&heap, id);
                    }
                }
                Op::Free { pick: p } => {
                    if let Some(id) = pick(&heap, p) {
                        let from = heap.object(id).region();
                        heap.free_object(id);
                        model.remove(from, id);
                    }
                }
                Op::Thin { pick: p } => {
                    if let Some(id) = pick(&heap, p) {
                        let rid = heap.object(id).region();
                        let victims: Vec<ObjectId> =
                            model.lists[&rid].iter().copied().step_by(2).collect();
                        for victim in victims {
                            heap.free_object(victim);
                            model.remove(rid, victim);
                        }
                    }
                }
                Op::Sweep { keep } => {
                    heap.retire_alloc_targets();
                    let is_live = |o: ObjectId| !(o.0 as u8 ^ keep).is_multiple_of(3);
                    let from = heap.region_ids();
                    // The old sweep: per region, in list order.
                    let mut expect = SweepStats::default();
                    for rid in &from {
                        let list = model.lists.get_mut(rid).expect("model region");
                        for &o in list.iter().filter(|&&o| !is_live(o)) {
                            expect.objects_freed += 1;
                            expect.bytes_freed += heap.object(o).size() as u64;
                        }
                        list.retain(|&o| is_live(o));
                        if list.is_empty() {
                            model.lists.remove(rid);
                            expect.regions_freed += 1;
                        }
                    }
                    prop_assert_eq!(heap.sweep_regions(&from, is_live), expect);
                }
                Op::FreeEmpty => {
                    heap.retire_alloc_targets();
                    let empty: Vec<RegionId> =
                        model.lists.iter().filter(|(_, l)| l.is_empty()).map(|(&r, _)| r).collect();
                    for rid in empty {
                        prop_assert!(heap.region(rid).is_empty());
                        heap.free_region(rid);
                        model.lists.remove(&rid);
                    }
                }
                Op::Flip => {
                    let next = match heap.context() {
                        AllocContext::Foreground => AllocContext::Background,
                        AllocContext::Background => AllocContext::Foreground,
                    };
                    heap.set_context(next);
                }
            }
            check(&heap, &model)?;
        }
    }
}

/// A sweep over lists holding tombstones frees exactly the rejected
/// objects and releases only the regions it empties.
#[test]
fn sweep_skips_tombstones() {
    let mut heap =
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() });
    let ids: Vec<ObjectId> = (0..12).map(|_| heap.alloc(1000)).collect();
    heap.retire_alloc_targets();
    heap.copy_object(ids[1], RegionKind::Fg);
    heap.copy_object(ids[6], RegionKind::Fg);
    let regions: Vec<RegionId> = heap.region_ids().into_iter().rev().collect();
    let swept = heap.sweep_regions(&regions, |o| o.0 % 2 == 1);
    let dead: Vec<ObjectId> = ids.iter().copied().filter(|o| o.0 % 2 == 0).collect();
    assert_eq!(swept.objects_freed, dead.len() as u64);
    assert_eq!(swept.bytes_freed, 1000 * dead.len() as u64);
    assert!(dead.iter().all(|&o| !heap.contains(o)));
    assert_eq!(heap.live_objects(), 6);
    heap.validate().unwrap();
}
