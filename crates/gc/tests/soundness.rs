//! Cross-collector soundness: arbitrary interleavings of every collector
//! with mutation in between must never create dangling references or free
//! reachable objects.
//!
//! This is exactly the bug class the card-table remembered sets guard
//! against (BGC, incremental re-grouping and the minor GC all consume and
//! must selectively preserve card information), so it gets its own
//! adversarial property test.

use fleet_gc::{
    BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GroupingGc, MarvinGc, MemoryTouch,
    MinorGc, NoTouch,
};
use fleet_heap::{reachable_set, AllocContext, Heap, HeapConfig, ObjectId};
use fleet_sim::SimDuration;
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate an object of the given size; attach it under an existing
    /// live object when the flag is set (else it is instant garbage).
    Alloc { size: u32, attach: bool, anchor: u8 },
    /// Add a reference between two existing live objects.
    Link { from: u8, to: u8 },
    /// Remove the first outgoing reference of an object.
    Unlink { from: u8 },
    /// Flip the allocation context (foreground ↔ background).
    FlipContext,
    /// Run a collector: 0=full, 1=minor, 2=bgc, 3=grouping(full),
    /// 4=grouping(incremental), 5=marvin.
    Collect { which: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (16u32..2048, any::<bool>(), any::<u8>()).prop_map(|(size, attach, anchor)| Op::Alloc {
            size,
            attach,
            anchor
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(from, to)| Op::Link { from, to }),
        any::<u8>().prop_map(|from| Op::Unlink { from }),
        Just(Op::FlipContext),
        (0u8..6).prop_map(|which| Op::Collect { which }),
    ]
}

/// Picks a live object deterministically from an index byte.
fn pick(heap: &Heap, index: u8) -> Option<ObjectId> {
    let ids: Vec<ObjectId> = heap.object_ids().collect();
    if ids.is_empty() {
        None
    } else {
        Some(ids[index as usize % ids.len()])
    }
}

/// Applies a mutator op (anything but [`Op::Collect`], which is ignored).
fn mutate(heap: &mut Heap, op: Op) {
    match op {
        Op::Alloc { size, attach, anchor } => {
            let obj = heap.alloc(size);
            if attach {
                if let Some(target) = pick(heap, anchor) {
                    if target != obj {
                        heap.add_ref(target, obj);
                    }
                }
            }
        }
        Op::Link { from, to } => {
            if let (Some(f), Some(t)) = (pick(heap, from), pick(heap, to)) {
                heap.add_ref(f, t);
            }
        }
        Op::Unlink { from } => {
            if let Some(f) = pick(heap, from) {
                if let Some(&victim) = heap.object(f).refs().first() {
                    heap.remove_ref(f, victim);
                }
            }
        }
        Op::FlipContext => {
            let next = match heap.context() {
                AllocContext::Foreground => AllocContext::Background,
                AllocContext::Background => AllocContext::Foreground,
            };
            heap.set_context(next);
        }
        Op::Collect { .. } => {}
    }
}

/// Grants copies until `left` bytes are used, then denies them (an armed
/// fault plan's copy budget), so evacuations can abort mid-way; `None`
/// grants every copy.
struct Budget {
    left: Option<u64>,
}

impl MemoryTouch for Budget {
    fn touch(&mut self, _addr: u64, _size: u32) -> SimDuration {
        SimDuration::ZERO
    }

    fn copy_budget(&mut self, bytes: u64) -> bool {
        match &mut self.left {
            None => true,
            Some(left) if *left >= bytes => {
                *left -= bytes;
                true
            }
            Some(_) => false,
        }
    }
}

/// Everything a collector can leave behind that later steps observe.
fn heap_state(heap: &Heap) -> String {
    let objects: Vec<_> = heap
        .object_ids()
        .map(|id| {
            let o = heap.object(id);
            (id, o.region(), o.offset(), o.class(), o.context(), o.refs().to_vec())
        })
        .collect();
    let regions: Vec<_> = heap
        .regions()
        .map(|r| (r.id(), r.kind(), r.used(), r.newly_allocated(), r.objects().collect::<Vec<_>>()))
        .collect();
    let cards: Vec<usize> = heap.cards().dirty_cards().collect();
    format!("{objects:?}\n{regions:?}\n{cards:?}\n{:?}\n{}", heap.stats(), heap.gc_epoch())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_collector_interleaving_is_sound(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut heap = Heap::new(HeapConfig::default());
        let root = heap.alloc(64);
        heap.add_root(root);
        let mut marvin = MarvinGc::new(GcCostModel::default(), 1024);
        let mut groupings = 0u32;

        for op in ops {
            match op {
                Op::Collect { which } => {
                    let live_before = reachable_set(&heap);
                    match which {
                        0 => {
                            FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
                        }
                        1 => {
                            MinorGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
                        }
                        2 => {
                            BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
                        }
                        3 | 4 => {
                            let incremental = which == 4 && groupings > 0;
                            groupings += 1;
                            GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
                                .with_incremental(incremental)
                                .collect_grouping(&mut heap, &mut NoTouch);
                        }
                        _ => {
                            marvin.collect(&mut heap, &mut NoTouch);
                        }
                    }
                    // Every reachable object survived the collection.
                    for &id in &live_before {
                        prop_assert!(heap.contains(id), "collector {which} freed reachable {id}");
                    }
                    // No dangling references, and region lists agree with
                    // the arena.
                    prop_assert!(heap.validate().is_ok(), "{:?}", heap.validate());
                }
                _ => mutate(&mut heap, op),
            }
            // The root never dies; accounting stays coherent.
            prop_assert!(heap.contains(root));
            prop_assert!(heap.live_bytes() <= heap.used_bytes());
        }
    }

    /// Differential tracing: ART's full GC walks the graph depth-first,
    /// Fleet's grouping GC breadth-first with a FIFO mark queue (§5.3.1).
    /// Traversal order must never change *what* is live — on any random
    /// object graph both collectors keep exactly the reachable set and
    /// identical survivor byte counts.
    #[test]
    fn dfs_and_bfs_tracing_agree_on_liveness(
        sizes in proptest::collection::vec(16u32..512, 1..40),
        edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..120),
        extra_roots in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut heap = Heap::new(HeapConfig::default());
        let ids: Vec<ObjectId> = sizes.iter().map(|&s| heap.alloc(s)).collect();
        heap.add_root(ids[0]);
        for &r in &extra_roots {
            heap.add_root(ids[r as usize % ids.len()]);
        }
        for &(from, to) in &edges {
            let f = ids[from as usize % ids.len()];
            let t = ids[to as usize % ids.len()];
            if f != t {
                heap.add_ref(f, t);
            }
        }
        let expected = reachable_set(&heap);
        let expected_bytes: u64 =
            expected.iter().map(|&id| heap.object(id).size() as u64).sum();

        let mut dfs_heap = heap.clone();
        let dfs = FullCopyingGc::new(GcCostModel::default()).collect(&mut dfs_heap, &mut NoTouch);
        let mut bfs_heap = heap;
        let (bfs, _) = GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
            .collect_grouping(&mut bfs_heap, &mut NoTouch);

        let dfs_live: HashSet<ObjectId> = dfs_heap.object_ids().collect();
        let bfs_live: HashSet<ObjectId> = bfs_heap.object_ids().collect();
        prop_assert_eq!(&dfs_live, &expected, "DFS live set diverges from reachability");
        prop_assert_eq!(&bfs_live, &expected, "BFS live set diverges from reachability");
        prop_assert_eq!(dfs_heap.live_bytes(), expected_bytes);
        prop_assert_eq!(bfs_heap.live_bytes(), expected_bytes);
        // Both copy every survivor exactly once and trace the same count.
        prop_assert_eq!(dfs.bytes_copied, expected_bytes);
        prop_assert_eq!(bfs.bytes_copied, expected_bytes);
        prop_assert_eq!(dfs.objects_traced, expected.len() as u64);
        prop_assert_eq!(bfs.objects_traced, expected.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential oracle for the dense grouping GC: the same op scripts
    /// run on two copies of a heap, one grouped by `collect_grouping`, the
    /// other by the hashed-set `collect_grouping_reference`, with random
    /// working-set hints, NRO depths and copy budgets (so evacuations may
    /// abort). Statistics, outcomes and every observable piece of heap
    /// state must stay identical, and both heaps must validate after every
    /// op.
    #[test]
    fn dense_grouping_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        ws_mask in any::<u8>(),
        depth in 0u32..4,
        budget in 0u64..40_000,
    ) {
        // Half the cases copy without limit.
        let budget = (budget < 20_000).then_some(budget);
        let mut heap = Heap::new(HeapConfig::default());
        let root = heap.alloc(64);
        heap.add_root(root);
        let mut reference = heap.clone();
        let (mut marvin, mut ref_marvin) =
            (MarvinGc::new(GcCostModel::default(), 1024), MarvinGc::new(GcCostModel::default(), 1024));
        let mut groupings = 0u32;
        let cost = GcCostModel::default();

        for op in ops {
            match op {
                Op::Collect { which: which @ (3 | 4) } => {
                    let incremental = which == 4 && groupings > 0;
                    groupings += 1;
                    let ws: Vec<ObjectId> =
                        heap.object_ids().filter(|o| (o.0 as u8 ^ ws_mask).is_multiple_of(4)).collect();
                    let got = GroupingGc::new(cost, depth, ws.clone())
                        .with_incremental(incremental)
                        .collect_grouping(&mut heap, &mut Budget { left: budget });
                    let want = GroupingGc::new(cost, depth, ws)
                        .with_incremental(incremental)
                        .collect_grouping_reference(&mut reference, &mut Budget { left: budget });
                    prop_assert_eq!(got, want);
                }
                Op::Collect { which } => {
                    for (h, m) in [(&mut heap, &mut marvin), (&mut reference, &mut ref_marvin)] {
                        let mut touch = Budget { left: budget };
                        match which {
                            0 => FullCopyingGc::new(cost).collect(h, &mut touch),
                            1 => MinorGc::new(cost).collect(h, &mut touch),
                            2 => BackgroundObjectGc::new(cost).collect(h, &mut touch),
                            _ => m.collect(h, &mut touch),
                        };
                    }
                }
                _ => {
                    mutate(&mut heap, op);
                    mutate(&mut reference, op);
                }
            }
            prop_assert!(heap.validate().is_ok(), "{:?}", heap.validate());
            prop_assert!(reference.validate().is_ok(), "{:?}", reference.validate());
            prop_assert_eq!(heap_state(&heap), heap_state(&reference));
        }
    }
}

/// Regression: a *young* FGO holding the only edge to a BGO. The write
/// barrier dirties the young object's card; the minor GC's card aging must
/// preserve it for the surviving object (BGC's remembered set), or the next
/// BGC frees a reachable BGO and leaves a dangling reference — found by the
/// 10k-device population sweep, where the following grouping GC panicked on
/// the dangle.
#[test]
fn minor_gc_preserves_young_fgo_to_bgo_cards() {
    let mut heap = Heap::new(HeapConfig::default());
    let root = heap.alloc(64);
    heap.add_root(root);

    // A background object, reachable only through a young FGO.
    heap.set_context(AllocContext::Background);
    let bgo = heap.alloc(64);
    heap.set_context(AllocContext::Foreground);

    // Flush newly-allocated state so the next alloc opens a fresh young
    // region, then create the young FGO with the only edge to the BGO.
    heap.clear_newly_allocated_flags();
    let young = heap.alloc(64);
    heap.add_ref(root, young);
    heap.add_ref(young, bgo);

    MinorGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    assert!(heap.contains(young));
    assert!(heap.contains(bgo), "minor GC must not free the BGO");

    BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    assert!(heap.contains(bgo), "BGC freed a BGO still referenced by a live young FGO");
    assert!(heap.validate().is_ok(), "{:?}", heap.validate());
}
