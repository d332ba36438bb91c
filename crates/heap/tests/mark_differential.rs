//! Differential tests: dense [`ObjectMarks`] bitmaps against the `HashSet`
//! visited sets they replaced in the tracing collectors.
//!
//! The same depth-first traversal runs twice over a random object graph —
//! once deduplicating through a `HashSet<ObjectId>`, once through an
//! `ObjectMarks` bitmap — and must produce the identical visit order and
//! the identical final mark set. Random insert/remove scripts additionally
//! pin the bitmap's set semantics to the `HashSet` reference, and the dense
//! [`depth_bands`] BFS is checked against the `HashMap`-based [`depth_map`]
//! it stands in for on the hot-launch path.

use fleet_heap::{depth_bands, depth_map, Heap, HeapConfig, ObjectId, ObjectMarks, UNREACHED};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
struct GraphSpec {
    sizes: Vec<u32>,
    edges: Vec<(usize, usize)>,
    roots: Vec<usize>,
}

fn graph_strategy(max_objects: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_objects).prop_flat_map(|n| {
        let sizes = proptest::collection::vec(16u32..512, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..4 * n);
        let roots = proptest::collection::vec(0..n, 1..4);
        (sizes, edges, roots).prop_map(|(sizes, edges, roots)| GraphSpec { sizes, edges, roots })
    })
}

fn build(spec: &GraphSpec) -> (Heap, Vec<ObjectId>) {
    let mut heap = Heap::new(HeapConfig::default());
    let ids: Vec<ObjectId> = spec.sizes.iter().map(|&s| heap.alloc(s)).collect();
    for &(from, to) in &spec.edges {
        heap.add_ref(ids[from], ids[to]);
    }
    for &r in &spec.roots {
        heap.add_root(ids[r]);
    }
    (heap, ids)
}

/// DFS from the roots, deduplicating through `seen` (a closure pair so the
/// same traversal body serves both set representations).
fn trace(heap: &Heap, mut mark: impl FnMut(ObjectId) -> bool) -> Vec<ObjectId> {
    let mut order = Vec::new();
    let mut stack: Vec<ObjectId> = Vec::new();
    for &root in heap.roots() {
        if heap.contains(root) && mark(root) {
            order.push(root);
            stack.push(root);
        }
    }
    while let Some(obj) = stack.pop() {
        for &next in heap.object(obj).refs() {
            if heap.contains(next) && mark(next) {
                order.push(next);
                stack.push(next);
            }
        }
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_trace_matches_hashset_trace(spec in graph_strategy(120)) {
        let (heap, ids) = build(&spec);

        let mut set: HashSet<ObjectId> = HashSet::new();
        let set_order = trace(&heap, |id| set.insert(id));

        let mut marks = ObjectMarks::for_heap(&heap);
        let mark_order = trace(&heap, |id| marks.insert(id));

        // Same traversal, same dedup answers → identical visit order.
        prop_assert_eq!(&set_order, &mark_order);
        prop_assert_eq!(set.len(), marks.len());
        for &id in &ids {
            prop_assert_eq!(set.contains(&id), marks.contains(id));
        }
        // The bitmap iterates ascending; the HashSet sorted must agree.
        let mut sorted: Vec<ObjectId> = set.into_iter().collect();
        sorted.sort();
        prop_assert_eq!(sorted, marks.iter().collect::<Vec<_>>());
    }

    /// Random graphs (cycles, diamonds and unreachable islands come from the
    /// random edge list) with some non-root objects freed, leaving dead slots
    /// and dangling edges: the dense bands are the `depth_map` depths
    /// saturated at the horizon, and exactly its keys are reached.
    #[test]
    fn depth_bands_match_depth_map(
        spec in graph_strategy(120),
        freed in proptest::collection::vec(0usize..120, 0..12),
        horizon in 0u8..6,
    ) {
        let (mut heap, ids) = build(&spec);
        for i in freed {
            let id = ids[i % ids.len()];
            if heap.contains(id) && !heap.roots().contains(&id) {
                heap.free_object(id);
            }
        }
        let depths = depth_map(&heap, None);
        let bands = depth_bands(&heap, horizon);
        prop_assert_eq!(bands.len(), heap.object_slots());
        for &id in &ids {
            let expect = match depths.get(&id) {
                Some(&d) => d.min(u32::from(horizon) + 1) as u8,
                None => UNREACHED,
            };
            prop_assert_eq!(bands[id.0 as usize], expect, "object {}", id);
        }
    }

    /// Random insert/remove scripts: the bitmap is a drop-in `HashSet`.
    #[test]
    fn bitmap_set_semantics_match_hashset(
        ops in proptest::collection::vec((any::<bool>(), 0usize..64), 1..200),
    ) {
        let mut heap = Heap::new(HeapConfig::default());
        let ids: Vec<ObjectId> = (0..64).map(|_| heap.alloc(16)).collect();

        let mut set: HashSet<ObjectId> = HashSet::new();
        let mut marks = ObjectMarks::for_heap(&heap);
        for (insert, i) in ops {
            let id = ids[i];
            if insert {
                prop_assert_eq!(set.insert(id), marks.insert(id));
            } else {
                prop_assert_eq!(set.remove(&id), marks.remove(id));
            }
            prop_assert_eq!(set.len(), marks.len());
            prop_assert_eq!(set.is_empty(), marks.is_empty());
        }
    }
}
