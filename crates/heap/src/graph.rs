//! Reference-graph utilities: reachability and BFS depth from the roots.
//!
//! The paper defines *near-roots objects* (NRO) as objects whose shortest
//! path from the roots is at most a depth parameter D (§4.2). [`depth_map`]
//! computes exactly that shortest-path depth with a breadth-first search —
//! the same traversal order the RGS grouping GC uses (§5.3.1).
//! [`depth_bands`] gives the same depths, saturated, on dense slot indices,
//! for callers that only need to know, per object, "depth ≤ D, deeper, or
//! unreachable".

use crate::heap::Heap;
use crate::object::ObjectId;
use std::collections::{HashMap, HashSet, VecDeque};

/// BFS shortest-path depth from the root set for every reachable object.
///
/// Roots have depth 0. Traversal stops expanding past `max_depth` if given,
/// so callers that only need "depth ≤ D" pay O(|NRO|) not O(|heap|).
///
/// # Examples
///
/// ```
/// use fleet_heap::{depth_map, Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let root = heap.alloc(16);
/// let child = heap.alloc(16);
/// let grandchild = heap.alloc(16);
/// heap.add_root(root);
/// heap.add_ref(root, child);
/// heap.add_ref(child, grandchild);
/// let depths = depth_map(&heap, None);
/// assert_eq!(depths[&root], 0);
/// assert_eq!(depths[&grandchild], 2);
/// ```
pub fn depth_map(heap: &Heap, max_depth: Option<u32>) -> HashMap<ObjectId, u32> {
    let mut depths: HashMap<ObjectId, u32> = HashMap::new();
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    for &root in heap.roots() {
        if heap.contains(root) && !depths.contains_key(&root) {
            depths.insert(root, 0);
            queue.push_back(root);
        }
    }
    while let Some(obj) = queue.pop_front() {
        let d = depths[&obj];
        if max_depth.is_some_and(|m| d >= m) {
            continue;
        }
        for &next in heap.object(obj).refs() {
            if heap.contains(next) && !depths.contains_key(&next) {
                depths.insert(next, d + 1);
                queue.push_back(next);
            }
        }
    }
    depths
}

/// The [`depth_bands`] value of a dead slot or an object the roots do not
/// reach.
pub const UNREACHED: u8 = u8::MAX;

/// Marks a reached object whose references are still to be followed.
const PENDING: u8 = UNREACHED - 1;

/// BFS depth from the root set, banded, for every arena slot.
///
/// Returns one byte per slot (`heap.object_slots()` entries, indexed by
/// `ObjectId.0`): the object's shortest-path depth from the roots,
/// saturated at `horizon + 1`, or [`UNREACHED`] for dead slots and
/// unreachable objects. Unlike `depth_map(heap, Some(horizon))` the search
/// does not stop at the horizon, so reachability is exact. [`depth_map`]
/// remains the reference: `bands[o] == min(depth_map[o], horizon + 1)` for
/// every `o` it reaches, and `UNREACHED` for every other slot.
///
/// # Panics
///
/// Panics if `horizon + 1` would collide with the internal markers.
///
/// # Examples
///
/// ```
/// use fleet_heap::{depth_bands, Heap, HeapConfig, UNREACHED};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let chain: Vec<_> = (0..5).map(|_| heap.alloc(16)).collect();
/// let garbage = heap.alloc(16);
/// heap.add_root(chain[0]);
/// for w in chain.windows(2) {
///     heap.add_ref(w[0], w[1]);
/// }
/// let bands = depth_bands(&heap, 2);
/// let band = |o: fleet_heap::ObjectId| bands[o.0 as usize];
/// assert_eq!(chain.iter().map(|&o| band(o)).collect::<Vec<_>>(), [0, 1, 2, 3, 3]);
/// assert_eq!(band(garbage), UNREACHED);
/// ```
pub fn depth_bands(heap: &Heap, horizon: u8) -> Vec<u8> {
    assert!(horizon < PENDING - 1, "depth horizon {horizon} collides with the band markers");
    let saturated = horizon + 1;
    let mut bands = vec![UNREACHED; heap.object_slots()];
    // Liveness is checked when an object is expanded, not when it is
    // reached: the arena entry is read once per object instead of twice. A
    // dangling edge's dead target has no refs to follow and is reset to
    // UNREACHED, so it never lends a depth to a live object.
    //
    // Exact depths up to the horizon: a BFS over the near-root tier, with a
    // `Vec` queue and a head index. Objects one level past it are left
    // PENDING.
    let mut queue: Vec<ObjectId> = Vec::new();
    for &root in heap.roots() {
        if heap.contains(root) && bands[root.0 as usize] == UNREACHED {
            bands[root.0 as usize] = 0;
            queue.push(root);
        }
    }
    let mut head = 0;
    while let Some(&obj) = queue.get(head) {
        head += 1;
        let Some(object) = heap.try_object(obj) else {
            bands[obj.0 as usize] = UNREACHED;
            continue;
        };
        let band = bands[obj.0 as usize] + 1;
        for &next in object.refs() {
            let slot = &mut bands[next.0 as usize];
            if *slot == UNREACHED {
                if band < saturated {
                    *slot = band;
                    queue.push(next);
                } else {
                    *slot = PENDING;
                }
            }
        }
    }
    // Past the horizon only reachability is left, and depth order no longer
    // matters: sweep the slots in ascending order and expand each PENDING
    // object. Edges mostly point from older to newer objects, i.e. ahead of
    // the sweep, which then reads the arena sequentially. Targets behind
    // the sweep are expanded at once from a stack, so every object is
    // expanded exactly once.
    let mut behind = queue;
    behind.clear();
    for sweep in 0..bands.len() {
        if bands[sweep] != PENDING {
            continue;
        }
        behind.push(ObjectId(sweep as u32));
        while let Some(obj) = behind.pop() {
            let Some(object) = heap.try_object(obj) else {
                bands[obj.0 as usize] = UNREACHED;
                continue;
            };
            bands[obj.0 as usize] = saturated;
            for &next in object.refs() {
                let slot = &mut bands[next.0 as usize];
                if *slot == UNREACHED {
                    *slot = PENDING;
                    if (next.0 as usize) < sweep {
                        behind.push(next);
                    }
                }
            }
        }
    }
    bands
}

/// The set of objects reachable from the roots.
pub fn reachable_set(heap: &Heap) -> HashSet<ObjectId> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut stack: Vec<ObjectId> =
        heap.roots().iter().copied().filter(|&r| heap.contains(r)).collect();
    seen.extend(stack.iter().copied());
    while let Some(obj) = stack.pop() {
        for &next in heap.object(obj).refs() {
            if heap.contains(next) && seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;

    fn chain(n: usize) -> (Heap, Vec<ObjectId>) {
        let mut h = Heap::new(HeapConfig::default());
        let ids: Vec<ObjectId> = (0..n).map(|_| h.alloc(16)).collect();
        h.add_root(ids[0]);
        for w in ids.windows(2) {
            h.add_ref(w[0], w[1]);
        }
        (h, ids)
    }

    #[test]
    fn depths_along_a_chain() {
        let (h, ids) = chain(5);
        let depths = depth_map(&h, None);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(depths[id], i as u32);
        }
    }

    #[test]
    fn max_depth_truncates() {
        let (h, ids) = chain(10);
        let depths = depth_map(&h, Some(3));
        assert_eq!(depths.len(), 4); // depths 0..=3
        assert!(!depths.contains_key(&ids[4]));
    }

    #[test]
    fn shortest_path_wins_on_diamonds() {
        let mut h = Heap::new(HeapConfig::default());
        let root = h.alloc(16);
        let a = h.alloc(16);
        let b = h.alloc(16);
        h.add_root(root);
        h.add_ref(root, a);
        h.add_ref(a, b);
        h.add_ref(root, b); // direct shortcut
        let depths = depth_map(&h, None);
        assert_eq!(depths[&b], 1);
    }

    #[test]
    fn unreachable_objects_are_absent() {
        let mut h = Heap::new(HeapConfig::default());
        let root = h.alloc(16);
        let garbage = h.alloc(16);
        h.add_root(root);
        let depths = depth_map(&h, None);
        assert!(!depths.contains_key(&garbage));
        let reach = reachable_set(&h);
        assert!(reach.contains(&root));
        assert!(!reach.contains(&garbage));
    }

    #[test]
    fn cycles_terminate() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(16);
        let b = h.alloc(16);
        h.add_root(a);
        h.add_ref(a, b);
        h.add_ref(b, a);
        let depths = depth_map(&h, None);
        assert_eq!(depths.len(), 2);
        assert_eq!(reachable_set(&h).len(), 2);
    }

    #[test]
    fn empty_roots_reach_nothing() {
        let mut h = Heap::new(HeapConfig::default());
        h.alloc(16);
        assert!(depth_map(&h, None).is_empty());
        assert!(reachable_set(&h).is_empty());
        assert_eq!(depth_bands(&h, 2), vec![UNREACHED]);
    }

    #[test]
    fn bands_skip_dead_slots_and_dangling_refs() {
        let (mut h, ids) = chain(4);
        // ids[1] still points at the dead slot. Horizon 2 meets it in the
        // BFS, horizon 0 in the sweep.
        h.free_object(ids[2]);
        for horizon in [2, 0] {
            let bands = depth_bands(&h, horizon);
            assert_eq!(bands[ids[1].0 as usize], 1);
            assert_eq!(bands[ids[2].0 as usize], UNREACHED);
            assert_eq!(bands[ids[3].0 as usize], UNREACHED, "only reachable through the dead slot");
        }
    }
}
