//! Helpers for building NUMA placements from partitioning plans.
//!
//! HiPa's §3.4 layout keeps each logical array in one contiguous virtual
//! range whose *physical* pages follow the NUMA partitioning: the slice of
//! an array belonging to node `i`'s vertices (or partitions, or message
//! slots) lives on node `i`. These helpers translate "index boundary per
//! node" into the simulator's [`Placement::Blocked`] byte ranges.

use hipa_numasim::Placement;
use std::ops::Range;

/// Builds a blocked placement for an array of `elem_bytes`-sized elements
/// where node `i` owns indices `[ends[i-1], ends[i])` (with `ends[-1] = 0`).
/// `ends` must be non-decreasing; its last entry is the array length.
pub fn blocked_by_index(ends: &[u64], elem_bytes: usize) -> Placement {
    assert!(!ends.is_empty());
    let mut ranges = Vec::with_capacity(ends.len());
    let mut prev = 0u64;
    for (node, &e) in ends.iter().enumerate() {
        assert!(e >= prev, "index ends must be non-decreasing");
        ranges.push((e as usize * elem_bytes, node));
        prev = e;
    }
    Placement::Blocked(ranges)
}

/// Vertex-boundary ends (`plan.nodes[i].vertex_range.end`) as u64s — the
/// most common input to [`blocked_by_index`].
pub fn vertex_ends(plan: &hipa_partition::HiPaPlan) -> Vec<u64> {
    plan.nodes.iter().map(|n| n.vertex_range.end as u64).collect()
}

/// Per-node ends of an array cut into per-partition `ranges` (ascending and
/// contiguous, e.g. `PcpmLayout::part_slot_ranges`). Node vertex ranges are
/// partition-aligned, so a node's share ends where its last partition's
/// does; a node with no partitions before its end ends at 0.
pub fn part_ends(plan: &hipa_partition::HiPaPlan, ranges: &[Range<u64>]) -> Vec<u64> {
    let end = |parts_end: usize| parts_end.checked_sub(1).map_or(0, |p| ranges[p].end);
    plan.nodes.iter().map(|n| end(n.part_range.end)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_by_index_builds_byte_ranges() {
        let p = blocked_by_index(&[10, 25], 4);
        match p {
            Placement::Blocked(r) => assert_eq!(r, vec![(40, 0), (100, 1)]),
            _ => panic!("wrong placement kind"),
        }
    }

    #[test]
    fn empty_node_ranges_allowed() {
        let p = blocked_by_index(&[0, 16], 8);
        match p {
            Placement::Blocked(r) => assert_eq!(r, vec![(0, 0), (128, 1)]),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_rejected() {
        blocked_by_index(&[10, 5], 4);
    }
}
