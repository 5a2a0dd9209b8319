//! `layout_builds_total` bumps exactly once per PCPM layout build, for every
//! worker count and for the empty graph. The counter is process-global, so
//! this binary holds a single test: sibling tests building layouts
//! concurrently would race its deltas.

use hipa::core::{layout_builds_total, PcpmLayout};
use hipa::graph::{DiGraph, EdgeList};

#[test]
fn every_layout_build_counts_once() {
    let graphs = [
        hipa::graph::datasets::small_test_graph(3),
        DiGraph::from_edge_list(&EdgeList::new(0, Vec::new())),
    ];
    for g in &graphs {
        for threads in 1..=4 {
            let before = layout_builds_total();
            let _layout = PcpmLayout::build_par_ext(g.out_csr(), 64, false, true, threads);
            assert_eq!(layout_builds_total() - before, 1, "threads={threads}");
        }
        let before = layout_builds_total();
        let _layout = PcpmLayout::build(g.out_csr(), 7, true);
        assert_eq!(layout_builds_total() - before, 1);
    }
}
