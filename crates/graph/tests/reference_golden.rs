//! Golden tests for the sequential reference kernels on a small
//! hand-computed graph.
//!
//! The integration suite validates the cycle-level simulator *against* these
//! references, so a simulator-vs-reference failure is only attributable if
//! the references themselves are pinned to hand-checked values.  Every
//! expected array below was computed by hand from the drawn graph.

use dalorex_graph::reference::{self, PAGERANK_DAMPING, PAGERANK_ONE, UNREACHED};
use dalorex_graph::{CsrGraph, Edge, EdgeList};

/// The hand-computed fixture, drawn out:
///
/// ```text
///        (2)          (7)
///   0 --------> 1 --------> 3
///   |           ^           |
///   | (5)   (1) |           | (1)
///   v           |           v
///   2 ----------+           4          5 <--> 6   (weight 3 both ways)
///        ^------------------/
///              (4)
/// ```
///
/// Edges: 0->1 (2), 0->2 (5), 2->1 (1), 1->3 (7), 3->4 (1), 4->2 (4),
/// 5->6 (3), 6->5 (3).  Vertices {0..4} form one weak component; {5, 6}
/// form another.
fn golden_graph() -> CsrGraph {
    let edges = EdgeList::from_edges(
        7,
        [
            Edge::new(0, 1, 2),
            Edge::new(0, 2, 5),
            Edge::new(2, 1, 1),
            Edge::new(1, 3, 7),
            Edge::new(3, 4, 1),
            Edge::new(4, 2, 4),
            Edge::new(5, 6, 3),
            Edge::new(6, 5, 3),
        ],
    )
    .unwrap();
    CsrGraph::from_edge_list(&edges)
}

#[test]
fn golden_bfs_from_vertex_zero() {
    // Hops: 0 -> 0; 1, 2 -> 1; 3 -> 2 (via 1); 4 -> 3 (via 3); 5, 6
    // unreachable from 0.
    let result = reference::bfs(&golden_graph(), 0);
    assert_eq!(result.depths(), &[0, 1, 1, 2, 3, UNREACHED, UNREACHED]);
    assert_eq!(result.reached(), 5);
}

#[test]
fn golden_bfs_from_vertex_five() {
    // The {5, 6} component is closed: nothing else is reachable.
    let result = reference::bfs(&golden_graph(), 5);
    assert_eq!(
        result.depths(),
        &[UNREACHED, UNREACHED, UNREACHED, UNREACHED, UNREACHED, 0, 1]
    );
}

#[test]
fn golden_sssp_from_vertex_zero() {
    // Distances: d(1) = 2 direct (cheaper than 0->2->1 = 6); d(2) = 5;
    // d(3) = d(1) + 7 = 9; d(4) = d(3) + 1 = 10; 5, 6 unreachable.
    let result = reference::sssp(&golden_graph(), 0);
    assert_eq!(result.distances(), &[0, 2, 5, 9, 10, UNREACHED, UNREACHED]);
}

#[test]
fn golden_sssp_prefers_multi_hop_path() {
    // From vertex 4: d(2) = 4, then d(1) = 4 + 1 = 5, d(3) = 5 + 7 = 12,
    // and back to 4 is never shorter than 0.
    let result = reference::sssp(&golden_graph(), 4);
    assert_eq!(
        result.distances(),
        &[UNREACHED, 5, 4, 12, 0, UNREACHED, UNREACHED]
    );
}

#[test]
fn golden_wcc_labels_two_components() {
    // Weak connectivity ignores direction: {0,1,2,3,4} labelled 0 and
    // {5,6} labelled 5.
    let result = reference::wcc(&golden_graph());
    assert_eq!(result.labels(), &[0, 0, 0, 0, 0, 5, 5]);
    assert_eq!(result.num_components(), 2);
}

#[test]
fn golden_pagerank_one_epoch_by_hand() {
    // One push epoch from all-ones ranks, damping d = 0.85 (fixed point),
    // base b = ONE - DAMPING.  Shares (integer division by out-degree):
    //   0 (deg 2) pushes DAMPING/2 to 1 and 2
    //   1 (deg 1) pushes DAMPING to 3
    //   2 (deg 1) pushes DAMPING to 1
    //   3 (deg 1) pushes DAMPING to 4
    //   4 (deg 1) pushes DAMPING to 2
    //   5, 6 (deg 1) push DAMPING to each other
    let base = PAGERANK_ONE - PAGERANK_DAMPING;
    let half = PAGERANK_DAMPING / 2;
    let expected = [
        base,                           // 0: no in-edges
        base + half + PAGERANK_DAMPING, // 1: from 0 (half) and 2 (full)
        base + half + PAGERANK_DAMPING, // 2: from 0 (half) and 4 (full)
        base + PAGERANK_DAMPING,        // 3: from 1
        base + PAGERANK_DAMPING,        // 4: from 3
        base + PAGERANK_DAMPING,        // 5: from 6
        base + PAGERANK_DAMPING,        // 6: from 5
    ];
    let result = reference::pagerank(&golden_graph(), 1);
    assert_eq!(result.ranks(), &expected);
    assert_eq!(result.iterations(), 1);
}

#[test]
fn golden_pagerank_two_epochs_by_hand() {
    // Second epoch pushes the epoch-1 ranks computed above.
    let base = PAGERANK_ONE - PAGERANK_DAMPING;
    let r1_hub = base + PAGERANK_DAMPING / 2 + PAGERANK_DAMPING; // rank of 1 and 2
    let r1_chain = base + PAGERANK_DAMPING; // rank of 3, 4, 5, 6
    let r1_source = base; // rank of 0
    let damp = |rank: u64| rank * PAGERANK_DAMPING / PAGERANK_ONE;
    let expected = [
        base,
        base + damp(r1_source) / 2 + damp(r1_hub), // from 0 and 2
        base + damp(r1_source) / 2 + damp(r1_chain), // from 0 and 4
        base + damp(r1_hub),                       // from 1
        base + damp(r1_chain),                     // from 3
        base + damp(r1_chain),                     // from 6
        base + damp(r1_chain),                     // from 5
    ];
    let result = reference::pagerank(&golden_graph(), 2);
    assert_eq!(result.ranks(), &expected);
}

#[test]
fn golden_spmv_against_dense_expansion() {
    // y = A * x with x = [1, 2, 3, 4, 5, 6, 7]:
    //   y[0] = 2*x[1] + 5*x[2] = 4 + 15 = 19
    //   y[1] = 7*x[3] = 28
    //   y[2] = 1*x[1] = 2
    //   y[3] = 1*x[4] = 5
    //   y[4] = 4*x[2] = 12
    //   y[5] = 3*x[6] = 21
    //   y[6] = 3*x[5] = 18
    let x = vec![1, 2, 3, 4, 5, 6, 7];
    let result = reference::spmv(&golden_graph(), &x);
    assert_eq!(result.values(), &[19, 28, 2, 5, 12, 21, 18]);
}

#[test]
fn golden_graph_has_the_expected_csr_layout() {
    // Pin the CSR arrays themselves so that a layout change cannot silently
    // shift what the golden kernels run over.
    let g = golden_graph();
    assert_eq!(g.num_vertices(), 7);
    assert_eq!(g.num_edges(), 8);
    assert_eq!(g.ptr(), &[0, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(g.edge_idx(), &[1, 2, 3, 1, 4, 2, 6, 5]);
    assert_eq!(g.edge_values(), &[2, 5, 7, 1, 1, 4, 3, 3]);
}
