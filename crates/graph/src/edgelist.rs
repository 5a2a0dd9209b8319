//! Flat directed edge lists — the interchange format between generators,
//! file I/O and the CSR builder.

use crate::VertexId;
use std::io;

/// A directed edge `src -> dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
}

impl Edge {
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// The edge with source and destination swapped.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge { src: self.dst, dst: self.src }
    }
}

impl From<(u32, u32)> for Edge {
    fn from((src, dst): (u32, u32)) -> Self {
        Edge { src, dst }
    }
}

/// A directed graph as a flat list of edges plus a vertex count.
///
/// The vertex count is carried explicitly so graphs with trailing isolated
/// vertices round-trip through files and builders without losing them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an edge list over `num_vertices` vertices.
    ///
    /// # Panics
    /// Panics if any edge endpoint is out of range; [`Self::try_new`] is
    /// the fallible form for untrusted input.
    pub fn new(num_vertices: usize, edges: Vec<Edge>) -> Self {
        Self::try_new(num_vertices, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an edge list over `num_vertices` vertices, or returns an
    /// [`io::ErrorKind::InvalidData`] error naming the first edge with an
    /// endpoint out of range.
    pub fn try_new(num_vertices: usize, edges: Vec<Edge>) -> io::Result<Self> {
        let out = |v: VertexId| v as usize >= num_vertices;
        if let Some(e) = edges.iter().find(|e| out(e.src) || out(e.dst)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("edge ({}, {}) out of range for {num_vertices} vertices", e.src, e.dst),
            ));
        }
        Ok(EdgeList { num_vertices, edges })
    }

    /// Creates an edge list from `(src, dst)` pairs, inferring the vertex
    /// count as `max endpoint + 1` (0 for an empty list).
    pub fn from_pairs<I: IntoIterator<Item = (u32, u32)>>(pairs: I) -> Self {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let num_vertices = edges.iter().map(|e| e.src.max(e.dst) as usize + 1).max().unwrap_or(0);
        EdgeList { num_vertices, edges }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends an edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push(Edge { src, dst });
    }

    /// Returns the same graph with every edge reversed (the transpose).
    pub fn transposed(&self) -> EdgeList {
        EdgeList {
            num_vertices: self.num_vertices,
            edges: self.edges.iter().map(|e| e.reversed()).collect(),
        }
    }

    /// Sorts edges by `(src, dst)` and removes duplicates and self-loops.
    ///
    /// Generators over-sample, so deduplication is how they land near their
    /// target edge count deterministically.
    pub fn dedup_simplify(&mut self) {
        self.edges.retain(|e| e.src != e.dst);
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Consumes the list, returning its edges.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_infers_vertex_count() {
        let el = EdgeList::from_pairs([(0, 1), (1, 4)]);
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn from_pairs_empty() {
        let el = EdgeList::from_pairs(std::iter::empty());
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
        assert!(el.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        EdgeList::new(2, vec![Edge::new(0, 2)]);
    }

    #[test]
    fn try_new_reports_out_of_range_as_invalid_data() {
        let err = EdgeList::try_new(2, vec![Edge::new(0, 1), Edge::new(3, 0)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("edge (3, 0) out of range"), "{err}");
        assert_eq!(EdgeList::try_new(2, vec![Edge::new(1, 0)]).unwrap().num_edges(), 1);
    }

    #[test]
    fn transpose_reverses_each_edge() {
        let el = EdgeList::from_pairs([(0, 1), (2, 1)]);
        let t = el.transposed();
        assert_eq!(t.edges(), &[Edge::new(1, 0), Edge::new(1, 2)]);
        assert_eq!(t.num_vertices(), el.num_vertices());
    }

    #[test]
    fn dedup_removes_loops_and_duplicates() {
        let mut el = EdgeList::from_pairs([(0, 1), (1, 1), (0, 1), (1, 0)]);
        el.dedup_simplify();
        assert_eq!(el.edges(), &[Edge::new(0, 1), Edge::new(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut el = EdgeList::new(2, vec![]);
        el.push(0, 5);
    }
}
