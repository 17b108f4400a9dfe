//! Rack-level multigraphs and shortest-path machinery.
//!
//! Nodes are racks (ToR switches); edges are inter-ToR links, possibly
//! several between the same pair of racks (parallel circuits through
//! different switches). Each directed edge is labelled with the uplink it
//! uses, so routing tables can name a concrete output port.

use std::collections::VecDeque;

/// Index of a node (rack / switch) in a [`Graph`].
pub type NodeId = usize;

/// A directed edge with the uplink port it uses at the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Destination node.
    pub to: NodeId,
    /// Uplink/port index at the source used by this edge.
    pub port: usize,
}

/// A directed multigraph stored as per-node adjacency lists.
///
/// All topologies in this reproduction are symmetric (every link is
/// full-duplex), so builders insert both directions, but the structure does
/// not require it.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
}

impl Graph {
    /// An edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Add a directed edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, port: usize) {
        self.adj[from].push(Edge { to, port });
    }

    /// Add both directions of a full-duplex link, with the same port label
    /// on each side.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, port: usize) {
        self.add_edge(a, b, port);
        self.add_edge(b, a, port);
    }

    /// Out-edges of `node`.
    pub fn edges(&self, node: NodeId) -> &[Edge] {
        &self.adj[node]
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node].len()
    }

    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum()
    }

    /// BFS distances (in hops) from `src` to every node. Unreachable nodes
    /// get `usize::MAX`.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.len()];
        dist[src] = 0;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(v) = q.pop_front() {
            let d = dist[v] + 1;
            for e in &self.adj[v] {
                if dist[e.to] == usize::MAX {
                    dist[e.to] = d;
                    q.push_back(e.to);
                }
            }
        }
        dist
    }

    /// All-pairs path-length statistics over *distinct* reachable pairs.
    /// Returns `(average, maximum, reachable pair count, total pair count)`.
    pub fn path_length_stats(&self) -> PathStats {
        let n = self.len();
        let mut sum = 0usize;
        let mut max = 0usize;
        let mut reachable = 0usize;
        for src in 0..n {
            let dist = self.bfs_distances(src);
            for (dst, &d) in dist.iter().enumerate() {
                if dst == src {
                    continue;
                }
                if d != usize::MAX {
                    sum += d;
                    max = max.max(d);
                    reachable += 1;
                }
            }
        }
        PathStats {
            avg: if reachable == 0 {
                0.0
            } else {
                sum as f64 / reachable as f64
            },
            max,
            reachable_pairs: reachable,
            total_pairs: n * n.saturating_sub(1),
        }
    }

    /// Histogram of shortest-path lengths over all ordered pairs; index `i`
    /// counts pairs at distance `i`. Unreachable pairs are not counted.
    pub fn path_length_histogram(&self) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        for src in 0..self.len() {
            for (dst, &d) in self.bfs_distances(src).iter().enumerate() {
                if dst != src && d != usize::MAX {
                    if d >= hist.len() {
                        hist.resize(d + 1, 0);
                    }
                    hist[d] += 1;
                }
            }
        }
        hist
    }

    /// True when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let d = self.bfs_distances(0);
        d.iter().all(|&x| x != usize::MAX)
    }
}

/// Summary of all-pairs shortest-path lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStats {
    /// Mean shortest-path length over reachable ordered pairs.
    pub avg: f64,
    /// Diameter (longest shortest path among reachable pairs).
    pub max: usize,
    /// Number of ordered pairs with a finite path.
    pub reachable_pairs: usize,
    /// Number of ordered pairs total (`n * (n-1)`).
    pub total_pairs: usize,
}

impl PathStats {
    /// Fraction of ordered node pairs that are disconnected.
    pub fn connectivity_loss(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            1.0 - self.reachable_pairs as f64 / self.total_pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_link(i, (i + 1) % n, 0);
        }
        g
    }

    #[test]
    fn bfs_on_ring() {
        let g = ring(6);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn path_stats_ring() {
        let g = ring(6);
        let s = g.path_length_stats();
        assert_eq!(s.max, 3);
        // distances from any node: 1,2,3,2,1 -> avg 9/5
        assert!((s.avg - 9.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.reachable_pairs, 30);
        assert_eq!(s.connectivity_loss(), 0.0);
    }

    #[test]
    fn histogram_matches_stats() {
        let g = ring(8);
        let h = g.path_length_histogram();
        assert_eq!(h.iter().sum::<u64>(), 8 * 7);
        assert_eq!(h[0], 0);
        assert_eq!(h[1], 16); // each node has 2 neighbors
        assert_eq!(h[4], 8); // antipodal
    }

    #[test]
    fn disconnected_components() {
        let mut g = Graph::new(4);
        g.add_link(0, 1, 0);
        g.add_link(2, 3, 0);
        assert!(!g.is_connected());
        let s = g.path_length_stats();
        assert_eq!(s.reachable_pairs, 4);
        assert!((s.connectivity_loss() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn multigraph_parallel_edges() {
        let mut g = Graph::new(2);
        g.add_link(0, 1, 0);
        g.add_link(0, 1, 1);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(g.is_connected());
        assert!(g.is_empty());
        assert_eq!(g.path_length_stats().total_pairs, 0);
    }
}
