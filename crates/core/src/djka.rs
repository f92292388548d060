//! DJKA: Dijkstra's shortest-paths tree adapted to nets (paper §5).
//!
//! Dijkstra's algorithm spans all of `V`; the GSA problem only needs the
//! net. DJKA computes the shortest-paths tree rooted at the source and
//! deletes every edge not contained in some source-to-sink path — i.e. it
//! keeps exactly the union of the tree paths to the sinks.
//!
//! DJKA is the weakest arborescence baseline in Table 1: optimal maximum
//! pathlength by construction, but no wirelength sharing beyond what the
//! SPT happens to provide.

use route_graph::{EdgeId, GraphView, ShortestPaths};

use crate::heuristic::{HeuristicInfo, SteinerHeuristic};
use crate::{Net, RoutingTree, SteinerError};

/// The DJKA arborescence baseline.
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{Djka, Net, SteinerHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(4, 4, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 0)?,
///     vec![grid.node_at(3, 1)?, grid.node_at(1, 3)?],
/// )?;
/// let tree = Djka::new().construct(grid.graph(), &net)?;
/// assert!(tree.is_shortest_paths_tree(grid.graph(), &net)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Djka;

impl Djka {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Djka {
        Djka
    }
}

impl HeuristicInfo for Djka {
    fn name(&self) -> &str {
        "DJKA"
    }
}

impl<G: GraphView> SteinerHeuristic<G> for Djka {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        net.validate_in(g)?;
        // Stop the run once the last sink settles: every node on a shortest
        // path to a sink settles before that sink, so the extracted paths
        // are identical to a full run's while the search stays within
        // the sinks' neighborhood.
        let sp = ShortestPaths::run_to_targets(g, net.source(), net.sinks())?;
        let mut edges: Vec<EdgeId> = Vec::new();
        for &sink in net.sinks() {
            let path = sp.path_to(sink)?;
            edges.extend_from_slice(path.edges());
        }
        // Paths out of one SPT share prefixes, so the deduplicated union is
        // a tree by construction.
        RoutingTree::from_edges(g, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::{Graph, GridGraph, NodeId, Weight};

    #[test]
    fn produces_an_arborescence() {
        let grid = GridGraph::new(6, 6, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![
                grid.node_at(5, 0).unwrap(),
                grid.node_at(0, 5).unwrap(),
                grid.node_at(5, 5).unwrap(),
            ],
        )
        .unwrap();
        let tree = Djka::new().construct(grid.graph(), &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.is_shortest_paths_tree(grid.graph(), &net).unwrap());
        assert_eq!(
            tree.max_pathlength(&net).unwrap(),
            Weight::from_units(10)
        );
    }

    #[test]
    fn shares_common_prefixes() {
        // Two sinks straight down the same column: the union is one path.
        let grid = GridGraph::new(5, 1, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(2, 0).unwrap(), grid.node_at(4, 0).unwrap()],
        )
        .unwrap();
        let tree = Djka::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(4));
    }

    #[test]
    fn ignores_unrelated_parts_of_the_spt() {
        let grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(2, 2).unwrap(),
            vec![grid.node_at(2, 4).unwrap()],
        )
        .unwrap();
        let tree = Djka::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(2));
        assert_eq!(tree.node_len(), 3);
    }

    #[test]
    fn unreachable_sink_errors() {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        assert!(matches!(
            Djka::new().construct(&g, &net),
            Err(SteinerError::Graph(
                route_graph::GraphError::Disconnected { .. }
            ))
        ));
    }

    #[test]
    fn respects_congested_weights() {
        // Make the straight corridor expensive; DJKA must still produce a
        // weighted-shortest route (which detours) and the tree distance
        // must equal the graph distance.
        let mut grid = GridGraph::new(3, 3, Weight::UNIT).unwrap();
        let mid_left = grid.node_at(1, 0).unwrap();
        let mid_center = grid.node_at(1, 1).unwrap();
        let e = grid.edge_between(mid_left, mid_center).unwrap();
        grid.graph_mut()
            .set_weight(e, Weight::from_units(10))
            .unwrap();
        let net = Net::new(mid_left, vec![grid.node_at(1, 2).unwrap()]).unwrap();
        let tree = Djka::new().construct(grid.graph(), &net).unwrap();
        assert!(tree.is_shortest_paths_tree(grid.graph(), &net).unwrap());
        assert_eq!(tree.cost(), Weight::from_units(4));
    }
}
