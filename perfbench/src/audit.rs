//! Route-legality audit, independent of the router's code.
//!
//! The audit rebuilds the device graph at the routed width and re-derives
//! legality from each tree's raw edge list alone; it calls nothing in the
//! router or in the tree type beyond reading the edge ids. A routing is
//! legal when:
//!
//! * every edge is a live edge of the fresh device graph, used once;
//! * every tree is connected and acyclic and reaches all its net's pins;
//! * no tree passes through a pin of another net;
//! * no node (segment or pin) belongs to two trees;
//! * the reported `max_pathlengths` and `total_wirelength` equal the values
//!   recomputed from the edges.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fpga_route::fpga::{ArchSpec, Circuit, Device, RouteOutcome};
use fpga_route::graph::{NodeId, Weight};
use fpga_route::steiner::RoutingTree;

/// What a passing audit measured on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audited {
    /// The most tracks any one channel position uses: the channel width
    /// the routing actually needs.
    pub peak_tracks: usize,
}

/// Checks `outcome` as a routing of `circuit` on the device `arch`
/// describes. The error names the first violation found.
pub fn audit(arch: ArchSpec, circuit: &Circuit, outcome: &RouteOutcome) -> Result<Audited, String> {
    let w = arch.channel_width;
    let device = Device::new(arch).map_err(|e| format!("device at W = {w}: {e}"))?;
    let g = device.graph();
    let nets = circuit.nets();
    if outcome.trees.len() != nets.len() || outcome.max_pathlengths.len() != nets.len() {
        return Err(format!(
            "{} trees and {} pathlengths for {} nets",
            outcome.trees.len(),
            outcome.max_pathlengths.len(),
            nets.len()
        ));
    }
    let mut owner: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut wirelength = 0u64;
    for (ni, (net, tree)) in nets.iter().zip(&outcome.trees).enumerate() {
        let pins = net
            .pins
            .iter()
            .map(|p| device.pin_node(p.row, p.col, p.side, p.slot))
            .collect::<Result<Vec<NodeId>, _>>()
            .map_err(|e| format!("net {ni}: {e}"))?;
        let mut adjacency: BTreeMap<NodeId, Vec<(NodeId, u64)>> = BTreeMap::new();
        let mut used = BTreeSet::new();
        for &e in tree.edges() {
            if e.index() >= g.edge_count() || !g.is_edge_usable(e) {
                return Err(format!("net {ni}: edge {e} is not a live edge at W = {w}"));
            }
            if !used.insert(e) {
                return Err(format!("net {ni}: edge {e} used twice"));
            }
            let (a, b) = g.endpoints(e).map_err(|err| format!("net {ni}: {err}"))?;
            let weight = g
                .weight(e)
                .map_err(|err| format!("net {ni}: {err}"))?
                .as_milli();
            wirelength += weight;
            adjacency.entry(a).or_default().push((b, weight));
            adjacency.entry(b).or_default().push((a, weight));
        }
        if let Some(pin) = pins.iter().find(|p| !adjacency.contains_key(p)) {
            return Err(format!("net {ni}: pin {pin} is not connected"));
        }
        // A tree reaches every node from its source and has one edge fewer
        // than nodes; the distances along it are then unique.
        let source = pins[0];
        let mut dist: BTreeMap<NodeId, u64> = BTreeMap::new();
        dist.insert(source, 0);
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            let dv = dist[&v];
            for &(u, weight) in adjacency.get(&v).map_or(&[][..], Vec::as_slice) {
                if let Entry::Vacant(slot) = dist.entry(u) {
                    slot.insert(dv + weight);
                    queue.push_back(u);
                }
            }
        }
        if dist.len() < adjacency.len() {
            return Err(format!("net {ni}: tree is disconnected"));
        }
        if tree.edges().len() + 1 != dist.len() {
            return Err(format!("net {ni}: tree has a cycle"));
        }
        let max_path = pins[1..].iter().map(|p| dist[p]).max().unwrap_or(0);
        let reported = outcome.max_pathlengths[ni].as_milli();
        if reported != max_path {
            return Err(format!(
                "net {ni}: reported max pathlength {reported}, recomputed {max_path} (milli-units)"
            ));
        }
        for &v in dist.keys() {
            if device.is_pin(v) && !pins.contains(&v) {
                return Err(format!("net {ni}: passes through foreign pin {v}"));
            }
            if let Some(other) = owner.insert(v, ni) {
                return Err(format!("node {v} shared by nets {other} and {ni}"));
            }
        }
    }
    let reported = outcome.total_wirelength.as_milli();
    if reported != wirelength {
        return Err(format!(
            "reported wirelength {reported}, recomputed {wirelength} (milli-units)"
        ));
    }
    let mut tracks = vec![0usize; device.position_count()];
    for &v in owner.keys() {
        if let Some(pos) = device.segment_position(v) {
            tracks[pos] += 1;
        }
    }
    Ok(Audited {
        peak_tracks: tracks.into_iter().max().unwrap_or(0),
    })
}

/// Three corruptions of a legal routing, each of which the audit must
/// reject: a dropped edge, a segment shared by two nets, and an altered
/// wirelength. `None` if the routing offers no place for one of them (no
/// tree with two edges, or no two trees on adjacent segments).
pub fn corruptions(
    arch: ArchSpec,
    outcome: &RouteOutcome,
) -> Option<[(&'static str, RouteOutcome); 3]> {
    let device = Device::new(arch).ok()?;
    let g = device.graph();
    let rebuild = |edges: Vec<_>| RoutingTree::from_edges(g, edges).ok();

    // Drop the edge to a leaf: the tree stays a tree but loses a pin.
    let mut dropped = outcome.clone();
    let (ni, leaf_edge) = outcome.trees.iter().enumerate().find_map(|(ni, tree)| {
        if tree.edges().len() < 2 {
            return None;
        }
        let mut degree: BTreeMap<NodeId, usize> = BTreeMap::new();
        for &e in tree.edges() {
            let (a, b) = g.endpoints(e).ok()?;
            *degree.entry(a).or_default() += 1;
            *degree.entry(b).or_default() += 1;
        }
        tree.edges()
            .iter()
            .position(|&e| {
                g.endpoints(e)
                    .is_ok_and(|(a, b)| degree[&a] == 1 || degree[&b] == 1)
            })
            .map(|i| (ni, i))
    })?;
    let mut edges = outcome.trees[ni].edges().to_vec();
    edges.remove(leaf_edge);
    dropped.trees[ni] = rebuild(edges)?;

    // Extend one tree by a single edge onto a segment another tree uses,
    // and report the extra wire, so only the sharing is wrong.
    let mut owner: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (ni, tree) in outcome.trees.iter().enumerate() {
        for v in tree.nodes() {
            owner.insert(v, ni);
        }
    }
    let mut shared = outcome.clone();
    let (ni, extra) = owner.iter().find_map(|(&v, &ni)| {
        device.segment_position(v)?;
        g.neighbors(v).find_map(|(u, e, _)| {
            let other = *owner.get(&u)?;
            (other != ni && device.segment_position(u).is_some()).then_some((ni, e))
        })
    })?;
    let mut edges = outcome.trees[ni].edges().to_vec();
    edges.push(extra);
    shared.trees[ni] = rebuild(edges)?;
    shared.total_wirelength = shared
        .total_wirelength
        .saturating_add(g.weight(extra).ok()?);

    let mut altered = outcome.clone();
    altered.total_wirelength = altered.total_wirelength.saturating_add(Weight::UNIT);

    Some([
        ("dropped edge", dropped),
        ("shared segment", shared),
        ("altered wirelength", altered),
    ])
}

/// Runs the audit on the three [`corruptions`] of a legal routing and
/// returns the ones it wrongly accepted (empty when all are rejected).
pub fn self_test(
    arch: ArchSpec,
    circuit: &Circuit,
    outcome: &RouteOutcome,
) -> Result<Vec<&'static str>, String> {
    let cases = corruptions(arch, outcome).ok_or("routing offers no place for the corruptions")?;
    Ok(cases
        .iter()
        .filter(|(_, corrupted)| audit(arch, circuit, corrupted).is_ok())
        .map(|(name, _)| *name)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_route::fpga::synth::{synthesize, xc4000_profiles};
    use fpga_route::fpga::{Router, RouterConfig};

    #[test]
    fn accepts_a_routing_and_rejects_each_corruption() {
        let profile = xc4000_profiles()
            .into_iter()
            .find(|p| p.name == "term1")
            .unwrap();
        let circuit = synthesize(&profile, 2, 1995).unwrap();
        let arch = ArchSpec::xilinx4000(profile.rows, profile.cols, 10);
        let device = Device::new(arch).unwrap();
        let outcome = Router::new(&device, RouterConfig::default())
            .route(&circuit)
            .unwrap();
        let audited = audit(arch, &circuit, &outcome).unwrap();
        assert!(audited.peak_tracks >= 1 && audited.peak_tracks <= 10);

        let cases = corruptions(arch, &outcome).unwrap();
        let reasons: Vec<String> = cases
            .iter()
            .map(|(_, corrupted)| audit(arch, &circuit, corrupted).unwrap_err())
            .collect();
        assert!(reasons[0].contains("is not connected"), "{}", reasons[0]);
        assert!(reasons[1].contains("shared by nets"), "{}", reasons[1]);
        assert!(reasons[2].contains("reported wirelength"), "{}", reasons[2]);
        assert_eq!(
            self_test(arch, &circuit, &outcome).unwrap(),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn rejects_edges_missing_at_a_narrower_width() {
        let profile = xc4000_profiles()
            .into_iter()
            .find(|p| p.name == "term1")
            .unwrap();
        let circuit = synthesize(&profile, 2, 1995).unwrap();
        let wide = ArchSpec::xilinx4000(profile.rows, profile.cols, 12);
        let device = Device::new(wide).unwrap();
        let outcome = Router::new(&device, RouterConfig::default())
            .route(&circuit)
            .unwrap();
        let narrow = ArchSpec::xilinx4000(profile.rows, profile.cols, 4);
        assert!(audit(narrow, &circuit, &outcome).is_err());
    }
}
