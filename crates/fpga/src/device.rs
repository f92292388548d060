//! The routing-resource graph of a symmetrical-array FPGA (paper Figure 2).
//!
//! Nodes are physical routing resources: **wire segments** (one track's
//! span past one block, in a horizontal or vertical channel) and
//! **logic-block pins**. Edges are programmable switches: connection-block
//! switches join pins to `F_c` of the adjacent channel's tracks, and
//! switch-block switches join segments meeting at a channel crossing,
//! with per-wire fanout `F_s`.
//!
//! Modelling *segments as nodes* makes electrical disjointness exact: a
//! segment belongs to at most one net, so committing a routed net removes
//! its nodes and all further nets are automatically disjoint (paper §5:
//! "edges used to route the net are removed from the graph, so that
//! subsequent nets remain electrically disjoint"). Every switch edge
//! carries unit weight, so tree cost counts programmable connections —
//! one per segment entered — making wirelength ≈ segments used.

use route_graph::{Graph, NodeId, Weight};

use crate::arch::{ArchSpec, Side};
use crate::FpgaError;

/// What a routing-graph node physically is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A horizontal wire segment: `channel ∈ 0..=rows`, `seg ∈ 0..cols`,
    /// `track ∈ 0..W`.
    HorizontalSegment {
        /// Horizontal channel index (0 = above the top block row).
        channel: usize,
        /// Segment index along the channel (one per block column).
        seg: usize,
        /// Track within the channel.
        track: usize,
    },
    /// A vertical wire segment: `channel ∈ 0..=cols`, `seg ∈ 0..rows`.
    VerticalSegment {
        /// Vertical channel index (0 = left of the leftmost block column).
        channel: usize,
        /// Segment index along the channel (one per block row).
        seg: usize,
        /// Track within the channel.
        track: usize,
    },
    /// A logic-block pin.
    Pin {
        /// Block row.
        row: usize,
        /// Block column.
        col: usize,
        /// Block side the pin sits on.
        side: Side,
        /// Pin slot within the side.
        slot: usize,
    },
}

/// A concrete FPGA device: the architecture plus its routing-resource
/// graph and resource lookup tables.
///
/// # Example
///
/// ```
/// use fpga_device::{ArchSpec, Device, Side};
///
/// # fn main() -> Result<(), fpga_device::FpgaError> {
/// let device = Device::new(ArchSpec::xilinx4000(4, 4, 5))?;
/// let a = device.pin_node(0, 0, Side::East, 0)?;
/// let b = device.pin_node(3, 3, Side::West, 1)?;
/// let path = route_graph::dijkstra::minpath(device.graph(), a, b)?;
/// assert!(path > route_graph::Weight::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    arch: ArchSpec,
    graph: Graph,
    hseg_count: usize,
    vseg_count: usize,
}

impl Device {
    /// Builds the routing-resource graph for `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::InvalidArchitecture`] for inconsistent
    /// parameters.
    pub fn new(arch: ArchSpec) -> Result<Device, FpgaError> {
        arch.validate()?;
        let w = arch.channel_width;
        let hseg_count = (arch.rows + 1) * arch.cols * w;
        let vseg_count = (arch.cols + 1) * arch.rows * w;
        let pin_count = arch.pin_capacity();
        let mut graph = Graph::with_nodes(hseg_count + vseg_count + pin_count);
        let device = Device {
            arch,
            graph: Graph::new(), // placeholder; replaced below
            hseg_count,
            vseg_count,
        };
        device.add_switch_block_edges(&mut graph)?;
        device.add_connection_block_edges(&mut graph)?;
        Ok(Device { graph, ..device })
    }

    /// The architecture this device realizes.
    #[must_use]
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The routing-resource graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A working copy of the routing-resource graph for a routing pass.
    #[must_use]
    pub fn working_graph(&self) -> Graph {
        self.graph.clone()
    }

    // ---- node id arithmetic -------------------------------------------

    fn hseg(&self, channel: usize, seg: usize, track: usize) -> NodeId {
        let w = self.arch.channel_width;
        debug_assert!(channel <= self.arch.rows && seg < self.arch.cols && track < w);
        NodeId::from_index((channel * self.arch.cols + seg) * w + track)
    }

    fn vseg(&self, channel: usize, seg: usize, track: usize) -> NodeId {
        let w = self.arch.channel_width;
        debug_assert!(channel <= self.arch.cols && seg < self.arch.rows && track < w);
        NodeId::from_index(self.hseg_count + (channel * self.arch.rows + seg) * w + track)
    }

    /// The node id of a logic-block pin.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BlockOutOfBounds`] or [`FpgaError::InvalidPin`].
    pub fn pin_node(
        &self,
        row: usize,
        col: usize,
        side: Side,
        slot: usize,
    ) -> Result<NodeId, FpgaError> {
        if row >= self.arch.rows || col >= self.arch.cols {
            return Err(FpgaError::BlockOutOfBounds { row, col });
        }
        if slot >= self.arch.pins_per_side {
            return Err(FpgaError::InvalidPin(format!(
                "slot {slot} exceeds {} pins per side",
                self.arch.pins_per_side
            )));
        }
        let base = self.hseg_count + self.vseg_count;
        let idx = ((row * self.arch.cols + col) * 4 + side.index()) * self.arch.pins_per_side
            + slot;
        Ok(NodeId::from_index(base + idx))
    }

    /// Classifies a node id back into its physical resource.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::InvalidPin`] for ids outside this device.
    pub fn node_kind(&self, v: NodeId) -> Result<NodeKind, FpgaError> {
        let w = self.arch.channel_width;
        let i = v.index();
        if i < self.hseg_count {
            let track = i % w;
            let rest = i / w;
            return Ok(NodeKind::HorizontalSegment {
                channel: rest / self.arch.cols,
                seg: rest % self.arch.cols,
                track,
            });
        }
        let i = i - self.hseg_count;
        if i < self.vseg_count {
            let track = i % w;
            let rest = i / w;
            return Ok(NodeKind::VerticalSegment {
                channel: rest / self.arch.rows,
                seg: rest % self.arch.rows,
                track,
            });
        }
        let i = i - self.vseg_count;
        if i < self.arch.pin_capacity() {
            let slot = i % self.arch.pins_per_side;
            let rest = i / self.arch.pins_per_side;
            let side = Side::from_index(rest % 4);
            let block = rest / 4;
            return Ok(NodeKind::Pin {
                row: block / self.arch.cols,
                col: block % self.arch.cols,
                side,
                slot,
            });
        }
        Err(FpgaError::InvalidPin(format!(
            "node {v} is not part of this device"
        )))
    }

    /// Classifies a switch edge by what it electrically does — the basis
    /// of the jog penalty in multi-weighted routing (paper §2: weights
    /// "may also reflect… jog penalties").
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::InvalidPin`] for edges outside the device.
    pub fn edge_kind(&self, e: route_graph::EdgeId) -> Result<EdgeKind, FpgaError> {
        let (a, b) = self.graph.endpoints(e).map_err(|ge| {
            FpgaError::InvalidPin(format!("edge {e} is not part of this device: {ge}"))
        })?;
        let ka = self.node_kind(a)?;
        let kb = self.node_kind(b)?;
        Ok(match (ka, kb) {
            (NodeKind::Pin { .. }, _) | (_, NodeKind::Pin { .. }) => EdgeKind::PinConnection,
            (NodeKind::HorizontalSegment { .. }, NodeKind::HorizontalSegment { .. })
            | (NodeKind::VerticalSegment { .. }, NodeKind::VerticalSegment { .. }) => {
                EdgeKind::Straight
            }
            _ => EdgeKind::Turn,
        })
    }

    /// Iterates over all logic-block pin nodes.
    pub fn pin_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let base = self.hseg_count + self.vseg_count;
        (base..base + self.arch.pin_capacity()).map(NodeId::from_index)
    }

    /// Returns `true` if `v` is a logic-block pin node of this device.
    #[must_use]
    pub fn is_pin(&self, v: NodeId) -> bool {
        let base = self.hseg_count + self.vseg_count;
        (base..base + self.arch.pin_capacity()).contains(&v.index())
    }

    // ---- congestion bookkeeping ---------------------------------------

    /// Number of distinct channel positions (a channel position is one
    /// segment span of one channel across all its tracks) — the unit at
    /// which channel occupancy is measured.
    #[must_use]
    pub fn position_count(&self) -> usize {
        (self.arch.rows + 1) * self.arch.cols + (self.arch.cols + 1) * self.arch.rows
    }

    /// The channel position of a segment node (`None` for pins).
    #[must_use]
    pub fn segment_position(&self, v: NodeId) -> Option<usize> {
        let w = self.arch.channel_width;
        let i = v.index();
        if i < self.hseg_count {
            Some(i / w)
        } else if i < self.hseg_count + self.vseg_count {
            Some((self.arch.rows + 1) * self.arch.cols + (i - self.hseg_count) / w)
        } else {
            None
        }
    }

    /// All segment nodes sharing a channel position (its `W` tracks).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= position_count()`.
    #[must_use]
    pub fn segment_nodes_at(&self, pos: usize) -> Vec<NodeId> {
        let w = self.arch.channel_width;
        let h_positions = (self.arch.rows + 1) * self.arch.cols;
        assert!(pos < self.position_count(), "position out of range");
        let base = if pos < h_positions {
            pos * w
        } else {
            self.hseg_count + (pos - h_positions) * w
        };
        (0..w).map(|t| NodeId::from_index(base + t)).collect()
    }

    // ---- construction internals ---------------------------------------

    /// Per switch block, the segments incident on each of the four sides
    /// for a given track, then edges per the `F_s` topology: every side
    /// pair connects same-track; the `F_s − 3` extra connections per wire
    /// are distributed over the pair classes (straight, then each turn
    /// class) as increasing track offsets.
    fn add_switch_block_edges(&self, graph: &mut Graph) -> Result<(), FpgaError> {
        let w = self.arch.channel_width;
        let extra = self.arch.fs - 3;
        // offsets[class] = list of track offsets (0 = same track).
        let mut offsets: [Vec<usize>; 3] = [vec![0], vec![0], vec![0]];
        for e in 0..extra {
            let class = e % 3;
            let offset = e / 3 + 1;
            offsets[class].push(offset);
        }
        for hch in 0..=self.arch.rows {
            for vch in 0..=self.arch.cols {
                // Incident segment lookup per side, as functions of track.
                let west = (vch > 0).then(|| (hch, vch - 1));
                let east = (vch < self.arch.cols).then_some((hch, vch));
                let north = (hch > 0).then(|| (vch, hch - 1));
                let south = (hch < self.arch.rows).then_some((vch, hch));
                // Pair classes: 0 = straight (W-E, N-S), 1 = first turns
                // (W-N, E-S), 2 = second turns (W-S, E-N).
                let pairs: [(Option<Seg>, Option<Seg>, usize); 6] = [
                    (west.map(Seg::h), east.map(Seg::h), 0),
                    (north.map(Seg::v), south.map(Seg::v), 0),
                    (west.map(Seg::h), north.map(Seg::v), 1),
                    (east.map(Seg::h), south.map(Seg::v), 1),
                    (west.map(Seg::h), south.map(Seg::v), 2),
                    (east.map(Seg::h), north.map(Seg::v), 2),
                ];
                for (a, b, class) in pairs {
                    let (Some(a), Some(b)) = (a, b) else { continue };
                    for &off in &offsets[class] {
                        for t in 0..w {
                            let t2 = (t + off) % w;
                            if off != 0 && t == t2 {
                                continue; // degenerate when W divides off
                            }
                            graph.add_edge(self.seg_node(a, t), self.seg_node(b, t2), Weight::UNIT)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn seg_node(&self, s: Seg, track: usize) -> NodeId {
        match s {
            Seg::H(ch, seg) => self.hseg(ch, seg, track),
            Seg::V(ch, seg) => self.vseg(ch, seg, track),
        }
    }

    /// Pins connect to `F_c` tracks of the adjacent channel segment,
    /// evenly spaced and rotated by slot/side so that different pins reach
    /// different track subsets.
    fn add_connection_block_edges(&self, graph: &mut Graph) -> Result<(), FpgaError> {
        let w = self.arch.channel_width;
        let fc = self.arch.fc_resolved()?;
        for row in 0..self.arch.rows {
            for col in 0..self.arch.cols {
                for side in Side::ALL {
                    let seg = match side {
                        Side::North => Seg::H(row, col),
                        Side::South => Seg::H(row + 1, col),
                        Side::West => Seg::V(col, row),
                        Side::East => Seg::V(col + 1, row),
                    };
                    for slot in 0..self.arch.pins_per_side {
                        let pin = self
                            .pin_node(row, col, side, slot)
                            .expect("loop bounds are in range");
                        let rotation = slot * 4 + side.index();
                        for j in 0..fc {
                            let track = (j * w / fc + rotation) % w;
                            graph.add_edge(pin, self.seg_node(seg, track), Weight::UNIT)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// What a routing-graph edge (a programmable switch) does electrically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Continues a wire in the same direction (H–H or V–V through a
    /// switch block).
    Straight,
    /// Changes direction (H–V): a *jog*.
    Turn,
    /// Connects a logic-block pin to a channel track.
    PinConnection,
}

/// A segment address used during construction.
#[derive(Debug, Clone, Copy)]
enum Seg {
    H(usize, usize),
    V(usize, usize),
}

impl Seg {
    fn h((ch, seg): (usize, usize)) -> Seg {
        Seg::H(ch, seg)
    }

    fn v((ch, seg): (usize, usize)) -> Seg {
        Seg::V(ch, seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::ShortestPaths;

    fn small() -> Device {
        Device::new(ArchSpec::xilinx4000(3, 4, 4)).unwrap()
    }

    #[test]
    fn node_counts_match_formula() {
        let d = small();
        // hsegs: 4 channels × 4 cols × 4 tracks; vsegs: 5 channels × 3 rows
        // × 4 tracks; pins: 12 blocks × 8.
        assert_eq!(d.graph().node_count(), 4 * 4 * 4 + 5 * 3 * 4 + 12 * 8);
    }

    #[test]
    fn node_kind_round_trips() {
        let d = small();
        for v in d.graph().node_ids() {
            match d.node_kind(v).unwrap() {
                NodeKind::HorizontalSegment { channel, seg, track } => {
                    assert!(channel <= 3 && seg < 4 && track < 4);
                }
                NodeKind::VerticalSegment { channel, seg, track } => {
                    assert!(channel <= 4 && seg < 3 && track < 4);
                }
                NodeKind::Pin { row, col, side, slot } => {
                    assert_eq!(d.pin_node(row, col, side, slot).unwrap(), v);
                }
            }
        }
    }

    #[test]
    fn pin_lookup_validates() {
        let d = small();
        assert!(matches!(
            d.pin_node(3, 0, Side::North, 0),
            Err(FpgaError::BlockOutOfBounds { .. })
        ));
        assert!(matches!(
            d.pin_node(0, 0, Side::North, 2),
            Err(FpgaError::InvalidPin(_))
        ));
    }

    #[test]
    fn disjoint_switch_blocks_have_fs3_interior_fanout() {
        let d = small();
        // An interior horizontal segment touches two switch blocks; in each
        // it connects to 3 other sides at the same track (disjoint, Fs=3).
        // Its total segment-to-segment degree is therefore 6, plus any pin
        // edges from connection blocks.
        let v = d.hseg(1, 1, 2);
        let seg_neighbors = d
            .graph()
            .neighbors(v)
            .filter(|&(u, _, _)| {
                !matches!(d.node_kind(u).unwrap(), NodeKind::Pin { .. })
            })
            .count();
        assert_eq!(seg_neighbors, 6);
        // Disjoint topology keeps tracks separate: all segment neighbors
        // share track 2.
        for (u, _, _) in d.graph().neighbors(v) {
            match d.node_kind(u).unwrap() {
                NodeKind::HorizontalSegment { track, .. }
                | NodeKind::VerticalSegment { track, .. } => assert_eq!(track, 2),
                NodeKind::Pin { .. } => {}
            }
        }
    }

    #[test]
    fn fs6_fanout_doubles_connections() {
        let d = Device::new(ArchSpec::xilinx3000(3, 4, 4)).unwrap();
        let v = d.hseg(1, 1, 2);
        let seg_neighbors = d
            .graph()
            .neighbors(v)
            .filter(|&(u, _, _)| {
                !matches!(d.node_kind(u).unwrap(), NodeKind::Pin { .. })
            })
            .count();
        // Fs = 6: per switch block 3 same-track + 3 offset-track.
        assert_eq!(seg_neighbors, 12);
    }

    #[test]
    fn pins_reach_fc_tracks() {
        let d = small(); // Fc = W = 4
        let pin = d.pin_node(1, 1, Side::North, 0).unwrap();
        let tracks: Vec<usize> = d
            .graph()
            .neighbors(pin)
            .map(|(u, _, _)| match d.node_kind(u).unwrap() {
                NodeKind::HorizontalSegment { channel, seg, track } => {
                    assert_eq!((channel, seg), (1, 1));
                    track
                }
                other => panic!("north pin connected to {other:?}"),
            })
            .collect();
        assert_eq!(tracks.len(), 4);
        let x3 = Device::new(ArchSpec::xilinx3000(3, 4, 10)).unwrap();
        let pin = x3.pin_node(0, 0, Side::South, 1).unwrap();
        assert_eq!(x3.graph().neighbors(pin).count(), 6); // ceil(0.6·10)
    }

    #[test]
    fn whole_device_is_connected() {
        let d = small();
        let start = d.pin_node(0, 0, Side::North, 0).unwrap();
        let sp = ShortestPaths::run(d.graph(), start).unwrap();
        for v in d.graph().node_ids() {
            assert!(sp.dist(v).is_some(), "{v} unreachable");
        }
    }

    #[test]
    fn positions_partition_segments() {
        let d = small();
        let mut seen = vec![0usize; d.position_count()];
        for v in d.graph().node_ids() {
            match d.node_kind(v).unwrap() {
                NodeKind::Pin { .. } => assert_eq!(d.segment_position(v), None),
                _ => {
                    let pos = d.segment_position(v).unwrap();
                    seen[pos] += 1;
                }
            }
        }
        // Every position holds exactly W segments.
        assert!(seen.iter().all(|&c| c == 4));
        // And segment_nodes_at inverts the mapping.
        for pos in 0..d.position_count() {
            for v in d.segment_nodes_at(pos) {
                assert_eq!(d.segment_position(v), Some(pos));
            }
        }
    }

    #[test]
    fn cross_pin_route_exists_and_is_short() {
        let d = small();
        let a = d.pin_node(0, 0, Side::East, 0).unwrap();
        let b = d.pin_node(2, 3, Side::West, 0).unwrap();
        let cost = route_graph::dijkstra::minpath(d.graph(), a, b).unwrap();
        // Manhattan-ish: needs at least ~4 segment hops, bounded above by
        // the full perimeter.
        assert!(cost >= Weight::from_units(4));
        assert!(cost <= Weight::from_units(20));
    }
}

#[cfg(test)]
mod edge_kind_tests {
    use super::*;

    #[test]
    fn classifies_pin_straight_and_turn_edges() {
        let d = Device::new(ArchSpec::xilinx4000(3, 3, 4)).unwrap();
        let mut seen = [0usize; 3];
        for e in d.graph().edge_ids() {
            match d.edge_kind(e).unwrap() {
                EdgeKind::Straight => seen[0] += 1,
                EdgeKind::Turn => seen[1] += 1,
                EdgeKind::PinConnection => seen[2] += 1,
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
        // Pin edges: every pin has Fc = W = 4 connections.
        assert_eq!(seen[2], d.pin_nodes().count() * 4);
    }

    #[test]
    fn disjoint_switch_blocks_have_straight_and_turn_mix() {
        // For Fs=3 each interior junction offers 2 straight pairs (W-E,
        // N-S) and 4 turn pairs per track.
        let d = Device::new(ArchSpec::xilinx4000(2, 2, 1)).unwrap();
        let straights = d
            .graph()
            .edge_ids()
            .filter(|&e| d.edge_kind(e).unwrap() == EdgeKind::Straight)
            .count();
        let turns = d
            .graph()
            .edge_ids()
            .filter(|&e| d.edge_kind(e).unwrap() == EdgeKind::Turn)
            .count();
        assert!(turns > straights);
    }
}
