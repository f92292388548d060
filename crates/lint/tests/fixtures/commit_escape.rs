//! Fixture: repricing the PathFinder snapshot from outside its
//! single-writer cost-update phase. Linted as
//! `crates/fpga/src/commit_escape.rs`; must fire `commit-path-mutation`
//! exactly once.

pub fn sneak_reprice(priced: &mut Graph) {
    priced.reprice_edges(|_, _, _, w| w);
}
