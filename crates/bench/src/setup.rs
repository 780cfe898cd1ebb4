//! Experiment scenario construction.

use draid_block::{Cluster, ClusterBuilder};
use draid_core::{ArrayConfig, ArraySim, DraidOptions, RaidLevel, SystemKind};
use draid_net::{CX5_100G, CX5_25G};

/// A fully specified experiment target: which engine, geometry, health and
/// dRAID options to instantiate. Every scenario seeds the array's RNG with
/// [`ArrayConfig::paper_default`]'s seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Engine under test.
    pub system: SystemKind,
    /// RAID level.
    pub level: RaidLevel,
    /// Stripe width.
    pub width: usize,
    /// Chunk size in KiB.
    pub chunk_kib: u64,
    /// Number of members to fail before the run (degraded-state figures).
    pub failed: usize,
    /// dRAID option overrides.
    pub draid: DraidOptions,
}

impl Scenario {
    /// The §9.1 default for an engine: RAID-5, 8 targets, 512 KiB chunks.
    pub fn paper(system: SystemKind) -> Self {
        Scenario {
            system,
            level: RaidLevel::Raid5,
            width: 8,
            chunk_kib: 512,
            failed: 0,
            draid: DraidOptions::default(),
        }
    }

    /// Builder-style level override.
    pub fn level(mut self, level: RaidLevel) -> Self {
        self.level = level;
        self
    }

    /// Builder-style width override.
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Builder-style chunk-size override (KiB).
    pub fn chunk_kib(mut self, chunk_kib: u64) -> Self {
        self.chunk_kib = chunk_kib;
        self
    }

    /// Builder-style degraded-state override.
    pub fn failed(mut self, members: usize) -> Self {
        self.failed = members;
        self
    }

    /// Builder-style dRAID-option override.
    pub fn draid(mut self, draid: DraidOptions) -> Self {
        self.draid = draid;
        self
    }

    fn config(&self) -> ArrayConfig {
        let mut cfg = ArrayConfig::paper_default(self.system);
        cfg.level = self.level;
        cfg.width = self.width;
        cfg.chunk_size = self.chunk_kib * 1024;
        cfg.draid = self.draid;
        cfg
    }
}

/// Builds the scenario over a homogeneous 100 Gbps cluster.
///
/// # Panics
///
/// Panics on an invalid configuration (a bug in the experiment definition).
pub fn build_array(scenario: &Scenario) -> ArraySim {
    let cluster = Cluster::homogeneous(scenario.width);
    finish(cluster, scenario)
}

/// Builds the scenario over a cluster where the last `slow` members have
/// 25 Gbps NICs — the Fig. 17b heterogeneous-network testbed.
///
/// # Panics
///
/// Panics on an invalid configuration.
pub fn build_hetero_array(scenario: &Scenario, slow: usize) -> ArraySim {
    assert!(slow <= scenario.width, "more slow nodes than members");
    let mut b = ClusterBuilder::new();
    for i in 0..scenario.width {
        b.server(if i >= scenario.width - slow {
            CX5_25G
        } else {
            CX5_100G
        });
    }
    finish(b.build(), scenario)
}

fn finish(cluster: Cluster, scenario: &Scenario) -> ArraySim {
    let mut array =
        ArraySim::new(cluster, scenario.config()).expect("experiment scenario must be valid");
    for m in 0..scenario.failed {
        array.fail_member(m);
    }
    array
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_builds() {
        let array = build_array(&Scenario::paper(SystemKind::Draid));
        assert_eq!(array.config().width, 8);
        assert!(!array.is_degraded());
    }

    #[test]
    fn failed_members_applied() {
        let array = build_array(&Scenario::paper(SystemKind::SpdkRaid).failed(1));
        assert_eq!(array.faulty_members(), vec![0]);
    }

    #[test]
    fn hetero_cluster_has_slow_tail() {
        let scn = Scenario::paper(SystemKind::Draid);
        let array = build_hetero_array(&scn, 3);
        let fabric = array.cluster.fabric();
        let fast = fabric.node_rate(array.cluster.server_node(draid_block::ServerId(0)));
        let slow = fabric.node_rate(array.cluster.server_node(draid_block::ServerId(7)));
        assert!(fast > slow);
    }
}
