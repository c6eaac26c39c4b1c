//! Serializable experiment configuration — the paper's Table 1 as a struct.

use mg_phy::{MediumIndex, PropagationModel};
use mg_sim::SimDuration;

/// Node layout.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TopologyCfg {
    /// Regular grid (paper: 7 rows × 8 columns, 240 m spacing).
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Neighbor spacing in meters.
        spacing: f64,
    },
    /// Uniform random placement (paper: 112 nodes for strong connectivity).
    Random {
        /// Number of nodes.
        nodes: usize,
    },
    /// Clustered placement: dense clumps of nodes around random centers —
    /// the hot-spot regime (many contenders in one sensing disk) that
    /// scale studies of 802.11 backoff behavior evaluate.
    Clustered {
        /// Number of clusters.
        clusters: usize,
        /// Nodes per cluster.
        per_cluster: usize,
        /// Cluster radius, m.
        radius: f64,
    },
}

impl TopologyCfg {
    /// Total node count.
    pub fn node_count(&self) -> usize {
        match *self {
            TopologyCfg::Grid { rows, cols, .. } => rows * cols,
            TopologyCfg::Random { nodes } => nodes,
            TopologyCfg::Clustered { clusters, per_cluster, .. } => clusters * per_cluster,
        }
    }
}

/// Which of the paper's two traffic models background sources use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficKind {
    /// Poisson arrivals, fresh random neighbor per packet.
    Poisson,
    /// CBR stream to a sticky random neighbor.
    Cbr,
}

/// Random-waypoint mobility parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MobilityCfg {
    /// Minimum speed, m/s (paper: 0).
    pub speed_min: f64,
    /// Maximum speed, m/s (paper: 20).
    pub speed_max: f64,
    /// Pause time at each waypoint (paper: {0, 50, 100, 200, 300} s).
    pub pause: SimDuration,
}

impl Default for MobilityCfg {
    fn default() -> Self {
        MobilityCfg {
            speed_min: 0.0,
            speed_max: 20.0,
            pause: SimDuration::ZERO,
        }
    }
}

/// A complete scenario description (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScenarioConfig {
    /// Node layout.
    pub topology: TopologyCfg,
    /// Field width, m (Table 1: 3000).
    pub field_w: f64,
    /// Field height, m (Table 1: 3000).
    pub field_h: f64,
    /// Transmission range, m (Table 1: 250).
    pub tx_range: f64,
    /// Sensing / interference range, m (Table 1: 550).
    pub cs_range: f64,
    /// Channel model (paper: shadowing with β = 2, σ = 0 ⇒ free space).
    pub propagation: PropagationModel,
    /// Background traffic model.
    pub traffic: TrafficKind,
    /// Number of background source–destination pairs (paper: 30).
    pub source_count: usize,
    /// Mean per-source packet rate, packets/s — the offered-load knob.
    pub rate_pps: f64,
    /// Application payload per packet, bytes (Table 1: 512).
    pub payload_len: u16,
    /// Interface queue capacity, packets (Table 1: 50).
    pub queue_cap: usize,
    /// Mobility, if any.
    pub mobility: Option<MobilityCfg>,
    /// Simulated duration, seconds (Table 1: 300).
    pub sim_secs: u64,
    /// Run seed — every random draw in the run derives from it.
    pub seed: u64,
    /// Spatial-index strategy of the medium. Byte-identical results either
    /// way; `Grid` makes big worlds affordable (see `bench_world_scale`).
    pub medium_index: MediumIndex,
}

impl ScenarioConfig {
    /// The paper's first experimental setup: static 7×8 grid, Poisson
    /// traffic, 30 pairs.
    pub fn grid_paper(seed: u64) -> Self {
        ScenarioConfig {
            topology: TopologyCfg::Grid {
                rows: 7,
                cols: 8,
                spacing: 240.0,
            },
            field_w: 3000.0,
            field_h: 3000.0,
            tx_range: 250.0,
            cs_range: 550.0,
            propagation: PropagationModel::shadowing(2.0, 0.0),
            traffic: TrafficKind::Poisson,
            source_count: 30,
            rate_pps: 20.0,
            payload_len: 512,
            queue_cap: 50,
            mobility: None,
            sim_secs: 300,
            seed,
            medium_index: MediumIndex::default(),
        }
    }

    /// The paper's second setup: 112 random nodes, CBR traffic.
    pub fn random_paper(seed: u64) -> Self {
        ScenarioConfig {
            topology: TopologyCfg::Random { nodes: 112 },
            traffic: TrafficKind::Cbr,
            ..Self::grid_paper(seed)
        }
    }

    /// The mobile setup of Figures 5(d)/6(b): random nodes + random waypoint.
    pub fn mobile_paper(seed: u64, pause: SimDuration) -> Self {
        ScenarioConfig {
            mobility: Some(MobilityCfg {
                speed_min: 0.0,
                speed_max: 20.0,
                pause,
            }),
            ..Self::random_paper(seed)
        }
    }

    /// A thousand-node world at the paper's node density: `nodes` random
    /// nodes on a field scaled so the per-disk population matches the
    /// paper's 112-node 3000 m × 3000 m layout. Source pairs scale with
    /// the node count (the paper's 30 pairs ≈ 27% of nodes). This is the
    /// regime the spatial index exists for.
    pub fn large_world(seed: u64, nodes: usize) -> Self {
        let side = 3000.0 * (nodes as f64 / 112.0).sqrt();
        ScenarioConfig {
            topology: TopologyCfg::Random { nodes },
            field_w: side,
            field_h: side,
            source_count: (nodes * 30).div_ceil(112),
            ..Self::random_paper(seed)
        }
    }

    /// Table 1 as printable rows (parameter, value).
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        let topo = match self.topology {
            TopologyCfg::Grid { rows, cols, spacing } => {
                format!("Grid {rows}x{cols}, {spacing} m spacing")
            }
            TopologyCfg::Random { nodes } => format!("Random, {nodes} nodes"),
            TopologyCfg::Clustered { clusters, per_cluster, radius } => {
                format!("Clustered, {clusters} x {per_cluster} nodes, r = {radius} m")
            }
        };
        vec![
            ("Topology".into(), topo),
            (
                "Topology area".into(),
                format!("{} m x {} m", self.field_w, self.field_h),
            ),
            ("Transmission range".into(), format!("{} m", self.tx_range)),
            (
                "Sensing/interference range".into(),
                format!("{} m", self.cs_range),
            ),
            (
                "Mobility".into(),
                match self.mobility {
                    None => "none (static)".into(),
                    Some(m) => format!(
                        "random waypoint, {}-{} m/s, pause {}",
                        m.speed_min, m.speed_max, m.pause
                    ),
                },
            ),
            (
                "Traffic model".into(),
                format!("{:?}, {} pairs, {} pkt/s", self.traffic, self.source_count, self.rate_pps),
            ),
            ("Queue length".into(), format!("{}", self.queue_cap)),
            ("Packet size".into(), format!("{} bytes", self.payload_len)),
            ("Simulation time".into(), format!("{} s", self.sim_secs)),
            (
                "Physical, MAC layers".into(),
                "IEEE 802.11 DCF (DSSS timing)".into(),
            ),
            ("Routing protocol".into(), "AODV-lite".into()),
            ("Transport".into(), "UDP-like (no retransmission above MAC)".into()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = ScenarioConfig::grid_paper(1);
        assert_eq!(c.topology.node_count(), 56);
        assert_eq!(c.tx_range, 250.0);
        assert_eq!(c.cs_range, 550.0);
        assert_eq!(c.payload_len, 512);
        assert_eq!(c.queue_cap, 50);
        assert_eq!(c.sim_secs, 300);
        let r = ScenarioConfig::random_paper(1);
        assert_eq!(r.topology.node_count(), 112);
        assert_eq!(r.traffic, TrafficKind::Cbr);
    }

    #[test]
    fn large_world_preserves_density() {
        let small = ScenarioConfig::random_paper(1);
        let big = ScenarioConfig::large_world(1, 2000);
        assert_eq!(big.topology.node_count(), 2000);
        let density = |c: &ScenarioConfig| {
            c.topology.node_count() as f64 / (c.field_w * c.field_h)
        };
        assert!(
            (density(&small) - density(&big)).abs() / density(&small) < 0.01,
            "density drifts: {} vs {}",
            density(&small),
            density(&big)
        );
        // Sources scale proportionally (paper: 30 of 112).
        assert_eq!(big.source_count, 536);
        assert_eq!(big.medium_index, MediumIndex::Grid);
    }

    #[test]
    fn clustered_topology_counts_nodes() {
        let t = TopologyCfg::Clustered { clusters: 8, per_cluster: 60, radius: 300.0 };
        assert_eq!(t.node_count(), 480);
    }

    #[test]
    fn mobile_preset_sets_waypoint_model() {
        let c = ScenarioConfig::mobile_paper(7, SimDuration::from_secs(50));
        let m = c.mobility.expect("mobile preset has mobility");
        assert_eq!(m.speed_max, 20.0);
        assert_eq!(m.pause, SimDuration::from_secs(50));
        assert_eq!(c.topology.node_count(), 112);
    }

    #[test]
    fn table1_covers_key_parameters() {
        let rows = ScenarioConfig::grid_paper(1).table1_rows();
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        for expect in [
            "Topology",
            "Transmission range",
            "Sensing/interference range",
            "Queue length",
            "Packet size",
            "Simulation time",
        ] {
            assert!(keys.contains(&expect), "missing {expect}");
        }
    }
}
