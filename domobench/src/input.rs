//! Simulated inputs and per-round seeds.

use domo_net::{run_simulation, CollectedPacket, NetworkConfig, NodeId, PacketId};
use domo_util::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// The input seed of round `round` of a run seeded with `seed`: round 0
/// uses the seed itself, later rounds fresh inputs, so a run's median
/// spans several inputs as well as several timings.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_add(round.wrapping_mul(1_000_003))
}

/// A trace as the generator sends it, sorted by sink arrival, with the
/// simulator's per-hop ground truth.
pub struct Input {
    pub packets: Vec<CollectedPacket>,
    pub truth: HashMap<PacketId, Vec<SimTime>>,
}

/// `clusters` independent `NetworkConfig::small(nodes, ·)` networks,
/// each simulated for `secs` seconds from a seed derived from `seed`,
/// feeding one shared sink: node `n ≥ 1` of cluster `i` becomes node
/// `i·(nodes−1) + n`, node 0 stays the sink.
///
/// The cost of a streaming window grows steeply with the hops of the
/// packets in it, and one 25-node network's path lengths depend on its
/// seed, so a single network makes throughput swing by 2× between
/// seeds. Windows over many clusters average their path lengths.
pub fn clusters(seed: u64, clusters: u16, nodes: u16, secs: u64) -> Input {
    let mut packets = Vec::new();
    let mut truth = HashMap::new();
    for i in 0..clusters {
        let mut net = NetworkConfig::small(
            usize::from(nodes),
            seed.wrapping_mul(1000).wrapping_add(u64::from(i)),
        );
        net.duration = SimDuration::from_secs(secs);
        let trace = run_simulation(&net);
        let remap = |n: NodeId| match n.index() {
            0 => n,
            k => NodeId::new(i * (nodes - 1) + k as u16),
        };
        for mut p in trace.packets {
            let old = p.pid;
            p.pid = PacketId::new(remap(old.origin), old.seq);
            p.path = p.path.into_iter().map(remap).collect();
            if let Some(t) = trace.ground_truth.get(&old) {
                truth.insert(p.pid, t.clone());
            }
            packets.push(p);
        }
    }
    packets.sort_by_key(|p| (p.sink_arrival, p.pid.origin.index(), p.pid.seq));
    Input { packets, truth }
}
