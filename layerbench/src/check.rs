//! Checks made apart from the program: the benchmark recomputes what an
//! output must be from the inputs it drew and from the paper's model, and
//! compares. Nothing here reads a stored copy of an earlier output.

use irrnet_sim::{McastId, SimConfig, SimStats};
use irrnet_topology::routing::UNREACHABLE;
use irrnet_topology::{Network, NodeId, NodeMask, Phase, PortIdx, PortUse, SwitchId};
use std::collections::VecDeque;

/// One multicast as the benchmark drew it.
#[derive(Debug, Clone)]
pub struct Drawn {
    pub at: u64,
    pub source: NodeId,
    pub dests: Vec<NodeId>,
}

impl Drawn {
    pub fn mask(&self) -> NodeMask {
        NodeMask::from_nodes(self.dests.iter().copied())
    }
}

/// Smallest latency any delivery can have with no contention: the
/// source host's and NI's send overheads, the message's flits leaving
/// the source NI one per cycle, and the destination host's receive
/// overhead. A one-packet message also waits for the receiving NI's
/// overhead; in a longer one that work overlaps later packets' arrival.
pub fn latency_floor(cfg: &SimConfig, message_flits: u32) -> u64 {
    let recv_ni = if cfg.packets_for(message_flits) == 1 {
        cfg.o_recv_ni
    } else {
        0
    };
    cfg.o_send_host + cfg.o_send_ni + message_flits as u64 + recv_ni + cfg.o_recv_host
}

/// Every drawn multicast launched when it was due, reached exactly its
/// drawn destinations (all of them when `must_complete`, a subset
/// otherwise) with no duplicate, and no delivery beat the floor.
/// Multicast `i` of `drawn` has id `i`.
pub fn deliveries(
    stats: &SimStats,
    drawn: &[Drawn],
    floor: u64,
    must_complete: bool,
) -> Result<(), String> {
    if stats.mcasts.len() != drawn.len() {
        return Err(format!(
            "{} multicasts recorded, {} drawn",
            stats.mcasts.len(),
            drawn.len()
        ));
    }
    if stats.net.duplicate_deliveries != 0 {
        return Err(format!(
            "{} duplicate deliveries",
            stats.net.duplicate_deliveries
        ));
    }
    for (i, d) in drawn.iter().enumerate() {
        let r = stats
            .mcasts
            .get(&McastId(i as u64))
            .ok_or_else(|| format!("multicast {i} has no record"))?;
        if r.launched != d.at {
            return Err(format!(
                "multicast {i} launched at {}, due at {}",
                r.launched, d.at
            ));
        }
        let want = d.mask();
        if r.expected != want {
            return Err(format!(
                "multicast {i} expects {}, drawn {}",
                r.expected, want
            ));
        }
        let mut seen = NodeMask::EMPTY;
        let mut last = None;
        for (&n, &at) in r.deliveries.iter() {
            if !want.contains(n) || n == d.source {
                return Err(format!("multicast {i} delivered to {n}, not a destination"));
            }
            if seen.contains(n) {
                return Err(format!("multicast {i} delivered twice to {n}"));
            }
            seen.insert(n);
            let lat = at - d.at;
            if lat < floor {
                return Err(format!(
                    "multicast {i} reached {n} in {lat} cycles, floor {floor}"
                ));
            }
            last = last.max(Some(at));
        }
        let complete = seen.len() == d.dests.len();
        if complete != r.completed.is_some() || (complete && r.completed != last) {
            return Err(format!(
                "multicast {i}: completion {:?} disagrees with deliveries",
                r.completed
            ));
        }
        if must_complete && !complete {
            return Err(format!(
                "multicast {i} reached {} of {} destinations",
                seen.len(),
                d.dests.len()
            ));
        }
    }
    Ok(())
}

/// Everything in a run's stats that must not depend on how the engine
/// schedules its sweeps (so not `sweeps_run`).
pub fn digest(stats: &SimStats) -> Vec<u64> {
    let n = &stats.net;
    let mut v = vec![
        stats.cycles_run,
        n.link_flits,
        n.injected_flits,
        n.ejected_flits,
        n.packets_received,
        n.replications,
        n.max_buffer_occupancy as u64,
        n.max_ni_rx_queue as u64,
        n.ni_busy_cycles,
        n.host_busy_cycles,
        n.io_bus_busy_cycles,
    ];
    v.extend_from_slice(&stats.link_flits_per_dir);
    for r in stats.mcasts.values() {
        v.push(r.launched);
        v.push(r.completed.unwrap_or(u64::MAX));
        for (&node, &at) in r.deliveries.iter() {
            v.push(node.0 as u64);
            v.push(at);
        }
    }
    v
}

/// True when leaving `s` over the link behind `port` goes up, by
/// `UpDown`'s orientation of that link; `None` for host and open ports.
fn goes_up(net: &Network, s: SwitchId, port: usize) -> Option<(bool, SwitchId)> {
    match net.topo.switch(s).ports[port] {
        PortUse::Link { link, side } => {
            let l = net.topo.link(link);
            let peer = l.end(1 - side).0;
            Some((net.updown.up_side(link) != side, peer))
        }
        _ => None,
    }
}

/// Minimal legal up*/down* hop counts to switch `t` from every
/// `(switch, phase)`, by a backward breadth-first search over the
/// two-phase state graph: `Up` may take an up or a down link, `Down`
/// only down links, and a down link always leads into `Down`.
pub fn updown_distances(net: &Network, t: SwitchId) -> [Vec<u16>; 2] {
    let n = net.topo.num_switches();
    // Reverse edges: into[v] lists (u, went_up) for each link u -> v.
    let mut into: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for (s, sw) in net.topo.switches() {
        for p in 0..sw.num_ports() {
            if let Some((up, peer)) = goes_up(net, s, p) {
                into[peer.idx()].push((s.idx(), up));
            }
        }
    }
    let mut dist = [vec![UNREACHABLE; n], vec![UNREACHABLE; n]];
    dist[0][t.idx()] = 0;
    dist[1][t.idx()] = 0;
    let mut queue = VecDeque::from([(t.idx(), 0), (t.idx(), 1)]);
    while let Some((v, ph)) = queue.pop_front() {
        let d = dist[ph][v] + 1;
        for &(u, up) in &into[v] {
            // Arriving in Up needs an up link taken from Up; arriving in
            // Down needs a down link, taken from either phase.
            let from: &[usize] = match (ph, up) {
                (0, true) => &[0],
                (1, false) => &[0, 1],
                _ => &[],
            };
            for &fp in from {
                if dist[fp][u] == UNREACHABLE {
                    dist[fp][u] = d;
                    queue.push_back((u, fp));
                }
            }
        }
    }
    dist
}

/// Compare the program's routing tables for target `t` with the
/// benchmark's own search: every distance, and every next-hop set (as
/// `(port, next phase)` pairs, sorted).
pub fn routing_target(net: &Network, t: SwitchId) -> Result<(), String> {
    let dist = updown_distances(net, t);
    for (s, sw) in net.topo.switches() {
        for (pi, phase) in [Phase::Up, Phase::Down].into_iter().enumerate() {
            let got = net.routing.distance(s, phase, t);
            let want = dist[pi][s.idx()];
            if got != want {
                return Err(format!(
                    "distance {s}->{t} ({phase:?}): table {got}, search {want}"
                ));
            }
            let mut want_hops = Vec::new();
            if want != UNREACHABLE && want > 0 {
                for p in 0..sw.num_ports() {
                    let Some((up, peer)) = goes_up(net, s, p) else {
                        continue;
                    };
                    if up && phase == Phase::Down {
                        continue;
                    }
                    let np = usize::from(!up);
                    if dist[np][peer.idx()] != UNREACHABLE && dist[np][peer.idx()] + 1 == want {
                        want_hops.push((p as u8, np));
                    }
                }
            }
            let mut got_hops: Vec<(u8, usize)> = net
                .routing
                .next_hops(s, phase, t)
                .iter()
                .map(|c| (c.port.0, usize::from(c.next_phase == Phase::Down)))
                .collect();
            got_hops.sort_unstable();
            if got_hops != want_hops {
                return Err(format!(
                    "next hops {s}->{t} ({phase:?}): table {got_hops:?}, search {want_hops:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Compare every port's reachability set at switch `s` with a traversal
/// of down links: a host port reaches its host, a down-link port reaches
/// every host below the peer, anything else reaches nothing.
pub fn reach_switch(net: &Network, s: SwitchId) -> Result<(), String> {
    let n_sw = net.topo.num_switches();
    for p in 0..net.topo.switch(s).num_ports() {
        let mut want: Vec<u16> = match net.topo.switch(s).ports[p] {
            PortUse::Host(h) => vec![h.0],
            PortUse::Open => Vec::new(),
            PortUse::Link { .. } => match goes_up(net, s, p) {
                Some((false, peer)) => hosts_below(net, peer, n_sw),
                _ => Vec::new(),
            },
        };
        want.sort_unstable();
        let got: Vec<u16> = net
            .reach
            .port(s, PortIdx(p as u8))
            .iter()
            .map(|n| n.0)
            .collect();
        if got != want {
            return Err(format!(
                "reachability of {s} port {p}: {} nodes in the table, {} by traversal",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

fn hosts_below(net: &Network, top: SwitchId, n_sw: usize) -> Vec<u16> {
    let mut seen = vec![false; n_sw];
    let mut stack = vec![top];
    seen[top.idx()] = true;
    let mut hosts = Vec::new();
    while let Some(v) = stack.pop() {
        for (p, pu) in net.topo.switch(v).ports.iter().enumerate() {
            match *pu {
                PortUse::Host(h) => hosts.push(h.0),
                PortUse::Link { .. } => {
                    if let Some((false, peer)) = goes_up(net, v, p) {
                        if !seen[peer.idx()] {
                            seen[peer.idx()] = true;
                            stack.push(peer);
                        }
                    }
                }
                PortUse::Open => {}
            }
        }
    }
    hosts
}
