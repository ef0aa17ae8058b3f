//! W1: a convergecast wave driven straight through the NoC's public
//! entry points, with no tiles.
//!
//! Every tile injects twelve 4-flit messages at cycle 0, three on each of
//! the four channels, alternating between two hotspot tiles.  Three is all
//! a channel's first-hop buffer takes: with 16-flit buffers the local
//! bubble rule refuses a fourth 4-flit message.  Each hotspot then pops one
//! delivery per cycle until the fabric is empty.  Any refused injection,
//! missing delivery or changed payload is a failed operation.

use crate::trace::Probe;
use crate::{Rep, SCRATCHPAD_BYTES};
use dalorex_noc::message::Message;
use dalorex_noc::network::Network;
use dalorex_noc::topology::{GridShape, Topology};
use dalorex_noc::{NocConfig, RouterScheduler};
use dalorex_sim::area::{AreaConstants, AreaModel};
use dalorex_sim::energy::{ActivityCounters, EnergyConstants, EnergyModel};
use std::time::Instant;

/// Messages each tile injects: three per channel on four channels.
const MESSAGES_PER_TILE: usize = 12;
const FLITS: usize = 4;

/// The two hotspots: opposite quadrant corners.
fn hotspots(side: usize) -> [usize; 2] {
    let half = side / 2;
    [0, half * side + half]
}

fn destination(side: usize, src: usize, k: usize) -> usize {
    hotspots(side)[(src + k) % 2]
}

/// The payload of message `k` from `src`.  The seed only changes payload
/// bits, so the modelled schedule is the same for every seed.
fn payload(seed: u64, src: usize, k: usize) -> [u32; FLITS] {
    let mut x = seed ^ ((src as u64) << 8 | k as u64);
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u32
    };
    [src as u32, k as u32, next(), next()]
}

/// A delivery popped from the fabric and the tile it left at.
#[derive(Clone)]
pub struct Delivery {
    pub tile: usize,
    pub message: Message,
}

/// The network with the wave injected, and the number of injections
/// attempted.
pub struct Injected {
    pub net: Network,
    pub attempted: u64,
}

/// Builds a `side`x`side` torus under the calendar router scheduler and
/// injects the whole wave at cycle 0.
pub fn setup(side: usize, seed: u64, probe: &mut impl Probe) -> Injected {
    let config = NocConfig::new(GridShape::new(side, side), Topology::Torus)
        .with_router_scheduler(RouterScheduler::Calendar);
    let mut net = probe.span("noc.new", || Network::new(config));
    let mut attempted = 0;
    for src in 0..side * side {
        for k in 1..=MESSAGES_PER_TILE {
            let dest = destination(side, src, k);
            if dest == src {
                continue;
            }
            attempted += 1;
            let message = Message::new(dest, k % 4, payload(seed, src, k));
            // A refused message never arrives, so the check counts it.
            let _refused = probe.span("noc.try_inject", || net.try_inject(src, message));
        }
    }
    Injected { net, attempted }
}

/// Runs the network until nothing is in flight, popping one delivery per
/// hotspot per cycle.  Returns the modelled cycle count, or `None` if the
/// wave did not drain within a generous cycle limit.
pub fn drain(
    net: &mut Network,
    side: usize,
    received: &mut Vec<Delivery>,
    probe: &mut impl Probe,
) -> Option<u64> {
    let limit = 100 * (side * side) as u64 + 100_000;
    let mut cycles = 0u64;
    while net.in_flight() > 0 {
        if cycles == limit {
            return None;
        }
        probe.span("noc.cycle", || net.cycle());
        for tile in hotspots(side) {
            if let Some(message) = probe.span("noc.pop_delivered", || net.pop_delivered(tile)) {
                received.push(Delivery { tile, message });
            }
        }
        cycles += 1;
    }
    Some(cycles)
}

/// Pops what the drain loop left in any ejection buffer.
pub fn collect_rest(net: &mut Network, received: &mut Vec<Delivery>) {
    for tile in 0..net.config().shape.num_tiles() {
        while let Some(message) = net.pop_delivered(tile) {
            received.push(Delivery { tile, message });
        }
    }
}

/// Failed operations: every expected message that did not arrive intact at
/// its hotspot, plus every duplicate delivery.
pub fn count_failures(side: usize, seed: u64, attempted: u64, received: &[Delivery]) -> u64 {
    let tiles = side * side;
    let mut seen = vec![false; tiles * MESSAGES_PER_TILE];
    let mut intact = 0u64;
    let mut duplicates = 0u64;
    for delivery in received {
        let flits = delivery.message.payload();
        let [src, k] = match flits {
            [src, k, ..] => [*src as usize, *k as usize],
            _ => continue,
        };
        let valid = src < tiles
            && (1..=MESSAGES_PER_TILE).contains(&k)
            && delivery.tile == destination(side, src, k)
            && flits == payload(seed, src, k);
        if !valid {
            continue;
        }
        let slot = &mut seen[src * MESSAGES_PER_TILE + k - 1];
        if *slot {
            duplicates += 1;
        } else {
            *slot = true;
            intact += 1;
        }
    }
    attempted.saturating_sub(intact) + duplicates
}

/// One repetition of W1: set-up (the network plus the cycle-0
/// injections), the timed drain, and the check.
pub fn rep(side: usize, seed: u64, probe: &mut impl Probe) -> Rep {
    let started = Instant::now();
    let Injected { mut net, attempted } = setup(side, seed, probe);
    let setup_s = started.elapsed().as_secs_f64();

    let mut received = Vec::with_capacity(attempted as usize);
    let started = Instant::now();
    let cycles = drain(&mut net, side, &mut received, probe);
    let run_s = started.elapsed().as_secs_f64();

    // Messages still in flight or refused at injection are missing from
    // `received`, so the count covers them.
    let failed = probe.span("bench.check", || {
        collect_rest(&mut net, &mut received);
        count_failures(side, seed, attempted, &received)
    });

    let stats = net.stats();
    let cycles = cycles.unwrap_or(0);
    let tiles = side * side;
    let area = AreaModel::new(
        AreaConstants::paper_7nm(),
        tiles,
        SCRATCHPAD_BYTES,
        Topology::Torus,
    );
    let activity = ActivityCounters {
        noc_flit_hops: stats.flit_hops,
        noc_flit_mm: stats.flit_tile_spans * area.tile_pitch_mm(),
        cycles,
        ..ActivityCounters::default()
    };
    let energy = EnergyModel::new(EnergyConstants::paper_7nm(), tiles, SCRATCHPAD_BYTES)
        .breakdown(&activity);
    let memory = net.memory_report();

    let mut rep = Rep {
        setup_s,
        run_s,
        cycles,
        tiles,
        energy_uj: energy.network_j() * 1e6,
        attempted,
        failed,
        counters: Default::default(),
    };
    rep.noc_counters(stats);
    rep.set(
        "noc.memory_bytes",
        (memory.buffer_bytes + memory.calendar_bytes) as f64,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Injected, Vec<Delivery>) {
        let mut injected = setup(8, 3, &mut ());
        let mut received = Vec::new();
        drain(&mut injected.net, 8, &mut received, &mut ()).expect("the toy wave drains");
        collect_rest(&mut injected.net, &mut received);
        (injected, received)
    }

    #[test]
    fn every_injection_fits_and_every_message_arrives() {
        let (injected, received) = toy();
        assert_eq!(injected.attempted, 64 * 12 - 2 * 6);
        assert_eq!(received.len() as u64, injected.attempted);
        assert_eq!(count_failures(8, 3, injected.attempted, &received), 0);
        // The payload is seed-specific.
        assert_eq!(
            count_failures(8, 4, injected.attempted, &received),
            injected.attempted
        );
    }

    #[test]
    fn a_dropped_message_is_one_failure() {
        let (injected, mut received) = toy();
        received.swap_remove(17);
        assert_eq!(count_failures(8, 3, injected.attempted, &received), 1);
    }

    #[test]
    fn a_changed_payload_is_one_failure() {
        let (injected, mut received) = toy();
        received[5].message.payload_mut()[3] ^= 1;
        assert_eq!(count_failures(8, 3, injected.attempted, &received), 1);
    }

    #[test]
    fn a_duplicate_delivery_is_one_failure() {
        let (injected, mut received) = toy();
        received.push(received[2].clone());
        assert_eq!(count_failures(8, 3, injected.attempted, &received), 1);
    }

    #[test]
    fn a_fourth_message_per_channel_is_refused() {
        // The reason the wave stops at twelve: the first-hop buffer of a
        // channel holds three 4-flit messages under the bubble rule.
        let mut injected = setup(8, 3, &mut ());
        let src = 1;
        let k = MESSAGES_PER_TILE + 1;
        let message = Message::new(destination(8, src, k), k % 4, payload(3, src, k));
        assert!(injected.net.try_inject(src, message).is_err());
    }
}
