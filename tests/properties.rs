//! Property-based tests (proptest) for the core invariants of the
//! reproduction: data-structure round trips, placement bijectivity, NoC
//! delivery, and simulator-vs-reference equivalence on arbitrary graphs.

use dalorex::graph::reference;
use dalorex::graph::{CsrGraph, Edge, EdgeList};
use dalorex::kernels::{BfsKernel, SpmvKernel, SsspKernel, WccKernel};
use dalorex::noc::message::Message;
use dalorex::noc::network::Network;
use dalorex::noc::topology::{GridShape, Port};
use dalorex::noc::{NocConfig, RouterScheduler, Topology};
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::placement::ArraySpace;
use dalorex::sim::queues::WordQueue;
use dalorex::sim::{
    FaultEvent, FaultPlan, Placement, RandomFaultSpec, Simulation, VertexPlacement,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One operation of the [`WordQueue`] model test.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Try to push this invocation.
    Push(Vec<u32>),
    /// Pop one word.
    PopWord,
    /// Pop an invocation of this many words (into a stack buffer).
    PopInvocation(usize),
    /// Pop an invocation of this many words, then restore it at the head
    /// (the engine's speculative pop + rejected-injection undo).
    PopAndRestore(usize),
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    // Encoded as a tuple (kind, count, words) so the strategy works with
    // both the vendored proptest stand-in and the real crate.
    (
        0usize..4,
        1usize..6,
        proptest::collection::vec(1u32..1_000_000, 1..6),
    )
        .prop_map(|(kind, count, words)| match kind {
            0 => QueueOp::Push(words),
            1 => QueueOp::PopWord,
            2 => QueueOp::PopInvocation(count),
            _ => QueueOp::PopAndRestore(count),
        })
}

/// Strategy: a random directed weighted graph with up to `max_v` vertices.
fn arb_graph(max_v: usize, max_degree: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_v).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..64), 0..n * max_degree).prop_map(
            move |triples| {
                let mut edges = EdgeList::new(n);
                for (src, dst, w) in triples {
                    edges.push(Edge::new(src as u32, dst as u32, w));
                }
                edges.dedup_and_remove_self_loops();
                CsrGraph::from_edge_list(&edges)
            },
        )
    })
}

/// Strategy: one random fault event on the 2×2 property grid — all four
/// kinds, windows inside the first couple thousand cycles so they overlap
/// real traffic.
fn arb_fault_event() -> impl Strategy<Value = FaultEvent> {
    (
        0usize..4,
        0usize..4,
        0u64..1500,
        1u64..400,
        2u64..6,
        0usize..5,
    )
        .prop_map(|(kind, tile, start, len, factor, port)| {
            let end = start + len;
            match kind {
                0 => FaultEvent::LinkOutage {
                    tile,
                    port: [
                        None,
                        Some(Port::East),
                        Some(Port::West),
                        Some(Port::North),
                        Some(Port::South),
                    ][port],
                    start,
                    end,
                },
                1 => FaultEvent::RouterStall { tile, start, end },
                2 => FaultEvent::PuSlowdown {
                    tile,
                    factor,
                    start,
                    end,
                },
                _ => FaultEvent::EndpointThrottle {
                    tile,
                    budget: 1,
                    start,
                    end,
                },
            }
        })
}

fn small_sim(graph: &CsrGraph, placement: VertexPlacement) -> Simulation {
    let config = SimConfigBuilder::new(GridConfig::new(2, 2))
        .scratchpad_bytes(1 << 20)
        .vertex_placement(placement)
        .build()
        .unwrap();
    Simulation::new(config, graph).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_word_queue_matches_vecdeque_model(
        capacity in 1usize..24,
        ops in proptest::collection::vec(arb_queue_op(), 1..120),
    ) {
        // The ring-descriptor WordQueue (storage lives in a shared arena
        // slab; the descriptor only carries offset/capacity/head/len)
        // against a straightforward VecDeque model: pushes, single-word
        // pops, allocation-free invocation pops and the speculative pop +
        // push-front undo must agree word for word, and the occupancy
        // registers must track the model exactly.  The ring is placed at
        // a nonzero slab offset with live guard words on both sides to
        // catch any out-of-span access.
        const GUARD: u32 = 0xDEAD_BEEF;
        let off = 3usize;
        let mut slab = vec![GUARD; off + capacity + 2];
        let mut queue = WordQueue::new(off, capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                QueueOp::Push(words) => {
                    let fits = words.len() <= capacity - model.len();
                    prop_assert_eq!(queue.can_push(words.len()), fits);
                    prop_assert_eq!(queue.try_push(&mut slab, &words), fits);
                    if fits {
                        model.extend(words.iter().copied());
                    }
                }
                QueueOp::PopWord => {
                    prop_assert_eq!(queue.peek(&slab), model.front().copied());
                    prop_assert_eq!(queue.pop_word(&slab), model.pop_front());
                }
                QueueOp::PopInvocation(count) => {
                    let mut buf = [0u32; 8];
                    let fits = count <= model.len();
                    prop_assert_eq!(queue.pop_invocation_into(&slab, count, &mut buf), fits);
                    if fits {
                        let expected: Vec<u32> = model.drain(..count).collect();
                        prop_assert_eq!(&buf[..count], expected.as_slice());
                    }
                }
                QueueOp::PopAndRestore(count) => {
                    if count <= model.len() {
                        let mut head = [0u32; 8];
                        prop_assert!(queue.pop_invocation_into(&slab, count, &mut head));
                        let expected: Vec<u32> =
                            model.iter().take(count).copied().collect();
                        prop_assert_eq!(&head[..count], expected.as_slice());
                        queue.push_front_invocation(&mut slab, &head[..count]);
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.is_empty(), model.is_empty());
            prop_assert_eq!(queue.free(), capacity - model.len());
            prop_assert_eq!(queue.iter(&slab).collect::<Vec<u32>>(),
                            model.iter().copied().collect::<Vec<u32>>());
            // The ring never writes outside its span.
            prop_assert!(slab[..off].iter().all(|&w| w == GUARD));
            prop_assert!(slab[off + capacity..].iter().all(|&w| w == GUARD));
        }
    }

    #[test]
    fn csr_round_trips_through_edge_lists(graph in arb_graph(120, 4)) {
        let rebuilt = CsrGraph::from_edge_list(&graph.to_edge_list());
        prop_assert_eq!(&rebuilt, &graph);
        // Transposing twice preserves the edge multiset.
        let mut a = graph.to_edge_list();
        let mut b = graph.transpose().transpose().to_edge_list();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn placement_is_a_bijection(
        tiles in 1usize..40,
        vertices in 1usize..3000,
        edges in 1usize..9000,
        interleaved in proptest::bool::ANY,
    ) {
        let placement = Placement::new(
            tiles,
            vertices,
            edges,
            if interleaved { VertexPlacement::Interleaved } else { VertexPlacement::Chunked },
        );
        for space in [ArraySpace::Vertex, ArraySpace::Edge] {
            let total = match space { ArraySpace::Vertex => vertices, ArraySpace::Edge => edges };
            let mut per_tile = vec![0usize; tiles];
            for index in 0..total {
                let owner = placement.owner(space, index);
                let local = placement.to_local(space, index);
                prop_assert!(owner < tiles);
                prop_assert!(local < placement.chunk_capacity(space));
                prop_assert_eq!(placement.to_global(space, owner, local), index);
                per_tile[owner] += 1;
            }
            prop_assert_eq!(per_tile.iter().sum::<usize>(), total);
            // Every tile's load is within one chunk of the even share.
            let max = per_tile.iter().copied().max().unwrap_or(0);
            prop_assert!(max <= placement.chunk_capacity(space));
        }
    }

    #[test]
    fn noc_delivers_every_message_exactly_once(
        messages in proptest::collection::vec((0usize..16, 0usize..16, 1usize..4, 1u32..1000), 1..80),
        torus in proptest::bool::ANY,
    ) {
        let topology = if torus { Topology::Torus } else { Topology::Mesh };
        let mut net = Network::new(NocConfig::new(GridShape::new(4, 4), topology));
        let mut expected = vec![0u32; 16];
        let mut pending: Vec<(usize, Message)> = messages
            .into_iter()
            .map(|(src, dst, len, seed)| {
                expected[dst] += 1;
                (src, Message::new(dst, (seed % 4) as usize, vec![seed; len]))
            })
            .collect();
        let mut guard = 0;
        while !pending.is_empty() {
            let mut retry = Vec::new();
            for (src, msg) in pending.drain(..) {
                if let Err(rejected) = net.try_inject(src, msg) {
                    retry.push((src, rejected.message));
                }
            }
            pending = retry;
            net.cycle();
            guard += 1;
            prop_assert!(guard < 20_000, "injection never completed");
        }
        let mut drain_guard = 0;
        while net.in_flight() > 0 {
            net.cycle();
            drain_guard += 1;
            prop_assert!(drain_guard < 100_000, "network never drained");
        }
        let mut received = vec![0u32; 16];
        for (tile, count) in received.iter_mut().enumerate() {
            while let Some(msg) = net.pop_delivered(tile) {
                prop_assert_eq!(msg.dest(), tile);
                *count += 1;
            }
        }
        prop_assert_eq!(received, expected);
        prop_assert!(net.is_idle());
    }

    #[test]
    fn any_endpoint_drain_budget_conserves_messages_and_quiesces(
        messages in proptest::collection::vec((0usize..16, 0usize..16, 1usize..4, 1u32..1000), 1..60),
        drains in 1usize..5,
        torus in proptest::bool::ANY,
    ) {
        // For any endpoint drain budget >= 1: every injected message is
        // drained exactly once (conservation) and the network eventually
        // reaches quiescence under the per-cycle endpoint drain budget.
        let topology = if torus { Topology::Torus } else { Topology::Mesh };
        let mut net = Network::new(NocConfig::new(GridShape::new(4, 4), topology));
        let mut expected = vec![0u32; 16];
        let mut pending: Vec<(usize, Message)> = messages
            .into_iter()
            .map(|(src, dst, len, seed)| {
                expected[dst] += 1;
                (src, Message::new(dst, (seed % 4) as usize, vec![seed; len]))
            })
            .collect();
        let total: u32 = expected.iter().sum();
        let mut received = vec![0u32; 16];
        let mut guard = 0;
        // Endpoint loop: inject with retry, advance, drain at most `drains`
        // messages per tile per cycle.
        while !net.is_idle() || !pending.is_empty() {
            let mut retry = Vec::new();
            for (src, msg) in pending.drain(..) {
                if let Err(rejected) = net.try_inject(src, msg) {
                    retry.push((src, rejected.message));
                }
            }
            pending = retry;
            net.cycle();
            for (tile, count) in received.iter_mut().enumerate() {
                for _ in 0..drains {
                    let Some(msg) = net.pop_delivered(tile) else { break };
                    prop_assert_eq!(msg.dest(), tile);
                    *count += 1;
                }
            }
            guard += 1;
            prop_assert!(guard < 50_000, "network never quiesced under drain budget {}", drains);
        }
        prop_assert_eq!(received, expected);
        prop_assert!(net.is_idle());
        prop_assert_eq!(net.stats().delivered_messages, u64::from(total));
        prop_assert_eq!(net.stats().injected_messages, u64::from(total));
    }

    #[test]
    fn calendar_scheduler_matches_reference_on_random_traffic(
        messages in proptest::collection::vec((0usize..16, 0usize..16, 1usize..4, 1u32..1000), 1..80),
        drains in 1usize..4,
        torus in proptest::bool::ANY,
        buffer_flits in 6usize..17,
    ) {
        // The calendar router scheduler against the reference scheduler,
        // on arbitrary traffic with a throttled endpoint (small ejection
        // buffers + a per-cycle drain budget keep some heads blocked on
        // full downstream buffers, exercising the per-buffer waiters):
        // message conservation, identical statistics, identical per-tile
        // delivery streams.  Transit buffers start at 6 flits, twice the
        // longest message, so they fill too and a wake that comes one pop
        // late shows as a divergence.  Each (tile, channel) injects from a
        // FIFO, like a tile's channel queue: its head is retried until it
        // is accepted.  On both schedulers a rejected injection blocks its
        // channel, a retry while the bit is set is rejected again, the
        // delivery bits track the ejection buffers, and no blocked bit
        // outlives the traffic.
        let topology = if torus { Topology::Torus } else { Topology::Mesh };
        let config = NocConfig::new(GridShape::new(4, 4), topology)
            .with_buffer_flits(buffer_flits)
            .with_ejection_buffer_flits(8);
        let mut calendar = Network::new(
            config.clone().with_router_scheduler(RouterScheduler::Calendar),
        );
        let mut reference =
            Network::new(config.with_router_scheduler(RouterScheduler::Reference));
        let mut expected = vec![0u32; 16];
        let mut queues: Vec<VecDeque<Message>> = vec![VecDeque::new(); 16 * 4];
        for (src, dst, len, seed) in messages {
            expected[dst] += 1;
            let channel = (seed % 4) as usize;
            queues[src * 4 + channel].push_back(Message::new(dst, channel, vec![seed; len]));
        }
        let mut pendings = [queues.clone(), queues];
        let mut received = vec![0u32; 16];
        let delivery_bits_hold = |net: &Network| {
            (0..16).all(|t| net.has_deliveries(t) == (net.delivered_waiting(t) > 0))
        };
        let mut guard = 0;
        while !calendar.is_idle()
            || !reference.is_idle()
            || pendings.iter().flatten().any(|queue| !queue.is_empty())
        {
            for (net, pending) in [&mut calendar, &mut reference].into_iter().zip(&mut pendings) {
                for (slot, queue) in pending.iter_mut().enumerate() {
                    let (src, channel) = (slot / 4, slot % 4);
                    while let Some(msg) = queue.pop_front() {
                        let was_blocked = net.blocked_channels(src) & (1 << channel) != 0;
                        match net.try_inject(src, msg) {
                            Ok(()) => prop_assert!(
                                !was_blocked,
                                "tile {} channel {} was injected while marked blocked", src, channel
                            ),
                            Err(rejected) => {
                                prop_assert!(net.blocked_channels(src) & (1 << channel) != 0);
                                queue.push_front(rejected.message);
                                break;
                            }
                        }
                    }
                }
            }
            calendar.cycle();
            reference.cycle();
            prop_assert!(delivery_bits_hold(&calendar) && delivery_bits_hold(&reference));
            for (tile, count) in received.iter_mut().enumerate() {
                for _ in 0..drains {
                    let a = calendar.pop_delivered(tile);
                    let b = reference.pop_delivered(tile);
                    prop_assert!(delivery_bits_hold(&calendar) && delivery_bits_hold(&reference));
                    prop_assert_eq!(
                        a.as_ref().map(|m| m.payload().to_vec()),
                        b.as_ref().map(|m| m.payload().to_vec()),
                        "delivery diverged at tile {}", tile
                    );
                    let Some(msg) = a else { break };
                    prop_assert_eq!(msg.dest(), tile);
                    *count += 1;
                }
            }
            guard += 1;
            prop_assert!(guard < 50_000, "networks never quiesced");
        }
        prop_assert_eq!(received, expected);
        prop_assert_eq!(calendar.stats(), reference.stats());
        prop_assert_eq!(calendar.flits_per_router(), reference.flits_per_router());
        for tile in 0..16 {
            prop_assert_eq!(calendar.blocked_channels(tile), 0, "tile {}", tile);
            prop_assert_eq!(reference.blocked_channels(tile), 0, "tile {}", tile);
        }
    }

    #[test]
    fn calendar_due_stamps_never_overshoot_commits(
        messages in proptest::collection::vec((0usize..16, 0usize..16, 1usize..4, 1u32..1000), 1..60),
        drains in 1usize..4,
        torus in proptest::bool::ANY,
    ) {
        // The calendar invariant: a router's `next_possible` due stamp is a
        // *lower bound* on its next commit — whenever a router actually
        // forwards a message (its forwarded-flit counter moves during a
        // cycle), the stamp it carried entering that cycle must have come
        // due.  An overshooting stamp would mean the due-only walk never
        // visits a router that the reference scheduler would commit,
        // silently changing the schedule.
        let topology = if torus { Topology::Torus } else { Topology::Mesh };
        let mut net = Network::new(
            NocConfig::new(GridShape::new(4, 4), topology)
                .with_ejection_buffer_flits(8)
                .with_router_scheduler(RouterScheduler::Calendar),
        );
        let mut pending: Vec<(usize, Message)> = messages
            .into_iter()
            .map(|(src, dst, len, seed)| {
                (src, Message::new(dst, (seed % 4) as usize, vec![seed; len]))
            })
            .collect();
        let mut guard = 0;
        while !net.is_idle() || !pending.is_empty() {
            let mut retry = Vec::new();
            for (src, msg) in pending.drain(..) {
                if let Err(rejected) = net.try_inject(src, msg) {
                    retry.push((src, rejected.message));
                }
            }
            pending = retry;
            let stamps: Vec<u64> = (0..16).map(|t| net.next_possible_stamp(t)).collect();
            let before = net.flits_per_router();
            let now = net.current_cycle();
            net.cycle();
            let after = net.flits_per_router();
            for tile in 0..16 {
                if after[tile] > before[tile] {
                    prop_assert!(
                        stamps[tile] <= now,
                        "router {} committed at cycle {} but its next_possible stamp was {}",
                        tile, now, stamps[tile]
                    );
                }
            }
            for tile in 0..16 {
                for _ in 0..drains {
                    if net.pop_delivered(tile).is_none() {
                        break;
                    }
                }
            }
            guard += 1;
            prop_assert!(guard < 50_000, "network never quiesced");
        }
    }

    #[test]
    fn simulated_bfs_and_sssp_match_references_on_arbitrary_graphs(
        graph in arb_graph(150, 3),
        interleaved in proptest::bool::ANY,
    ) {
        let placement = if interleaved { VertexPlacement::Interleaved } else { VertexPlacement::Chunked };
        let sim = small_sim(&graph, placement);
        let bfs = sim.run(&BfsKernel::new(0)).unwrap();
        let expected_bfs = reference::bfs(&graph, 0);
        prop_assert_eq!(bfs.output.as_u32_array("value"), expected_bfs.depths());
        let sssp = sim.run(&SsspKernel::new(0)).unwrap();
        let expected_sssp = reference::sssp(&graph, 0);
        prop_assert_eq!(sssp.output.as_u32_array("value"), expected_sssp.distances());
    }

    #[test]
    fn fault_plans_delay_but_never_drop(
        graph in arb_graph(100, 3),
        events in proptest::collection::vec(arb_fault_event(), 1..8),
        seed in 0u64..1_000,
    ) {
        // Under ANY generated fault plan — explicit windows of all four
        // kinds plus a seeded random batch — the run still quiesces and is
        // still *correct*: faults delay traffic, they never drop it.  The
        // faulted output must match both the fault-free twin and the
        // reference oracle, and the drain/delivery conservation invariant
        // must hold at quiescence.
        //
        // Delay monotonicity (a faulted run never finishes before its
        // fault-free twin) is asserted on SPMV, whose total work is fixed
        // regardless of message arrival order.  It is *not* a theorem for
        // data-dependent kernels: delaying an SSSP update can reorder
        // relaxations so a vertex sees its best distance first, pruning
        // redundant re-relaxation cascades — the faulted run then finishes
        // *earlier* (a classic scheduling anomaly, observed on this very
        // strategy).
        let build = |plan: FaultPlan| {
            let config = SimConfigBuilder::new(GridConfig::new(2, 2))
                .scratchpad_bytes(1 << 20)
                .vertex_placement(VertexPlacement::Interleaved)
                .endpoint_drains_per_cycle(2)
                .faults(plan)
                .build()
                .unwrap();
            Simulation::new(config, &graph).unwrap()
        };
        let mut plan = FaultPlan::from_events(events);
        plan.random = Some(RandomFaultSpec { seed, count: 4, horizon: 2_000 });

        let sssp = SsspKernel::new(0);
        let fault_free = build(FaultPlan::empty()).run(&sssp).unwrap();
        let faulted = build(plan.clone()).run(&sssp).unwrap();
        prop_assert_eq!(
            faulted.output.as_u32_array("value"),
            reference::sssp(&graph, 0).distances()
        );
        prop_assert_eq!(
            faulted.output.as_u32_array("value"),
            fault_free.output.as_u32_array("value")
        );
        prop_assert_eq!(
            faulted.stats.messages_received,
            faulted.stats.noc.delivered_messages
        );

        let spmv = SpmvKernel::with_default_input();
        let fault_free = build(FaultPlan::empty()).run(&spmv).unwrap();
        let faulted = build(plan).run(&spmv).unwrap();
        prop_assert_eq!(
            faulted.output.as_u32_array("y"),
            fault_free.output.as_u32_array("y")
        );
        prop_assert!(
            faulted.cycles >= fault_free.cycles,
            "faults shortened the fixed-work run: {} < {}",
            faulted.cycles,
            fault_free.cycles
        );
    }

    #[test]
    fn simulated_wcc_matches_reference_on_arbitrary_symmetric_graphs(graph in arb_graph(120, 3)) {
        let mut edges = graph.to_edge_list();
        edges.symmetrize();
        edges.dedup_and_remove_self_loops();
        let symmetric = CsrGraph::from_edge_list(&edges);
        let sim = small_sim(&symmetric, VertexPlacement::Interleaved);
        let outcome = sim.run(&WccKernel::new()).unwrap();
        let expected = reference::wcc(&symmetric);
        prop_assert_eq!(outcome.output.as_u32_array("value"), expected.labels());
    }

    #[test]
    fn simulated_spmv_matches_reference_on_arbitrary_graphs(graph in arb_graph(120, 3)) {
        let kernel = SpmvKernel::with_default_input();
        let x = kernel.input_vector(graph.num_vertices());
        let expected: Vec<u32> = reference::spmv(&graph, &x)
            .values()
            .iter()
            .map(|&v| u32::try_from(v).unwrap())
            .collect();
        let sim = small_sim(&graph, VertexPlacement::Chunked);
        let outcome = sim.run(&kernel).unwrap();
        prop_assert_eq!(outcome.output.as_u32_array("y"), expected);
    }

    #[test]
    fn energy_model_is_monotone_in_activity(
        reads in 0u64..1_000_000,
        writes in 0u64..1_000_000,
        extra in 1u64..1_000_000,
    ) {
        use dalorex::sim::energy::{ActivityCounters, EnergyConstants, EnergyModel};
        let model = EnergyModel::new(EnergyConstants::paper_7nm(), 64, 1 << 20);
        let base = ActivityCounters { sram_reads: reads, sram_writes: writes, cycles: 1000, ..Default::default() };
        let more = ActivityCounters { sram_reads: reads + extra, ..base };
        prop_assert!(model.breakdown(&more).total_j() > model.breakdown(&base).total_j());
    }
}

/// One step of a splitmix64 stream: the seeded shuffle of
/// [`tile_visit_order_cannot_change_the_schedule`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tile_visit_order_cannot_change_the_schedule(
        messages in proptest::collection::vec((0usize..16, 0usize..16, 1usize..4, 1u32..1000), 1..80),
        drains in 1usize..4,
        torus in proptest::bool::ANY,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // Routers arbitrate in ascending tile id, and between two cycles a
        // tile's calls touch only its own router, so the order in which the
        // endpoints are visited cannot change the schedule.  Two calendar
        // networks get the same traffic.  After every cycle each tile pops
        // up to `drains` deliveries, then tries its next pending injection;
        // one network visits the tiles in ascending order, the other in a
        // seeded shuffle drawn afresh every cycle.  Tight ejection buffers
        // keep heads blocked downstream, so waiter wakes are exercised.
        let topology = if torus { Topology::Torus } else { Topology::Mesh };
        let config = NocConfig::new(GridShape::new(4, 4), topology)
            .with_ejection_buffer_flits(8);
        let mut nets = [Network::new(config.clone()), Network::new(config)];
        let mut queues: Vec<VecDeque<Message>> = vec![VecDeque::new(); 16];
        for (src, dst, len, seed) in messages {
            queues[src].push_back(Message::new(dst, (seed % 4) as usize, vec![seed; len]));
        }
        let mut pendings = [queues.clone(), queues];
        let mut orders: [Vec<usize>; 2] = [(0..16).collect(), (0..16).collect()];
        let mut rng = shuffle_seed;
        let mut guard = 0;
        while nets.iter().any(|net| !net.is_idle())
            || pendings.iter().flatten().any(|queue| !queue.is_empty())
        {
            for i in (1..16).rev() {
                let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
                orders[1].swap(i, j);
            }
            let mut delivered = [vec![Vec::new(); 16], vec![Vec::new(); 16]];
            for (((net, pending), got), order) in
                nets.iter_mut().zip(&mut pendings).zip(&mut delivered).zip(&orders)
            {
                net.cycle();
                for &tile in order {
                    for _ in 0..drains {
                        let Some(msg) = net.pop_delivered(tile) else { break };
                        got[tile].push(msg.payload().to_vec());
                    }
                    if let Some(msg) = pending[tile].pop_front() {
                        if let Err(rejected) = net.try_inject(tile, msg) {
                            pending[tile].push_front(rejected.message);
                        }
                    }
                }
            }
            prop_assert_eq!(
                &delivered[0], &delivered[1],
                "deliveries diverged at cycle {}", nets[0].current_cycle()
            );
            guard += 1;
            prop_assert!(guard < 50_000, "networks never quiesced");
        }
        prop_assert_eq!(nets[0].stats(), nets[1].stats());
        prop_assert_eq!(nets[0].flits_per_router(), nets[1].flits_per_router());
    }
}
