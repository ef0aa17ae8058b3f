//! Regression tests for the endpoint-drain and `Network::cycle` overhaul.
//!
//! Two guarantees are pinned here.  First, `endpoint_drains_per_cycle = 1`
//! (the default) must reproduce the *exact* per-cycle schedule of the
//! pre-overhaul engine: the golden cycle and message counts below were
//! captured on the 2x2 smoke scenarios before the multi-drain endpoint
//! model and the event-driven `Network::cycle` landed, so any drift at the
//! default configuration fails loudly.  Second, with a wider endpoint
//! (`endpoint_drains_per_cycle > 1`) a dense-traffic run becomes
//! fabric-bound: the torus beats the mesh on the plain degree-8 RMAT graph,
//! without the degree-16 densification the Figure 8 shape test previously
//! needed to mask endpoint serialization.

use dalorex::baseline::Workload;
use dalorex::graph::generators::rmat::RmatConfig;
use dalorex::noc::Topology;
use dalorex::sim::config::{GridConfig, SimConfigBuilder};
use dalorex::sim::Simulation;

/// Golden outcomes of the 2x2 smoke scenarios (RMAT scale 9, degree 8,
/// seed 21, 1 MiB scratchpad, paper-default configuration), captured from
/// the pre-overhaul engine: (cycles, delivered == injected messages).  The
/// WCC row was re-captured when router arbitration became ascending tile
/// id; the other four rows did not move.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("BFS", 8843, 3624),
    ("SSSP", 21652, 8885),
    ("WCC", 22155, 10278),
    ("PageRank", 19706, 7138),
    ("SPMV", 19056, 6775),
];

fn golden_workload(name: &str) -> Workload {
    match name {
        "BFS" => Workload::Bfs { root: 0 },
        "SSSP" => Workload::Sssp { root: 0 },
        "WCC" => Workload::Wcc,
        "PageRank" => Workload::PageRank { epochs: 2 },
        "SPMV" => Workload::Spmv,
        other => panic!("unknown golden workload {other}"),
    }
}

#[test]
fn default_drain_budget_reproduces_the_pre_overhaul_schedule_exactly() {
    let graph = RmatConfig::new(9, 8).seed(21).build().unwrap();
    for &(name, golden_cycles, golden_messages) in GOLDEN {
        let config = SimConfigBuilder::new(GridConfig::square(2))
            .scratchpad_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!(config.endpoint_drains_per_cycle, 1, "default must stay 1");
        let sim = Simulation::new(config, &graph).unwrap();
        let kernel = golden_workload(name).kernel();
        let outcome = sim.run(kernel.as_ref()).unwrap();
        assert_eq!(
            outcome.cycles, golden_cycles,
            "{name}: cycle count drifted from the pre-overhaul engine"
        );
        assert_eq!(
            outcome.stats.noc.delivered_messages, golden_messages,
            "{name}: delivered-message count drifted from the pre-overhaul engine"
        );
        assert_eq!(
            outcome.stats.noc.injected_messages, golden_messages,
            "{name}: injected-message count drifted from the pre-overhaul engine"
        );
        // Conservation: everything delivered was drained into an IQ.
        assert_eq!(outcome.stats.messages_received, golden_messages);
    }
}

#[test]
fn wider_endpoints_make_the_16x16_dense_run_fabric_bound() {
    // Average degree 8 — no densification workaround.  With two drains per
    // cycle the endpoint serialization no longer hides the fabric, so the
    // torus's shorter routes and doubled bisection beat the mesh outright.
    let graph = RmatConfig::new(10, 8).seed(29).build().unwrap();
    let mut cycles = Vec::new();
    for topology in [Topology::Mesh, Topology::Torus] {
        let config = SimConfigBuilder::new(GridConfig::square(16))
            .scratchpad_bytes(1 << 20)
            .topology(topology)
            .endpoint_drains_per_cycle(2)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let kernel = Workload::Sssp { root: 0 }.kernel();
        cycles.push(sim.run(kernel.as_ref()).unwrap().cycles);
    }
    assert!(
        cycles[1] < cycles[0],
        "torus ({}) should beat mesh ({}) once endpoints stop serializing",
        cycles[1],
        cycles[0]
    );
}

#[test]
fn wider_endpoints_never_change_results_and_rarely_hurt() {
    // The drain budget is a performance knob, not a semantic one: BFS must
    // produce identical depths at every budget, and the budget sweep's
    // cycle counts must be recorded monotonically enough that a widened
    // endpoint never loses badly (ordering effects can cost a few cycles).
    use dalorex::graph::reference;
    let graph = RmatConfig::new(9, 8).seed(7).build().unwrap();
    let expected = reference::bfs(&graph, 0);
    let mut baseline = None;
    for drains in [1usize, 2, 4, 8] {
        let config = SimConfigBuilder::new(GridConfig::square(4))
            .scratchpad_bytes(1 << 20)
            .endpoint_drains_per_cycle(drains)
            .build()
            .unwrap();
        let sim = Simulation::new(config, &graph).unwrap();
        let outcome = sim.run(&dalorex::kernels::BfsKernel::new(0)).unwrap();
        assert_eq!(
            outcome.output.as_u32_array("value"),
            expected.depths(),
            "drains={drains} changed BFS results"
        );
        let cycles = outcome.cycles;
        let base = *baseline.get_or_insert(cycles);
        assert!(
            cycles <= base + base / 10,
            "drains={drains} took {cycles} cycles, far above the \
             single-drain baseline {base}"
        );
    }
}
