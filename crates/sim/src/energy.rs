//! Energy model.
//!
//! Section IV-A of the paper builds its energy numbers from published 7 nm
//! silicon measurements:
//!
//! * SRAM: 5.8 pJ per bank read and 9.1 pJ per bank write, 16.9 µW leakage
//!   per 32 KB macro (Yokoyama et al., 7 nm FinFET), 0.82 ns access time —
//!   hence the 1 GHz clock.
//! * Processing unit: a single-issue in-order RISC-V-class core (Ariane /
//!   Snitch reports scaled to 7 nm).
//! * NoC: 8 pJ to move a 32-bit flit one millimetre of wire, with the
//!   router traversal costed like an ALU operation.
//!
//! [`EnergyModel`] turns the activity counters collected by the simulator
//! (SRAM accesses, PU operations, flit-hops and flit wire length) into the
//! Joule figures reported in Figures 5, 6 and 9, broken down into the same
//! three groups the paper plots: logic, memory and network.

/// Hardware energy/latency constants used by the model.  All values are the
/// paper's 7 nm numbers; constructing a custom instance lets ablation
/// benches explore other technology points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConstants {
    /// Clock frequency in Hz (1 GHz: the SRAM access time bounds the cycle).
    pub clock_hz: f64,
    /// Energy per 32-bit SRAM read, in picojoules.
    pub sram_read_pj: f64,
    /// Energy per 32-bit SRAM write, in picojoules.
    pub sram_write_pj: f64,
    /// SRAM leakage power per 32 KB macro, in microwatts.
    pub sram_leakage_uw_per_32kb: f64,
    /// Dynamic energy per PU operation (ALU op, queue register access), in
    /// picojoules.
    pub pu_op_pj: f64,
    /// PU leakage power per tile, in microwatts (the PU is clock-gated when
    /// idle, so only leakage accrues then).
    pub pu_leakage_uw: f64,
    /// Energy to move one 32-bit flit one millimetre of wire, in picojoules.
    pub noc_wire_pj_per_flit_mm: f64,
    /// Energy per flit per router traversal, in picojoules (≈ one ALU op).
    pub noc_router_pj_per_flit: f64,
}

impl EnergyConstants {
    /// The paper's 7 nm technology point.
    pub fn paper_7nm() -> Self {
        EnergyConstants {
            clock_hz: 1.0e9,
            sram_read_pj: 5.8,
            sram_write_pj: 9.1,
            sram_leakage_uw_per_32kb: 16.9,
            pu_op_pj: 4.0,
            pu_leakage_uw: 50.0,
            noc_wire_pj_per_flit_mm: 8.0,
            noc_router_pj_per_flit: 4.0,
        }
    }
}

impl Default for EnergyConstants {
    fn default() -> Self {
        EnergyConstants::paper_7nm()
    }
}

/// Activity counters accumulated over a simulation, fed to the model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActivityCounters {
    /// 32-bit scratchpad reads (data arrays and queue entries).
    pub sram_reads: u64,
    /// 32-bit scratchpad writes.
    pub sram_writes: u64,
    /// PU operations executed (ALU ops and queue-register operations).
    pub pu_ops: u64,
    /// Cycles during which each PU was active, summed over tiles.
    pub pu_busy_cycles: u64,
    /// Flit-hops through the network (each flit crossing each router).
    pub noc_flit_hops: u64,
    /// Flit wire length travelled, in millimetres.
    pub noc_flit_mm: f64,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// Energy consumed by a run, in Joules, grouped as in the paper's Figure 9.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// PU dynamic energy.
    pub pu_dynamic_j: f64,
    /// PU leakage energy over the whole runtime.
    pub pu_leakage_j: f64,
    /// SRAM dynamic (access) energy.
    pub sram_dynamic_j: f64,
    /// SRAM leakage energy over the whole runtime.
    pub sram_leakage_j: f64,
    /// Energy spent on NoC wires.
    pub noc_wire_j: f64,
    /// Energy spent in NoC routers.
    pub noc_router_j: f64,
}

impl EnergyBreakdown {
    /// Logic group (PU dynamic + PU leakage), as plotted in Figure 9.
    pub fn logic_j(&self) -> f64 {
        self.pu_dynamic_j + self.pu_leakage_j
    }

    /// Memory group (SRAM dynamic + leakage).
    pub fn memory_j(&self) -> f64 {
        self.sram_dynamic_j + self.sram_leakage_j
    }

    /// Network group (wires + routers).
    pub fn network_j(&self) -> f64 {
        self.noc_wire_j + self.noc_router_j
    }

    /// Total energy.
    pub fn total_j(&self) -> f64 {
        self.logic_j() + self.memory_j() + self.network_j()
    }

    /// Percentage shares `(logic, memory, network)` of the total, the format
    /// of Figure 9's stacked bars.
    pub fn shares_percent(&self) -> (f64, f64, f64) {
        let total = self.total_j();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.logic_j() / total,
            100.0 * self.memory_j() / total,
            100.0 * self.network_j() / total,
        )
    }
}

/// The energy model: constants plus the chip geometry they apply to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    constants: EnergyConstants,
    num_tiles: usize,
    scratchpad_bytes_per_tile: usize,
}

const PJ_TO_J: f64 = 1.0e-12;
const UW_TO_W: f64 = 1.0e-6;

impl EnergyModel {
    /// Creates a model for `num_tiles` tiles each holding
    /// `scratchpad_bytes_per_tile` of SRAM.
    pub fn new(
        constants: EnergyConstants,
        num_tiles: usize,
        scratchpad_bytes_per_tile: usize,
    ) -> Self {
        EnergyModel {
            constants,
            num_tiles,
            scratchpad_bytes_per_tile,
        }
    }

    /// The constants in use.
    pub fn constants(&self) -> &EnergyConstants {
        &self.constants
    }

    /// Wall-clock seconds corresponding to a cycle count at the model's
    /// clock frequency.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.constants.clock_hz
    }

    /// Total SRAM leakage power of the chip, in Watts.
    pub fn sram_leakage_watts(&self) -> f64 {
        let macros_per_tile = self.scratchpad_bytes_per_tile as f64 / (32.0 * 1024.0);
        self.constants.sram_leakage_uw_per_32kb * macros_per_tile * self.num_tiles as f64 * UW_TO_W
    }

    /// Total PU leakage power of the chip, in Watts.
    pub fn pu_leakage_watts(&self) -> f64 {
        self.constants.pu_leakage_uw * self.num_tiles as f64 * UW_TO_W
    }

    /// Computes the energy breakdown for a set of activity counters.
    pub fn breakdown(&self, activity: &ActivityCounters) -> EnergyBreakdown {
        let c = &self.constants;
        let runtime_s = self.seconds(activity.cycles);
        EnergyBreakdown {
            pu_dynamic_j: activity.pu_ops as f64 * c.pu_op_pj * PJ_TO_J,
            pu_leakage_j: self.pu_leakage_watts() * runtime_s,
            sram_dynamic_j: (activity.sram_reads as f64 * c.sram_read_pj
                + activity.sram_writes as f64 * c.sram_write_pj)
                * PJ_TO_J,
            sram_leakage_j: self.sram_leakage_watts() * runtime_s,
            noc_wire_j: activity.noc_flit_mm * c.noc_wire_pj_per_flit_mm * PJ_TO_J,
            noc_router_j: activity.noc_flit_hops as f64 * c.noc_router_pj_per_flit * PJ_TO_J,
        }
    }

    /// Average power over the run, in Watts.
    pub fn average_power_watts(&self, activity: &ActivityCounters) -> f64 {
        let seconds = self.seconds(activity.cycles);
        if seconds == 0.0 {
            0.0
        } else {
            self.breakdown(activity).total_j() / seconds
        }
    }

    /// Aggregate memory bandwidth actually used over the run, in bytes per
    /// second (the quantity plotted in Figure 7): every SRAM access moves
    /// one 32-bit word.
    pub fn memory_bandwidth_bytes_per_s(&self, activity: &ActivityCounters) -> f64 {
        let seconds = self.seconds(activity.cycles);
        if seconds == 0.0 {
            0.0
        } else {
            (activity.sram_reads + activity.sram_writes) as f64 * 4.0 / seconds
        }
    }

    /// Peak memory bandwidth available, in bytes per second: every tile can
    /// read and write one 32-bit word per cycle (Section III-G), so peak
    /// bandwidth scales linearly with the tile count.
    pub fn peak_memory_bandwidth_bytes_per_s(&self) -> f64 {
        self.num_tiles as f64 * 8.0 * self.constants.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::new(EnergyConstants::paper_7nm(), 256, 4 * 1024 * 1024)
    }

    #[test]
    fn zero_activity_costs_only_leakage() {
        let m = model();
        let breakdown = m.breakdown(&ActivityCounters::default());
        assert_eq!(breakdown.pu_dynamic_j, 0.0);
        assert_eq!(breakdown.sram_dynamic_j, 0.0);
        assert_eq!(breakdown.network_j(), 0.0);
        // Zero cycles means zero runtime, so leakage is zero too.
        assert_eq!(breakdown.total_j(), 0.0);
    }

    #[test]
    fn dynamic_energy_scales_with_accesses() {
        let m = model();
        let one = m.breakdown(&ActivityCounters {
            sram_reads: 1_000,
            sram_writes: 1_000,
            ..Default::default()
        });
        let two = m.breakdown(&ActivityCounters {
            sram_reads: 2_000,
            sram_writes: 2_000,
            ..Default::default()
        });
        assert!((two.sram_dynamic_j / one.sram_dynamic_j - 2.0).abs() < 1e-9);
        // Writes cost more than reads.
        let reads_only = m.breakdown(&ActivityCounters {
            sram_reads: 1_000,
            ..Default::default()
        });
        let writes_only = m.breakdown(&ActivityCounters {
            sram_writes: 1_000,
            ..Default::default()
        });
        assert!(writes_only.sram_dynamic_j > reads_only.sram_dynamic_j);
    }

    #[test]
    fn leakage_scales_with_runtime_and_memory() {
        let m = model();
        let short = m.breakdown(&ActivityCounters {
            cycles: 1_000,
            ..Default::default()
        });
        let long = m.breakdown(&ActivityCounters {
            cycles: 2_000,
            ..Default::default()
        });
        assert!((long.sram_leakage_j / short.sram_leakage_j - 2.0).abs() < 1e-9);

        let bigger = EnergyModel::new(EnergyConstants::paper_7nm(), 256, 8 * 1024 * 1024);
        assert!(bigger.sram_leakage_watts() > m.sram_leakage_watts());
    }

    #[test]
    fn shares_sum_to_hundred_percent() {
        let m = model();
        let breakdown = m.breakdown(&ActivityCounters {
            sram_reads: 10_000,
            sram_writes: 5_000,
            pu_ops: 20_000,
            noc_flit_hops: 30_000,
            noc_flit_mm: 30_000.0,
            cycles: 100_000,
            pu_busy_cycles: 50_000,
        });
        let (logic, memory, network) = breakdown.shares_percent();
        assert!((logic + memory + network - 100.0).abs() < 1e-9);
        assert!(logic > 0.0 && memory > 0.0 && network > 0.0);
    }

    #[test]
    fn bandwidth_figures() {
        let m = model();
        let activity = ActivityCounters {
            sram_reads: 1_000_000,
            sram_writes: 1_000_000,
            cycles: 1_000_000,
            ..Default::default()
        };
        // 2M words * 4 bytes over 1 ms = 8 GB/s.
        let bw = m.memory_bandwidth_bytes_per_s(&activity);
        assert!((bw - 8.0e9).abs() / 8.0e9 < 1e-9);
        // Peak: 256 tiles * 8 B/cycle * 1 GHz ≈ 2 TB/s.
        assert!((m.peak_memory_bandwidth_bytes_per_s() - 2.048e12).abs() / 2.048e12 < 1e-9);
        assert!(bw < m.peak_memory_bandwidth_bytes_per_s());
    }

    #[test]
    fn average_power_is_reasonable() {
        let m = model();
        let activity = ActivityCounters {
            sram_reads: 100_000_000,
            sram_writes: 50_000_000,
            pu_ops: 200_000_000,
            noc_flit_hops: 100_000_000,
            noc_flit_mm: 100_000_000.0,
            cycles: 1_000_000_000, // one second
            pu_busy_cycles: 500_000_000,
        };
        let watts = m.average_power_watts(&activity);
        // A 256-tile chip should sit in the single-digit-Watt range for this
        // activity level, far below HMC's hundreds of Watts.
        assert!(watts > 0.01 && watts < 100.0, "power was {watts} W");
    }
}
