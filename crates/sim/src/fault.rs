//! Deterministic fault injection: timed fault schedules ([`FaultPlan`]),
//! their serialized spec format, the seeded random-plan generator, and the
//! per-run impact accounting ([`FaultReport`]).
//!
//! A fault plan is an explicit schedule of half-open cycle windows
//! `[start, end)` during which a piece of the machine degrades:
//!
//! * [`FaultEvent::LinkOutage`] — an outgoing router link stops starting
//!   new transmissions (fabric-side, modelled in `dalorex-noc`).
//! * [`FaultEvent::RouterStall`] — a whole router's crossbar freezes
//!   (fabric-side).
//! * [`FaultEvent::PuSlowdown`] — a tile's processing unit runs `factor`×
//!   slower: every task dispatched during the window occupies the PU for
//!   `factor`× its normal cost.
//! * [`FaultEvent::EndpointThrottle`] — a tile's endpoint bandwidth
//!   (messages drained/injected per cycle) is capped at `budget` during
//!   the window (never below 1, so progress is delayed, not denied).
//!
//! Faults *degrade* and never *drop*: every message still arrives, every
//! task still runs, and the run still quiesces — later.  Both engines read
//! the fault state on every cycle they simulate, so the schedule under a
//! fault plan is bit-identical between the engine and its oracle (pinned
//! by the equivalence tests in `tests/tile_path_equivalence.rs`).  An empty plan is schedule-invisible
//! and costs one branch per hot-path decision.
//!
//! # Spec format
//!
//! Plans serialize to a `;`-separated (or newline-separated, with `#`
//! comments) list of events:
//!
//! ```text
//! link:tile=5,port=east,start=100,end=200    # port omitted = all links
//! stall:tile=3,start=50,end=80
//! slow:tile=7,factor=4,start=0,end=1000
//! throttle:tile=2,budget=1,start=10,end=500
//! random:seed=42,count=8,horizon=20000      # seeded generated events
//! ```
//!
//! `random` expands deterministically — for a fixed seed *and* grid size —
//! into `count` events with windows starting inside `[0, horizon)`.

use dalorex_noc::fault::{NocFaultEvent, NocFaults};
use dalorex_noc::topology::Port;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// One timed fault event (see the [module docs](self) for the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// An outgoing link of `tile` starts no new transmissions during the
    /// window; `port: None` blacks out every outgoing link at once.
    LinkOutage {
        /// Router whose output link fails.
        tile: usize,
        /// The failing link (`None` = all of the router's links).
        port: Option<Port>,
        /// First cycle of the outage (inclusive).
        start: u64,
        /// First cycle after the outage (exclusive).
        end: u64,
    },
    /// Router `tile` commits no forwards during the window; arrivals and
    /// endpoint drains continue.
    RouterStall {
        /// The stalled router.
        tile: usize,
        /// First cycle of the stall (inclusive).
        start: u64,
        /// First cycle after the stall (exclusive).
        end: u64,
    },
    /// Tile `tile`'s PU runs `factor`× slower: a task dispatched during
    /// the window costs `factor`× its normal PU cycles.
    PuSlowdown {
        /// The degraded tile.
        tile: usize,
        /// Cost multiplier (≥ 1; 1 is a no-op).
        factor: u64,
        /// First cycle of the slowdown (inclusive).
        start: u64,
        /// First cycle after the slowdown (exclusive).
        end: u64,
    },
    /// Tile `tile`'s endpoint bandwidth is capped at `budget` messages per
    /// cycle during the window (clamped to ≥ 1 at application time).
    EndpointThrottle {
        /// The throttled tile.
        tile: usize,
        /// Per-cycle drain/inject cap (≥ 1).
        budget: usize,
        /// First cycle of the throttle (inclusive).
        start: u64,
        /// First cycle after the throttle (exclusive).
        end: u64,
    },
}

impl FaultEvent {
    /// The tile the fault applies to.
    pub fn tile(&self) -> usize {
        match *self {
            FaultEvent::LinkOutage { tile, .. }
            | FaultEvent::RouterStall { tile, .. }
            | FaultEvent::PuSlowdown { tile, .. }
            | FaultEvent::EndpointThrottle { tile, .. } => tile,
        }
    }

    /// The fault's `[start, end)` window.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            FaultEvent::LinkOutage { start, end, .. }
            | FaultEvent::RouterStall { start, end, .. }
            | FaultEvent::PuSlowdown { start, end, .. }
            | FaultEvent::EndpointThrottle { start, end, .. } => (start, end),
        }
    }

    fn validate(&self, index: usize, num_tiles: usize) -> Result<(), String> {
        let tile = self.tile();
        let (start, end) = self.window();
        if tile >= num_tiles {
            return Err(format!(
                "fault event {index} names tile {tile}, outside the {num_tiles}-tile grid"
            ));
        }
        if start >= end {
            return Err(format!(
                "fault event {index} has an empty window [{start}, {end})"
            ));
        }
        if end == u64::MAX {
            return Err(format!("fault event {index}: window end must be finite"));
        }
        match *self {
            FaultEvent::PuSlowdown { factor: 0, .. } => {
                Err(format!("fault event {index}: slowdown factor must be >= 1"))
            }
            FaultEvent::EndpointThrottle { budget: 0, .. } => Err(format!(
                "fault event {index}: throttle budget must be >= 1 (a zero budget would deny \
                 progress instead of delaying it)"
            )),
            FaultEvent::LinkOutage {
                port: Some(Port::Local),
                ..
            } => Err(format!(
                "fault event {index}: the local (ejection) port cannot fail; use a router stall"
            )),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::LinkOutage {
                tile,
                port,
                start,
                end,
            } => match port {
                Some(port) => write!(
                    f,
                    "link:tile={tile},port={},start={start},end={end}",
                    port_name(port)
                ),
                None => write!(f, "link:tile={tile},start={start},end={end}"),
            },
            FaultEvent::RouterStall { tile, start, end } => {
                write!(f, "stall:tile={tile},start={start},end={end}")
            }
            FaultEvent::PuSlowdown {
                tile,
                factor,
                start,
                end,
            } => write!(
                f,
                "slow:tile={tile},factor={factor},start={start},end={end}"
            ),
            FaultEvent::EndpointThrottle {
                tile,
                budget,
                start,
                end,
            } => write!(
                f,
                "throttle:tile={tile},budget={budget},start={start},end={end}"
            ),
        }
    }
}

/// A seeded random-plan clause: expands into `count` events (mixing all
/// four kinds) whose windows start inside `[0, horizon)`.  Deterministic
/// for a fixed `(seed, grid size)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFaultSpec {
    /// Generator seed.
    pub seed: u64,
    /// Number of events to generate (at most [`RandomFaultSpec::MAX_COUNT`]).
    pub count: usize,
    /// Upper bound (exclusive) on window start cycles; window lengths are
    /// drawn from `1..=max(horizon/8, 1)`.
    pub horizon: u64,
}

impl RandomFaultSpec {
    /// Cap on `count`, bounding the per-decision fault-lookup cost.
    pub const MAX_COUNT: usize = 256;

    /// Expands the clause into concrete events for a `num_tiles`-tile grid.
    fn expand(&self, num_tiles: usize) -> Result<Vec<FaultEvent>, String> {
        if self.count > Self::MAX_COUNT {
            return Err(format!(
                "random fault count {} exceeds the cap of {}",
                self.count,
                Self::MAX_COUNT
            ));
        }
        if self.horizon == 0 {
            return Err("random fault horizon must be >= 1".to_string());
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let max_len = (self.horizon / 8).max(1);
        let mut events = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            let kind: u32 = rng.gen_range(0u32..4);
            let tile = rng.gen_range(0usize..num_tiles);
            let start = rng.gen_range(0u64..self.horizon);
            let end = start + rng.gen_range(1u64..=max_len);
            events.push(match kind {
                0 => {
                    let port = match rng.gen_range(0u32..5) {
                        0 => None,
                        1 => Some(Port::East),
                        2 => Some(Port::West),
                        3 => Some(Port::North),
                        _ => Some(Port::South),
                    };
                    FaultEvent::LinkOutage {
                        tile,
                        port,
                        start,
                        end,
                    }
                }
                1 => FaultEvent::RouterStall { tile, start, end },
                2 => FaultEvent::PuSlowdown {
                    tile,
                    factor: rng.gen_range(2u64..=8),
                    start,
                    end,
                },
                _ => FaultEvent::EndpointThrottle {
                    tile,
                    budget: 1,
                    start,
                    end,
                },
            });
        }
        Ok(events)
    }
}

/// An explicit, serializable schedule of timed fault events, plus an
/// optional seeded random clause.  The `SimConfig` knob both cycle
/// engines apply bit-identically; an empty plan (the default) is
/// schedule-invisible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Explicit events, in spec order.
    pub events: Vec<FaultEvent>,
    /// Optional seeded generator clause, expanded at resolve time (it
    /// needs the grid size).
    pub random: Option<RandomFaultSpec>,
}

impl FaultPlan {
    /// The empty plan: no faults, schedule-invisible.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan made of the given explicit events.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            events,
            random: None,
        }
    }

    /// True when the plan schedules nothing (no explicit events and no
    /// random clause, or a random clause with `count == 0`).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.random.is_none_or(|r| r.count == 0)
    }

    /// Serializes the plan to its spec string (`;`-separated events; the
    /// random clause stays symbolic).  `parse` round-trips it exactly.
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = self.events.iter().map(|e| e.to_string()).collect();
        if let Some(random) = &self.random {
            parts.push(format!(
                "random:seed={},count={},horizon={}",
                random.seed, random.count, random.horizon
            ));
        }
        parts.join(";")
    }

    /// Parses a plan spec (see the [module docs](self) for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending event on any syntax
    /// error, unknown event kind, unknown key, or unparsable number.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split([';', '\n']) {
            let token = raw.trim();
            let token = match token.find('#') {
                Some(pos) => token[..pos].trim(),
                None => token,
            };
            if token.is_empty() {
                continue;
            }
            let (kind, rest) = token
                .split_once(':')
                .ok_or_else(|| format!("fault event '{token}' is missing its ':' separator"))?;
            let fields = parse_fields(token, rest)?;
            match kind {
                "link" => plan.events.push(FaultEvent::LinkOutage {
                    tile: require(token, &fields, "tile")?,
                    port: optional_port(token, &fields)?,
                    start: require(token, &fields, "start")?,
                    end: require(token, &fields, "end")?,
                }),
                "stall" => plan.events.push(FaultEvent::RouterStall {
                    tile: require(token, &fields, "tile")?,
                    start: require(token, &fields, "start")?,
                    end: require(token, &fields, "end")?,
                }),
                "slow" => plan.events.push(FaultEvent::PuSlowdown {
                    tile: require(token, &fields, "tile")?,
                    factor: require(token, &fields, "factor")?,
                    start: require(token, &fields, "start")?,
                    end: require(token, &fields, "end")?,
                }),
                "throttle" => plan.events.push(FaultEvent::EndpointThrottle {
                    tile: require(token, &fields, "tile")?,
                    budget: require(token, &fields, "budget")?,
                    start: require(token, &fields, "start")?,
                    end: require(token, &fields, "end")?,
                }),
                "random" => {
                    if plan.random.is_some() {
                        return Err("at most one random clause is allowed per plan".to_string());
                    }
                    plan.random = Some(RandomFaultSpec {
                        seed: require(token, &fields, "seed")?,
                        count: require(token, &fields, "count")?,
                        horizon: require(token, &fields, "horizon")?,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' in '{token}' \
                         (expected link, stall, slow, throttle or random)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Resolves the plan for a `num_tiles`-tile grid: validates every
    /// explicit event and deterministically expands the random clause.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for out-of-grid tiles, empty windows, zero
    /// factors/budgets, or an oversized random clause.
    pub fn resolve(&self, num_tiles: usize) -> Result<Vec<FaultEvent>, String> {
        if num_tiles == 0 {
            return Err("cannot resolve a fault plan for a zero-tile grid".to_string());
        }
        let mut resolved = self.events.clone();
        if let Some(random) = &self.random {
            resolved.extend(random.expand(num_tiles)?);
        }
        for (index, event) in resolved.iter().enumerate() {
            event.validate(index, num_tiles)?;
        }
        Ok(resolved)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

/// `key=value` pairs of one spec event, with duplicate/malformed checks.
fn parse_fields<'s>(token: &str, rest: &'s str) -> Result<Vec<(&'s str, &'s str)>, String> {
    let mut fields = Vec::new();
    for pair in rest.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("'{pair}' in '{token}' is not a key=value pair"))?;
        let key = key.trim();
        if fields.iter().any(|&(k, _)| k == key) {
            return Err(format!("duplicate key '{key}' in '{token}'"));
        }
        fields.push((key, value.trim()));
    }
    Ok(fields)
}

/// Looks up and parses a required numeric field.
fn require<T: FromStr>(token: &str, fields: &[(&str, &str)], key: &str) -> Result<T, String> {
    let (_, value) = fields
        .iter()
        .find(|&&(k, _)| k == key)
        .ok_or_else(|| format!("'{token}' is missing its '{key}=' field"))?;
    value
        .parse()
        .map_err(|_| format!("'{key}={value}' in '{token}' is not a valid number"))
}

/// Looks up the optional `port=` field of a link event.
fn optional_port(token: &str, fields: &[(&str, &str)]) -> Result<Option<Port>, String> {
    match fields.iter().find(|&&(k, _)| k == "port") {
        None => Ok(None),
        Some(&(_, value)) => parse_port(value)
            .map(Some)
            .map_err(|err| format!("{err} in '{token}'")),
    }
}

/// The spec name of a port.
pub fn port_name(port: Port) -> &'static str {
    match port {
        Port::East => "east",
        Port::West => "west",
        Port::North => "north",
        Port::South => "south",
        Port::RucheEast => "ruche-east",
        Port::RucheWest => "ruche-west",
        Port::RucheNorth => "ruche-north",
        Port::RucheSouth => "ruche-south",
        Port::Local => "local",
    }
}

/// Parses a spec port name (the inverse of [`port_name`]).
///
/// # Errors
///
/// Returns a diagnostic listing the valid names for anything else.
pub fn parse_port(name: &str) -> Result<Port, String> {
    match name {
        "east" => Ok(Port::East),
        "west" => Ok(Port::West),
        "north" => Ok(Port::North),
        "south" => Ok(Port::South),
        "ruche-east" => Ok(Port::RucheEast),
        "ruche-west" => Ok(Port::RucheWest),
        "ruche-north" => Ok(Port::RucheNorth),
        "ruche-south" => Ok(Port::RucheSouth),
        "local" => Ok(Port::Local),
        other => Err(format!(
            "unknown port '{other}' (expected east, west, north, south or a ruche-* variant)"
        )),
    }
}

/// Observed impact of one fault event over a run.
///
/// Fabric-side counters (`messages_delayed`, `delayed_cycles`) are
/// attributed per event at forward commits; tile-side counters
/// (`dispatches_slowed`, `extra_pu_cycles`, `throttled_messages`) are
/// accumulated per *tile*, so multiple slowdown (or throttle) events
/// sharing a tile report that tile's shared totals.  All counters derive
/// from schedule facts, so they are bit-identical across the engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultImpactEntry {
    /// The resolved event this entry describes.
    pub event: FaultEvent,
    /// Messages whose wait at the faulted fabric resource overlapped the
    /// window (link outages and router stalls).
    pub messages_delayed: u64,
    /// Total cycles of overlap between those waits and the window.
    pub delayed_cycles: u64,
    /// Task dispatches whose PU cost was multiplied (PU slowdowns).
    pub dispatches_slowed: u64,
    /// Extra PU-busy cycles those dispatches cost versus fault-free.
    pub extra_pu_cycles: u64,
    /// Messages drained/injected at the tile while throttled (endpoint
    /// throttles).
    pub throttled_messages: u64,
}

/// Per-run fault accounting carried by every `SimOutcome`: one entry per
/// resolved fault event, in plan order (empty for an empty plan).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Per-event impact entries.
    pub entries: Vec<FaultImpactEntry>,
}

impl FaultReport {
    /// True when the plan was empty (no entries at all).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no scheduled fault measurably impacted the run (all
    /// counters zero) — e.g. every window opened after quiescence.
    pub fn is_zero_impact(&self) -> bool {
        self.entries.iter().all(|e| {
            e.messages_delayed == 0
                && e.delayed_cycles == 0
                && e.dispatches_slowed == 0
                && e.extra_pu_cycles == 0
                && e.throttled_messages == 0
        })
    }

    /// Total fabric-side delay cycles attributed to faults.
    pub fn total_delayed_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.delayed_cycles).sum()
    }

    /// Throughput loss of a faulted run versus its fault-free twin:
    /// `1 - fault_free_cycles / faulted_cycles` (0 when the fault cost
    /// nothing; 0.5 when the run took twice as long).
    pub fn throughput_loss(fault_free_cycles: u64, faulted_cycles: u64) -> f64 {
        if faulted_cycles == 0 {
            return 0.0;
        }
        1.0 - fault_free_cycles as f64 / faulted_cycles as f64
    }
}

/// What a tile-side compiled window does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileFaultKind {
    /// Multiply dispatch cost by the factor.
    Slow(u64),
    /// Cap the endpoint budget.
    Throttle(usize),
}

/// One tile-side fault window, compiled for the dispatch/drain hot path.
#[derive(Debug, Clone, Copy)]
struct TileFaultWindow {
    kind: TileFaultKind,
    start: u64,
    end: u64,
}

/// A resolved, compiled fault plan, armed on a `Simulation`: the resolved
/// event list, the tile-side windows grouped per tile, and the mapping
/// from the fabric-side schedule back to plan order.  Only ever allocated
/// for a non-empty plan.
#[derive(Debug, Clone)]
pub(crate) struct ArmedFaults {
    /// Resolved events, in plan order.
    pub(crate) events: Vec<FaultEvent>,
    /// Per tile: `(offset, len)` into `tile_windows`.
    tile_index: Vec<(u32, u32)>,
    /// Tile-side (slowdown/throttle) windows, grouped by tile.
    tile_windows: Vec<TileFaultWindow>,
    /// The fabric-side schedule handed to the NoC, and per fabric event
    /// the index of its plan event (for report assembly).
    pub(crate) noc_faults: NocFaults,
    pub(crate) noc_event_map: Vec<usize>,
}

impl ArmedFaults {
    /// Resolves and compiles `plan` for a `num_tiles`-tile grid; `None`
    /// for an empty plan.
    pub(crate) fn arm(plan: &FaultPlan, num_tiles: usize) -> Result<Option<Box<Self>>, String> {
        let events = plan.resolve(num_tiles)?;
        if events.is_empty() {
            return Ok(None);
        }
        let mut noc_faults = NocFaults::default();
        let mut noc_event_map = Vec::new();
        let mut per_tile: Vec<Vec<TileFaultWindow>> = vec![Vec::new(); num_tiles];
        for (index, event) in events.iter().enumerate() {
            match *event {
                FaultEvent::LinkOutage {
                    tile,
                    port,
                    start,
                    end,
                } => {
                    noc_faults.events.push(NocFaultEvent::LinkOutage {
                        tile,
                        port,
                        start,
                        end,
                    });
                    noc_event_map.push(index);
                }
                FaultEvent::RouterStall { tile, start, end } => {
                    noc_faults
                        .events
                        .push(NocFaultEvent::RouterStall { tile, start, end });
                    noc_event_map.push(index);
                }
                FaultEvent::PuSlowdown {
                    tile,
                    factor,
                    start,
                    end,
                } => per_tile[tile].push(TileFaultWindow {
                    kind: TileFaultKind::Slow(factor),
                    start,
                    end,
                }),
                FaultEvent::EndpointThrottle {
                    tile,
                    budget,
                    start,
                    end,
                } => per_tile[tile].push(TileFaultWindow {
                    kind: TileFaultKind::Throttle(budget),
                    start,
                    end,
                }),
            }
        }
        let mut tile_index = Vec::with_capacity(num_tiles);
        let mut tile_windows = Vec::new();
        for windows in per_tile {
            tile_index.push((tile_windows.len() as u32, windows.len() as u32));
            tile_windows.extend(windows);
        }
        Ok(Some(Box::new(ArmedFaults {
            events,
            tile_index,
            tile_windows,
            noc_faults,
            noc_event_map,
        })))
    }

    #[inline]
    fn windows_at(&self, tile: usize) -> &[TileFaultWindow] {
        let (offset, len) = self.tile_index[tile];
        &self.tile_windows[offset as usize..(offset + len) as usize]
    }

    /// The PU cost multiplier active at `tile` on `cycle` (1 when none):
    /// the product of all active slowdown factors.
    #[inline]
    pub(crate) fn slow_factor(&self, tile: usize, cycle: u64) -> u64 {
        let mut factor = 1u64;
        for window in self.windows_at(tile) {
            if let TileFaultKind::Slow(f) = window.kind {
                if window.start <= cycle && cycle < window.end {
                    factor = factor.saturating_mul(f);
                }
            }
        }
        factor
    }

    /// The endpoint budget effective at `tile` on `cycle`: the configured
    /// budget capped by every active throttle window, clamped to ≥ 1 so a
    /// throttle delays progress but can never deny it.
    #[inline]
    pub(crate) fn endpoint_budget(&self, tile: usize, cycle: u64, configured: usize) -> usize {
        let mut budget = configured;
        for window in self.windows_at(tile) {
            if let TileFaultKind::Throttle(cap) = window.kind {
                if window.start <= cycle && cycle < window.end {
                    budget = budget.min(cap);
                }
            }
        }
        budget.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            events: vec![
                FaultEvent::LinkOutage {
                    tile: 5,
                    port: Some(Port::East),
                    start: 100,
                    end: 200,
                },
                FaultEvent::LinkOutage {
                    tile: 1,
                    port: None,
                    start: 3,
                    end: 9,
                },
                FaultEvent::RouterStall {
                    tile: 3,
                    start: 50,
                    end: 80,
                },
                FaultEvent::PuSlowdown {
                    tile: 7,
                    factor: 4,
                    start: 0,
                    end: 1000,
                },
                FaultEvent::EndpointThrottle {
                    tile: 2,
                    budget: 1,
                    start: 10,
                    end: 500,
                },
            ],
            random: Some(RandomFaultSpec {
                seed: 42,
                count: 8,
                horizon: 20_000,
            }),
        }
    }

    #[test]
    fn spec_round_trips_exactly() {
        let plan = sample_plan();
        let spec = plan.to_spec();
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        // And a second serialization is stable.
        assert_eq!(FaultPlan::parse(&spec).unwrap().to_spec(), spec);
    }

    #[test]
    fn parse_accepts_newlines_and_comments() {
        let plan = FaultPlan::parse(
            "# a comment line\n\
             stall:tile=0,start=1,end=2   # trailing comment\n\
             ; \n\
             slow:tile=1,factor=2,start=0,end=10",
        )
        .unwrap();
        assert_eq!(plan.events.len(), 2);
        assert!(plan.random.is_none());
    }

    #[test]
    fn parse_diagnoses_bad_specs() {
        for (spec, needle) in [
            ("flood:tile=0,start=1,end=2", "unknown fault kind"),
            ("stall tile=0", "missing its ':'"),
            ("stall:tile=0,start=1", "missing its 'end='"),
            ("stall:tile=zero,start=1,end=2", "not a valid number"),
            ("link:tile=0,port=up,start=1,end=2", "unknown port"),
            ("stall:tile=0,tile=1,start=1,end=2", "duplicate key"),
            (
                "random:seed=1,count=2,horizon=10;random:seed=2,count=1,horizon=5",
                "at most one random clause",
            ),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "spec '{spec}' produced '{err}', expected it to mention '{needle}'"
            );
        }
    }

    #[test]
    fn resolve_validates_events() {
        let out_of_grid = FaultPlan::from_events(vec![FaultEvent::RouterStall {
            tile: 99,
            start: 0,
            end: 10,
        }]);
        assert!(out_of_grid.resolve(16).unwrap_err().contains("tile 99"));
        let empty_window = FaultPlan::from_events(vec![FaultEvent::RouterStall {
            tile: 0,
            start: 10,
            end: 10,
        }]);
        assert!(empty_window
            .resolve(16)
            .unwrap_err()
            .contains("empty window"));
        let zero_budget = FaultPlan::from_events(vec![FaultEvent::EndpointThrottle {
            tile: 0,
            budget: 0,
            start: 0,
            end: 10,
        }]);
        assert!(zero_budget.resolve(16).unwrap_err().contains("budget"));
    }

    #[test]
    fn random_expansion_is_deterministic_and_valid() {
        let plan = FaultPlan {
            events: Vec::new(),
            random: Some(RandomFaultSpec {
                seed: 7,
                count: 32,
                horizon: 5_000,
            }),
        };
        let a = plan.resolve(64).unwrap();
        let b = plan.resolve(64).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        for event in &a {
            let (start, end) = event.window();
            assert!(start < end);
            assert!(event.tile() < 64);
        }
        // A different seed draws a different schedule.
        let other = FaultPlan {
            events: Vec::new(),
            random: Some(RandomFaultSpec {
                seed: 8,
                count: 32,
                horizon: 5_000,
            }),
        };
        assert_ne!(other.resolve(64).unwrap(), a);
    }

    #[test]
    fn armed_faults_answer_hot_path_queries() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent::PuSlowdown {
                tile: 1,
                factor: 3,
                start: 10,
                end: 20,
            },
            FaultEvent::PuSlowdown {
                tile: 1,
                factor: 2,
                start: 15,
                end: 25,
            },
            FaultEvent::EndpointThrottle {
                tile: 2,
                budget: 1,
                start: 5,
                end: 15,
            },
        ]);
        let armed = ArmedFaults::arm(&plan, 4).unwrap().unwrap();
        assert_eq!(armed.slow_factor(1, 9), 1);
        assert_eq!(armed.slow_factor(1, 10), 3);
        assert_eq!(armed.slow_factor(1, 17), 6); // overlapping windows compound
        assert_eq!(armed.slow_factor(1, 24), 2);
        assert_eq!(armed.slow_factor(0, 17), 1);
        assert_eq!(armed.endpoint_budget(2, 10, 4), 1);
        assert_eq!(armed.endpoint_budget(2, 20, 4), 4);
        // The clamp: a throttle can never zero the budget.
        assert_eq!(armed.endpoint_budget(2, 10, 1), 1);
    }

    #[test]
    fn empty_plan_arms_to_nothing() {
        assert!(ArmedFaults::arm(&FaultPlan::empty(), 16).unwrap().is_none());
        assert!(FaultPlan::empty().is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}
