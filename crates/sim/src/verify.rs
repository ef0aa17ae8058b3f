//! `dalorex-verify`: static analysis of the kernel task graph.
//!
//! A Dalorex program is a *static* dataflow graph — [`TaskDecl`]s wired by
//! [`ChannelDecl`]s with fixed queue capacities and dispatch-time
//! eligibility gates — so a whole class of failures that today surface as
//! mid-run panics, watchdog [`crate::SimError::Deadlock`]s or
//! `CycleLimitExceeded` livelocks is decidable *before the first simulated
//! cycle*.  This module extracts the static model from any [`Kernel`] and
//! runs a pass pipeline over it, producing structured [`Diagnostic`]s with
//! stable codes (`V001`…).  The passes:
//!
//! 1. **Structural** (`V001`–`V016`) — dangling task/channel indices,
//!    zero-sized queues, messages that cannot fit their queues, kernels
//!    wider than the hardware's ready and channel masks, tasks auto-popping
//!    more words than the TSU's parameter buffer holds.  These
//!    would corrupt or abort a run, so they are fatal under every
//!    [`VerifyMode`], exactly as the engine's pre-verifier validation was.
//! 2. **Dataflow** (`V02x`) — unreachable tasks, tasks that can never
//!    become eligible, channel payloads that strand partial invocations in
//!    the destination IQ.
//! 3. **Blocking-graph hazards** (`V03x`) — the *blocking graph* has a
//!    produce edge `T → U` when `T` fills a queue only `U` (or the network
//!    on `U`'s behalf) can drain, and a gate edge `T → U` when `T`'s
//!    eligibility waits on space only `U`'s dispatch can free.  Cycles
//!    whose combined capacities admit a stuck fixpoint are flagged —
//!    statically rediscovering the PR 5 single-tile livelock class (`T4`
//!    spinning against a full `IQ1` with no `requires_iq_space` escape).
//! 4. **Starvation / priority heuristics** (`V04x`) — warnings derived
//!    from [`crate::tsu::Scheduler::priority`]'s occupancy rules and from
//!    queue-geometry smells (ungated best-effort producers, capacities
//!    that strand dead words).
//!
//! Passes 2–4 reason over the *declared* dataflow ([`TaskDecl::sends`],
//! [`TaskDecl::local_pushes`], [`TaskDecl::entry`]); a kernel that declares
//! no dataflow at all (every test helper kernel predating the verifier)
//! skips them and gets the structural pass only.
//!
//! The verifier runs at config-build time inside
//! [`crate::Simulation`]: [`crate::SimConfigBuilder::verify`] selects the
//! [`VerifyMode`] (default [`VerifyMode::Warn`]), the `DALOREX_VERIFY`
//! environment variable and `--verify` flag reach it through
//! `dalorex-bench`, and the standalone `verify_kernels` binary prints the
//! diagnostic table for every shipped kernel.  A kernel can suppress a
//! specific code via [`Kernel::verify_suppressions`] (see
//! `docs/VERIFIER.md` for the policy).

use crate::config::SchedulingPolicy;
use crate::kernel::{ChannelDecl, Kernel, QueueCapacity, TaskDecl, TaskParams};
use crate::tile::{MAX_AUTOPOP_WORDS, MAX_TASKS};
use dalorex_noc::MAX_CHANNELS;
use std::fmt;
use std::str::FromStr;

/// How strictly verification findings are treated at config build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Run only the structural pass (whose findings are always fatal — they
    /// would otherwise abort or corrupt the run anyway); skip the analysis
    /// passes entirely.
    Off,
    /// Run every pass; analysis errors and warnings are printed to stderr
    /// and the run proceeds.  The default.
    #[default]
    Warn,
    /// Run every pass; any error-severity finding fails the run with
    /// [`crate::SimError::Verification`].  Warnings are still only printed.
    Deny,
}

impl fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VerifyMode::Off => "off",
            VerifyMode::Warn => "warn",
            VerifyMode::Deny => "deny",
        })
    }
}

impl FromStr for VerifyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyMode::Off),
            "warn" => Ok(VerifyMode::Warn),
            "deny" => Ok(VerifyMode::Deny),
            other => Err(format!(
                "unknown verify mode {other:?} (expected off, warn or deny)"
            )),
        }
    }
}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A smell worth reading; never fails a run.
    Warning,
    /// A defect: the graph can panic, deadlock, livelock or strand work.
    /// Fatal under [`VerifyMode::Deny`] (structural errors under every
    /// mode).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`"V001"`…); the contract tests and suppressions key on
    /// this.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Whether the finding comes from the structural pass (fatal under
    /// every [`VerifyMode`], because the engine cannot run the kernel).
    pub structural: bool,
    /// What the finding is about (`"task 3 (T4-frontier)"`,
    /// `"channel 1 (CQ2)"`).
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}: {}",
            self.code, self.severity, self.subject, self.message
        )
    }
}

/// The verifier's output for one kernel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Kernel name the report is about.
    pub kernel: String,
    /// Every non-suppressed finding, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings dropped by [`Kernel::verify_suppressions`].
    pub suppressed: usize,
    /// Whether the dataflow-dependent passes ran (false when the kernel
    /// declares no [`TaskDecl::sends`]/[`TaskDecl::local_pushes`]/entry).
    pub dataflow_analyzed: bool,
}

impl VerifyReport {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether a finding with `code` is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "kernel {:?}: clean", self.kernel);
        }
        write!(
            f,
            "kernel {:?}: {} finding(s)",
            self.kernel,
            self.diagnostics.len()
        )?;
        for diag in &self.diagnostics {
            write!(f, "\n  {diag}")?;
        }
        Ok(())
    }
}

/// Inputs the verifier needs beyond the declarations themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyContext {
    /// Per-channel router buffer capacity in flits
    /// ([`crate::SimConfig::noc_buffer_flits`]).
    pub buffer_flits: usize,
    /// Per-channel ejection-buffer capacity in flits
    /// ([`crate::SimConfig::noc_ejection_flits`]).
    pub ejection_flits: usize,
    /// Scheduling policy the run uses; the `V03x` livelock passes reason
    /// over the occupancy-priority arbitration and are skipped under
    /// round-robin (which cannot starve an eligible task).
    pub scheduling: SchedulingPolicy,
}

impl VerifyContext {
    /// Context matching the paper-default simulator configuration.
    pub fn paper_default() -> Self {
        VerifyContext {
            buffer_flits: crate::config::DEFAULT_BUFFER_FLITS,
            ejection_flits: crate::config::DEFAULT_EJECTION_FLITS,
            scheduling: SchedulingPolicy::OccupancyPriority,
        }
    }
}

/// Resolved queue capacity: symbolic capacities ([`QueueCapacity::PerVertex`],
/// [`QueueCapacity::VertexBlocks`]) are sized by the workload at load time,
/// so the static analysis treats them as effectively unbounded — larger
/// than any fixed `Words` queue, and never the *blocked* side of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cap {
    Words(usize),
    Workload,
}

impl Cap {
    fn of(capacity: QueueCapacity) -> Cap {
        match capacity {
            QueueCapacity::Words(n) => Cap::Words(n),
            QueueCapacity::PerVertex | QueueCapacity::VertexBlocks => Cap::Workload,
        }
    }

    /// Whether this queue can sustain back-pressure (a bounded queue can be
    /// full for arbitrarily long; a workload-sized one is provisioned so
    /// that well-formed kernels never fill it).
    fn bounded(self) -> bool {
        matches!(self, Cap::Words(_))
    }

    /// Whether a queue of this capacity wins the occupancy-priority
    /// tie-break against one of `other` ([`crate::tsu::Scheduler::pick`]
    /// breaks priority ties toward the larger IQ; on exact ties the
    /// round-robin arbitration pointer rotates, so only a *strictly*
    /// larger queue dominates forever).
    fn outranks(self, other: Cap) -> bool {
        match (self, other) {
            (Cap::Words(a), Cap::Words(b)) => a > b,
            (Cap::Workload, Cap::Words(_)) => true,
            (Cap::Words(_), Cap::Workload) | (Cap::Workload, Cap::Workload) => false,
        }
    }
}

/// One producer edge of the blocking graph.
#[derive(Debug, Clone, Copy)]
struct ProduceEdge {
    src: usize,
    dst: usize,
    /// Channel index for network edges, `None` for same-tile local pushes.
    channel: Option<usize>,
}

/// Verifies a kernel: extracts the declarations, runs the pass pipeline
/// and applies the kernel's suppressions.
pub fn verify_kernel(kernel: &dyn Kernel, ctx: &VerifyContext) -> VerifyReport {
    let tasks = kernel.tasks();
    let channels = kernel.channels();
    let mut report = verify_decls(kernel.name(), &tasks, &channels, ctx);
    let suppressions = kernel.verify_suppressions();
    if !suppressions.is_empty() {
        let before = report.diagnostics.len();
        report
            .diagnostics
            .retain(|d| !suppressions.contains(&d.code));
        report.suppressed = before - report.diagnostics.len();
    }
    report
}

/// The testable core of [`verify_kernel`]: pure over the declarations.
pub fn verify_decls(
    name: &str,
    tasks: &[TaskDecl],
    channels: &[ChannelDecl],
    ctx: &VerifyContext,
) -> VerifyReport {
    let mut report = VerifyReport {
        kernel: name.to_string(),
        ..VerifyReport::default()
    };
    structural_pass(tasks, channels, ctx, &mut report);
    if report.errors().any(|d| d.structural) {
        // With dangling indices the analysis passes cannot even index the
        // declarations safely; the structural findings are fatal anyway.
        return report;
    }
    eligibility_pass(tasks, channels, &mut report);
    let has_dataflow = tasks
        .iter()
        .any(|t| t.entry || !t.sends.is_empty() || !t.local_pushes.is_empty());
    if has_dataflow {
        report.dataflow_analyzed = true;
        let edges = produce_edges(tasks, channels);
        reachability_pass(tasks, &edges, &mut report);
        capacity_cycle_pass(tasks, channels, &edges, &mut report);
        if ctx.scheduling == SchedulingPolicy::OccupancyPriority {
            priority_livelock_pass(tasks, channels, &edges, &mut report);
        }
        drop_hazard_pass(tasks, channels, &mut report);
    }
    gate_cycle_pass(tasks, channels, &mut report);
    geometry_warning_pass(tasks, channels, &mut report);
    report
}

fn task_subject(tasks: &[TaskDecl], id: usize) -> String {
    format!("task {id} ({})", tasks[id].name)
}

fn channel_subject(channels: &[ChannelDecl], id: usize) -> String {
    format!("channel {id} ({})", channels[id].name)
}

/// Pass 1 — structural checks.  These subsume the engine's pre-verifier
/// `validate_kernel` and are fatal under every mode: the run would panic or
/// silently mis-gate without them.
fn structural_pass(
    tasks: &[TaskDecl],
    channels: &[ChannelDecl],
    ctx: &VerifyContext,
    report: &mut VerifyReport,
) {
    let mut error = |code, subject: String, message: String| {
        report.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Error,
            structural: true,
            subject,
            message,
        });
    };
    if tasks.is_empty() {
        error(
            "V001",
            "kernel".to_string(),
            "a kernel must declare at least one task".to_string(),
        );
        return;
    }
    if tasks.len() > MAX_TASKS || channels.len() > MAX_CHANNELS {
        error(
            "V015",
            "kernel".to_string(),
            format!(
                "declares {} tasks and {} channels; the TSU's ready masks hold at most \
                 {MAX_TASKS} tasks and the router's channel mask at most {MAX_CHANNELS} channels",
                tasks.len(),
                channels.len()
            ),
        );
    }
    for (i, task) in tasks.iter().enumerate() {
        let subject = task_subject(tasks, i);
        if task.iq_capacity == QueueCapacity::Words(0) {
            error(
                "V002",
                subject.clone(),
                "declares a zero-sized IQ".to_string(),
            );
        }
        if task.params == TaskParams::AutoPop(0) {
            error(
                "V003",
                subject.clone(),
                "auto-pops zero parameters; it could dispatch forever on an empty IQ".to_string(),
            );
        }
        if let TaskParams::AutoPop(n) = task.params {
            if n > MAX_AUTOPOP_WORDS {
                error(
                    "V016",
                    subject.clone(),
                    format!(
                        "auto-pops {n} parameters; the TSU's parameter buffer holds at most \
                         {MAX_AUTOPOP_WORDS} words"
                    ),
                );
            }
        }
        for &(channel, words) in &task.cq_space_required {
            if channel >= channels.len() {
                error(
                    "V004",
                    subject.clone(),
                    format!("requires CQ space on undeclared channel {channel}"),
                );
            } else if words > channels[channel].cq_capacity_words {
                error(
                    "V005",
                    subject.clone(),
                    format!(
                        "requires {words} free CQ words on {} but its capacity is only {}; \
                         the gate can never open",
                        channels[channel].name, channels[channel].cq_capacity_words
                    ),
                );
            }
        }
        for &(watched, words) in &task.iq_space_required {
            if watched >= tasks.len() {
                error(
                    "V006",
                    subject.clone(),
                    format!("requires IQ space on undeclared task {watched}"),
                );
            } else if let QueueCapacity::Words(capacity) = tasks[watched].iq_capacity {
                if words > capacity {
                    error(
                        "V007",
                        subject.clone(),
                        format!(
                            "requires {words} free IQ words on task {watched} ({}) but its \
                             capacity is only {capacity}; the gate can never open",
                            tasks[watched].name
                        ),
                    );
                }
            }
        }
        for &channel in &task.sends {
            if channel >= channels.len() {
                error(
                    "V013",
                    subject.clone(),
                    format!("declares a send on undeclared channel {channel}"),
                );
            }
        }
        for &target in &task.local_pushes {
            if target >= tasks.len() {
                error(
                    "V014",
                    subject.clone(),
                    format!("declares a local push into undeclared task {target}"),
                );
            }
        }
    }
    for (i, channel) in channels.iter().enumerate() {
        let subject = channel_subject(channels, i);
        if channel.dest_task >= tasks.len() {
            error(
                "V008",
                subject.clone(),
                format!("targets undeclared task {}", channel.dest_task),
            );
            continue;
        }
        if channel.flits_per_message == 0 {
            error(
                "V009",
                subject.clone(),
                "declares zero-flit messages".to_string(),
            );
            continue;
        }
        let longest = dalorex_noc::max_message_flits(ctx.buffer_flits, ctx.ejection_flits);
        if channel.flits_per_message > longest {
            error(
                "V010",
                subject.clone(),
                format!(
                    "messages of {} flits exceed the {longest} flits the network carries \
                     (a message plus an equal bubble in a {}-flit router buffer, a {}-flit \
                     ejection buffer, at most {} inline flits)",
                    channel.flits_per_message,
                    ctx.buffer_flits,
                    ctx.ejection_flits,
                    dalorex_noc::MAX_FLITS
                ),
            );
        }
        if channel.cq_capacity_words < channel.flits_per_message {
            error(
                "V011",
                subject.clone(),
                format!(
                    "CQ of {} words cannot hold one {}-flit message",
                    channel.cq_capacity_words, channel.flits_per_message
                ),
            );
        }
        if let QueueCapacity::Words(dest_iq) = tasks[channel.dest_task].iq_capacity {
            if dest_iq < channel.flits_per_message {
                error(
                    "V012",
                    subject.clone(),
                    format!(
                        "{}-flit messages cannot fit task {}'s {}-word IQ",
                        channel.flits_per_message, channel.dest_task, dest_iq
                    ),
                );
            }
        }
    }
}

/// Pass 2 — eligibility and delivery-alignment checks (`V021`/`V022`).
/// Unlike the structural pass these describe graphs the engine *can* run —
/// straight into a watchdog deadlock — so they are analysis errors:
/// skipped under [`VerifyMode::Off`], fatal only under
/// [`VerifyMode::Deny`].
fn eligibility_pass(tasks: &[TaskDecl], channels: &[ChannelDecl], report: &mut VerifyReport) {
    for (i, task) in tasks.iter().enumerate() {
        let TaskParams::AutoPop(n) = task.params else {
            continue;
        };
        if let QueueCapacity::Words(capacity) = task.iq_capacity {
            if n > capacity {
                report.diagnostics.push(Diagnostic {
                    code: "V021",
                    severity: Severity::Error,
                    structural: false,
                    subject: task_subject(tasks, i),
                    message: format!(
                        "auto-pops {n} words per invocation but its IQ holds only \
                         {capacity}; the task can never become eligible and queued \
                         words deadlock"
                    ),
                });
            }
        }
    }
    for (i, channel) in channels.iter().enumerate() {
        let TaskParams::AutoPop(n) = tasks[channel.dest_task].params else {
            continue;
        };
        if n > 0 && channel.flits_per_message % n != 0 {
            report.diagnostics.push(Diagnostic {
                code: "V022",
                severity: Severity::Error,
                structural: false,
                subject: channel_subject(channels, i),
                message: format!(
                    "delivers {}-flit messages to task {} ({}), which pops {n} words per \
                     invocation; a residue below one invocation can strand in the IQ and \
                     deadlock the drain",
                    channel.flits_per_message, channel.dest_task, tasks[channel.dest_task].name
                ),
            });
        }
    }
}

/// The producer edges of the blocking graph, from the declared dataflow.
fn produce_edges(tasks: &[TaskDecl], channels: &[ChannelDecl]) -> Vec<ProduceEdge> {
    let mut edges = Vec::new();
    for (src, task) in tasks.iter().enumerate() {
        for &channel in &task.sends {
            edges.push(ProduceEdge {
                src,
                dst: channels[channel].dest_task,
                channel: Some(channel),
            });
        }
        for &dst in &task.local_pushes {
            edges.push(ProduceEdge {
                src,
                dst,
                channel: None,
            });
        }
    }
    edges
}

/// Pass 3a — reachability (`V020`): with declared entry points, every task
/// must be reachable along produce edges, or it is dead weight whose queue
/// carve-out the scratchpad pays for and whose eligibility the TSU probes
/// every cycle.
fn reachability_pass(tasks: &[TaskDecl], edges: &[ProduceEdge], report: &mut VerifyReport) {
    if !tasks.iter().any(|t| t.entry) {
        // Edges were declared but no entry marker: reachability has no
        // seeds, so flagging everything unreachable would be noise.
        return;
    }
    let mut reachable = vec![false; tasks.len()];
    let mut stack: Vec<usize> = (0..tasks.len()).filter(|&t| tasks[t].entry).collect();
    for &t in &stack {
        reachable[t] = true;
    }
    while let Some(t) = stack.pop() {
        for edge in edges.iter().filter(|e| e.src == t) {
            if !reachable[edge.dst] {
                reachable[edge.dst] = true;
                stack.push(edge.dst);
            }
        }
    }
    for (i, ok) in reachable.iter().enumerate() {
        if !ok {
            report.diagnostics.push(Diagnostic {
                code: "V020",
                severity: Severity::Error,
                structural: false,
                subject: task_subject(tasks, i),
                message: "unreachable from every entry task along the declared dataflow"
                    .to_string(),
            });
        }
    }
}

/// Whether a produce edge can sustain back-pressure onto its *source*: a
/// local push blocks when the destination IQ is full; a channel send
/// blocks when the CQ is full, which the network only sustains while the
/// destination IQ is also full (ejection drains into it).  Edges into
/// workload-sized IQs can therefore never block for long.
fn edge_can_block(edge: &ProduceEdge, tasks: &[TaskDecl]) -> bool {
    Cap::of(tasks[edge.dst].iq_capacity).bounded()
}

/// Whether `src` declares a dispatch-time gate covering this edge's
/// destination queue (a `requires_cq_space` on the channel, or a
/// `requires_iq_space` on the pushed task): a gated producer goes
/// *ineligible* instead of spinning when the queue is full.
fn edge_is_gated(edge: &ProduceEdge, tasks: &[TaskDecl]) -> bool {
    let src = &tasks[edge.src];
    match edge.channel {
        Some(channel) => src.cq_space_required.iter().any(|&(c, _)| c == channel),
        None => src.iq_space_required.iter().any(|&(t, _)| t == edge.dst),
    }
}

/// Pass 3b — capacity cycles (`V030`): a cycle of blockable produce edges
/// with no relief task admits a stuck fixpoint where every queue on the
/// cycle is full and no task can drain — space anywhere on the cycle is
/// only freed by progress elsewhere on the cycle.  A *relief* task breaks
/// the fixpoint: an ungated [`TaskParams::AutoPop`] task always consumes
/// its invocation when dispatched (a full downstream queue costs it
/// messages, not progress).  Edges into workload-sized IQs cannot sustain
/// back-pressure, so they are excluded before the cycle search.
fn capacity_cycle_pass(
    tasks: &[TaskDecl],
    channels: &[ChannelDecl],
    edges: &[ProduceEdge],
    report: &mut VerifyReport,
) {
    let n = tasks.len();
    let blockable: Vec<&ProduceEdge> = edges.iter().filter(|e| edge_can_block(e, tasks)).collect();
    // Transitive closure over the blockable edges (task counts are tiny).
    let mut reach = vec![vec![false; n]; n];
    for edge in &blockable {
        reach[edge.src][edge.dst] = true;
    }
    for k in 0..n {
        let via: Vec<usize> = (0..n).filter(|&j| reach[k][j]).collect();
        for row in reach.iter_mut() {
            if row[k] {
                for &j in &via {
                    row[j] = true;
                }
            }
        }
    }
    let on_cycle: Vec<usize> = (0..n).filter(|&t| reach[t][t]).collect();
    if on_cycle.is_empty() {
        return;
    }
    // Partition the cyclic tasks into their strongly connected components
    // (mutual reachability) and look for a relief task in each.
    let mut assigned = vec![false; n];
    for &seed in &on_cycle {
        if assigned[seed] {
            continue;
        }
        let component: Vec<usize> = on_cycle
            .iter()
            .copied()
            .filter(|&t| reach[seed][t] && reach[t][seed])
            .collect();
        for &t in &component {
            assigned[t] = true;
        }
        let relief = component.iter().any(|&t| {
            matches!(tasks[t].params, TaskParams::AutoPop(_))
                && tasks[t].cq_space_required.is_empty()
                && tasks[t].iq_space_required.is_empty()
        });
        if relief {
            continue;
        }
        let names: Vec<&str> = component.iter().map(|&t| tasks[t].name).collect();
        let capacity_note: Vec<String> = component
            .iter()
            .map(|&t| match Cap::of(tasks[t].iq_capacity) {
                Cap::Words(w) => format!("{}={w}w", tasks[t].name),
                Cap::Workload => format!("{}=workload", tasks[t].name),
            })
            .collect();
        report.diagnostics.push(Diagnostic {
            code: "V030",
            severity: Severity::Error,
            structural: false,
            subject: format!("cycle {}", names.join(" -> ")),
            message: format!(
                "capacity-gated wait cycle: every queue on the cycle is bounded \
                 ({}) and no task on it consumes unconditionally, so the combined \
                 capacities admit a stuck fixpoint once all queues fill",
                capacity_note.join(", ")
            ),
        });
        let _ = channels; // channel capacities are implied by the IQ bound above
    }
}

/// Pass 3c — occupancy-priority livelock (`V031`/`V032`): the PR 5 class.
/// A self-managed producer with no gate on a blockable edge keeps its IQ
/// words when the destination queue is full, so it stays eligible and is
/// re-dispatched without progress.  When the destination is full both
/// tasks sit at High priority (full IQs), and [`crate::tsu::Scheduler`]
/// breaks the tie toward the larger IQ: if the *blocked* producer's IQ is
/// strictly larger (or workload-sized) and upstream traffic can keep it
/// full, the drainer never runs again — dispatches count as watchdog
/// progress, so the run crawls to `CycleLimitExceeded` rather than a
/// diagnosable deadlock.  `V031` is the local-push form (the single-tile
/// `T4` vs `IQ1` livelock); `V032` the channel form (the CQ backs up into
/// the full destination IQ first).
fn priority_livelock_pass(
    tasks: &[TaskDecl],
    channels: &[ChannelDecl],
    edges: &[ProduceEdge],
    report: &mut VerifyReport,
) {
    let has_entry = tasks.iter().any(|t| t.entry);
    for edge in edges {
        if tasks[edge.src].params != TaskParams::SelfManaged
            || !edge_can_block(edge, tasks)
            || edge_is_gated(edge, tasks)
        {
            continue;
        }
        let src_cap = Cap::of(tasks[edge.src].iq_capacity);
        let dst_cap = Cap::of(tasks[edge.dst].iq_capacity);
        if !src_cap.outranks(dst_cap) {
            // The drainer wins (or rotates into) the High-vs-High
            // tie-break, so a blocked producer cannot starve it.
            continue;
        }
        // The producer's IQ must be fillable for it to reach High priority
        // while blocked: any declared in-edge or a host entry suffices.
        let fillable = tasks[edge.src].entry
            || (has_entry && edges.iter().any(|e| e.dst == edge.src))
            || (!has_entry && !edges.is_empty());
        if !fillable {
            continue;
        }
        let (code, via) = match edge.channel {
            None => ("V031", "a local push".to_string()),
            Some(c) => ("V032", format!("channel {} ({})", c, channels[c].name)),
        };
        report.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Error,
            structural: false,
            subject: task_subject(tasks, edge.src),
            message: format!(
                "self-managed producer into task {} ({})'s bounded IQ via {via} with no \
                 requires_{}_space gate: once both IQs fill, the occupancy tie-break \
                 ({:?} vs {:?}) re-dispatches the blocked producer forever and the \
                 consumer starves (the PR 5 single-tile livelock class)",
                edge.dst,
                tasks[edge.dst].name,
                if edge.channel.is_some() { "cq" } else { "iq" },
                tasks[edge.src].iq_capacity,
                tasks[edge.dst].iq_capacity,
            ),
        });
    }
}

/// Pass 3d — gate cycles (`V033`): eligibility gates form their own
/// blocking edges ("`T` dispatches only when space `U` must free exists").
/// A cycle of gates is a mutual-ineligibility fixpoint: once every watched
/// queue is short of space, no task on the cycle can ever dispatch again.
fn gate_cycle_pass(tasks: &[TaskDecl], channels: &[ChannelDecl], report: &mut VerifyReport) {
    let n = tasks.len();
    let mut reach = vec![vec![false; n]; n];
    for (src, task) in tasks.iter().enumerate() {
        // requires_cq_space waits on the CQ, which the network drains into
        // the destination task's IQ — so the space ultimately comes from
        // the destination task dispatching.
        for &(channel, _) in &task.cq_space_required {
            reach[src][channels[channel].dest_task] = true;
        }
        for &(watched, _) in &task.iq_space_required {
            reach[src][watched] = true;
        }
    }
    for k in 0..n {
        let via: Vec<usize> = (0..n).filter(|&j| reach[k][j]).collect();
        for row in reach.iter_mut() {
            if row[k] {
                for &j in &via {
                    row[j] = true;
                }
            }
        }
    }
    let mut reported = vec![false; n];
    for t in 0..n {
        if reach[t][t] && !reported[t] {
            let component: Vec<usize> = (0..n)
                .filter(|&u| reach[t][u] && reach[u][t] && reach[u][u])
                .collect();
            for &u in &component {
                reported[u] = true;
            }
            let names: Vec<&str> = component.iter().map(|&u| tasks[u].name).collect();
            report.diagnostics.push(Diagnostic {
                code: "V033",
                severity: Severity::Error,
                structural: false,
                subject: format!("gate cycle {}", names.join(" -> ")),
                message: "eligibility gates form a cycle: each task waits for queue space \
                          only another task on the cycle can free, so all of them can go \
                          permanently ineligible together"
                    .to_string(),
            });
        }
    }
}

/// Pass 4a — drop hazards (`V040`): an auto-pop task that sends or pushes
/// without a matching gate cannot block (it always consumes), but a full
/// destination queue silently costs it messages — in release builds work
/// is lost; in debug builds kernels typically assert.  Destinations with
/// workload-sized IQs are exempt (they are provisioned not to fill).
fn drop_hazard_pass(tasks: &[TaskDecl], channels: &[ChannelDecl], report: &mut VerifyReport) {
    for (i, task) in tasks.iter().enumerate() {
        if !matches!(task.params, TaskParams::AutoPop(_)) {
            continue;
        }
        let mut naked: Vec<String> = Vec::new();
        for &channel in &task.sends {
            if !task.cq_space_required.iter().any(|&(c, _)| c == channel) {
                naked.push(format!("channel {} ({})", channel, channels[channel].name));
            }
        }
        for &target in &task.local_pushes {
            let gated = task.iq_space_required.iter().any(|&(t, _)| t == target);
            if !gated && Cap::of(tasks[target].iq_capacity).bounded() {
                naked.push(format!("task {target} ({})'s IQ", tasks[target].name));
            }
        }
        if !naked.is_empty() {
            report.diagnostics.push(Diagnostic {
                code: "V040",
                severity: Severity::Warning,
                structural: false,
                subject: task_subject(tasks, i),
                message: format!(
                    "auto-pop producer into {} with no matching space gate: a full \
                     destination silently drops the message instead of back-pressuring",
                    naked.join(", ")
                ),
            });
        }
    }
}

/// Pass 4b — queue-geometry warnings (`V041`/`V042`/`V043`): capacities
/// that strand dead words or gates that only open at quiescence.  Never
/// fatal; shipped kernels may deliberately keep such capacities because
/// changing them changes the modelled schedule (and the golden cycle
/// counts pinning it) — suppress per kernel via
/// [`Kernel::verify_suppressions`] with a justification.
fn geometry_warning_pass(tasks: &[TaskDecl], channels: &[ChannelDecl], report: &mut VerifyReport) {
    for (i, channel) in channels.iter().enumerate() {
        if channel.flits_per_message > 0
            && channel.cq_capacity_words % channel.flits_per_message != 0
        {
            report.diagnostics.push(Diagnostic {
                code: "V041",
                severity: Severity::Warning,
                structural: false,
                subject: channel_subject(channels, i),
                message: format!(
                    "CQ capacity of {} words is not a multiple of the {}-flit message \
                     size; {} word(s) can never be used",
                    channel.cq_capacity_words,
                    channel.flits_per_message,
                    channel.cq_capacity_words % channel.flits_per_message
                ),
            });
        }
    }
    for (i, task) in tasks.iter().enumerate() {
        if let (TaskParams::AutoPop(n), QueueCapacity::Words(capacity)) =
            (task.params, task.iq_capacity)
        {
            if n > 0 && capacity % n != 0 {
                report.diagnostics.push(Diagnostic {
                    code: "V042",
                    severity: Severity::Warning,
                    structural: false,
                    subject: task_subject(tasks, i),
                    message: format!(
                        "IQ capacity of {capacity} words is not a multiple of the {n}-word \
                         invocation; {} word(s) can never hold a complete invocation",
                        capacity % n
                    ),
                });
            }
        }
        for &(channel, words) in &task.cq_space_required {
            if channel < channels.len() && words == channels[channel].cq_capacity_words {
                report.diagnostics.push(Diagnostic {
                    code: "V043",
                    severity: Severity::Warning,
                    structural: false,
                    subject: task_subject(tasks, i),
                    message: format!(
                        "requires {} completely empty before dispatch; under load the \
                         task only runs at quiescence",
                        channels[channel].name
                    ),
                });
            }
        }
        for &(watched, words) in &task.iq_space_required {
            if watched < tasks.len() {
                if let QueueCapacity::Words(capacity) = tasks[watched].iq_capacity {
                    if words == capacity {
                        report.diagnostics.push(Diagnostic {
                            code: "V043",
                            severity: Severity::Warning,
                            structural: false,
                            subject: task_subject(tasks, i),
                            message: format!(
                                "requires task {watched} ({})'s IQ completely empty before \
                                 dispatch; under load the task only runs at quiescence",
                                tasks[watched].name
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ArraySpace;

    fn ctx() -> VerifyContext {
        VerifyContext::paper_default()
    }

    fn codes(report: &VerifyReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn verify_mode_round_trips_and_defaults_to_warn() {
        assert_eq!(VerifyMode::default(), VerifyMode::Warn);
        for mode in [VerifyMode::Off, VerifyMode::Warn, VerifyMode::Deny] {
            assert_eq!(mode.to_string().parse::<VerifyMode>().unwrap(), mode);
        }
        assert!("strict".parse::<VerifyMode>().is_err());
    }

    #[test]
    fn empty_kernel_is_v001() {
        let report = verify_decls("t", &[], &[], &ctx());
        assert_eq!(codes(&report), vec!["V001"]);
        assert!(report.has_errors());
    }

    #[test]
    fn structural_codes_fire_individually() {
        // V002: zero-sized IQ.
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 0, TaskParams::SelfManaged)],
            &[],
            &ctx(),
        );
        assert!(report.has_code("V002"), "{report}");
        // V003: AutoPop(0).
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 8, TaskParams::AutoPop(0))],
            &[],
            &ctx(),
        );
        assert!(report.has_code("V003"), "{report}");
        // V004/V006: gates on undeclared channel/task.
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 8, TaskParams::AutoPop(1))
                .requires_cq_space(3, 1)
                .requires_iq_space(9, 1)],
            &[],
            &ctx(),
        );
        assert!(
            report.has_code("V004") && report.has_code("V006"),
            "{report}"
        );
        // V005/V007: gates wider than the watched queue.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::AutoPop(1))
                    .requires_cq_space(0, 64)
                    .requires_iq_space(1, 64),
                TaskDecl::new("b", 8, TaskParams::AutoPop(1)),
            ],
            &[ChannelDecl::new("c", 1, ArraySpace::Vertex, 1, 8)],
            &ctx(),
        );
        assert!(
            report.has_code("V005") && report.has_code("V007"),
            "{report}"
        );
        // V013/V014: declared dataflow out of range.
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 8, TaskParams::AutoPop(1))
                .sends(4)
                .pushes_local(7)],
            &[],
            &ctx(),
        );
        assert!(
            report.has_code("V013") && report.has_code("V014"),
            "{report}"
        );
    }

    #[test]
    fn structural_channel_codes_fire_individually() {
        let one_task = [TaskDecl::new("a", 8, TaskParams::AutoPop(1))];
        // V008: dangling dest_task.
        let report = verify_decls(
            "t",
            &one_task,
            &[ChannelDecl::new("c", 7, ArraySpace::Vertex, 2, 8)],
            &ctx(),
        );
        assert_eq!(codes(&report), vec!["V008"]);
        // V009: zero flits.
        let report = verify_decls(
            "t",
            &one_task,
            &[ChannelDecl::new("c", 0, ArraySpace::Vertex, 0, 8)],
            &ctx(),
        );
        assert_eq!(codes(&report), vec!["V009"]);
        // V010: message longer than the network carries: beyond the
        // ejection buffer, or without room for its bubble in a router
        // buffer.
        let huge = ctx().ejection_flits + 1;
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 10 * huge, TaskParams::AutoPop(1))],
            &[ChannelDecl::new(
                "c",
                0,
                ArraySpace::Vertex,
                huge,
                10 * huge,
            )],
            &ctx(),
        );
        assert!(report.has_code("V010"), "{report}");
        let three_flits = [ChannelDecl::new("c", 0, ArraySpace::Vertex, 3, 8)];
        let three_word_task = [TaskDecl::new("a", 8, TaskParams::AutoPop(3))];
        for (buffer_flits, fires) in [(5, true), (6, false)] {
            let ctx = VerifyContext {
                buffer_flits,
                ..ctx()
            };
            let report = verify_decls("t", &three_word_task, &three_flits, &ctx);
            assert_eq!(report.has_code("V010"), fires, "{buffer_flits}: {report}");
        }
        // V011: CQ below one message.
        let report = verify_decls(
            "t",
            &one_task,
            &[ChannelDecl::new("c", 0, ArraySpace::Vertex, 2, 1)],
            &ctx(),
        );
        assert!(report.has_code("V011"), "{report}");
        // V012: message larger than the destination IQ.
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 1, TaskParams::AutoPop(1))],
            &[ChannelDecl::new("c", 0, ArraySpace::Vertex, 2, 8)],
            &ctx(),
        );
        assert!(report.has_code("V012"), "{report}");
    }

    #[test]
    fn never_eligible_autopop_is_v021_and_misaligned_delivery_is_v022() {
        // The deliberately wedged kernel from tests/engine_error_parity.rs:
        // a 4-word IQ feeding an AutoPop(5) task over a 1-flit channel.
        let report = verify_decls(
            "stuck",
            &[
                TaskDecl::new("producer", 16, TaskParams::AutoPop(1)).requires_cq_space(0, 4),
                TaskDecl::new("consumer", 4, TaskParams::AutoPop(5)),
            ],
            &[ChannelDecl::new("flood", 1, ArraySpace::Vertex, 1, 8)],
            &ctx(),
        );
        assert!(report.has_code("V021"), "{report}");
        assert!(report.has_code("V022"), "{report}");
        // Analysis errors, not structural: the engine can run this kernel
        // (the error-parity suite does, to exercise the watchdog).
        assert!(report.errors().all(|d| !d.structural));
    }

    #[test]
    fn unreachable_task_is_v020() {
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::AutoPop(1))
                    .entry()
                    .sends(0),
                TaskDecl::new("b", 8, TaskParams::AutoPop(1)),
                TaskDecl::new("dead", 8, TaskParams::AutoPop(1)),
            ],
            &[ChannelDecl::new("c", 1, ArraySpace::Vertex, 1, 8)],
            &ctx(),
        );
        let v020: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "V020")
            .collect();
        assert_eq!(v020.len(), 1, "{report}");
        assert!(v020[0].subject.contains("dead"));
        assert!(report.dataflow_analyzed);
    }

    #[test]
    fn capacity_cycle_without_relief_is_v030() {
        // Two self-managed tasks pushing into each other's bounded IQs,
        // both gated (so the livelock pass stays quiet): once both IQs
        // fill, neither can ever dispatch — a stuck fixpoint.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::SelfManaged)
                    .entry()
                    .pushes_local(1)
                    .requires_iq_space(1, 1),
                TaskDecl::new("b", 8, TaskParams::SelfManaged)
                    .pushes_local(0)
                    .requires_iq_space(0, 1),
            ],
            &[],
            &ctx(),
        );
        assert!(report.has_code("V030"), "{report}");
        // Adding an ungated auto-pop relief task on the cycle clears it.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::SelfManaged)
                    .entry()
                    .pushes_local(1)
                    .requires_iq_space(1, 1),
                TaskDecl::new("relief", 8, TaskParams::AutoPop(1)).pushes_local(0),
            ],
            &[],
            &ctx(),
        );
        assert!(!report.has_code("V030"), "{report}");
    }

    #[test]
    fn ungated_self_managed_push_into_smaller_iq_is_v031() {
        // The pre-PR-5 scaling_study shape: a workload-sized self-managed
        // frontier task pushing into a small bounded IQ with no gate.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("explore", 64, TaskParams::SelfManaged)
                    .sends(0)
                    .entry(),
                TaskDecl::new("expand", 192, TaskParams::AutoPop(3))
                    .sends(1)
                    .requires_cq_space(1, 128),
                TaskDecl::new("update", 2048, TaskParams::AutoPop(2)).pushes_local(3),
                TaskDecl::with_capacity(
                    "frontier",
                    QueueCapacity::VertexBlocks,
                    TaskParams::SelfManaged,
                )
                .pushes_local(0)
                .entry(),
            ],
            &[
                ChannelDecl::new("CQ1", 1, ArraySpace::Edge, 3, 96),
                ChannelDecl::new("CQ2", 2, ArraySpace::Vertex, 2, 256),
            ],
            &ctx(),
        );
        assert!(report.has_code("V031"), "{report}");
        // The V031 subject is the spinning producer.
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.code == "V031")
            .unwrap();
        assert!(diag.subject.contains("frontier"), "{diag}");
        // The shipped fix — the requires_iq_space gate — clears it.
        let mut tasks = vec![
            TaskDecl::new("explore", 64, TaskParams::SelfManaged)
                .sends(0)
                .entry(),
            TaskDecl::new("expand", 192, TaskParams::AutoPop(3))
                .sends(1)
                .requires_cq_space(1, 128),
            TaskDecl::new("update", 2048, TaskParams::AutoPop(2)).pushes_local(3),
            TaskDecl::with_capacity(
                "frontier",
                QueueCapacity::VertexBlocks,
                TaskParams::SelfManaged,
            )
            .pushes_local(0)
            .requires_iq_space(0, 1)
            .entry(),
        ];
        let channels = [
            ChannelDecl::new("CQ1", 1, ArraySpace::Edge, 3, 96),
            ChannelDecl::new("CQ2", 2, ArraySpace::Vertex, 2, 256),
        ];
        let report = verify_decls("t", &tasks, &channels, &ctx());
        assert!(!report.has_errors(), "{report}");
        // A small producer that loses the tie-break is also fine ungated:
        // drop the gate but shrink the producer's IQ below the consumer's.
        tasks[3] = TaskDecl::new("frontier", 16, TaskParams::SelfManaged)
            .pushes_local(0)
            .entry();
        let report = verify_decls("t", &tasks, &channels, &ctx());
        assert!(!report.has_code("V031"), "{report}");
    }

    #[test]
    fn livelock_passes_are_scheduling_aware() {
        let tasks = [
            TaskDecl::new("big", 64, TaskParams::SelfManaged)
                .entry()
                .pushes_local(1),
            TaskDecl::new("small", 8, TaskParams::AutoPop(1)),
        ];
        let occupancy = verify_decls("t", &tasks, &[], &ctx());
        assert!(occupancy.has_code("V031"), "{occupancy}");
        // Round-robin cannot starve an eligible drainer.
        let round_robin = verify_decls(
            "t",
            &tasks,
            &[],
            &VerifyContext {
                scheduling: SchedulingPolicy::RoundRobin,
                ..ctx()
            },
        );
        assert!(!round_robin.has_code("V031"), "{round_robin}");
    }

    #[test]
    fn ungated_self_managed_channel_send_is_v032() {
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("big", 64, TaskParams::SelfManaged)
                    .entry()
                    .sends(0),
                TaskDecl::new("small", 8, TaskParams::AutoPop(1)),
            ],
            &[ChannelDecl::new("c", 1, ArraySpace::Vertex, 1, 8)],
            &ctx(),
        );
        assert!(report.has_code("V032"), "{report}");
        // With the consumer's IQ larger than the producer's, the consumer
        // wins the tie-break and always drains: no finding.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("small", 8, TaskParams::SelfManaged)
                    .entry()
                    .sends(0),
                TaskDecl::new("big", 64, TaskParams::AutoPop(1)),
            ],
            &[ChannelDecl::new("c", 1, ArraySpace::Vertex, 1, 8)],
            &ctx(),
        );
        assert!(!report.has_code("V032"), "{report}");
    }

    #[test]
    fn gate_cycle_is_v033() {
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::SelfManaged).requires_iq_space(1, 4),
                TaskDecl::new("b", 8, TaskParams::SelfManaged).requires_iq_space(0, 4),
            ],
            &[],
            &ctx(),
        );
        assert!(report.has_code("V033"), "{report}");
        // A gate chain that grounds out in an ungated task is fine.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::SelfManaged).requires_iq_space(1, 4),
                TaskDecl::new("b", 8, TaskParams::SelfManaged),
            ],
            &[],
            &ctx(),
        );
        assert!(!report.has_code("V033"), "{report}");
    }

    #[test]
    fn ungated_autopop_producer_is_v040_unless_dest_is_workload_sized() {
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::AutoPop(1))
                    .entry()
                    .sends(0)
                    .pushes_local(1),
                TaskDecl::new("b", 8, TaskParams::AutoPop(1)),
            ],
            &[ChannelDecl::new("c", 1, ArraySpace::Vertex, 1, 8)],
            &ctx(),
        );
        assert!(report.has_code("V040"), "{report}");
        // A workload-sized local destination is provisioned never to fill
        // (the shipped T3 -> T4 push): no warning.
        let report = verify_decls(
            "t",
            &[
                TaskDecl::new("a", 8, TaskParams::AutoPop(1))
                    .entry()
                    .pushes_local(1),
                TaskDecl::with_capacity("b", QueueCapacity::VertexBlocks, TaskParams::SelfManaged),
            ],
            &[],
            &ctx(),
        );
        assert!(!report.has_code("V040"), "{report}");
    }

    #[test]
    fn geometry_warnings_fire_and_never_error() {
        let report = verify_decls(
            "t",
            &[
                // V042: 10-word IQ, 3-word invocations.  V043: gate wants
                // the whole CQ free (9 of 9 words).
                TaskDecl::new("a", 10, TaskParams::AutoPop(3)).requires_cq_space(0, 9),
                TaskDecl::new("b", 8, TaskParams::AutoPop(2)),
            ],
            // V041: 9-word CQ, 2-flit messages... 9 % 2 == 1.
            &[ChannelDecl::new("c", 1, ArraySpace::Vertex, 2, 9)],
            &ctx(),
        );
        for code in ["V041", "V042", "V043"] {
            assert!(report.has_code(code), "missing {code}: {report}");
        }
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn suppressions_drop_findings_and_count_them() {
        struct Noisy;
        impl Kernel for Noisy {
            fn name(&self) -> &str {
                "noisy"
            }
            fn tasks(&self) -> Vec<TaskDecl> {
                vec![TaskDecl::new("a", 10, TaskParams::AutoPop(3))]
            }
            fn channels(&self) -> Vec<ChannelDecl> {
                vec![]
            }
            fn arrays(&self) -> Vec<crate::kernel::LocalArrayDecl> {
                vec![]
            }
            fn output_arrays(&self) -> Vec<&'static str> {
                vec![]
            }
            fn bootstrap(&self, _ctx: &mut dyn crate::kernel::BootstrapContext) {}
            fn execute(
                &self,
                _task: crate::kernel::TaskId,
                _params: &[u32],
                _ctx: &mut dyn crate::kernel::TaskContext,
            ) {
            }
            fn on_global_idle(
                &self,
                _epoch: usize,
                _ctx: &mut dyn crate::kernel::EpochContext,
            ) -> crate::kernel::EpochDecision {
                crate::kernel::EpochDecision::Finish
            }
            fn verify_suppressions(&self) -> Vec<&'static str> {
                vec!["V042"]
            }
        }
        let report = verify_kernel(&Noisy, &ctx());
        assert!(!report.has_code("V042"), "{report}");
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn kernels_without_declared_dataflow_skip_the_analysis_passes() {
        let report = verify_decls(
            "legacy",
            &[
                // Would be V031 if the dataflow were declared.
                TaskDecl::new("big", 64, TaskParams::SelfManaged),
                TaskDecl::new("small", 8, TaskParams::AutoPop(1)),
            ],
            &[],
            &ctx(),
        );
        assert!(!report.dataflow_analyzed);
        assert!(!report.has_code("V031"), "{report}");
    }

    #[test]
    fn report_display_lists_every_finding() {
        let report = verify_decls(
            "t",
            &[TaskDecl::new("a", 0, TaskParams::AutoPop(0))],
            &[],
            &ctx(),
        );
        let text = report.to_string();
        assert!(text.contains("V002") && text.contains("V003"), "{text}");
        let clean = verify_decls(
            "t",
            &[TaskDecl::new("a", 8, TaskParams::AutoPop(1))],
            &[],
            &ctx(),
        );
        assert!(clean.to_string().contains("clean"));
    }
}
