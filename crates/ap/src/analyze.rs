//! `speclint`: static analysis and vacuity checking for AP protocol specs.
//!
//! A [`SystemSpec`] encodes guards and effects as opaque closures, so a
//! mis-encoded spec — an action that can never fire, a send to a process
//! that never receives, a receive guard on a channel nobody writes —
//! silently shrinks the explored state space and makes an "invariant
//! holds" verdict vacuous. This module proves the encoding structurally
//! sound *before* exploration results are trusted:
//!
//! 1. **Declarative metadata** ([`ActionMeta`], attached via
//!    [`SystemSpec::add_action_meta`]) lets each action declare its
//!    read/write variable footprint and send targets.
//! 2. **Structural lints** ([`analyze_structure`]) check the spec graph
//!    without executing anything: out-of-range channel endpoints, sends
//!    nobody receives, permanently disabled receive guards, duplicate
//!    action names, empty processes, self-sends, write-only and
//!    read-only variables — each with a stable code (`AP001`…) and a
//!    severity. The same pass derives the **action-independence
//!    relation** from the footprints: the input a partial-order-reducing
//!    explorer needs.
//! 3. **Explorer-backed vacuity analysis** ([`analyze`]) runs bounded
//!    exploration with per-action fire counters
//!    ([`ExploreReport::action_fires`](crate::explore::ExploreReport::action_fires)) to flag actions that never fire
//!    (dead guards), and replays the space with traced execution to
//!    cross-check *observed* send targets against the declared
//!    footprints — a lying footprint is caught, not trusted.
//!
//! Reports render human-readable (via [`fmt::Display`]) and
//! machine-readable ([`AnalysisReport::to_json`], a hand-written JSON
//! writer). The `speclint` binary in `zmail-bench` runs this over every
//! bundled spec configuration and exits nonzero on any
//! [`Severity::Error`].
//!
//! # Lint catalogue
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | AP001 | Error | channel endpoint (declared send target or receive source) out of process range |
//! | AP002 | Error | declared send to a process with no receive action for that channel |
//! | AP003 | Error | receive guard on a channel that no sender action writes (permanently disabled) |
//! | AP004 | Error | duplicate action name within one process |
//! | AP005 | Warn | process declares no actions |
//! | AP006 | Warn | declared self-send |
//! | AP007 | Warn | variable written by some action of a process but read by none |
//! | AP008 | Warn | variable read by some action of a process but written by none |
//! | AP009 | Info | action lacks footprint metadata (excluded from footprint lints and independence) |
//! | AP010 | Warn/Info | action never fired within the exploration bound (Warn when the space was exhausted — a proven-dead guard; Info when the budget was hit first) |
//! | AP011 | Error | observed send to a target the footprint does not declare (footprint lie) |
//! | AP012 | Info | declared send target never observed within an exhausted exploration |
//! | AP013 | Error | model-dependent pair whose mirrored sim footprints are disjoint, with no structural explanation (shared local state the executable world's keys cannot see) |
//! | AP014 | Info | model-independent pair whose mirrored sim footprints overlap (executable footprint coarser than the proven relation — sound, but batching-pessimal) |
//!
//! # Independence cross-check
//!
//! [`independence_crosscheck`] closes the loop between the *verified
//! model* and the *executable world*: the AP independence relation
//! derived here is compared against the `zmail_sim::World` footprint keys
//! of the sim events that mirror each spec action (supplied by the
//! caller, e.g. `zmail_core::spec::sim_mirror_footprints`). Two kinds
//! of divergence exist:
//!
//! * **disjoint-but-dependent** (`AP013`): the model orders the pair,
//!   the sim keys do not. Most such pairs are *explained* — the
//!   dependence is carried by a mechanism other than shared keys
//!   (FIFO channel delivery maps to scheduler event ordering; a
//!   `reads_global` timeout guard maps to the serialized apply phase;
//!   same-process control flow with no shared variables). The
//!   *unexplained* residue — same-process actions that share local
//!   variables yet map to disjoint keys — is an error: the executable
//!   footprints would reorder accesses the model proves conflicting.
//! * **overlap-but-independent** (`AP014`): the model proves the pair
//!   commutes but the sim keys collide. Sound (over-declaring only
//!   costs parallelism), so advisory.

use crate::explore::{explore, ExploreConfig, ExploreOutcome};
use crate::process::{ActionMeta, Guard, Pid, SystemSpec};
use crate::state::SystemState;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Stable diagnostic codes emitted by the analyzer, one constant per
/// lint class (see the [module docs](self) for the full catalogue).
pub mod codes {
    /// Channel endpoint out of process range.
    pub const ENDPOINT_OUT_OF_RANGE: &str = "AP001";
    /// Declared send to a process that never receives on that channel.
    pub const SEND_NEVER_RECEIVED: &str = "AP002";
    /// Receive guard on a channel no sender writes.
    pub const RECEIVE_NEVER_SENT: &str = "AP003";
    /// Duplicate action name within one process.
    pub const DUPLICATE_ACTION: &str = "AP004";
    /// Process with zero actions.
    pub const EMPTY_PROCESS: &str = "AP005";
    /// Declared self-send.
    pub const SELF_SEND: &str = "AP006";
    /// Variable written but never read within its process.
    pub const WRITE_NEVER_READ: &str = "AP007";
    /// Variable read but never written within its process.
    pub const READ_NEVER_WRITTEN: &str = "AP008";
    /// Action without footprint metadata.
    pub const MISSING_FOOTPRINT: &str = "AP009";
    /// Action never fired within the exploration bound.
    pub const NEVER_FIRES: &str = "AP010";
    /// Observed send target missing from the declared footprint.
    pub const UNDECLARED_SEND: &str = "AP011";
    /// Declared send target never observed.
    pub const DECLARED_SEND_UNOBSERVED: &str = "AP012";
    /// Model-dependent pair with disjoint sim footprints and no
    /// structural explanation.
    pub const DISJOINT_BUT_DEPENDENT: &str = "AP013";
    /// Model-independent pair with overlapping sim footprints.
    pub const OVERLAP_BUT_INDEPENDENT: &str = "AP014";
}

/// How bad a diagnostic is. `Error` diagnostics fail the `speclint`
/// gate; `Warn` and `Info` are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The spec is structurally unsound; exploration verdicts over it
    /// cannot be trusted.
    Error,
    /// Suspicious but not necessarily wrong (e.g. a variable only the
    /// external invariant reads).
    Warn,
    /// Coverage and cross-reference notes.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        })
    }
}

/// One analyzer finding: a stable code, a severity, the process/action
/// context it refers to (when applicable), and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`"AP001"`…); see [`codes`].
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The process the finding refers to, when applicable.
    pub pid: Option<Pid>,
    /// That process's declared name.
    pub process: Option<String>,
    /// The action the finding refers to, when applicable.
    pub action: Option<String>,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code, self.severity)?;
        match (&self.process, &self.action) {
            (Some(p), Some(a)) => write!(f, " {p}/{a}")?,
            (Some(p), None) => write!(f, " {p}")?,
            (None, Some(a)) => write!(f, " {a}")?,
            (None, None) => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// A pair of same-process actions whose declared write footprints
/// overlap — they cannot be reordered, and a partial-order reduction
/// must treat them as dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteWriteConflict {
    /// The owning process.
    pub pid: Pid,
    /// Its declared name.
    pub process: String,
    /// Index of the first action (into [`SystemSpec::actions`]).
    pub a: usize,
    /// Index of the second action.
    pub b: usize,
    /// The variables both actions write.
    pub variables: Vec<String>,
}

/// Limits for the explorer-backed vacuity pass of [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// Bounds for the vacuity exploration. Counterexample recording is
    /// never needed (the pass runs with a trivially true invariant).
    pub explore: ExploreConfig,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            explore: ExploreConfig {
                max_states: 1_000_000,
                record_counterexample: false,
                ..ExploreConfig::default()
            },
        }
    }
}

/// Everything the analyzer found, plus the derived independence
/// relation. Obtain via [`analyze`] (structure + vacuity) or
/// [`analyze_structure`] (no execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Number of processes in the spec.
    pub process_count: usize,
    /// Number of registered actions.
    pub action_count: usize,
    /// Actions carrying an [`ActionMeta`] footprint.
    pub footprint_covered: usize,
    /// `"process/action"` label per action index, for rendering.
    pub action_labels: Vec<String>,
    /// All findings, sorted by severity then code.
    pub diagnostics: Vec<Diagnostic>,
    /// Unordered action pairs `(a, b)`, `a < b`, proven independent from
    /// the declared footprints: different processes, no global reads,
    /// and no send/receive interplay on a shared channel. Independent
    /// actions commute from every state where both are enabled — the
    /// input relation for partial-order reduction.
    pub independent_pairs: Vec<(usize, usize)>,
    /// Same-process pairs with overlapping write footprints.
    pub write_write_conflicts: Vec<WriteWriteConflict>,
    /// Per-action fire counts from the vacuity exploration (`None` when
    /// only [`analyze_structure`] ran).
    pub action_fires: Option<Vec<u64>>,
    /// Whether the vacuity exploration exhausted the reachable space
    /// within its bounds (`None` without a vacuity pass).
    pub vacuity_exhausted: Option<bool>,
}

impl AnalysisReport {
    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any [`Severity::Error`] diagnostic was emitted — the
    /// `speclint` gate condition.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Diagnostics with the given code, for targeted assertions.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the report as a JSON object.
    ///
    /// The shape is stable: `process_count`, `action_count`,
    /// `footprint_covered`, `action_labels`, `diagnostics` (array of
    /// objects), `independent_pairs` (array of `[a, b]`),
    /// `write_write_conflicts`, `action_fires` (array or `null`),
    /// `vacuity_exhausted` (bool or `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_kv(&mut out, "process_count", &self.process_count.to_string());
        out.push(',');
        push_kv(&mut out, "action_count", &self.action_count.to_string());
        out.push(',');
        push_kv(
            &mut out,
            "footprint_covered",
            &self.footprint_covered.to_string(),
        );
        out.push(',');
        push_key(&mut out, "action_labels");
        push_str_array(&mut out, &self.action_labels);
        out.push(',');
        push_key(&mut out, "diagnostics");
        out.push('[');
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv(&mut out, "code", &json_string(d.code));
            out.push(',');
            push_kv(&mut out, "severity", &json_string(&d.severity.to_string()));
            out.push(',');
            push_kv(
                &mut out,
                "pid",
                &d.pid.map_or("null".into(), |p| p.0.to_string()),
            );
            out.push(',');
            push_kv(&mut out, "process", &json_opt_string(&d.process));
            out.push(',');
            push_kv(&mut out, "action", &json_opt_string(&d.action));
            out.push(',');
            push_kv(&mut out, "message", &json_string(&d.message));
            out.push('}');
        }
        out.push(']');
        out.push(',');
        push_key(&mut out, "independent_pairs");
        out.push('[');
        for (i, (a, b)) in self.independent_pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{a},{b}]"));
        }
        out.push(']');
        out.push(',');
        push_key(&mut out, "write_write_conflicts");
        out.push('[');
        for (i, c) in self.write_write_conflicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv(&mut out, "pid", &c.pid.0.to_string());
            out.push(',');
            push_kv(&mut out, "process", &json_string(&c.process));
            out.push(',');
            push_kv(&mut out, "a", &c.a.to_string());
            out.push(',');
            push_kv(&mut out, "b", &c.b.to_string());
            out.push(',');
            push_key(&mut out, "variables");
            push_str_array(&mut out, &c.variables);
            out.push('}');
        }
        out.push(']');
        out.push(',');
        push_kv(
            &mut out,
            "action_fires",
            &match &self.action_fires {
                None => "null".to_string(),
                Some(fires) => {
                    let items: Vec<String> = fires.iter().map(u64::to_string).collect();
                    format!("[{}]", items.join(","))
                }
            },
        );
        out.push(',');
        push_kv(
            &mut out,
            "vacuity_exhausted",
            &match self.vacuity_exhausted {
                None => "null".to_string(),
                Some(b) => b.to_string(),
            },
        );
        out.push('}');
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "spec: {} processes, {} actions, footprint coverage {}/{}",
            self.process_count, self.action_count, self.footprint_covered, self.action_count
        )?;
        writeln!(
            f,
            "diagnostics: {} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        let total_pairs = self.action_count * self.action_count.saturating_sub(1) / 2;
        writeln!(
            f,
            "independence: {}/{} unordered action pairs independent (POR input)",
            self.independent_pairs.len(),
            total_pairs
        )?;
        writeln!(
            f,
            "write-write conflicts within a process: {} pair(s)",
            self.write_write_conflicts.len()
        )?;
        match (&self.action_fires, self.vacuity_exhausted) {
            (Some(fires), exhausted) => {
                let dead = fires.iter().filter(|&&n| n == 0).count();
                writeln!(
                    f,
                    "vacuity: {} of {} actions never fired ({})",
                    dead,
                    fires.len(),
                    if exhausted == Some(true) {
                        "reachable space exhausted"
                    } else {
                        "exploration bound hit — counts are a lower bound"
                    }
                )?;
            }
            (None, _) => writeln!(f, "vacuity: not run (structure-only analysis)")?,
        }
        Ok(())
    }
}

/// Runs the structural lints and derives the independence relation,
/// without executing the spec.
pub fn analyze_structure<S, M>(spec: &SystemSpec<S, M>) -> AnalysisReport {
    let n = spec.process_count();
    let actions = spec.actions();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    let proc_name =
        |pid: Pid| -> Option<String> { (pid.0 < n).then(|| spec.process_name(pid).to_string()) };
    let diag = |code: &'static str,
                severity: Severity,
                pid: Option<Pid>,
                action: Option<&str>,
                message: String| Diagnostic {
        code,
        severity,
        pid,
        process: pid.and_then(proc_name),
        action: action.map(str::to_string),
        message,
    };

    // AP005: processes with zero actions.
    for p in 0..n {
        if !actions.iter().any(|a| a.pid.0 == p) {
            diagnostics.push(diag(
                codes::EMPTY_PROCESS,
                Severity::Warn,
                Some(Pid(p)),
                None,
                "process declares no actions; it can never take a step".into(),
            ));
        }
    }

    // AP004: duplicate (pid, name) pairs. `add_action` rejects these, but
    // the lint keeps the property checkable for specs assembled by other
    // means — and is what the duplicate-rejection fix is cross-checked by.
    for (i, a) in actions.iter().enumerate() {
        if actions[..i]
            .iter()
            .any(|b| b.pid == a.pid && b.name == a.name)
        {
            diagnostics.push(diag(
                codes::DUPLICATE_ACTION,
                Severity::Error,
                Some(a.pid),
                Some(&a.name),
                "duplicate action name within this process; counterexample traces become \
                 ambiguous"
                    .into(),
            ));
        }
    }

    // Which processes have *every* action annotated — footprint-derived
    // absence claims ("nobody sends here") are only sound over them.
    let fully_covered: Vec<bool> = (0..n)
        .map(|p| {
            actions
                .iter()
                .filter(|a| a.pid.0 == p)
                .all(|a| a.meta.is_some())
        })
        .collect();

    for action in actions {
        let label = action.name.as_str();
        // AP001 for receive sources: statically visible without metadata.
        if let Guard::Receive { from, .. } = &action.guard {
            if from.0 >= n {
                diagnostics.push(diag(
                    codes::ENDPOINT_OUT_OF_RANGE,
                    Severity::Error,
                    Some(action.pid),
                    Some(label),
                    format!(
                        "receive guard names out-of-range process {from} (system has {n} \
                         processes); the guard can never be evaluated safely"
                    ),
                ));
            } else if fully_covered[from.0]
                && !actions
                    .iter()
                    .filter(|a| a.pid == *from)
                    .any(|a| sends_to(a.meta.as_ref(), action.pid))
            {
                // AP003: permanently disabled receive.
                diagnostics.push(diag(
                    codes::RECEIVE_NEVER_SENT,
                    Severity::Error,
                    Some(action.pid),
                    Some(label),
                    format!(
                        "receive guard on channel {from} -> {} that no action of {} ({}) \
                         sends on; this action is permanently disabled",
                        action.pid,
                        from,
                        spec.process_name(*from)
                    ),
                ));
            }
        }

        let Some(meta) = &action.meta else {
            // AP009: coverage gap.
            diagnostics.push(diag(
                codes::MISSING_FOOTPRINT,
                Severity::Info,
                Some(action.pid),
                Some(label),
                "action has no declared footprint; it is excluded from footprint lints and \
                 treated as dependent on everything"
                    .into(),
            ));
            continue;
        };
        for &target in &meta.sends_to {
            if target.0 >= n {
                // AP001 for declared send targets.
                diagnostics.push(diag(
                    codes::ENDPOINT_OUT_OF_RANGE,
                    Severity::Error,
                    Some(action.pid),
                    Some(label),
                    format!(
                        "declared send to out-of-range process {target} (system has {n} \
                         processes); executing this send would abort"
                    ),
                ));
                continue;
            }
            if target == action.pid {
                // AP006: self-send.
                diagnostics.push(diag(
                    codes::SELF_SEND,
                    Severity::Warn,
                    Some(action.pid),
                    Some(label),
                    format!(
                        "declared self-send ({} -> {}); AP channels connect distinct \
                         processes — is this intended?",
                        action.pid, target
                    ),
                ));
            }
            if !actions.iter().any(|a| {
                a.pid == target
                    && matches!(&a.guard, Guard::Receive { from, .. } if *from == action.pid)
            }) {
                // AP002: send nobody receives.
                diagnostics.push(diag(
                    codes::SEND_NEVER_RECEIVED,
                    Severity::Error,
                    Some(action.pid),
                    Some(label),
                    format!(
                        "declared send to {target} ({}), but {target} has no receive action \
                         for the channel {} -> {target}; messages pile up unread",
                        spec.process_name(target),
                        action.pid
                    ),
                ));
            }
        }
    }

    // AP007/AP008: per fully-covered process, write-never-read and
    // read-never-written variables.
    for (p, covered) in fully_covered.iter().enumerate().take(n) {
        if !covered {
            continue;
        }
        let mine: Vec<_> = actions.iter().filter(|a| a.pid.0 == p).collect();
        if mine.is_empty() {
            continue;
        }
        let reads: BTreeSet<&str> = mine
            .iter()
            .flat_map(|a| a.meta.as_ref().unwrap().reads.iter())
            .map(String::as_str)
            .collect();
        let writes: BTreeSet<&str> = mine
            .iter()
            .flat_map(|a| a.meta.as_ref().unwrap().writes.iter())
            .map(String::as_str)
            .collect();
        for var in writes.difference(&reads) {
            diagnostics.push(diag(
                codes::WRITE_NEVER_READ,
                Severity::Warn,
                Some(Pid(p)),
                None,
                format!(
                    "variable `{var}` is written but never read by any action of this \
                     process; it only matters to external observers (e.g. invariants)"
                ),
            ));
        }
        for var in reads.difference(&writes) {
            diagnostics.push(diag(
                codes::READ_NEVER_WRITTEN,
                Severity::Warn,
                Some(Pid(p)),
                None,
                format!(
                    "variable `{var}` is read but never written by any action of this \
                     process; it is constant after initialization — or the footprint has \
                     a gap"
                ),
            ));
        }
    }

    // Independence relation and write-write conflicts.
    let mut independent_pairs = Vec::new();
    let mut write_write_conflicts = Vec::new();
    for a in 0..actions.len() {
        for b in (a + 1)..actions.len() {
            let (act_a, act_b) = (&actions[a], &actions[b]);
            if act_a.pid == act_b.pid {
                if let (Some(ma), Some(mb)) = (&act_a.meta, &act_b.meta) {
                    let wa: BTreeSet<&str> = ma.writes.iter().map(String::as_str).collect();
                    let shared: Vec<String> = mb
                        .writes
                        .iter()
                        .filter(|w| wa.contains(w.as_str()))
                        .cloned()
                        .collect();
                    if !shared.is_empty() {
                        write_write_conflicts.push(WriteWriteConflict {
                            pid: act_a.pid,
                            process: proc_name(act_a.pid).unwrap_or_default(),
                            a,
                            b,
                            variables: shared,
                        });
                    }
                }
                continue; // same-process actions are always dependent
            }
            let (Some(ma), Some(mb)) = (&act_a.meta, &act_b.meta) else {
                continue; // unknown footprint: conservatively dependent
            };
            if ma.global_reads || mb.global_reads {
                continue; // global guard sees everything: dependent
            }
            // Channel interplay: A writes channel (A.pid -> t) for each
            // declared target t; B reads channel (from -> B.pid) iff it
            // is a receive. They conflict only on a shared channel.
            let a_feeds_b = sends_to(Some(ma), act_b.pid) && receives_from(act_b, act_a.pid);
            let b_feeds_a = sends_to(Some(mb), act_a.pid) && receives_from(act_a, act_b.pid);
            if a_feeds_b || b_feeds_a {
                continue;
            }
            independent_pairs.push((a, b));
        }
    }

    diagnostics.sort_by(|x, y| {
        (x.severity, x.code, x.pid, &x.action).cmp(&(y.severity, y.code, y.pid, &y.action))
    });

    AnalysisReport {
        process_count: n,
        action_count: actions.len(),
        footprint_covered: actions.iter().filter(|a| a.meta.is_some()).count(),
        action_labels: actions
            .iter()
            .map(|a| {
                format!(
                    "{}/{}",
                    proc_name(a.pid).unwrap_or_else(|| a.pid.to_string()),
                    a.name
                )
            })
            .collect(),
        diagnostics,
        independent_pairs,
        write_write_conflicts,
        action_fires: None,
        vacuity_exhausted: None,
    }
}

/// Full analysis: the structural lints of [`analyze_structure`] plus the
/// explorer-backed vacuity pass from `initial`.
///
/// The vacuity pass explores the reachable space within
/// [`AnalyzeConfig::explore`] twice: once through [`explore`] to obtain
/// the deterministic per-action fire counts
/// ([`ExploreReport::action_fires`](crate::explore::ExploreReport::action_fires), lint `AP010`), and once with traced
/// execution ([`SystemSpec::execute_traced`]) to collect each action's
/// *observed* send targets, which are checked against the declared
/// footprints (lints `AP011`/`AP012`). Bundled configurations are small
/// enough that the double walk is cheap.
pub fn analyze<S, M>(
    spec: &SystemSpec<S, M>,
    initial: &SystemState<S, M>,
    config: &AnalyzeConfig,
) -> AnalysisReport
where
    S: Clone + Hash + Send + Sync,
    M: Clone + Hash + Send + Sync,
{
    let mut report = analyze_structure(spec);
    let explore_report = explore(spec, initial.clone(), config.explore, |_| Ok(()));
    let exhausted = explore_report.outcome == ExploreOutcome::Exhausted;
    let actions = spec.actions();

    let mut extra: Vec<Diagnostic> = Vec::new();
    for index in explore_report.dead_actions() {
        let action = &actions[index];
        extra.push(Diagnostic {
            code: codes::NEVER_FIRES,
            severity: if exhausted {
                Severity::Warn
            } else {
                Severity::Info
            },
            pid: Some(action.pid),
            process: Some(spec.process_name(action.pid).to_string()),
            action: Some(action.name.clone()),
            message: if exhausted {
                "action never fires: its guard is false in every reachable state (the \
                 reachable space was exhausted) — the action is vacuous"
                    .into()
            } else {
                format!(
                    "action did not fire within the exploration bound ({} states); raise \
                     the bound to decide whether it is dead",
                    config.explore.max_states
                )
            },
        });
    }

    let (observed, traced_exhausted) = observed_sends(spec, initial, &config.explore);
    for (index, targets) in observed.iter().enumerate() {
        let action = &actions[index];
        let Some(meta) = &action.meta else {
            continue;
        };
        let declared: BTreeSet<Pid> = meta.sends_to.iter().copied().collect();
        for target in targets {
            if !declared.contains(target) {
                extra.push(Diagnostic {
                    code: codes::UNDECLARED_SEND,
                    severity: Severity::Error,
                    pid: Some(action.pid),
                    process: Some(spec.process_name(action.pid).to_string()),
                    action: Some(action.name.clone()),
                    message: format!(
                        "observed a send to {target} that the footprint does not declare \
                         (declared targets: {:?}); the footprint lies and every \
                         footprint-derived result is unsound",
                        meta.sends_to
                    ),
                });
            }
        }
        if traced_exhausted {
            for target in declared.iter().filter(|t| !targets.contains(t)) {
                extra.push(Diagnostic {
                    code: codes::DECLARED_SEND_UNOBSERVED,
                    severity: Severity::Info,
                    pid: Some(action.pid),
                    process: Some(spec.process_name(action.pid).to_string()),
                    action: Some(action.name.clone()),
                    message: format!(
                        "declared send to {target} was never observed in the exhausted \
                         reachable space; the footprint over-approximates (harmless) or \
                         the action is dead"
                    ),
                });
            }
        }
    }

    report.diagnostics.extend(extra);
    report.diagnostics.sort_by(|x, y| {
        (x.severity, x.code, x.pid, &x.action).cmp(&(y.severity, y.code, y.pid, &y.action))
    });
    report.action_fires = Some(explore_report.action_fires);
    report.vacuity_exhausted = Some(exhausted);
    report
}

/// Why a model-level dependence is *consistent* with key-disjointness
/// at the sim level: the ordering is carried by a mechanism other than
/// shared state keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceReason {
    /// Same-process control flow with no shared variables — AP
    /// processes execute one action at a time regardless of data.
    SameProcess,
    /// A `reads_global` guard makes the model conservatively dependent;
    /// the sim harness serializes all applies, so no key is needed.
    GlobalReads,
    /// Send/receive interplay on a shared channel — the sim scheduler's
    /// FIFO event delivery carries this ordering, not a state key.
    ChannelOrder,
    /// An action without footprint metadata is dependent on everything;
    /// nothing can be concluded from its sim keys.
    MissingFootprint,
}

impl DependenceReason {
    /// Stable kebab-case name, used in JSON and rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            DependenceReason::SameProcess => "same-process",
            DependenceReason::GlobalReads => "global-reads",
            DependenceReason::ChannelOrder => "channel-order",
            DependenceReason::MissingFootprint => "missing-footprint",
        }
    }
}

impl fmt::Display for DependenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A disjoint-but-dependent pair whose dependence the cross-check could
/// attribute to a non-key mechanism — recorded, not flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainedPair {
    /// Index of the first action (into [`SystemSpec::actions`]).
    pub a: usize,
    /// Index of the second action.
    pub b: usize,
    /// The mechanism that carries the ordering.
    pub reason: DependenceReason,
}

/// One divergence between the verified independence relation and the
/// executable world's footprint keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrosscheckFinding {
    /// `AP013` or `AP014`; see [`codes`].
    pub code: &'static str,
    /// [`Severity::Error`] for unexplained AP013, [`Severity::Info`]
    /// for AP014.
    pub severity: Severity,
    /// Index of the first action.
    pub a: usize,
    /// Index of the second action.
    pub b: usize,
    /// `"process/action"` label of the first action.
    pub label_a: String,
    /// Label of the second action.
    pub label_b: String,
    /// Sim keys both actions' mirrors touch (AP014 only).
    pub shared_keys: Vec<u64>,
    /// Model variables both actions touch (AP013 only).
    pub shared_variables: Vec<String>,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for CrosscheckFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} <-> {}: {}",
            self.code, self.severity, self.label_a, self.label_b, self.message
        )
    }
}

/// Result of [`independence_crosscheck`]: how many mirrored pairs were
/// compared, which dependencies the sim carries by other means, and any
/// genuine divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrosscheckReport {
    /// Actions with a sim-mirrored footprint (`Some` entries supplied).
    pub actions_mirrored: usize,
    /// Unordered pairs where both actions are mirrored.
    pub pairs_compared: usize,
    /// Pairs where the two relations agree outright (dependent+overlap
    /// or independent+disjoint).
    pub consistent_pairs: usize,
    /// Dependent+disjoint pairs attributed to a non-key mechanism.
    pub explained: Vec<ExplainedPair>,
    /// The divergences, errors first.
    pub findings: Vec<CrosscheckFinding>,
}

impl CrosscheckReport {
    /// Whether any [`Severity::Error`] finding was produced — the gate
    /// condition for the `speclint` binary.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Count of explained pairs attributed to `reason`.
    pub fn explained_count(&self, reason: DependenceReason) -> usize {
        self.explained.iter().filter(|e| e.reason == reason).count()
    }

    /// Renders the report as a JSON object (hand-rolled; see
    /// [`AnalysisReport::to_json`] for why).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_kv(
            &mut out,
            "actions_mirrored",
            &self.actions_mirrored.to_string(),
        );
        out.push(',');
        push_kv(&mut out, "pairs_compared", &self.pairs_compared.to_string());
        out.push(',');
        push_kv(
            &mut out,
            "consistent_pairs",
            &self.consistent_pairs.to_string(),
        );
        out.push(',');
        push_key(&mut out, "explained");
        out.push('[');
        for (i, e) in self.explained.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"a\":{},\"b\":{},\"reason\":{}}}",
                e.a,
                e.b,
                json_string(e.reason.as_str())
            ));
        }
        out.push(']');
        out.push(',');
        push_key(&mut out, "findings");
        out.push('[');
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv(&mut out, "code", &json_string(finding.code));
            out.push(',');
            push_kv(
                &mut out,
                "severity",
                &json_string(&finding.severity.to_string()),
            );
            out.push(',');
            push_kv(&mut out, "a", &finding.a.to_string());
            out.push(',');
            push_kv(&mut out, "b", &finding.b.to_string());
            out.push(',');
            push_kv(&mut out, "label_a", &json_string(&finding.label_a));
            out.push(',');
            push_kv(&mut out, "label_b", &json_string(&finding.label_b));
            out.push(',');
            push_key(&mut out, "shared_keys");
            out.push('[');
            for (k, key) in finding.shared_keys.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&key.to_string());
            }
            out.push(']');
            out.push(',');
            push_key(&mut out, "shared_variables");
            push_str_array(&mut out, &finding.shared_variables);
            out.push(',');
            push_kv(&mut out, "message", &json_string(&finding.message));
            out.push('}');
        }
        out.push(']');
        out.push('}');
        out
    }
}

impl fmt::Display for CrosscheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crosscheck: {} mirrored actions, {} pairs compared, {} consistent",
            self.actions_mirrored, self.pairs_compared, self.consistent_pairs
        )?;
        writeln!(
            f,
            "  dependence carried by other means: {} channel-order, {} global-reads, \
             {} same-process, {} missing-footprint",
            self.explained_count(DependenceReason::ChannelOrder),
            self.explained_count(DependenceReason::GlobalReads),
            self.explained_count(DependenceReason::SameProcess),
            self.explained_count(DependenceReason::MissingFootprint),
        )?;
        if self.findings.is_empty() {
            writeln!(f, "  no divergence between model and executable world")?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Compares the AP independence relation in `report` against sim-level
/// footprint disjointness for the spec-mirrored events.
///
/// `sim_keys[i]` is the `zmail_sim::World` footprint key set of the sim
/// event mirroring action `i` of `spec`, or `None` when the action has
/// no executable mirror (it is then skipped). Produces `AP013` errors
/// for same-process, variable-sharing pairs whose mirrors claim
/// disjointness, and `AP014` advisories for proven-independent pairs
/// whose mirrors collide; every other dependent+disjoint pair is
/// recorded as [`ExplainedPair`] with the mechanism that carries its
/// ordering.
///
/// # Panics
///
/// Panics if `sim_keys.len()` differs from the spec's action count.
pub fn independence_crosscheck<S, M>(
    spec: &SystemSpec<S, M>,
    report: &AnalysisReport,
    sim_keys: &[Option<Vec<u64>>],
) -> CrosscheckReport {
    let actions = spec.actions();
    assert_eq!(
        sim_keys.len(),
        actions.len(),
        "one sim footprint slot per spec action"
    );
    let independent: HashSet<(usize, usize)> = report.independent_pairs.iter().copied().collect();

    let mut pairs_compared = 0usize;
    let mut consistent_pairs = 0usize;
    let mut explained: Vec<ExplainedPair> = Vec::new();
    let mut findings: Vec<CrosscheckFinding> = Vec::new();

    for a in 0..actions.len() {
        let Some(keys_a) = &sim_keys[a] else { continue };
        for b in (a + 1)..actions.len() {
            let Some(keys_b) = &sim_keys[b] else { continue };
            pairs_compared += 1;
            let shared_keys: Vec<u64> = {
                let set: BTreeSet<u64> = keys_a
                    .iter()
                    .filter(|k| keys_b.contains(k))
                    .copied()
                    .collect();
                set.into_iter().collect()
            };
            let disjoint = shared_keys.is_empty();
            let ap_independent = independent.contains(&(a, b));
            let (act_a, act_b) = (&actions[a], &actions[b]);

            if !disjoint && ap_independent {
                findings.push(CrosscheckFinding {
                    code: codes::OVERLAP_BUT_INDEPENDENT,
                    severity: Severity::Info,
                    a,
                    b,
                    label_a: report.action_labels[a].clone(),
                    label_b: report.action_labels[b].clone(),
                    shared_keys,
                    shared_variables: Vec::new(),
                    message: "the model proves this pair commutes, but the mirrored sim \
                              footprints share keys; the executable declaration is coarser \
                              than necessary — sound, but it defeats batching the proof \
                              permits"
                        .into(),
                });
                continue;
            }
            if disjoint && !ap_independent {
                // Attribute the model-level dependence to whatever
                // non-key mechanism carries it in the sim harness.
                let reason = if act_a.pid == act_b.pid {
                    match (&act_a.meta, &act_b.meta) {
                        (Some(ma), Some(mb)) => {
                            let touched: BTreeSet<&str> = ma
                                .reads
                                .iter()
                                .chain(ma.writes.iter())
                                .map(String::as_str)
                                .collect();
                            let shared_variables: Vec<String> = {
                                let set: BTreeSet<&str> = mb
                                    .reads
                                    .iter()
                                    .chain(mb.writes.iter())
                                    .map(String::as_str)
                                    .filter(|v| touched.contains(*v))
                                    .collect();
                                set.into_iter().map(str::to_string).collect()
                            };
                            if shared_variables.is_empty() {
                                Some(DependenceReason::SameProcess)
                            } else {
                                findings.push(CrosscheckFinding {
                                    code: codes::DISJOINT_BUT_DEPENDENT,
                                    severity: Severity::Error,
                                    a,
                                    b,
                                    label_a: report.action_labels[a].clone(),
                                    label_b: report.action_labels[b].clone(),
                                    shared_keys: Vec::new(),
                                    shared_variables,
                                    message: "same-process actions share local variables, \
                                              but their sim mirrors declare disjoint \
                                              footprints; the executable world would \
                                              reorder accesses the model proves \
                                              conflicting"
                                        .into(),
                                });
                                continue;
                            }
                        }
                        _ => Some(DependenceReason::MissingFootprint),
                    }
                } else if act_a.meta.is_none() || act_b.meta.is_none() {
                    Some(DependenceReason::MissingFootprint)
                } else if sends_to(act_a.meta.as_ref(), act_b.pid)
                    && receives_from(act_b, act_a.pid)
                    || sends_to(act_b.meta.as_ref(), act_a.pid) && receives_from(act_a, act_b.pid)
                {
                    Some(DependenceReason::ChannelOrder)
                } else if act_a.meta.as_ref().is_some_and(|m| m.global_reads)
                    || act_b.meta.as_ref().is_some_and(|m| m.global_reads)
                {
                    Some(DependenceReason::GlobalReads)
                } else {
                    // Structurally impossible given how the relation is
                    // derived, but stay sound if that ever changes.
                    None
                };
                match reason {
                    Some(reason) => explained.push(ExplainedPair { a, b, reason }),
                    None => findings.push(CrosscheckFinding {
                        code: codes::DISJOINT_BUT_DEPENDENT,
                        severity: Severity::Error,
                        a,
                        b,
                        label_a: report.action_labels[a].clone(),
                        label_b: report.action_labels[b].clone(),
                        shared_keys: Vec::new(),
                        shared_variables: Vec::new(),
                        message: "the model orders this cross-process pair through no \
                                  recognizable mechanism, yet the sim mirrors declare \
                                  disjoint footprints"
                            .into(),
                    }),
                }
                continue;
            }
            consistent_pairs += 1;
        }
    }

    findings.sort_by(|x, y| (x.severity, x.code, x.a, x.b).cmp(&(y.severity, y.code, y.a, y.b)));
    CrosscheckReport {
        actions_mirrored: sim_keys.iter().filter(|k| k.is_some()).count(),
        pairs_compared,
        consistent_pairs,
        explained,
        findings,
    }
}

/// Bounded BFS with traced execution: per-action sets of observed send
/// targets, plus whether the walk drained its queue within the bounds.
fn observed_sends<S, M>(
    spec: &SystemSpec<S, M>,
    initial: &SystemState<S, M>,
    config: &ExploreConfig,
) -> (Vec<BTreeSet<Pid>>, bool)
where
    S: Clone + Hash,
    M: Clone + Hash,
{
    let mut observed: Vec<BTreeSet<Pid>> = vec![BTreeSet::new(); spec.actions().len()];
    let mut seen: HashSet<u64> = HashSet::new();
    let mut queue: VecDeque<(SystemState<S, M>, usize)> = VecDeque::new();
    let mut enabled: Vec<usize> = Vec::new();
    seen.insert(initial.fingerprint());
    queue.push_back((initial.clone(), 0));
    let mut visited = 0usize;
    while let Some((state, depth)) = queue.pop_front() {
        visited += 1;
        if visited >= config.max_states {
            return (observed, false);
        }
        if depth >= config.max_depth {
            continue;
        }
        spec.enabled_into(&state, &mut enabled);
        for &index in &enabled {
            let mut next = state.clone();
            let targets = spec.execute_traced(index, &mut next);
            observed[index].extend(targets);
            if seen.insert(next.fingerprint()) {
                queue.push_back((next, depth + 1));
            }
        }
    }
    (observed, true)
}

fn sends_to(meta: Option<&ActionMeta>, target: Pid) -> bool {
    meta.is_some_and(|m| m.sends_to.contains(&target))
}

fn receives_from<S, M>(action: &crate::process::Action<S, M>, source: Pid) -> bool {
    matches!(&action.guard, Guard::Receive { from, .. } if *from == source)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt_string(s: &Option<String>) -> String {
    match s {
        Some(s) => json_string(s),
        None => "null".into(),
    }
}

fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn push_kv(out: &mut String, key: &str, rendered_value: &str) {
    push_key(out, key);
    out.push_str(rendered_value);
}

fn push_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(item));
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Effects;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Cnt(u32);

    type Spec = SystemSpec<Cnt, u8>;

    fn noop(_: &mut Cnt, _: Option<&u8>, _: &mut Effects<u8>) {}

    /// A minimal structurally clean, fully annotated two-process spec:
    /// p sends one message, q receives it. Triggers no lint at all.
    fn clean_spec() -> (Spec, SystemState<Cnt, u8>) {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        spec.add_action_meta(
            p,
            "emit",
            Guard::local(|s: &Cnt| s.0 > 0),
            ActionMeta::new().reads(["n"]).writes(["n"]).sends_to([q]),
            move |s, _, fx| {
                s.0 -= 1;
                fx.send(q, 1);
            },
        );
        spec.add_action_meta(
            q,
            "absorb",
            Guard::receive(p),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 += 1,
        );
        let initial = SystemState::new(vec![Cnt(1), Cnt(0)], 2);
        (spec, initial)
    }

    #[test]
    fn clean_spec_triggers_no_diagnostics() {
        let (spec, initial) = clean_spec();
        let report = analyze(&spec, &initial, &AnalyzeConfig::default());
        assert!(
            report.diagnostics.is_empty(),
            "expected no findings, got: {:#?}",
            report.diagnostics
        );
        assert!(!report.has_errors());
        assert_eq!(report.footprint_covered, 2);
        assert_eq!(report.vacuity_exhausted, Some(true));
        let fires = report.action_fires.as_ref().unwrap();
        assert!(fires.iter().all(|&n| n > 0));
    }

    #[test]
    fn ap001_send_target_out_of_range() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "stray",
            Guard::always(),
            ActionMeta::new().sends_to([Pid(9)]),
            noop,
        );
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::ENDPOINT_OUT_OF_RANGE);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[0].action.as_deref(), Some("stray"));
    }

    #[test]
    fn ap001_receive_source_out_of_range() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action(p, "ghost", Guard::receive(Pid(5)), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::ENDPOINT_OUT_OF_RANGE);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("receive guard"));
    }

    #[test]
    fn ap002_send_nobody_receives() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        spec.add_action_meta(
            p,
            "shout",
            Guard::always(),
            ActionMeta::new().sends_to([q]),
            move |_, _, fx| fx.send(q, 1),
        );
        // q exists but has no receive action for the p -> q channel.
        spec.add_action_meta(q, "idle", Guard::local(|_| false), ActionMeta::new(), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::SEND_NEVER_RECEIVED);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
    }

    #[test]
    fn ap003_receive_nobody_sends() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        // p is fully annotated and declares no send to q.
        spec.add_action_meta(p, "tick", Guard::always(), ActionMeta::new(), noop);
        spec.add_action(q, "wait", Guard::receive(p), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::RECEIVE_NEVER_SENT);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(hits[0].message.contains("permanently disabled"));
    }

    #[test]
    fn ap003_skipped_when_sender_coverage_is_partial() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        // p has no metadata: it *might* send to q, so AP003 must not fire.
        spec.add_action(p, "tick", Guard::always(), noop);
        spec.add_action(q, "wait", Guard::receive(p), noop);
        let report = analyze_structure(&spec);
        assert!(report.with_code(codes::RECEIVE_NEVER_SENT).is_empty());
        // The coverage gap itself is reported instead.
        assert!(!report.with_code(codes::MISSING_FOOTPRINT).is_empty());
    }

    #[test]
    fn ap004_duplicate_action_names() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_unchecked_for_test(p, "twin", Guard::always(), noop);
        spec.add_action_unchecked_for_test(p, "twin", Guard::always(), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::DUPLICATE_ACTION);
        assert_eq!(hits.len(), 1, "one diagnostic per duplicate occurrence");
        assert_eq!(hits[0].severity, Severity::Error);
    }

    #[test]
    fn ap005_empty_process() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_process("mute");
        spec.add_action(p, "tick", Guard::always(), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::EMPTY_PROCESS);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].process.as_deref(), Some("mute"));
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn ap006_self_send() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "echo",
            Guard::always(),
            ActionMeta::new().sends_to([p]),
            move |_, _, fx| fx.send(p, 1),
        );
        // Also give p a receive from itself so AP002 stays quiet and the
        // self-send warning is isolated.
        spec.add_action_meta(p, "hear", Guard::receive(p), ActionMeta::new(), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::SELF_SEND);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn ap007_write_never_read() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "log",
            Guard::always(),
            ActionMeta::new().writes(["audit"]),
            noop,
        );
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::WRITE_NEVER_READ);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`audit`"));
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn ap008_read_never_written() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "watch",
            Guard::local(|s: &Cnt| s.0 > 0),
            ActionMeta::new().reads(["threshold"]),
            noop,
        );
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::READ_NEVER_WRITTEN);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`threshold`"));
    }

    #[test]
    fn ap007_ap008_skipped_without_full_coverage() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "log",
            Guard::always(),
            ActionMeta::new().writes(["audit"]),
            noop,
        );
        spec.add_action(p, "mystery", Guard::always(), noop);
        let report = analyze_structure(&spec);
        assert!(report.with_code(codes::WRITE_NEVER_READ).is_empty());
        assert!(report.with_code(codes::READ_NEVER_WRITTEN).is_empty());
    }

    #[test]
    fn ap009_missing_footprint() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action(p, "opaque", Guard::always(), noop);
        let report = analyze_structure(&spec);
        let hits = report.with_code(codes::MISSING_FOOTPRINT);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Info);
        assert_eq!(report.footprint_covered, 0);
    }

    #[test]
    fn ap010_dead_action_warns_when_exhausted() {
        let (mut spec, initial) = clean_spec();
        spec.add_action_meta(
            Pid(0),
            "never",
            Guard::local(|_| false),
            ActionMeta::new(),
            noop,
        );
        let report = analyze(&spec, &initial, &AnalyzeConfig::default());
        let hits = report.with_code(codes::NEVER_FIRES);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warn);
        assert_eq!(hits[0].action.as_deref(), Some("never"));
        assert_eq!(report.vacuity_exhausted, Some(true));
    }

    #[test]
    fn ap010_downgrades_to_info_when_budget_hit() {
        let (mut spec, initial) = clean_spec();
        spec.add_action_meta(
            Pid(0),
            "never",
            Guard::local(|_| false),
            ActionMeta::new(),
            noop,
        );
        let config = AnalyzeConfig {
            explore: ExploreConfig {
                max_states: 1,
                record_counterexample: false,
                ..ExploreConfig::default()
            },
        };
        let report = analyze(&spec, &initial, &config);
        let hits = report.with_code(codes::NEVER_FIRES);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|d| d.severity == Severity::Info));
        assert_eq!(report.vacuity_exhausted, Some(false));
    }

    #[test]
    fn ap011_undeclared_send_is_caught() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        // Footprint claims no sends; the effect sends anyway.
        spec.add_action_meta(
            p,
            "liar",
            Guard::local(|s: &Cnt| s.0 > 0),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            move |s, _, fx| {
                s.0 -= 1;
                fx.send(q, 1);
            },
        );
        spec.add_action_meta(q, "absorb", Guard::receive(p), ActionMeta::new(), noop);
        let initial = SystemState::new(vec![Cnt(1), Cnt(0)], 2);
        let report = analyze(&spec, &initial, &AnalyzeConfig::default());
        let hits = report.with_code(codes::UNDECLARED_SEND);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[0].action.as_deref(), Some("liar"));
        assert!(report.has_errors());
    }

    #[test]
    fn ap012_declared_send_never_observed() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        // Declares a send it never performs: over-approximation, Info.
        spec.add_action_meta(
            p,
            "shy",
            Guard::local(|s: &Cnt| s.0 > 0),
            ActionMeta::new().reads(["n"]).writes(["n"]).sends_to([q]),
            |s, _, _| s.0 -= 1,
        );
        spec.add_action_meta(q, "wait", Guard::receive(p), ActionMeta::new(), noop);
        let initial = SystemState::new(vec![Cnt(1), Cnt(0)], 2);
        let report = analyze(&spec, &initial, &AnalyzeConfig::default());
        let hits = report.with_code(codes::DECLARED_SEND_UNOBSERVED);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Info);
        assert!(!report.has_errors());
    }

    #[test]
    fn independence_relation_from_footprints() {
        // Three processes: p emits to q (received), r ticks locally.
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        let r = spec.add_process("r");
        spec.add_action_meta(
            p,
            "emit",
            Guard::local(|s: &Cnt| s.0 > 0),
            ActionMeta::new().reads(["n"]).writes(["n"]).sends_to([q]),
            move |s, _, fx| {
                s.0 -= 1;
                fx.send(q, 1);
            },
        );
        spec.add_action_meta(
            q,
            "absorb",
            Guard::receive(p),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 += 1,
        );
        spec.add_action_meta(
            r,
            "tick",
            Guard::local(|s: &Cnt| s.0 < 5),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 += 1,
        );
        let report = analyze_structure(&spec);
        // emit (0) and absorb (1) share the p -> q channel: dependent.
        assert!(!report.independent_pairs.contains(&(0, 1)));
        // tick (2) is independent of both.
        assert!(report.independent_pairs.contains(&(0, 2)));
        assert!(report.independent_pairs.contains(&(1, 2)));
    }

    #[test]
    fn global_reads_suppress_independence() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        spec.add_action_meta(
            p,
            "quiet",
            Guard::timeout(|st: &SystemState<Cnt, u8>| st.channels_empty()),
            ActionMeta::new().writes(["n"]).reads_global(),
            |s, _, _| s.0 += 1,
        );
        spec.add_action_meta(
            q,
            "tick",
            Guard::local(|s: &Cnt| s.0 < 5),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 += 1,
        );
        let report = analyze_structure(&spec);
        assert!(report.independent_pairs.is_empty());
    }

    #[test]
    fn write_write_conflicts_reported_within_process() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "inc",
            Guard::local(|s: &Cnt| s.0 < 5),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 += 1,
        );
        spec.add_action_meta(
            p,
            "reset",
            Guard::local(|s: &Cnt| s.0 > 0),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 = 0,
        );
        let report = analyze_structure(&spec);
        assert_eq!(report.write_write_conflicts.len(), 1);
        let c = &report.write_write_conflicts[0];
        assert_eq!((c.a, c.b), (0, 1));
        assert_eq!(c.variables, vec!["n".to_string()]);
        // Same-process actions are never independent.
        assert!(report.independent_pairs.is_empty());
    }

    #[test]
    fn report_renders_human_and_json() {
        let (spec, initial) = clean_spec();
        let report = analyze(&spec, &initial, &AnalyzeConfig::default());
        let human = report.to_string();
        assert!(human.contains("footprint coverage 2/2"));
        assert!(human.contains("independence:"));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"process_count\":2"));
        assert!(json.contains("\"diagnostics\":[]"));
        assert!(json.contains("\"vacuity_exhausted\":true"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// `clean_spec`'s emit/absorb pair is channel-dependent; mirrors on
    /// different keys are consistent with that — the ordering rides the
    /// scheduler's FIFO delivery.
    #[test]
    fn crosscheck_explains_channel_dependence() {
        let (spec, _) = clean_spec();
        let report = analyze_structure(&spec);
        let keys = vec![Some(vec![1u64]), Some(vec![2u64])];
        let cross = independence_crosscheck(&spec, &report, &keys);
        assert_eq!(cross.pairs_compared, 1);
        assert!(cross.findings.is_empty(), "{cross}");
        assert_eq!(cross.explained_count(DependenceReason::ChannelOrder), 1);
        assert!(!cross.has_errors());
    }

    #[test]
    fn crosscheck_flags_same_process_variable_sharing_on_disjoint_keys() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        for name in ["inc", "reset"] {
            spec.add_action_meta(
                p,
                name,
                Guard::always(),
                ActionMeta::new().reads(["n"]).writes(["n"]),
                noop,
            );
        }
        let report = analyze_structure(&spec);
        // Both actions touch `n`, but the mirrors claim disjoint keys.
        let keys = vec![Some(vec![10u64]), Some(vec![11u64])];
        let cross = independence_crosscheck(&spec, &report, &keys);
        assert!(cross.has_errors());
        assert_eq!(cross.findings.len(), 1);
        let finding = &cross.findings[0];
        assert_eq!(finding.code, codes::DISJOINT_BUT_DEPENDENT);
        assert_eq!(finding.severity, Severity::Error);
        assert_eq!(finding.shared_variables, vec!["n".to_string()]);
        // Same mirrors on a shared key: consistent, no finding.
        let honest = vec![Some(vec![10u64]), Some(vec![10u64])];
        let cross = independence_crosscheck(&spec, &report, &honest);
        assert!(!cross.has_errors(), "{cross}");
        assert_eq!(cross.consistent_pairs, 1);
    }

    #[test]
    fn crosscheck_same_process_control_only_dependence_is_explained() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_action_meta(
            p,
            "left",
            Guard::always(),
            ActionMeta::new().reads(["x"]).writes(["x"]),
            noop,
        );
        spec.add_action_meta(
            p,
            "right",
            Guard::always(),
            ActionMeta::new().reads(["y"]).writes(["y"]),
            noop,
        );
        let report = analyze_structure(&spec);
        let keys = vec![Some(vec![1u64]), Some(vec![2u64])];
        let cross = independence_crosscheck(&spec, &report, &keys);
        assert!(cross.findings.is_empty(), "{cross}");
        assert_eq!(cross.explained_count(DependenceReason::SameProcess), 1);
    }

    #[test]
    fn crosscheck_flags_overlap_on_proven_independent_pair() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        for pid in [p, q] {
            spec.add_action_meta(
                pid,
                "tick",
                Guard::local(|s: &Cnt| s.0 < 5),
                ActionMeta::new().reads(["n"]).writes(["n"]),
                |s, _, _| s.0 += 1,
            );
        }
        let report = analyze_structure(&spec);
        assert!(report.independent_pairs.contains(&(0, 1)));
        let keys = vec![Some(vec![7u64]), Some(vec![7u64, 8])];
        let cross = independence_crosscheck(&spec, &report, &keys);
        assert!(!cross.has_errors());
        assert_eq!(cross.findings.len(), 1);
        let finding = &cross.findings[0];
        assert_eq!(finding.code, codes::OVERLAP_BUT_INDEPENDENT);
        assert_eq!(finding.severity, Severity::Info);
        assert_eq!(finding.shared_keys, vec![7u64]);
    }

    #[test]
    fn crosscheck_explains_global_read_conservatism() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        let q = spec.add_process("q");
        spec.add_action_meta(
            p,
            "quiet",
            Guard::timeout(|st: &SystemState<Cnt, u8>| st.channels_empty()),
            ActionMeta::new().writes(["n"]).reads_global(),
            |s, _, _| s.0 += 1,
        );
        spec.add_action_meta(
            q,
            "tick",
            Guard::local(|s: &Cnt| s.0 < 5),
            ActionMeta::new().reads(["n"]).writes(["n"]),
            |s, _, _| s.0 += 1,
        );
        let report = analyze_structure(&spec);
        let keys = vec![Some(vec![1u64]), Some(vec![2u64])];
        let cross = independence_crosscheck(&spec, &report, &keys);
        assert!(cross.findings.is_empty(), "{cross}");
        assert_eq!(cross.explained_count(DependenceReason::GlobalReads), 1);
    }

    #[test]
    fn crosscheck_skips_unmirrored_actions() {
        let (spec, _) = clean_spec();
        let report = analyze_structure(&spec);
        let keys = vec![Some(vec![1u64]), None];
        let cross = independence_crosscheck(&spec, &report, &keys);
        assert_eq!(cross.actions_mirrored, 1);
        assert_eq!(cross.pairs_compared, 0);
        assert!(cross.findings.is_empty());
    }

    #[test]
    fn crosscheck_renders_human_and_json() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        for name in ["inc", "reset"] {
            spec.add_action_meta(
                p,
                name,
                Guard::always(),
                ActionMeta::new().reads(["n"]).writes(["n"]),
                noop,
            );
        }
        let report = analyze_structure(&spec);
        let keys = vec![Some(vec![10u64]), Some(vec![11u64])];
        let cross = independence_crosscheck(&spec, &report, &keys);
        let human = cross.to_string();
        assert!(human.contains("AP013"));
        assert!(human.contains("p/inc <-> p/reset"));
        let json = cross.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"code\":\"AP013\""));
        assert!(json.contains("\"shared_variables\":[\"n\"]"));
        assert!(json.contains("\"pairs_compared\":1"));
    }

    #[test]
    fn severity_orders_errors_first() {
        let mut spec = Spec::new();
        let p = spec.add_process("p");
        spec.add_process("mute"); // Warn AP005
        spec.add_action(p, "opaque", Guard::always(), noop); // Info AP009
        spec.add_action_meta(
            p,
            "stray",
            Guard::always(),
            ActionMeta::new().sends_to([Pid(9)]),
            noop,
        ); // Error AP001
        let report = analyze_structure(&spec);
        let severities: Vec<Severity> = report.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort();
        assert_eq!(severities, sorted);
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }
}
