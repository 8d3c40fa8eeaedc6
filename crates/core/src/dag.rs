//! Request DAGs: speculative fork/join branching for agentic serving.
//!
//! A running sequence can [`fork`](crate::Scheduler::fork) into K
//! speculative branches that CoW-share every KV page up to the fork point (the
//! same `PagePool::fork` refcount discipline the prefix cache uses at
//! admission). Branches race under the `BestEffort` class; a join policy
//! decides when the group resolves and which losers to cancel. Cancelled
//! losers donate their prefix so the winner's pages stay warm.
//!
//! This module owns the *graph* bookkeeping only: group membership, join
//! policies, cascade-cancel on parent cancellation, and the per-branch
//! sparsity-override schedule type. The scheduler owns page accounting and
//! event delivery.

use std::collections::HashMap;

use lserve_kvcache::StreamingWindow;

/// Per-branch (or per-request) sparsity knobs. Each knob is optional; `None`
/// means "inherit the engine default".
///
/// The retention ratio is SeerAttention-style: the selection budget is capped
/// at `ceil(retention * context_tokens)`, expressed in thousandths so the
/// type stays `Eq` and the math stays integer-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SparsityOverride {
    /// Replace the engine's dynamic selection budget (tokens of hot KV the
    /// selector may keep per dense head). Ignored when the engine runs dense
    /// (`dynamic_budget: None`) — there are no selectors to override.
    pub selection_budget: Option<usize>,
    /// Cap the selection budget at `ceil(retention_permille/1000 * context)`.
    /// Composes with `selection_budget` (the smaller wins).
    pub retention_permille: Option<u32>,
    /// Replace the sequence's streaming window: its streaming heads' Λ masks
    /// and its dense heads' dynamic prefill sink. Position 0 only (tables and
    /// policies take it at creation); a fork rejects window overrides because
    /// children inherit the parent's tables, windows included.
    pub streaming_window: Option<StreamingWindow>,
}

impl SparsityOverride {
    /// An override that changes nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when every knob is `None`.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Sets the selection budget.
    pub fn with_budget(mut self, tokens: usize) -> Self {
        self.selection_budget = Some(tokens);
        self
    }

    /// Sets the retention ratio, in thousandths (500 keeps half the context).
    pub fn with_retention_permille(mut self, permille: u32) -> Self {
        self.retention_permille = Some(permille);
        self
    }

    /// Sets the streaming-head window (position 0 only).
    pub fn with_window(mut self, window: StreamingWindow) -> Self {
        self.streaming_window = Some(window);
        self
    }
}

/// One phase of a [`SparsitySchedule`]: `over` applies to every token position
/// `>= from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparsityPhase {
    /// First absolute token position (context length) the override governs.
    pub from: usize,
    /// The knobs active from that position on.
    pub over: SparsityOverride,
}

/// A positional schedule of sparsity overrides.
///
/// Why positional rather than a flat per-request override: the reusable
/// selector caches its last rescore, and that rescore was computed under
/// whatever budget was effective *at rescore time*. A branch forked at
/// position `p` with an override must therefore be reproducible by a solo run
/// that applies the same override **from the same position** — the schedule
/// records exactly that timeline, so branch and solo replay score every
/// position under the same budget.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparsitySchedule {
    phases: Vec<SparsityPhase>,
}

impl SparsitySchedule {
    /// The empty schedule (engine defaults everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no phase carries any override.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.over.is_empty())
    }

    /// The phases, sorted by `from`.
    pub fn phases(&self) -> &[SparsityPhase] {
        &self.phases
    }

    /// Adds a phase active from `from` onward, keeping phases sorted. A later
    /// phase overrides earlier ones field-by-field.
    pub fn push(&mut self, from: usize, over: SparsityOverride) {
        if over.is_empty() {
            return;
        }
        let at = self.phases.partition_point(|p| p.from <= from);
        self.phases.insert(at, SparsityPhase { from, over });
    }

    /// The effective selection budget at absolute position `position`, given
    /// the engine's base `dynamic_budget`. Returns `None` when the engine is
    /// dense (no selectors exist, overrides are a documented no-op).
    pub fn effective_budget(&self, base: Option<usize>, position: usize) -> Option<usize> {
        let base = base?;
        let mut budget = base;
        let mut retention: Option<u32> = None;
        for p in self.phases.iter().filter(|p| p.from <= position) {
            if let Some(b) = p.over.selection_budget {
                budget = b;
            }
            if let Some(r) = p.over.retention_permille {
                retention = Some(r);
            }
        }
        if let Some(permille) = retention {
            let cap = (position * permille as usize).div_ceil(1000);
            budget = budget.min(cap);
        }
        Some(budget.max(1))
    }

    /// The streaming-window override: the last one pushed at position 0, the
    /// only position it is honoured from (a streaming head's table takes its
    /// window at sequence creation).
    pub fn window_override(&self) -> Option<StreamingWindow> {
        self.phases
            .iter()
            .rev()
            .filter(|p| p.from == 0)
            .find_map(|p| p.over.streaming_window)
    }

    /// True if any phase past position 0 tries to change the streaming
    /// window — invalid, because a table that has evicted under one window
    /// cannot take another mid-flight.
    pub fn has_late_window_override(&self) -> bool {
        self.phases
            .iter()
            .any(|p| p.from > 0 && p.over.streaming_window.is_some())
    }
}

/// When a fork group resolves, and which members lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPolicy {
    /// The first branch to finish wins; every still-live sibling is
    /// cancelled (with prefix donation).
    FirstFinished,
    /// Map/reduce: every branch runs to completion; no cancellation. The
    /// group resolves once all members are terminal (winner: lowest id among
    /// the finished, as a deterministic representative).
    All,
    /// Best-of-N: every branch runs to completion; the winner maximises
    /// `score_bias + generated_tokens` (ties break to the lowest id).
    BestScore,
}

/// Description of one speculative branch passed to `fork()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchSpec {
    /// Request id of the branch (must be globally fresh).
    pub id: u64,
    /// Tokens appended after the parent's history (may be empty for
    /// best-of-N style racing).
    pub suffix: Vec<u32>,
    /// Decode budget of the branch.
    pub max_new_tokens: usize,
    /// Sparsity knobs applied from the fork point onward.
    pub sparsity: SparsityOverride,
    /// Caller-supplied score bias for `JoinPolicy::BestScore`.
    pub score_bias: i64,
    /// Stop tokens for the branch (e.g. a tool-call terminator).
    pub stop_tokens: Vec<u32>,
}

impl BranchSpec {
    /// A branch with the given id and suffix, default 16 new tokens.
    pub fn new(id: u64, suffix: Vec<u32>) -> Self {
        Self {
            id,
            suffix,
            max_new_tokens: 16,
            sparsity: SparsityOverride::none(),
            score_bias: 0,
            stop_tokens: Vec::new(),
        }
    }

    /// Sets the decode budget.
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new_tokens = n;
        self
    }

    /// Sets the per-branch sparsity override (active from the fork point).
    pub fn sparsity(mut self, over: SparsityOverride) -> Self {
        self.sparsity = over;
        self
    }

    /// Sets the `BestScore` bias.
    pub fn score_bias(mut self, bias: i64) -> Self {
        self.score_bias = bias;
        self
    }

    /// Adds a stop token.
    pub fn stop_token(mut self, tok: u32) -> Self {
        self.stop_tokens.push(tok);
        self
    }
}

/// Why a `fork()` was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForkError {
    /// The parent id is not currently running (queued, terminal, or unknown).
    ParentNotRunning(u64),
    /// `branches` was empty.
    NoBranches,
    /// A branch id collides with an existing request.
    DuplicateId(u64),
    /// A branch asked for `max_new_tokens == 0`, has a suffix token outside
    /// the vocabulary, or asked for a window override — a branch inherits
    /// the parent's tables, windows included, and a table cannot take
    /// another window at the fork point.
    InvalidBranch(u64),
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParentNotRunning(id) => write!(f, "fork parent {id} is not running"),
            Self::NoBranches => write!(f, "fork needs at least one branch"),
            Self::DuplicateId(id) => write!(f, "branch id {id} already exists"),
            Self::InvalidBranch(id) => write!(f, "branch {id} is invalid"),
        }
    }
}

impl std::error::Error for ForkError {}

/// What `fork()` returns: the group id plus one handle per branch (in the
/// order the branches were given).
#[derive(Debug)]
pub struct ForkOutcome {
    /// Group id, usable with [`Scheduler::join_status`](crate::Scheduler::join_status).
    pub group: u64,
    /// Request handles of the branches.
    pub handles: Vec<crate::RequestHandle>,
}

/// Resolution state of a fork group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinStatus {
    /// True once the join policy has fired.
    pub resolved: bool,
    /// The winning branch id, if any branch finished.
    pub winner: Option<u64>,
}

/// Aggregate DAG counters, mirrored into `ServingReport` each step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagStats {
    /// `fork()` calls that succeeded.
    pub forks: u64,
    /// Branches spawned across all forks.
    pub branches_spawned: u64,
    /// Groups whose join policy has resolved.
    pub joins: u64,
    /// Branch cancellations requested by join policies or cascade-cancel.
    pub branch_cancels: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberState {
    Live,
    Finished { score: i64 },
    Cancelled,
}

#[derive(Debug)]
struct Group {
    members: Vec<(u64, i64, MemberState)>,
    policy: JoinPolicy,
    resolved: bool,
    winner: Option<u64>,
}

impl Group {
    fn member_mut(&mut self, id: u64) -> Option<&mut (u64, i64, MemberState)> {
        self.members.iter_mut().find(|m| m.0 == id)
    }

    fn all_terminal(&self) -> bool {
        self.members.iter().all(|m| m.2 != MemberState::Live)
    }

    /// Resolves the group if its policy says so; returns sibling ids to
    /// cancel (FirstFinished only).
    fn try_resolve(&mut self) -> Vec<u64> {
        if self.resolved {
            return Vec::new();
        }
        match self.policy {
            JoinPolicy::FirstFinished => {
                if let Some(winner) = self
                    .members
                    .iter()
                    .find(|m| matches!(m.2, MemberState::Finished { .. }))
                    .map(|m| m.0)
                {
                    self.resolved = true;
                    self.winner = Some(winner);
                    return self
                        .members
                        .iter()
                        .filter(|m| m.2 == MemberState::Live)
                        .map(|m| m.0)
                        .collect();
                }
                if self.all_terminal() {
                    self.resolved = true; // everything was cancelled
                }
                Vec::new()
            }
            JoinPolicy::All | JoinPolicy::BestScore => {
                if self.all_terminal() {
                    self.resolved = true;
                    self.winner = self
                        .members
                        .iter()
                        .filter_map(|m| match m.2 {
                            MemberState::Finished { score } => Some((m.0, score)),
                            _ => None,
                        })
                        // max by score, ties to the lowest id
                        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                        .map(|m| m.0);
                }
                Vec::new()
            }
        }
    }
}

/// The branch graph: fork groups, membership, and parent→child edges for
/// cascade-cancel.
#[derive(Debug, Default)]
pub struct DagStore {
    groups: Vec<Group>,
    /// branch id → group index.
    membership: HashMap<u64, usize>,
    /// request id → direct child branch ids (for cascade-cancel).
    children: HashMap<u64, Vec<u64>>,
    stats: DagStats,
}

impl DagStore {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fork group; returns the group id.
    pub fn fork(&mut self, parent: u64, policy: JoinPolicy, members: &[(u64, i64)]) -> u64 {
        let gid = self.groups.len();
        self.groups.push(Group {
            members: members
                .iter()
                .map(|&(id, bias)| (id, bias, MemberState::Live))
                .collect(),
            policy,
            resolved: false,
            winner: None,
        });
        for &(id, _) in members {
            self.membership.insert(id, gid);
            self.children.entry(parent).or_default().push(id);
        }
        self.stats.forks += 1;
        self.stats.branches_spawned += members.len() as u64;
        gid as u64
    }

    /// Records that `id` finished with `tokens` generated tokens. Returns the
    /// sibling ids the join policy wants cancelled.
    pub fn on_finished(&mut self, id: u64, tokens: usize) -> Vec<u64> {
        let Some(&gid) = self.membership.get(&id) else {
            return Vec::new();
        };
        let group = &mut self.groups[gid];
        if let Some(m) = group.member_mut(id) {
            if m.2 == MemberState::Live {
                m.2 = MemberState::Finished {
                    score: m.1 + tokens as i64,
                };
            }
        }
        let was_resolved = group.resolved;
        let losers = group.try_resolve();
        if group.resolved && !was_resolved {
            self.stats.joins += 1;
        }
        self.stats.branch_cancels += losers.len() as u64;
        losers
    }

    /// Records that `id` was cancelled. Returns every live descendant of `id`
    /// (cascade-cancel: cancelling a parent cancels its whole subtree).
    pub fn on_cancelled(&mut self, id: u64) -> Vec<u64> {
        if let Some(&gid) = self.membership.get(&id) {
            let group = &mut self.groups[gid];
            if let Some(m) = group.member_mut(id) {
                if m.2 == MemberState::Live {
                    m.2 = MemberState::Cancelled;
                }
            }
            let was_resolved = group.resolved;
            let losers = group.try_resolve();
            debug_assert!(losers.is_empty(), "cancellation never picks losers");
            if group.resolved && !was_resolved {
                self.stats.joins += 1;
            }
        }
        // Cascade: collect live descendants breadth-first, marking each one
        // cancelled in the graph now so re-walking an intermediate node later
        // never double-counts its subtree.
        let mut cascade = Vec::new();
        let mut frontier = self.children.get(&id).cloned().unwrap_or_default();
        while let Some(child) = frontier.pop() {
            if let Some(&g) = self.membership.get(&child) {
                let group = &mut self.groups[g];
                if let Some(m) = group.member_mut(child) {
                    if m.2 == MemberState::Live {
                        m.2 = MemberState::Cancelled;
                        cascade.push(child);
                        let was_resolved = group.resolved;
                        let losers = group.try_resolve();
                        debug_assert!(losers.is_empty());
                        if group.resolved && !was_resolved {
                            self.stats.joins += 1;
                        }
                    }
                }
            }
            if let Some(grand) = self.children.get(&child) {
                frontier.extend_from_slice(grand);
            }
        }
        self.stats.branch_cancels += cascade.len() as u64;
        cascade
    }

    /// Resolution state of a group.
    pub fn join_status(&self, group: u64) -> Option<JoinStatus> {
        self.groups.get(group as usize).map(|g| JoinStatus {
            resolved: g.resolved,
            winner: g.winner,
        })
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DagStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_applies_overrides_positionally() {
        let mut s = SparsitySchedule::new();
        s.push(32, SparsityOverride::none().with_budget(8));
        assert_eq!(s.effective_budget(Some(64), 0), Some(64));
        assert_eq!(s.effective_budget(Some(64), 31), Some(64));
        assert_eq!(s.effective_budget(Some(64), 32), Some(8));
        assert_eq!(s.effective_budget(None, 32), None, "dense engine: no-op");
    }

    #[test]
    fn retention_caps_budget_and_clamps_to_one() {
        let mut s = SparsitySchedule::new();
        s.push(0, SparsityOverride::none().with_retention_permille(500));
        assert_eq!(s.effective_budget(Some(64), 100), Some(50));
        assert_eq!(s.effective_budget(Some(64), 1000), Some(64));
        assert_eq!(s.effective_budget(Some(64), 0), Some(1), "clamped >= 1");
        s.push(0, SparsityOverride::none().with_budget(10));
        assert_eq!(s.effective_budget(Some(64), 100), Some(10), "min wins");
    }

    #[test]
    fn later_phases_override_field_by_field() {
        let mut s = SparsitySchedule::new();
        s.push(0, SparsityOverride::none().with_budget(32));
        s.push(16, SparsityOverride::none().with_retention_permille(250));
        assert_eq!(s.effective_budget(Some(64), 8), Some(32));
        // at 16: budget 32 still active, retention caps at ceil(16*0.25)=4
        assert_eq!(s.effective_budget(Some(64), 16), Some(4));
    }

    #[test]
    fn window_override_only_from_zero() {
        let mut s = SparsitySchedule::new();
        s.push(
            0,
            SparsityOverride::none().with_window(StreamingWindow::new(2, 3)),
        );
        assert_eq!(s.window_override(), Some(StreamingWindow::new(2, 3)));
        // A later push at position 0 overrides the earlier one.
        s.push(
            0,
            SparsityOverride::none().with_window(StreamingWindow::new(1, 2)),
        );
        assert_eq!(s.window_override(), Some(StreamingWindow::new(1, 2)));
        assert!(!s.has_late_window_override());
        s.push(
            5,
            SparsityOverride::none().with_window(StreamingWindow::new(1, 1)),
        );
        assert!(s.has_late_window_override());
    }

    #[test]
    fn first_finished_cancels_live_siblings() {
        let mut dag = DagStore::new();
        let g = dag.fork(1, JoinPolicy::FirstFinished, &[(10, 0), (11, 0), (12, 0)]);
        assert!(!dag.join_status(g).unwrap().resolved);
        let losers = dag.on_finished(11, 5);
        assert_eq!(losers, vec![10, 12]);
        let st = dag.join_status(g).unwrap();
        assert!(st.resolved);
        assert_eq!(st.winner, Some(11));
        // Late cancellations of the losers change nothing.
        assert!(dag.on_cancelled(10).is_empty());
        assert_eq!(dag.stats().joins, 1);
        assert_eq!(dag.stats().branch_cancels, 2);
    }

    #[test]
    fn best_score_waits_for_all_and_breaks_ties_low() {
        let mut dag = DagStore::new();
        let g = dag.fork(1, JoinPolicy::BestScore, &[(10, 3), (11, 0), (12, 3)]);
        assert!(dag.on_finished(10, 2).is_empty());
        assert!(dag.on_finished(12, 2).is_empty());
        assert!(!dag.join_status(g).unwrap().resolved);
        assert!(dag.on_finished(11, 4).is_empty());
        let st = dag.join_status(g).unwrap();
        assert!(st.resolved);
        assert_eq!(st.winner, Some(10), "score tie 5 == 5 breaks to lowest id");
    }

    #[test]
    fn all_policy_resolves_without_cancelling() {
        let mut dag = DagStore::new();
        let g = dag.fork(1, JoinPolicy::All, &[(10, 0), (11, 0)]);
        assert!(dag.on_finished(10, 1).is_empty());
        assert!(dag.on_cancelled(11).is_empty());
        let st = dag.join_status(g).unwrap();
        assert!(st.resolved);
        assert_eq!(st.winner, Some(10));
    }

    #[test]
    fn cascade_cancel_reaches_grandchildren() {
        let mut dag = DagStore::new();
        dag.fork(1, JoinPolicy::All, &[(10, 0), (11, 0)]);
        dag.fork(10, JoinPolicy::All, &[(20, 0)]);
        let mut cascade = dag.on_cancelled(1);
        cascade.sort_unstable();
        assert_eq!(cascade, vec![10, 11, 20]);
        assert_eq!(dag.stats().branch_cancels, 3);
    }
}
