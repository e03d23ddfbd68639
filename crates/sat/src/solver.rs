//! The CDCL solver core: a MiniSat/Glucose-class engine.
//!
//! The hot loops follow the modern playbook:
//!
//! * **Watched literals with blockers.** Each watcher caches a "blocker"
//!   literal from the clause; if the blocker is already true the clause is
//!   skipped without touching clause memory. Binary clauses never enter the
//!   clause database at all — they live in dedicated watch lists that map a
//!   falsified literal directly to the implied one.
//! * **Learn-time LBD and periodic database reduction.** Every learnt clause
//!   records its literal-block distance (number of distinct decision levels);
//!   [`Solver::solve`] periodically deletes the worse half of the removable
//!   learnt clauses (high LBD first), always keeping binary clauses, glue
//!   clauses (LBD ≤ 2) and clauses that are the reason of a current
//!   assignment. `SolverStats::learnt_clauses` tracks the *live* count;
//!   deletions show up in `SolverStats::deleted_clauses`.
//! * **Conflict-clause minimization.** MiniSat-style self-subsumption drops
//!   learnt literals whose reason is fully covered by the rest of the clause
//!   (or by root-level assignments) before the clause is attached.
//! * **Indexed VSIDS heap.** The decision order is a mutable binary heap with
//!   a position index per variable, so activity bumps re-heapify in place and
//!   the heap never holds more than one entry per variable.
//! * **Assumption cores.** When [`Solver::solve_with_assumptions`] returns
//!   [`SatResult::Unsat`], [`Solver::failed_assumptions`] exposes a subset of
//!   the assumptions that is already unsatisfiable with the formula
//!   (final-conflict analysis), so incremental callers can learn *why* a
//!   query failed.
//! * **Cone-scoped queries.** [`Solver::solve_within`] runs the same search
//!   restricted to a caller-given variable set: it decides only on that set,
//!   enqueues no implication outside it above level 0, and answers `Sat` as
//!   soon as the set is fully assigned. On an incrementally grown formula
//!   (the SAT sweeper's) a query then pays for the cone it asks about, not
//!   for everything loaded so far. `Unsat`, the failed core and `Unknown`
//!   are unconditional; the method states when a scoped `Sat` extends to a
//!   model.
//!
//! The solver this module replaced lives on unmodified in the workspace's
//! `sat-oracle` crate as a differential testing oracle.

use crate::{Lit, Var};

mod audit;

pub use self::audit::audit_solver;

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (readable via [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict was reached.
    Unknown,
}

/// Aggregate statistics of a solver instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently live in the database (binary
    /// learnt clauses included). Decreases when `reduce_db` deletes clauses.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Number of learnt-database reduction rounds.
    pub reductions: u64,
    /// Literals removed from learnt clauses by self-subsumption minimization.
    pub minimized_lits: u64,
}

/// A long clause (three or more literals). Binary clauses are stored
/// implicitly in the binary watch lists and never allocate a `Clause`.
#[derive(Debug, Clone)]
struct Clause {
    /// The literals; `lits[0]` and `lits[1]` are the watched pair. An empty
    /// vector marks a deleted clause whose slot is on the free list.
    lits: Vec<Lit>,
    learnt: bool,
    /// Literal-block distance at learn time, refreshed (kept at the minimum)
    /// whenever the clause participates in conflict analysis.
    lbd: u32,
}

/// One entry of a long-clause watch list.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    /// Some other literal of the clause; if it is already true the clause is
    /// satisfied and the watcher can be skipped without a memory fetch.
    blocker: Lit,
}

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Decision or assumption.
    None,
    /// Propagated by the long clause with this index (`lits[0]` is the
    /// implied literal).
    Clause(u32),
    /// Propagated by a binary clause; the payload is the clause's *other*
    /// (false) literal.
    Binary(Lit),
}

/// The cause of a propagation conflict.
#[derive(Debug, Clone, Copy)]
enum ConflictCause {
    Clause(u32),
    /// A falsified binary clause, both literals false.
    Binary(Lit, Lit),
}

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;
/// Conflicts before the first learnt-database reduction.
const REDUCE_BASE: u64 = 2_000;
/// Additional conflicts granted after each reduction round.
const REDUCE_INC: u64 = 300;
/// Learnt clauses with an LBD at or below this are never deleted.
const GLUE_LBD: u32 = 2;

/// A conflict-driven clause-learning SAT solver.
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Slots of deleted clauses, reused by the next attach.
    free: Vec<u32>,
    /// Live learnt (long) clause indices, scanned by `reduce_db`.
    learnts: Vec<u32>,
    /// Long-clause watchers, indexed by `Lit::code()` of the watched literal.
    watches: Vec<Vec<Watcher>>,
    /// Binary-clause implication lists: `bin_watches[l.code()]` holds the
    /// other literal of every binary clause containing `l`.
    bin_watches: Vec<Vec<Lit>>,
    /// Number of live binary clauses.
    num_bin: usize,
    assigns: Vec<i8>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Indexed max-heap over variable activity.
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or -1 when absent.
    heap_pos: Vec<i32>,
    seen: Vec<bool>,
    /// Per-decision-level stamps used by the O(clause) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// Failed-assumption core of the last Unsat-under-assumptions answer.
    conflict_core: Vec<Lit>,
    /// Is a [`Solver::solve_within`] query running?
    scoped: bool,
    /// Membership of the running query's scope; all `false` outside one,
    /// and read only while `scoped`, so the plain query never touches it.
    in_scope: Vec<bool>,
    /// Scope variables not yet assigned (meaningful while `scoped`).
    scope_unassigned: usize,
    /// Unassigned out-of-scope variables a scoped query popped from the
    /// heap; put back before it returns.
    stash: Vec<Var>,
    ok: bool,
    /// Maximum number of conflicts before giving up (`None` = unlimited).
    conflict_budget: Option<u64>,
    conflicts_since_reduce: u64,
    reduce_limit: u64,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            free: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            num_bin: 0,
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            conflict_core: Vec::new(),
            scoped: false,
            in_scope: Vec::new(),
            scope_unassigned: 0,
            stash: Vec::new(),
            ok: true,
            conflict_budget: None,
            conflicts_since_reduce: 0,
            reduce_limit: REDUCE_BASE,
            stats: SolverStats::default(),
        }
    }

    /// Adds a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var(self.assigns.len() as u32);
        self.assigns.push(0);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(Reason::None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.in_scope.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.heap_pos.push(-1);
        self.heap_insert(var);
        var
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (original plus learnt, binary included).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() - self.free.len() + self.num_bin
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the number of conflicts spent in a single [`Solver::solve`] call;
    /// when exceeded the call returns [`SatResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// After [`Solver::solve_with_assumptions`] returned [`SatResult::Unsat`],
    /// returns a subset of the assumption literals that is already
    /// unsatisfiable together with the formula (a "failed core").
    ///
    /// The slice is empty when the formula is unsatisfiable regardless of the
    /// assumptions, or when the last query did not end in `Unsat`.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> i8 {
        let v = self.assigns[lit.var().index()];
        if lit.is_neg() {
            -v
        } else {
            v
        }
    }

    /// Returns the model value of a literal after a [`SatResult::Sat`] answer.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        match self.lit_value(lit) {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    // ------------------------------------------------------------------
    // Clause database
    // ------------------------------------------------------------------

    /// Adds a clause. Returns `false` if the solver becomes trivially
    /// unsatisfiable (conflict at decision level zero).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Level-0 simplification below is only sound at level 0.
        self.cancel_until(0);
        // Simplify: drop duplicate/false literals; detect tautologies and
        // already-satisfied clauses.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            assert!(
                lit.var().index() < self.num_vars(),
                "literal uses unknown variable"
            );
            match self.lit_value(lit) {
                1 => return true, // already satisfied at level 0
                -1 => continue,   // falsified literal drops out
                _ => {}
            }
            if clause.contains(&!lit) {
                return true; // tautology
            }
            if !clause.contains(&lit) {
                clause.push(lit);
            }
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(clause[0], Reason::None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            2 => {
                self.attach_binary(clause[0], clause[1], false);
                true
            }
            _ => {
                self.attach_clause(clause, false, 0);
                true
            }
        }
    }

    fn attach_binary(&mut self, a: Lit, b: Lit, learnt: bool) {
        self.bin_watches[a.code()].push(b);
        self.bin_watches[b.code()].push(a);
        self.num_bin += 1;
        if learnt {
            self.stats.learnt_clauses += 1;
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 3);
        let (w0, w1) = (lits[0], lits[1]);
        let cref = match self.free.pop() {
            Some(slot) => {
                self.clauses[slot as usize] = Clause { lits, learnt, lbd };
                slot
            }
            None => {
                self.clauses.push(Clause { lits, learnt, lbd });
                (self.clauses.len() - 1) as u32
            }
        };
        self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
        self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        if learnt {
            self.learnts.push(cref);
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    /// Removes a learnt clause from the watch lists and frees its slot.
    fn detach_clause(&mut self, cref: u32) {
        let (w0, w1) = {
            let c = &self.clauses[cref as usize];
            debug_assert!(c.learnt, "only learnt clauses are deleted");
            (c.lits[0], c.lits[1])
        };
        self.watches[w0.code()].retain(|w| w.cref != cref);
        self.watches[w1.code()].retain(|w| w.cref != cref);
        let c = &mut self.clauses[cref as usize];
        c.lits = Vec::new();
        self.free.push(cref);
        self.stats.learnt_clauses -= 1;
        self.stats.deleted_clauses += 1;
    }

    /// Is this clause the reason of a current assignment? Locked clauses must
    /// survive `reduce_db` because conflict analysis may walk them.
    fn locked(&self, cref: u32) -> bool {
        let first = self.clauses[cref as usize].lits[0];
        self.lit_value(first) == 1 && self.reason[first.var().index()] == Reason::Clause(cref)
    }

    /// Deletes the worse half of the removable learnt clauses: highest LBD
    /// first, ties broken towards longer clauses. Binary clauses never enter
    /// the database, glue clauses (LBD ≤ 2) and locked clauses are kept.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut removable: Vec<u32> = Vec::with_capacity(self.learnts.len());
        for &cref in &self.learnts {
            let c = &self.clauses[cref as usize];
            if c.lits.is_empty() || c.lbd <= GLUE_LBD || self.locked(cref) {
                continue;
            }
            removable.push(cref);
        }
        removable.sort_by_key(|&cref| {
            let c = &self.clauses[cref as usize];
            // Sorted ascending; the back half (worst) is deleted.
            (c.lbd, c.lits.len(), cref)
        });
        let keep = removable.len() - removable.len() / 2;
        for &cref in &removable[keep..] {
            self.detach_clause(cref);
        }
        self.learnts
            .retain(|&cref| !self.clauses[cref as usize].lits.is_empty());
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.lit_value(lit), 0);
        let var = lit.var().index();
        self.assigns[var] = if lit.is_neg() { -1 } else { 1 };
        self.phase[var] = !lit.is_neg();
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.trail.push(lit);
        if self.scoped && self.in_scope[var] {
            self.scope_unassigned -= 1;
        }
    }

    /// May propagation enqueue `lit`? Always, except above level 0 in a
    /// scoped query for a literal outside the scope.
    #[inline]
    fn may_imply(&self, lit: Lit) -> bool {
        !self.scoped || self.in_scope[lit.var().index()] || self.decision_level() == 0
    }

    fn propagate(&mut self) -> Option<ConflictCause> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;

            // Binary clauses first: implication without touching the clause
            // database.
            for i in 0..self.bin_watches[false_lit.code()].len() {
                let other = self.bin_watches[false_lit.code()][i];
                match self.lit_value(other) {
                    1 => {}
                    -1 => {
                        self.qhead = self.trail.len();
                        return Some(ConflictCause::Binary(false_lit, other));
                    }
                    _ if self.may_imply(other) => {
                        self.enqueue(other, Reason::Binary(false_lit));
                    }
                    _ => {}
                }
            }

            // Long clauses, with the blocker fast path.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref as usize;
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref].lits[0];
                let old_blocker = w.blocker;
                let w = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != old_blocker && self.lit_value(first) == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let candidate = self.clauses[cref].lits[k];
                    if self.lit_value(candidate) != -1 {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[candidate.code()].push(w);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = w;
                j += 1;
                if self.lit_value(first) == -1 {
                    // Conflict: keep the unvisited watchers and report.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[false_lit.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(ConflictCause::Clause(w.cref));
                }
                // A unit on a literal outside the scope stays watched where
                // it is: that literal is never assigned above level 0, so
                // the clause can neither imply nor conflict until the
                // search backtracks past it.
                if self.may_imply(first) {
                    self.enqueue(first, Reason::Clause(w.cref));
                }
            }
            ws.truncate(j);
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    // ------------------------------------------------------------------
    // VSIDS order heap
    // ------------------------------------------------------------------

    /// Does `a` outrank `b` in the decision order? Ties break towards the
    /// smaller variable index for determinism.
    #[inline]
    fn heap_better(&self, a: Var, b: Var) -> bool {
        let (aa, ba) = (self.activity[a.index()], self.activity[b.index()]);
        aa > ba || (aa == ba && a.0 < b.0)
    }

    fn heap_insert(&mut self, var: Var) {
        if self.heap_pos[var.index()] >= 0 {
            return;
        }
        self.heap.push(var);
        let i = self.heap.len() - 1;
        self.heap_pos[var.index()] = i as i32;
        self.heap_sift_up(i);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.heap_better(self.heap[i], self.heap[parent]) {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < self.heap.len() && self.heap_better(self.heap[right], self.heap[left]) {
                best = right;
            }
            if !self.heap_better(self.heap[best], self.heap[i]) {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    #[inline]
    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i as i32;
        self.heap_pos[self.heap[j].index()] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self
            .heap
            .pop()
            .unwrap_or_else(|| unreachable!("heap non-empty"));
        self.heap_pos[top.index()] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > RESCALE_LIMIT {
            // Uniform scaling preserves the heap order, so no re-heapify.
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[var.index()];
        if pos >= 0 {
            self.heap_sift_up(pos as usize);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // Assigned variables stay in the heap lazily and are skipped here;
        // every unassigned variable is in the heap (re-inserted on
        // backtracking) or, in a scoped query, stashed, so an empty heap
        // means a full assignment.
        while let Some(var) = self.heap_pop() {
            if self.assigns[var.index()] != 0 {
                continue;
            }
            if self.scoped && !self.in_scope[var.index()] {
                self.stash.push(var);
                continue;
            }
            return Some(var);
        }
        None
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// Number of distinct decision levels among `lits`.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0u32;
        for &lit in lits {
            let lev = self.level[lit.var().index()] as usize;
            if lev >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lev + 1, 0);
            }
            if self.lbd_stamp[lev] != stamp {
                self.lbd_stamp[lev] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis with self-subsumption minimization.
    /// Returns the learnt clause (asserting literal first), the backtrack
    /// level and the clause's LBD.
    fn analyze(&mut self, cause: ConflictCause) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the asserting literal
        let mut to_clear: Vec<Var> = Vec::new();
        let mut reason_lits: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            reason_lits.clear();
            match p {
                None => match cause {
                    ConflictCause::Clause(cref) => {
                        self.refresh_lbd(cref);
                        reason_lits.extend_from_slice(&self.clauses[cref as usize].lits);
                    }
                    ConflictCause::Binary(a, b) => {
                        reason_lits.push(a);
                        reason_lits.push(b);
                    }
                },
                Some(p_lit) => match self.reason[p_lit.var().index()] {
                    Reason::Clause(cref) => {
                        self.refresh_lbd(cref);
                        debug_assert_eq!(self.clauses[cref as usize].lits[0], p_lit);
                        reason_lits.extend_from_slice(&self.clauses[cref as usize].lits[1..]);
                    }
                    Reason::Binary(other) => reason_lits.push(other),
                    Reason::None => unreachable!("non-decision literal has a reason"),
                },
            }
            for &q in &reason_lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal of the current level on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p_lit = self.trail[index];
            self.seen[p_lit.var().index()] = false;
            p = Some(p_lit);
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p_lit;
                break;
            }
        }

        // Recursive self-subsumption: drop literals whose reason chain is
        // covered by the remaining clause (or level 0). `seen` is still set
        // for exactly the kept literals, which is what `lit_redundant` tests
        // against; the level abstraction cuts off chains that reach a
        // decision level absent from the clause.
        let abstract_levels = learnt[1..].iter().fold(0u64, |acc, l| {
            acc | Self::abstract_level(self.level[l.var().index()])
        });
        let mut write = 1;
        for read in 1..learnt.len() {
            let q = learnt[read];
            if self.lit_redundant(q, abstract_levels, &mut to_clear) {
                self.stats.minimized_lits += 1;
            } else {
                learnt[write] = q;
                write += 1;
            }
        }
        learnt.truncate(write);

        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Backtrack level: the highest level among the non-asserting literals.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        let lbd = self.compute_lbd(&learnt);
        (learnt, backtrack, lbd)
    }

    /// Glucose-style LBD refresh: a learnt clause that keeps showing up in
    /// conflicts gets its LBD re-evaluated (kept at the minimum), promoting
    /// it towards the never-deleted glue tier.
    fn refresh_lbd(&mut self, cref: u32) {
        if !self.clauses[cref as usize].learnt || self.clauses[cref as usize].lbd <= GLUE_LBD {
            return;
        }
        let lits = std::mem::take(&mut self.clauses[cref as usize].lits);
        let lbd = self.compute_lbd(&lits);
        let c = &mut self.clauses[cref as usize];
        c.lits = lits;
        c.lbd = c.lbd.min(lbd);
    }

    /// One bit per decision level (mod 64): a cheap over-approximation used
    /// to cut off redundancy DFS chains that reach a level with no literal in
    /// the learnt clause (such chains can never terminate in covered lits).
    fn abstract_level(level: u32) -> u64 {
        1u64 << (level & 63)
    }

    /// Is the learnt literal `q` redundant? True when its (propagation)
    /// reason chain bottoms out entirely in literals already in the learnt
    /// clause or assigned at level 0 — resolving the chain away
    /// self-subsumes. This is MiniSat's full recursive minimization
    /// (`ccmin-mode=2`), run as an explicit-stack DFS.
    ///
    /// Literals proved redundant along the way keep their `seen` mark as a
    /// memo for later calls; on failure only this call's marks (tracked via
    /// `to_clear`) are rolled back.
    fn lit_redundant(&mut self, q: Lit, abstract_levels: u64, to_clear: &mut Vec<Var>) -> bool {
        if matches!(self.reason[q.var().index()], Reason::None) {
            return false;
        }
        let mut stack: Vec<Lit> = vec![q];
        let top = to_clear.len();
        while let Some(p) = stack.pop() {
            let ok = match self.reason[p.var().index()] {
                Reason::None => false,
                Reason::Binary(other) => {
                    self.redundancy_step(other, abstract_levels, &mut stack, to_clear)
                }
                Reason::Clause(cref) => {
                    let lits = std::mem::take(&mut self.clauses[cref as usize].lits);
                    let r = lits[1..]
                        .iter()
                        .all(|&l| self.redundancy_step(l, abstract_levels, &mut stack, to_clear));
                    self.clauses[cref as usize].lits = lits;
                    r
                }
            };
            if !ok {
                for &v in &to_clear[top..] {
                    self.seen[v.index()] = false;
                }
                to_clear.truncate(top);
                return false;
            }
        }
        true
    }

    /// One antecedent literal inside the redundancy DFS: covered literals
    /// pass outright, decisions and out-of-abstraction levels fail, the rest
    /// are marked and scheduled for their own reason expansion.
    fn redundancy_step(
        &mut self,
        l: Lit,
        abstract_levels: u64,
        stack: &mut Vec<Lit>,
        to_clear: &mut Vec<Var>,
    ) -> bool {
        let v = l.var();
        if self.seen[v.index()] || self.level[v.index()] == 0 {
            return true;
        }
        if matches!(self.reason[v.index()], Reason::None)
            || Self::abstract_level(self.level[v.index()]) & abstract_levels == 0
        {
            return false;
        }
        self.seen[v.index()] = true;
        to_clear.push(v);
        stack.push(l);
        true
    }

    /// Final-conflict analysis: the assumption `p` is false under the current
    /// (assumption-only) trail. Returns the subset of assumption literals
    /// (including `p`) whose conjunction is already unsatisfiable.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let x = lit.var().index();
            if !self.seen[x] {
                continue;
            }
            match self.reason[x] {
                Reason::None => {
                    // Below the first real decision every reason-free trail
                    // literal is an assumption.
                    debug_assert!(self.level[x] > 0);
                    core.push(lit);
                }
                Reason::Clause(cref) => {
                    for &q in &self.clauses[cref as usize].lits[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
                Reason::Binary(other) => {
                    if self.level[other.var().index()] > 0 {
                        self.seen[other.var().index()] = true;
                    }
                }
            }
            self.seen[x] = false;
        }
        self.seen[p.var().index()] = false;
        core
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level as usize];
        while self.trail.len() > bound {
            let lit = self
                .trail
                .pop()
                .unwrap_or_else(|| unreachable!("trail non-empty"));
            let var = lit.var();
            self.assigns[var.index()] = 0;
            self.reason[var.index()] = Reason::None;
            if self.scoped && self.in_scope[var.index()] {
                self.scope_unassigned += 1;
            }
            self.heap_insert(var);
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    /// The 1-indexed Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
    fn luby(mut i: u64) -> u64 {
        debug_assert!(i >= 1);
        loop {
            let next_pow = (i + 1).next_power_of_two();
            if i + 1 == next_pow {
                return next_pow / 2;
            }
            i -= next_pow / 2 - 1;
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals. On
    /// [`SatResult::Unsat`], [`Solver::failed_assumptions`] holds an
    /// unsatisfiable subset of `assumptions`.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.conflict_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        let budget_start = self.stats.conflicts;
        let mut restart_idx = 1u64;
        let mut conflicts_until_restart = 100 * Self::luby(restart_idx);

        loop {
            match self.propagate() {
                Some(cause) => {
                    self.stats.conflicts += 1;
                    self.conflicts_since_reduce += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    let (learnt, backtrack, lbd) = self.analyze(cause);
                    self.decay_activities();
                    self.learn(learnt, backtrack, lbd);

                    if let Some(budget) = self.conflict_budget {
                        if self.stats.conflicts - budget_start > budget {
                            self.cancel_until(0);
                            return SatResult::Unknown;
                        }
                    }
                    if self.conflicts_since_reduce >= self.reduce_limit {
                        self.conflicts_since_reduce = 0;
                        self.reduce_limit += REDUCE_INC;
                        self.reduce_db();
                    }
                    conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                }
                None => {
                    if conflicts_until_restart == 0 {
                        self.stats.restarts += 1;
                        restart_idx += 1;
                        conflicts_until_restart = 100 * Self::luby(restart_idx);
                        self.cancel_until(0);
                        continue;
                    }
                    // Enqueue pending assumptions as pseudo-decisions.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let p = assumptions[self.decision_level() as usize];
                        match self.lit_value(p) {
                            1 => {
                                // Already satisfied: open a dummy level.
                                self.trail_lim.push(self.trail.len());
                            }
                            -1 => {
                                self.conflict_core = self.analyze_final(p);
                                self.cancel_until(0);
                                return SatResult::Unsat;
                            }
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(p, Reason::None);
                            }
                        }
                        continue;
                    }
                    if self.scoped && self.scope_unassigned == 0 {
                        return SatResult::Sat;
                    }
                    match self.pick_branch_var() {
                        None => return SatResult::Sat,
                        Some(var) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = Lit::new(var, !self.phase[var.index()]);
                            self.enqueue(lit, Reason::None);
                        }
                    }
                }
            }
        }
    }

    /// Solves under `assumptions` like [`Solver::solve_with_assumptions`],
    /// but searches only over the variables in `scope`: decisions are taken
    /// on scope variables only, propagation above level 0 enqueues no
    /// literal outside the scope (level-0 propagation stays complete), and
    /// the answer is [`SatResult::Sat`] as soon as every scope variable is
    /// assigned. Variables outside the scope are then unassigned unless
    /// fixed at level 0, and [`Solver::value`] reads `None` for them.
    ///
    /// [`SatResult::Unsat`], the [failed core](Solver::failed_assumptions)
    /// and [`SatResult::Unknown`] hold unconditionally: every conflict and
    /// every learnt clause comes from the clauses themselves. A `Sat`
    /// answer is sound — the scope assignment extends to a model of the
    /// whole formula — when every assignment of `scope` that satisfies the
    /// clauses over `scope` extends to a model. That is the case when
    /// `scope` is a fanin-closed set of Tseitin gate variables and every
    /// other clause either defines a gate outside it or is implied by the
    /// rest (a learnt clause, or a tie `a ↔ b` between two gates proved
    /// equal).
    ///
    /// Every assumption variable must be in `scope`. With `scope` holding
    /// every variable the query is [`Solver::solve_with_assumptions`], step
    /// for step.
    pub fn solve_within(&mut self, assumptions: &[Lit], scope: &[Var]) -> SatResult {
        self.cancel_until(0);
        self.scope_unassigned = 0;
        for &var in scope {
            if !self.in_scope[var.index()] {
                self.in_scope[var.index()] = true;
                self.scope_unassigned += usize::from(self.assigns[var.index()] == 0);
            }
        }
        debug_assert!(
            assumptions.iter().all(|a| self.in_scope[a.var().index()]),
            "every assumption variable must be in the scope"
        );
        self.scoped = true;
        let result = self.solve_with_assumptions(assumptions);
        self.scoped = false;
        for &var in scope {
            self.in_scope[var.index()] = false;
        }
        while let Some(var) = self.stash.pop() {
            self.heap_insert(var);
        }
        result
    }

    fn learn(&mut self, learnt: Vec<Lit>, backtrack: u32, lbd: u32) {
        self.cancel_until(backtrack);
        match learnt.len() {
            1 => self.enqueue(learnt[0], Reason::None),
            2 => {
                // Binary learnt clauses are permanent: they cost no clause
                // memory and reduce_db never sees them.
                self.attach_binary(learnt[0], learnt[1], true);
                self.enqueue(learnt[0], Reason::Binary(learnt[1]));
            }
            _ => {
                let asserting = learnt[0];
                let cref = self.attach_clause(learnt, true, lbd);
                self.enqueue(asserting, Reason::Clause(cref));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(solver.new_var())).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0]]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (a -> b), (b -> c), a  =>  c must be true.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole() {
        // p1h1, p2h1, at most one pigeon per hole -> UNSAT.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0]]);
        s.add_clause(&[v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Classic PHP(3,2): each pigeon in some hole, no two pigeons share.
        let mut s = Solver::new();
        let mut var = |_p: usize, _h: usize| Lit::pos(s.new_var());
        let x: Vec<Vec<Lit>> = (0..3)
            .map(|p| (0..2).map(|h| var(p, h)).collect())
            .collect();
        for pigeon in &x {
            s.add_clause(pigeon);
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[(p1 + 1)..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_is_satisfiable_with_model() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x3 ^ x1 = 0 -> satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        // x1 ^ x2 = 1
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        // x2 ^ x3 = 1
        s.add_clause(&[v[1], v[2]]);
        s.add_clause(&[!v[1], !v[2]]);
        // x3 ^ x1 = 0 (equal)
        s.add_clause(&[!v[2], v[0]]);
        s.add_clause(&[v[2], !v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        let m: Vec<bool> = v.iter().map(|&l| s.value(l).unwrap()).collect();
        assert!(m[0] ^ m[1]);
        assert!(m[1] ^ m[2]);
        assert!(!(m[2] ^ m[0]));
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0], !v[1]]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // The solver is reusable after assumption-based UNSAT.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn assumptions_conflicting_with_units() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SatResult::Unsat);
        // The assumption alone is the core: the formula forces v[0].
        assert_eq!(s.failed_assumptions(), &[!v[0]]);
        assert_eq!(s.solve_with_assumptions(&[v[0]]), SatResult::Sat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn failed_assumptions_form_an_unsat_core() {
        // a -> b, b -> c; assuming a and !c is contradictory, x is a red
        // herring that must not appear in the core.
        let mut s = Solver::new();
        let v = lits(&mut s, 4); // a, b, c, x
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        let assumptions = [v[3], v[0], !v[2]];
        assert_eq!(s.solve_with_assumptions(&assumptions), SatResult::Unsat);
        let core: Vec<Lit> = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for lit in &core {
            assert!(assumptions.contains(lit), "core lit {lit} not assumed");
        }
        assert!(!core.contains(&v[3]), "red herring ended up in the core");
        // The core alone must still be UNSAT.
        assert_eq!(s.solve_with_assumptions(&core), SatResult::Unsat);
        // Dropping the core's constraint makes it satisfiable again.
        assert_eq!(s.solve_with_assumptions(&[v[3]]), SatResult::Sat);
    }

    #[test]
    fn contradictory_assumption_pair_is_its_own_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[v[0], !v[0]]), SatResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&v[0]) && core.contains(&!v[0]), "{core:?}");
    }

    #[test]
    fn unsat_formula_has_empty_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve_with_assumptions(&[v[0]]), SatResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn random_3sat_small_instances_agree_with_brute_force() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..30 {
            let n_vars = 6;
            let n_clauses = 18 + (round % 5);
            let mut clause_set = Vec::new();
            for _ in 0..n_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = next() % n_vars;
                    let neg = next() % 2 == 1;
                    clause.push((v, neg));
                }
                clause_set.push(clause);
            }
            // Brute force.
            let mut brute_sat = false;
            for assign in 0u32..(1 << n_vars) {
                let ok = clause_set
                    .iter()
                    .all(|cl| cl.iter().any(|&(v, neg)| ((assign >> v) & 1 == 1) != neg));
                if ok {
                    brute_sat = true;
                    break;
                }
            }
            // CDCL.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
            for cl in &clause_set {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(v, neg)| Lit::new(vars[v as usize], neg))
                    .collect();
                s.add_clause(&lits);
            }
            let res = s.solve();
            assert_eq!(
                res,
                if brute_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
                "round {round} mismatch"
            );
            if res == SatResult::Sat {
                // The reported model must satisfy every clause.
                for cl in &clause_set {
                    assert!(cl
                        .iter()
                        .any(|&(v, neg)| { s.value(Lit::new(vars[v as usize], neg)).unwrap() }));
                }
            }
        }
    }

    fn pigeonhole_solver(holes: usize) -> Solver {
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..=holes)
            .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for pigeon in &x {
            s.add_clause(pigeon);
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[(p1 + 1)..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard pigeonhole instance with a tiny budget should give Unknown.
        let mut s = pigeonhole_solver(9);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SatResult::Unknown);
    }

    #[test]
    fn pigeonhole_moderate_is_unsat_with_unlimited_budget() {
        // PHP(6, 5) is still exponential for resolution but small enough to
        // finish quickly even in debug builds.
        let mut s = pigeonhole_solver(5);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn stats_are_collected() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.stats().propagations > 0);
        assert_eq!(s.num_vars(), 4);
        assert!(s.num_clauses() >= 3);
    }

    /// Regression for the unbounded lazy `BinaryHeap`: the indexed order
    /// heap must never hold more than one entry per variable, no matter how
    /// many bumps and backtracks a solve performs.
    #[test]
    fn order_heap_stays_bounded_by_num_vars() {
        let mut s = pigeonhole_solver(6);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 100, "wanted a non-trivial search");
        assert!(
            s.heap.len() <= s.num_vars(),
            "heap grew to {} entries for {} vars",
            s.heap.len(),
            s.num_vars()
        );
        // Position index and heap must agree exactly (no duplicates).
        let mut present = 0;
        for (i, &var) in s.heap.iter().enumerate() {
            assert_eq!(s.heap_pos[var.index()], i as i32);
            present += 1;
        }
        assert_eq!(present, s.heap.len());
    }

    /// `learnt_clauses` tracks the live database through reductions and
    /// `deleted_clauses` records the churn.
    #[test]
    fn learnt_clause_stats_track_reductions() {
        let mut s = pigeonhole_solver(8);
        s.set_conflict_budget(Some(6_000));
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.reductions > 0, "expected at least one reduce_db");
        assert!(stats.deleted_clauses > 0);
        // Live count matches the database exactly: long learnts on the
        // learnts list plus binary learnt clauses.
        let live_long = s
            .learnts
            .iter()
            .filter(|&&c| !s.clauses[c as usize].lits.is_empty())
            .count() as u64;
        assert!(stats.learnt_clauses >= live_long);
        let live_bin = stats.learnt_clauses - live_long;
        assert!(live_bin <= s.num_bin as u64);
        // The monotone-counter bug would make this fail: live learnt clauses
        // must be fewer than all clauses ever learnt.
        assert!(stats.learnt_clauses < stats.conflicts);
    }

    /// After reduce_db deletes clauses the solver must still answer
    /// correctly (watch lists and reasons stay consistent).
    #[test]
    fn solving_remains_sound_across_reductions() {
        let mut s = pigeonhole_solver(7);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().deleted_clauses > 0 || s.stats().reductions == 0);
    }

    #[test]
    fn incremental_reuse_after_sat_and_unsat_answers() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[!v[0], v[3]]);
        s.add_clause(&[!v[3], !v[1], v[4]]);
        for _ in 0..3 {
            assert_eq!(s.solve_with_assumptions(&[v[0], v[1]]), SatResult::Sat);
            assert_eq!(s.value(v[3]), Some(true));
            assert_eq!(s.value(v[4]), Some(true));
            assert_eq!(s.solve_with_assumptions(&[v[0], !v[3]]), SatResult::Unsat);
            assert!(!s.failed_assumptions().is_empty());
        }
        // Adding a clause mid-session keeps working.
        s.add_clause(&[!v[4], v[5]]);
        assert_eq!(s.solve_with_assumptions(&[v[0], v[1]]), SatResult::Sat);
        assert_eq!(s.value(v[5]), Some(true));
    }
}
