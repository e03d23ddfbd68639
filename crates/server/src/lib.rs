//! Synthesis-as-a-service: a persistent, thread-based synthesis daemon.
//!
//! The server keeps a pool of plain `std::thread` workers alive across
//! submissions ("a stream of jobs against warm state", not one CLI
//! invocation per design) and is a cache keyed at two stage boundaries of
//! the flow. A boundary maps a key to a slot that is absent, being computed
//! by exactly one job, or ready:
//!
//! 1. **Results** — keyed on `(aig::structural_fingerprint,
//!    rules::rule_set_id)` and the job's whole [`FlowConfig`]; a repeated
//!    submission is answered with the *same* result object.
//! 2. **Checkpoints** — keyed on the same circuit and the config's
//!    [`SaturationKey`], the knobs `prepare_network` and the saturation stage
//!    run under, defined next to them. One saturation is kept in memory and
//!    re-extracted / re-mapped under any other extractor, cost function,
//!    delay target or library, amortizing the dominant phase (paper Fig. 9).
//!    It is stored in the layout a checkpoint of it restores to
//!    ([`SaturatedState::relayout`]), built once by the job that saturates,
//!    so every hit extracts exactly what a restored checkpoint would give
//!    without any document in between. The network `prepare_network` made
//!    of the circuit is stored beside it, so a hit costs extraction and
//!    verify + map: the key holds every knob `prepare_network` reads, and
//!    the circuit half of it is the name- and numbering-blind fingerprint
//!    the result boundary already trusts.
//!
//! **Keys are compared by value**: two configs are one key when `==` says so,
//! however they were built; nothing is rendered to text or hashed in place
//! of the comparison. `search_threads` is a field of the config, so it is in
//! the result key, but not in the saturation key: the thread count never
//! changes a saturated e-graph ([`egraph::pool`]).
//!
//! **Both boundaries are single-flight.** Of the jobs that want an absent key
//! one computes it; the others sleep, each on its worker, until the value is
//! published — duplicates are served the result, jobs sharing a saturation
//! extract from the stored one — or the claim is released, and then one of
//! them takes the computation over. Keys are made at submission and a worker
//! takes a job's claims in the step that pops it, so claims are taken in
//! submission order: which job of a batch saturates, and so what each one
//! serves, does not depend on how the pool interleaves. A miss runs the flow
//! itself, the resynthesized network CEC-verified against the submitted input
//! before the final `st; dch; map` round.
//!
//! **Every job ends.** A job that turned [`JobState::Running`] ends
//! `Completed`, `Preempted` or `Failed` however its worker leaves it, and its
//! claims are released on the same exits. Cancellation sets a per-job flag
//! that the saturation runner checks at the same points as its other limits
//! and that wakes a job asleep on another job's claim. A flow that panics is
//! caught: the client sees `Failed` with the panic message in
//! [`JobStatus::error`], the worker takes the next job. A
//! [`JobRequest::budget`] tightens the saturation time limit before the keys
//! are made, so a budgeted job is another key at both boundaries.

use aig::Aig;
use emorphic::flow::{
    check_equivalence_swept, extract_network, prepare_network, saturate_network_with_interrupt,
    verify_and_map, FlowConfig, SaturatedState, SaturationKey,
};
use emorphic::rules::rule_set_id;
use fxhash::FxHashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use techmap::Qor;

/// Locks the server state, tolerating poisoning. Every critical section is a
/// few field updates that call no flow code, and the guards below lock from
/// `Drop`, where a second panic would abort the process.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleeps on `cv`, with the same tolerance.
fn wait<'a>(cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(state).unwrap_or_else(PoisonError::into_inner)
}

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// A synthesis request: the circuit, the flow configuration, and an
/// optional wall-clock budget for the saturation phase.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The input network.
    pub aig: Aig,
    /// Flow knobs (saturation limits, extraction engine, CEC budgets, ...).
    pub config: FlowConfig,
    /// Per-job budget, mapped onto the saturation wall-clock limit (the
    /// tightest of this and `config.saturation_time_limit` wins). The job is
    /// keyed on the config *after* that, so it shares a result or a
    /// checkpoint only with jobs under the same effective limit.
    pub budget: Option<Duration>,
}

impl JobRequest {
    /// A request with the given circuit and config and no extra budget.
    pub fn new(aig: Aig, config: FlowConfig) -> Self {
        JobRequest {
            aig,
            config,
            budget: None,
        }
    }

    /// Sets the per-job budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; a result is available.
    Completed,
    /// Cancelled (or budget-preempted before any phase completed): the
    /// worker was reclaimed and no result is available. Preemption is a
    /// clean outcome, never a corrupted one — the runner's cooperative
    /// checkpoints leave every structure consistent.
    Preempted,
    /// The job cannot be served; the reason is recorded on the status: a
    /// request for windowed saturation (`config.partitioning`), or a flow
    /// that panicked (the panic message).
    Failed,
}

impl JobState {
    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Preempted | JobState::Failed
        )
    }
}

/// The deterministic payload served for a result key: the one job that
/// computes the key produces it, every other submission of the key receives
/// the identical object.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The final technology-independent network right before mapping.
    pub final_aig: Aig,
    /// Post-mapping quality of the final netlist.
    pub qor: Qor,
    /// Whether CEC *proved* the served network equivalent to the submitted
    /// input (`true` when verification is disabled by the config).
    pub verified: bool,
    /// Whether this result was extracted from a stored saturation (a
    /// checkpoint hit) instead of a fresh one.
    pub reused_checkpoint: bool,
    /// Number of e-nodes in the (stored or fresh) saturated e-graph.
    pub egraph_nodes: usize,
}

/// A job's observable status.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// The result, once `state` is [`JobState::Completed`].
    pub result: Option<Arc<SynthesisResult>>,
    /// Whether the result was served from the result cache.
    pub cache_hit: bool,
    /// Typed failure description when `state` is [`JobState::Failed`].
    pub error: Option<String>,
}

impl JobStatus {
    fn in_state(state: JobState) -> Self {
        JobStatus {
            state,
            result: None,
            cache_hit: false,
            error: None,
        }
    }

    fn completed(result: Arc<SynthesisResult>, cache_hit: bool) -> Self {
        JobStatus {
            result: Some(result),
            cache_hit,
            ..JobStatus::in_state(JobState::Completed)
        }
    }

    fn failed(reason: impl Into<String>) -> Self {
        JobStatus {
            error: Some(reason.into()),
            ..JobStatus::in_state(JobState::Failed)
        }
    }
}

/// Aggregate serving statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs accepted by [`SynthesisServer::submit`].
    pub submitted: u64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs preempted by cancellation.
    pub preempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs served straight from the result cache.
    pub cache_hits: u64,
    /// Jobs that extracted from a stored saturation (a checkpoint hit)
    /// instead of saturating.
    pub checkpoint_hits: u64,
    /// Fresh saturations performed (checkpoint-store misses).
    pub saturations: u64,
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads in the pool (floored at 1).
    pub workers: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { workers: 2 }
    }
}

struct JobEntry {
    status: JobStatus,
    cancel: Arc<AtomicBool>,
}

/// What a boundary holds for a key; a key without a slot is free to claim.
enum Slot<V> {
    /// One running job is computing the value. Only that job's [`Claim`]
    /// changes the slot.
    Claimed,
    /// The published value.
    Ready(Arc<V>),
}

/// One stage boundary: a slot per key, found by `==`. A scan — a config has
/// no hash — over one entry per distinct circuit and config served.
type Slots<K, V> = Vec<(K, Slot<V>)>;

fn num_ready<K, V>(slots: &Slots<K, V>) -> usize {
    let ready = slots.iter().filter(|(_, s)| matches!(s, Slot::Ready(_)));
    ready.count()
}

/// What the checkpoint boundary stores for a key, published in one piece by
/// the job that saturates. A hit reads both by reference; nothing is
/// restored or copied.
struct Saturation {
    /// The network `prepare_network` made of that job's circuit: what was
    /// saturated, and what a job falls back to when extraction yields nothing
    /// or the CEC refutes it.
    prepared: Aig,
    /// The saturated e-graph, in the layout a checkpoint of it restores to
    /// ([`SaturatedState::relayout`]): every hit extracts from it as it is.
    state: SaturatedState,
}

/// Picks one of the two boundaries out of the locked state.
type Select<K, V> = fn(&mut State) -> &mut Slots<K, V>;

/// The circuit half of both keys: structural fingerprint × rule-set id.
type Circuit = (u128, u64);

/// Everything the server shares, behind one mutex: no lock order to get
/// wrong, and a slot is checked and claimed in one step.
struct State {
    queue: VecDeque<(JobId, Circuit, JobRequest)>,
    jobs: FxHashMap<JobId, JobEntry>,
    stats: ServerStats,
    next_id: u64,
    shutdown: bool,
    results: Slots<(Circuit, FlowConfig), SynthesisResult>,
    checkpoints: Slots<(Circuit, SaturationKey), Saturation>,
}

struct Inner {
    state: Mutex<State>,
    /// [`rule_set_id`] of the rules this build saturates with.
    rules: u64,
    /// Wakes workers when work arrives or shutdown is requested.
    work_cv: Condvar,
    /// Wakes `wait()` callers and jobs asleep on a claimed slot: notified
    /// when a job ends, when a claim is published or released, and by
    /// `cancel()`.
    changed_cv: Condvar,
}

/// The right and the duty to compute one key's value. Dropping the claim
/// settles the slot — ready if a value was published, absent again if not,
/// which is what happens when the job is preempted, fails or unwinds — and
/// wakes the jobs asleep on it.
struct Claim<'a, K: PartialEq + Clone, V> {
    inner: &'a Inner,
    select: Select<K, V>,
    key: K,
    value: Option<Arc<V>>,
}

impl<K: PartialEq + Clone, V> Claim<'_, K, V> {
    fn publish(mut self, value: Arc<V>) {
        self.value = Some(value);
    }
}

impl<K: PartialEq + Clone, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        let mut state = lock(&self.inner.state);
        let slots = (self.select)(&mut state);
        slots.retain(|(k, _)| *k != self.key);
        if let Some(value) = self.value.take() {
            slots.push((self.key.clone(), Slot::Ready(value)));
        }
        drop(state);
        self.inner.changed_cv.notify_all();
    }
}

/// What a job gets at a boundary.
enum Acquired<'a, K: PartialEq + Clone, V> {
    /// The value is there: a hit.
    Ready(Arc<V>),
    /// The value is this job's to compute.
    Claimed(Claim<'a, K, V>),
}

/// Checks the key's slot and claims it if it is free, sleeping while another
/// job holds the claim. `None` if the job is cancelled before a value or the
/// claim is there. The lock is handed back so that the caller's next step is
/// part of the same critical section.
fn acquire<'a, K: PartialEq + Clone, V>(
    inner: &'a Inner,
    mut state: MutexGuard<'a, State>,
    select: Select<K, V>,
    key: &K,
    cancel: &AtomicBool,
) -> (MutexGuard<'a, State>, Option<Acquired<'a, K, V>>) {
    loop {
        let acquired = match select(&mut state).iter().find(|(k, _)| k == key) {
            Some((_, Slot::Ready(value))) => Some(Acquired::Ready(Arc::clone(value))),
            _ if cancel.load(Ordering::Relaxed) => None,
            Some((_, Slot::Claimed)) => {
                state = wait(&inner.changed_cv, state);
                continue;
            }
            None => {
                select(&mut state).push((key.clone(), Slot::Claimed));
                let claim = Claim {
                    inner,
                    select,
                    key: key.clone(),
                    value: None,
                };
                Some(Acquired::Claimed(claim))
            }
        };
        return (state, acquired);
    }
}

/// Owns a running job's terminal state: however the worker leaves the job,
/// dropping this records `status` — `Failed` until the flow returns
/// something else — and wakes the job's `wait()` callers.
struct RunningJob<'a> {
    inner: &'a Inner,
    id: JobId,
    status: JobStatus,
}

impl Drop for RunningJob<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.inner.state);
        match self.status.state {
            JobState::Completed => state.stats.completed += 1,
            JobState::Preempted => state.stats.preempted += 1,
            _ => state.stats.failed += 1,
        }
        if self.status.cache_hit {
            state.stats.cache_hits += 1;
        }
        if let Some(entry) = state.jobs.get_mut(&self.id) {
            entry.status = self.status.clone();
        }
        drop(state);
        self.inner.changed_cv.notify_all();
    }
}

/// The persistent synthesis daemon. Dropping the server shuts the pool
/// down: the queue is drained of nothing further, workers finish their
/// current job and exit, and the threads are joined.
pub struct SynthesisServer {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SynthesisServer {
    /// Starts the daemon with `options.workers` pool threads.
    pub fn start(options: &ServerOptions) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: FxHashMap::default(),
                stats: ServerStats::default(),
                next_id: 0,
                shutdown: false,
                results: Vec::new(),
                checkpoints: Vec::new(),
            }),
            rules: rule_set_id(),
            work_cv: Condvar::new(),
            changed_cv: Condvar::new(),
        });
        let workers = (0..options.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        SynthesisServer { inner, workers }
    }

    /// Enqueues one job and returns its id.
    pub fn submit(&self, request: JobRequest) -> JobId {
        // Keyed here, on the caller's thread, so that the worker that pops
        // the job can take its claims in the same step.
        let circuit = (request.aig.structural_fingerprint(), self.inner.rules);
        let mut state = lock(&self.inner.state);
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.stats.submitted += 1;
        state.jobs.insert(
            id,
            JobEntry {
                status: JobStatus::in_state(JobState::Queued),
                cancel: Arc::new(AtomicBool::new(false)),
            },
        );
        state.queue.push_back((id, circuit, request));
        drop(state);
        self.inner.work_cv.notify_one();
        id
    }

    /// Batch mode: enqueues every request and returns the ids in order. The
    /// jobs multiplex over the worker pool; answers are deterministic per
    /// result key (one job computes it, duplicates are served its object).
    pub fn submit_batch(&self, requests: Vec<JobRequest>) -> Vec<JobId> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Requests cooperative cancellation. A queued job is preempted
    /// immediately; a running job's cancel flag is set and the worker stops
    /// at the saturation runner's next limit checkpoint, at the next phase
    /// boundary, or at once if the job is waiting for another job's value.
    /// Returns `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = lock(&self.inner.state);
        let Some(entry) = state.jobs.get_mut(&id) else {
            return false;
        };
        if entry.status.state.is_terminal() {
            return false;
        }
        entry.cancel.store(true, Ordering::Relaxed);
        if entry.status.state == JobState::Queued {
            entry.status.state = JobState::Preempted;
            state.stats.preempted += 1;
        }
        drop(state);
        self.inner.changed_cv.notify_all();
        true
    }

    /// Returns the job's current status (`None` for unknown ids).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = lock(&self.inner.state);
        state.jobs.get(&id).map(|e| e.status.clone())
    }

    /// Blocks until the job reaches a terminal state and returns its status.
    /// Returns `None` for unknown ids.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut state = lock(&self.inner.state);
        loop {
            let status = &state.jobs.get(&id)?.status;
            if status.state.is_terminal() {
                return Some(status.clone());
            }
            state = wait(&self.inner.changed_cv, state);
        }
    }

    /// Submits a batch and waits for every job, returning statuses in order.
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Vec<Option<JobStatus>> {
        let ids = self.submit_batch(requests);
        ids.into_iter().map(|id| self.wait(id)).collect()
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        lock(&self.inner.state).stats
    }

    /// Number of entries in the result cache.
    pub fn cached_results(&self) -> usize {
        num_ready(&lock(&self.inner.state).results)
    }

    /// Number of stored saturations.
    pub fn stored_checkpoints(&self) -> usize {
        num_ready(&lock(&self.inner.state).checkpoints)
    }
}

impl Drop for SynthesisServer {
    fn drop(&mut self) {
        // Cancel everything still queued or running so shutdown is bounded
        // by one job, not the whole backlog.
        let ids: Vec<JobId> = lock(&self.inner.state).jobs.keys().copied().collect();
        for id in ids {
            self.cancel(id);
        }
        lock(&self.inner.state).shutdown = true;
        self.inner.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker only ends by returning from its loop: panics of the
            // flow are caught per job.
            let _ = handle.join();
        }
    }
}

/// One pool thread: pop → serve → repeat until shutdown.
fn worker_loop(inner: &Inner) {
    loop {
        let mut state = lock(&inner.state);
        let (id, circuit, request) = loop {
            if let Some(job) = state.queue.pop_front() {
                break job;
            }
            if state.shutdown {
                return;
            }
            state = wait(&inner.work_cv, state);
        };
        // Cancelled while queued (state already terminal): nothing to do.
        let entry = state.jobs.get_mut(&id);
        let Some(entry) = entry.filter(|e| e.status.state == JobState::Queued) else {
            continue;
        };
        entry.status.state = JobState::Running;
        let cancel = Arc::clone(&entry.cancel);
        let mut job = RunningJob {
            inner,
            id,
            status: JobStatus::failed("the worker left the job without an outcome"),
        };
        // The job's own data dies with the closure, and shared state only
        // changes in critical sections that call no flow code, so nothing a
        // panic tore is looked at again.
        let flow = AssertUnwindSafe(|| serve_job(inner, state, circuit, request, &cancel));
        job.status = catch_unwind(flow).unwrap_or_else(|payload| {
            let text = payload.downcast_ref::<&str>().copied();
            let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            JobStatus::failed(format!("the flow panicked: {}", text.unwrap_or("?")))
        });
    }
}

/// Why a job that asks for windowed saturation fails instead of being served
/// from one monolithic e-graph, which is not what it asked for.
const WINDOWED_UNSUPPORTED: &str = "windowed saturation (FlowConfig::partitioning) is not \
    served: a partitioned run has no single saturated e-graph to checkpoint; submit the job with \
    partitioning: None";

/// Executes one job through result boundary → checkpoint boundary → flow.
/// `state` is still the critical section that popped the job.
fn serve_job<'a>(
    inner: &'a Inner,
    state: MutexGuard<'a, State>,
    circuit: Circuit,
    request: JobRequest,
    cancel: &Arc<AtomicBool>,
) -> JobStatus {
    let (aig, mut config) = (request.aig, request.config);
    if config.partitioning.is_some() {
        return JobStatus::failed(WINDOWED_UNSUPPORTED);
    }
    // The tighter of the job's budget and the config's saturation limit: a
    // budget never loosens a limit the config already sets.
    let budget = request.budget.into_iter();
    config.saturation_time_limit = budget.chain(config.saturation_time_limit).min();
    let preempted = || JobStatus::in_state(JobState::Preempted);

    // Both boundaries before the lock is let go, so that of two jobs the one
    // submitted first claims first: it saturates, the other extracts from its
    // saturation.
    let result_key = (circuit, config);
    let (state, result) = acquire(inner, state, |s| &mut s.results, &result_key, cancel);
    let result_claim = match result {
        Some(Acquired::Ready(result)) => return JobStatus::completed(result, true),
        Some(Acquired::Claimed(claim)) => claim,
        None => return preempted(),
    };
    let config = &result_key.1;
    let saturation_key = (circuit, config.saturation_key());
    let (state, checkpoint) = acquire(
        inner,
        state,
        |s| &mut s.checkpoints,
        &saturation_key,
        cancel,
    );
    drop(state);
    let Some(checkpoint) = checkpoint else {
        return preempted();
    };

    // A hit extracts from the stored state; the job that saturates extracts
    // from its own fresh state and drops it.
    let (stored, fresh) = match checkpoint {
        Acquired::Ready(stored) => {
            lock(&inner.state).stats.checkpoint_hits += 1;
            (stored, None)
        }
        Acquired::Claimed(claim) => {
            // Technology-independent prefix (conventional rounds + SOP
            // balancing).
            let prepared = prepare_network(&aig, config);
            if cancel.load(Ordering::Relaxed) {
                return preempted();
            }
            let fresh =
                saturate_network_with_interrupt(&prepared, config, Some(Arc::clone(cancel)));
            if fresh.stop_reason == Some(egraph::StopReason::Interrupted) {
                return preempted();
            }
            lock(&inner.state).stats.saturations += 1;
            let stored = Arc::new(Saturation {
                state: fresh.relayout(),
                prepared,
            });
            claim.publish(Arc::clone(&stored));
            (stored, Some(fresh))
        }
    };
    let reused_checkpoint = fresh.is_none();
    let saturated = fresh.as_ref().unwrap_or(&stored.state);
    let prepared = &stored.prepared;
    if cancel.load(Ordering::Relaxed) {
        return preempted();
    }

    let (extracted, _reports) = extract_network(saturated, config);
    let egraph_nodes = saturated.egraph.total_nodes();
    drop(fresh);
    if cancel.load(Ordering::Relaxed) {
        return preempted();
    }
    // Swept CEC proves the resynthesized network against the *submitted*
    // circuit, not just the prepared network: equivalence-class sweeping
    // closes the arithmetic miters the monolithic check cannot within the
    // conflict budget. `verify_and_map` has the fallback on a mismatch.
    let (final_aig, netlist, verified) =
        verify_and_map(prepared, extracted, config, |resynthesized| {
            check_equivalence_swept(&aig, resynthesized, &config.cec, &config.sweep)
        });
    let mut qor = netlist.qor();
    qor.name = aig.name().to_string();

    let result = Arc::new(SynthesisResult {
        final_aig,
        qor,
        verified,
        reused_checkpoint,
        egraph_nodes,
    });
    result_claim.publish(Arc::clone(&result));
    JobStatus::completed(result, false)
}
