//! Synthesis-as-a-service: a persistent, thread-based synthesis daemon.
//!
//! The server keeps a pool of plain `std::thread` workers alive across
//! submissions (ROADMAP item 3: "a stream of jobs against warm state", not
//! one CLI invocation per design) and serves each job through three layers:
//!
//! 1. **Content-addressed result cache** — keyed on
//!    `(aig::structural_fingerprint, rules::rule_set_id, flow-config
//!    fingerprint)`. Identical or repeated submissions return instantly with
//!    the *same* result object: the first completion for a key defines the
//!    answer and every later submission of that key is served from the
//!    cache, which is the bit-identity serving contract.
//! 2. **Checkpoint store** — keyed on the *saturation-relevant* subset of
//!    the flow config (the extraction / verification knobs are excluded).
//!    One expensive saturation is snapshotted once through
//!    [`emorphic::FlowCheckpoint`] and re-extracted / re-mapped many times
//!    under different [`emorphic::ExtractorKind`] / cost-function /
//!    delay-target requests, amortizing the dominant phase (paper Fig. 9).
//! 3. **The flow itself** — the split entry points `prepare_network` →
//!    `saturate_network_with_interrupt` → `extract_network` →
//!    `verify_and_map`, the resynthesized network CEC-verified against the
//!    submitted input before the final `st; dch; map` round.
//!
//! Jobs carry optional wall-clock budgets (mapped onto the saturation time
//! limit) and can be cancelled cooperatively: cancellation sets a per-job
//! flag that the saturation runner checks at the same points as its other
//! limits, so a preempted job reports [`JobState::Preempted`] and returns
//! its worker to the pool with no corrupted state.

use aig::Aig;
use emorphic::checkpoint::FlowCheckpoint;
use emorphic::flow::{
    check_equivalence_swept, extract_network, prepare_network, saturate_network_with_interrupt,
    verify_and_map, FlowConfig,
};
use emorphic::rules::rule_set_id;
use fxhash::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use techmap::Qor;

/// Locks a mutex, tolerating poisoning: a worker that panicked (which the
/// workspace lints forbid in library code anyway) must not wedge the whole
/// server, so the data is taken as-is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// tightest of this and `config.saturation_time_limit` wins).
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
    /// The job cannot be served; the reason is recorded on the status. Today
    /// that is a request for windowed saturation (`config.partitioning`).
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

/// The deterministic payload served for a cache key: the first completion
/// for a key produces it, every later submission of the same key receives
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
    /// Whether this result was extracted from a restored checkpoint instead
    /// of a fresh saturation.
    pub reused_checkpoint: bool,
    /// Number of e-nodes in the (restored or fresh) saturated e-graph.
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
    /// Jobs that restored a checkpoint instead of saturating.
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
    state: JobState,
    cancel: Arc<AtomicBool>,
    result: Option<Arc<SynthesisResult>>,
    cache_hit: bool,
    error: Option<String>,
}

/// Queue + job table + stats behind one mutex (no lock ordering to get
/// wrong); the caches live behind their own locks so a long flow never
/// blocks submissions.
struct Shared {
    queue: VecDeque<(JobId, JobRequest)>,
    jobs: FxHashMap<JobId, JobEntry>,
    /// Result keys currently being computed by some worker. Duplicates of
    /// an in-flight key wait for the publication instead of repeating the
    /// work, so a batch of identical jobs costs one saturation.
    in_flight: FxHashSet<(u128, u64, u64)>,
    stats: ServerStats,
    next_id: u64,
    shutdown: bool,
}

/// Result-cache key: circuit fingerprint × rule-set id × full flow-config
/// fingerprint.
type ResultKey = (u128, u64, u64);
/// Checkpoint-store key: circuit fingerprint × rule-set id ×
/// saturation-relevant config fingerprint.
type SaturationKey = (u128, u64, u64);

struct Inner {
    shared: Mutex<Shared>,
    /// Wakes workers when work arrives or shutdown is requested.
    work_cv: Condvar,
    /// Wakes `wait()` callers when any job reaches a terminal state.
    done_cv: Condvar,
    result_cache: Mutex<FxHashMap<ResultKey, Arc<SynthesisResult>>>,
    checkpoints: Mutex<FxHashMap<SaturationKey, Arc<FlowCheckpoint>>>,
}

/// Deterministic string hash (fxhash-style, fixed constants).
fn hash_str(s: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut acc: u64 = s.len() as u64;
    for b in s.as_bytes() {
        acc = (acc.rotate_left(5) ^ u64::from(*b)).wrapping_mul(K);
    }
    acc
}

/// Fingerprint of the whole flow configuration (the result-cache component).
/// Hashing the `Debug` rendering over-keys — any knob change, relevant or
/// not, invalidates the cache entry — which is the safe direction for a
/// content-addressed cache.
fn full_config_fingerprint(config: &FlowConfig) -> u64 {
    hash_str(&format!("{config:?}"))
}

/// Fingerprint of the saturation-relevant subset of the config: everything
/// that shapes the prepared network or the saturated e-graph, and nothing
/// that only affects extraction, mapping or verification — so a job that
/// merely switches `ExtractorKind`, cost model or delay target still hits
/// the checkpoint store.
fn saturation_config_fingerprint(config: &FlowConfig) -> u64 {
    hash_str(&format!(
        "rounds={:?} lut={:?} map={:?} dch={:?} library={:?} iters={:?} nodes={:?} \
         matches={:?} threads={:?} sat_limit={:?}",
        config.rounds,
        config.lut_options,
        config.map_options,
        config.dch_options,
        config.library,
        config.rewrite_iterations,
        config.node_limit,
        config.match_limit,
        config.search_threads,
        config.saturation_time_limit,
    ))
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
            shared: Mutex::new(Shared {
                queue: VecDeque::new(),
                jobs: FxHashMap::default(),
                in_flight: FxHashSet::default(),
                stats: ServerStats::default(),
                next_id: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            result_cache: Mutex::new(FxHashMap::default()),
            checkpoints: Mutex::new(FxHashMap::default()),
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
        let mut shared = lock(&self.inner.shared);
        let id = JobId(shared.next_id);
        shared.next_id += 1;
        shared.stats.submitted += 1;
        shared.jobs.insert(
            id,
            JobEntry {
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                result: None,
                cache_hit: false,
                error: None,
            },
        );
        shared.queue.push_back((id, request));
        drop(shared);
        self.inner.work_cv.notify_one();
        id
    }

    /// Batch mode: enqueues every request and returns the ids in order. The
    /// jobs multiplex over the worker pool; answers are deterministic per
    /// cache key (the first completion for a key defines it, duplicates are
    /// served from the cache).
    pub fn submit_batch(&self, requests: Vec<JobRequest>) -> Vec<JobId> {
        let ids: Vec<JobId> = requests.into_iter().map(|r| self.submit(r)).collect();
        self.inner.work_cv.notify_all();
        ids
    }

    /// Requests cooperative cancellation. A queued job is preempted
    /// immediately; a running job's cancel flag is set and the worker stops
    /// at the saturation runner's next limit checkpoint (or the next phase
    /// boundary). Returns `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut shared = lock(&self.inner.shared);
        let Some(entry) = shared.jobs.get_mut(&id) else {
            return false;
        };
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Preempted;
                entry.cancel.store(true, Ordering::Relaxed);
                shared.stats.preempted += 1;
                drop(shared);
                self.inner.done_cv.notify_all();
                true
            }
            JobState::Running => {
                entry.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Returns the job's current status (`None` for unknown ids).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let shared = lock(&self.inner.shared);
        shared.jobs.get(&id).map(|e| JobStatus {
            state: e.state,
            result: e.result.clone(),
            cache_hit: e.cache_hit,
            error: e.error.clone(),
        })
    }

    /// Blocks until the job reaches a terminal state and returns its status.
    /// Returns `None` for unknown ids.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut shared = lock(&self.inner.shared);
        loop {
            match shared.jobs.get(&id) {
                None => return None,
                Some(e) if e.state.is_terminal() => {
                    return Some(JobStatus {
                        state: e.state,
                        result: e.result.clone(),
                        cache_hit: e.cache_hit,
                        error: e.error.clone(),
                    });
                }
                Some(_) => {
                    shared = self
                        .inner
                        .done_cv
                        .wait(shared)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Submits a batch and waits for every job, returning statuses in order.
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Vec<Option<JobStatus>> {
        let ids = self.submit_batch(requests);
        ids.into_iter().map(|id| self.wait(id)).collect()
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        lock(&self.inner.shared).stats
    }

    /// Number of entries in the result cache.
    pub fn cached_results(&self) -> usize {
        lock(&self.inner.result_cache).len()
    }

    /// Number of stored saturation checkpoints.
    pub fn stored_checkpoints(&self) -> usize {
        lock(&self.inner.checkpoints).len()
    }
}

impl Drop for SynthesisServer {
    fn drop(&mut self) {
        {
            let mut shared = lock(&self.inner.shared);
            shared.shutdown = true;
            // Cancel everything still queued or running so shutdown is
            // bounded by one job, not the whole backlog.
            let mut preempted = 0;
            for entry in shared.jobs.values_mut() {
                entry.cancel.store(true, Ordering::Relaxed);
                if entry.state == JobState::Queued {
                    entry.state = JobState::Preempted;
                    preempted += 1;
                }
            }
            shared.queue.clear();
            shared.stats.preempted += preempted;
        }
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked already poisoned nothing we rely on
            // (all locks are poison-tolerant); ignore the join error.
            let _ = handle.join();
        }
    }
}

/// One pool thread: pop → serve → repeat until shutdown.
fn worker_loop(inner: &Inner) {
    loop {
        let (id, request) = {
            let mut shared = lock(&inner.shared);
            loop {
                if let Some(job) = shared.queue.pop_front() {
                    break job;
                }
                if shared.shutdown {
                    return;
                }
                shared = inner
                    .work_cv
                    .wait(shared)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        serve_job(inner, id, request);
        inner.done_cv.notify_all();
    }
}

/// Terminal-state bookkeeping shared by every outcome path.
fn finish(
    inner: &Inner,
    id: JobId,
    state: JobState,
    result: Option<Arc<SynthesisResult>>,
    cache_hit: bool,
    error: Option<String>,
) {
    let mut shared = lock(&inner.shared);
    match state {
        JobState::Completed => shared.stats.completed += 1,
        JobState::Preempted => shared.stats.preempted += 1,
        JobState::Failed => shared.stats.failed += 1,
        _ => {}
    }
    if cache_hit {
        shared.stats.cache_hits += 1;
    }
    if let Some(entry) = shared.jobs.get_mut(&id) {
        entry.state = state;
        entry.result = result;
        entry.cache_hit = cache_hit;
        entry.error = error;
    }
}

/// Why a job that asks for windowed saturation fails instead of being served
/// from one monolithic e-graph, which is not what it asked for.
const WINDOWED_UNSUPPORTED: &str = "windowed saturation (FlowConfig::partitioning) is not \
    served: a partitioned run has no single saturated e-graph to checkpoint; submit the job with \
    partitioning: None";

/// Executes one job through cache → checkpoint → flow.
fn serve_job(inner: &Inner, id: JobId, request: JobRequest) {
    let cancel = {
        let mut shared = lock(&inner.shared);
        let Some(entry) = shared.jobs.get_mut(&id) else {
            return;
        };
        // Cancelled while queued (state already terminal): nothing to do.
        if entry.state != JobState::Queued {
            return;
        }
        entry.state = JobState::Running;
        Arc::clone(&entry.cancel)
    };

    let JobRequest {
        aig,
        mut config,
        budget,
    } = request;
    if config.partitioning.is_some() {
        let error = Some(WINDOWED_UNSUPPORTED.to_string());
        finish(inner, id, JobState::Failed, None, false, error);
        return;
    }
    // The per-job budget tightens the saturation limit; it never loosens a
    // limit the config already sets.
    if let Some(budget) = budget {
        config.saturation_time_limit = Some(
            config
                .saturation_time_limit
                .map_or(budget, |limit| limit.min(budget)),
        );
    }

    let fingerprint = aig.structural_fingerprint();
    let rules_id = rule_set_id();
    let result_key: ResultKey = (fingerprint, rules_id, full_config_fingerprint(&config));

    // Layer 1: the result cache, with in-flight coalescing — a duplicate of
    // a key some worker is already computing waits for that publication
    // instead of repeating the work, so a batch of identical jobs costs one
    // saturation no matter how the pool interleaves.
    loop {
        if let Some(result) = lock(&inner.result_cache).get(&result_key).cloned() {
            finish(inner, id, JobState::Completed, Some(result), true, None);
            return;
        }
        if cancel.load(Ordering::Relaxed) {
            finish(inner, id, JobState::Preempted, None, false, None);
            return;
        }
        let mut shared = lock(&inner.shared);
        if shared.in_flight.insert(result_key) {
            break;
        }
        // Someone else is computing the key right now; sleep briefly, then
        // re-check (timed so a cancellation of *this* job is still seen).
        let (guard, _timed_out) = inner
            .done_cv
            .wait_timeout(shared, Duration::from_millis(20))
            .unwrap_or_else(PoisonError::into_inner);
        drop(guard);
    }

    let outcome = 'flow: {
        // Technology-independent prefix (conventional rounds + SOP
        // balancing).
        let prepared = prepare_network(&aig, &config);
        if cancel.load(Ordering::Relaxed) {
            break 'flow None;
        }

        // Layer 2: the checkpoint store — restore a prior saturation of the
        // same (circuit, rules, saturation-knobs) key, or saturate and
        // store.
        let saturation_key: SaturationKey = (
            fingerprint,
            rules_id,
            saturation_config_fingerprint(&config),
        );
        let stored = lock(&inner.checkpoints).get(&saturation_key).cloned();
        let (state, reused_checkpoint) = match stored.as_ref().and_then(|cp| cp.restore().ok()) {
            Some(state) => {
                lock(&inner.shared).stats.checkpoint_hits += 1;
                (state, true)
            }
            None => {
                let state =
                    saturate_network_with_interrupt(&prepared, &config, Some(Arc::clone(&cancel)));
                if state.stop_reason == Some(egraph::StopReason::Interrupted) {
                    break 'flow None;
                }
                lock(&inner.shared).stats.saturations += 1;
                let checkpoint = Arc::new(FlowCheckpoint::capture(&state));
                lock(&inner.checkpoints)
                    .entry(saturation_key)
                    .or_insert(checkpoint);
                (state, false)
            }
        };
        if cancel.load(Ordering::Relaxed) {
            break 'flow None;
        }

        // Layer 3: extract, verify against the *submitted* input, map.
        let (extracted, _reports) = extract_network(&state, &config);
        let egraph_nodes = state.egraph.total_nodes();
        if cancel.load(Ordering::Relaxed) {
            break 'flow None;
        }
        // Swept CEC proves the resynthesized network against the *submitted*
        // circuit (not just the prepared network): equivalence-class
        // sweeping closes the arithmetic miters the monolithic check cannot
        // within the conflict budget. A proven mismatch falls back to the
        // prepared network, the same containment the flow applies; the
        // served result says so via `verified = false`.
        let (final_aig, netlist, verified) =
            verify_and_map(&prepared, extracted, &config, |resynthesized| {
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
        // First completion wins: if a concurrent duplicate of the same key
        // got here first, serve *its* object so every submission of the key
        // returns the identical result.
        Some(Arc::clone(
            lock(&inner.result_cache)
                .entry(result_key)
                .or_insert(result),
        ))
    };

    // Publish-or-release: the in-flight claim is dropped on every path so
    // coalesced waiters proceed — to the cache on success, to their own
    // computation on preemption.
    lock(&inner.shared).in_flight.remove(&result_key);
    inner.done_cv.notify_all();
    match outcome {
        Some(result) => finish(inner, id, JobState::Completed, Some(result), false, None),
        None => finish(inner, id, JobState::Preempted, None, false, None),
    }
}
