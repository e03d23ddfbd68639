//! What the server's keys identify and what a client sees when a job goes
//! wrong: configs are compared by value (a separately built config is the
//! same key; a knob saturation does not read is not in the saturation key),
//! both boundaries are single-flight (what a batch serves does not depend on
//! how the pool interleaves it), a waiting job can be cancelled or take a
//! preempted computation over, a panicking flow fails its job and nothing
//! else, and a budgeted job is a key of its own.

#![allow(clippy::unwrap_used)]

use emorphic::flow::{prepare_network, FlowConfig};
use emorphic::ExtractorKind;
use emorphic_server::{JobId, JobRequest, JobState, JobStatus, ServerOptions, SynthesisServer};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn aig_bytes(aig: &aig::Aig) -> String {
    serde_json::to_string(aig).unwrap()
}

fn completed(status: Option<JobStatus>) -> JobStatus {
    let status = status.unwrap();
    assert_eq!(status.state, JobState::Completed, "{:?}", status.error);
    status
}

/// Polls until a worker has popped the job. A job turns `Running` in the
/// step that takes its claims, so from then on a duplicate of a job that is
/// still computing sleeps on that job's claim.
fn wait_until_running(server: &SynthesisServer, id: JobId) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.status(id).unwrap().state == JobState::Queued {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_separately_built_config_is_the_same_key() {
    // The config is compared field by field: a client that builds its config
    // per request (here: two calls of `FlowConfig::fast()`, each with its own
    // library instance) hits the cache like one that clones.
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    let circuit = benchgen::adder(6).aig;

    let cold = server.submit(JobRequest::new(circuit.clone(), FlowConfig::fast()));
    let cold = completed(server.wait(cold));
    assert!(!cold.cache_hit);

    let warm = server.submit(JobRequest::new(circuit, FlowConfig::fast()));
    let warm = completed(server.wait(warm));
    assert!(
        warm.cache_hit,
        "an equal config must be the same result key"
    );

    assert_eq!(server.stats().saturations, 1);
    assert_eq!(server.cached_results(), 1);
    assert_eq!(server.stored_checkpoints(), 1);
}

#[test]
fn knobs_saturation_does_not_read_keep_the_checkpoint() {
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    let circuit = benchgen::adder(6).aig;
    let base = FlowConfig::fast();
    let mut relaxed = base.clone();
    relaxed.map_options.delay_target_ps = Some(1_000.0);
    let mut serial = base.clone();
    serial.search_threads = 1;

    let first = server.submit(JobRequest::new(circuit.clone(), base));
    assert!(!completed(server.wait(first)).cache_hit);
    for (what, config) in [("delay target", relaxed), ("search threads", serial)] {
        let job = server.submit(JobRequest::new(circuit.clone(), config));
        let job = completed(server.wait(job));
        assert!(!job.cache_hit, "{what}: another config is another result");
        assert!(
            job.result.unwrap().reused_checkpoint,
            "{what} is not read before extraction: same saturation key"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.saturations, 1);
    assert_eq!(stats.checkpoint_hits, 2);
    assert_eq!(server.stored_checkpoints(), 1);
    assert_eq!(server.cached_results(), 3);
}

#[test]
fn a_panicking_flow_fails_its_job_and_the_worker_keeps_serving() {
    // `map_to_cells` panics on a cut limit the enumerator cannot index. The
    // server is driven from a helper thread so that a `wait()` that never
    // returns fails the test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let server = SynthesisServer::start(&ServerOptions { workers: 1 });
        let circuit = benchgen::adder(6).aig;
        let mut unmappable = FlowConfig::fast();
        unmappable.map_options.cut_limit = 100_000;

        let failed = server.submit(JobRequest::new(circuit.clone(), unmappable));
        let failed = server.wait(failed).unwrap();
        let next = server.submit(JobRequest::new(circuit, FlowConfig::fast()));
        let next = server.wait(next).unwrap();
        let _ = tx.send((failed, next, server.stats(), server.cached_results()));
    });
    let (failed, next, stats, cached_results) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a job whose flow panics must still end, and so must the job after it");

    assert_eq!(failed.state, JobState::Failed);
    assert!(failed.result.is_none());
    let error = failed.error.expect("a failed job says why");
    assert!(error.contains("cut limit 100000"), "{error}");

    assert_eq!(next.state, JobState::Completed);
    assert!(next.result.unwrap().verified);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(cached_results, 1, "the failed job's claim was released");
}

#[test]
fn what_a_batch_serves_does_not_depend_on_the_interleaving() {
    // A and B share a circuit and a saturation key and differ in the
    // extraction engine. Submitted together on two workers or one after the
    // other, A saturates and B restores A's checkpoint — so B serves the same
    // netlist both ways.
    let circuit = benchgen::adder(12).aig;
    let a = FlowConfig::fast().with_extractor(ExtractorKind::Sa);
    let b = FlowConfig::fast().with_extractor(ExtractorKind::GlobalGreedyDag);
    let request = |config: &FlowConfig| JobRequest::new(circuit.clone(), config.clone());

    let serve = |together: bool| {
        let server = SynthesisServer::start(&ServerOptions { workers: 2 });
        let served_b = if together {
            let mut statuses = server.run_batch(vec![request(&a), request(&b)]);
            let served_b = completed(statuses.pop().unwrap());
            completed(statuses.pop().unwrap());
            served_b
        } else {
            completed(server.wait(server.submit(request(&a))));
            completed(server.wait(server.submit(request(&b))))
        };
        let stats = server.stats();
        assert_eq!(stats.saturations, 1, "together: {together}");
        assert_eq!(stats.checkpoint_hits, 1, "together: {together}");
        let served_b = served_b.result.unwrap();
        assert!(served_b.reused_checkpoint, "together: {together}");
        aig_bytes(&served_b.final_aig)
    };
    assert_eq!(serve(true), serve(false));
}

/// A job that is still saturating a second after it started, in debug and in
/// release, and that is done soon after: the time limit is what stops it.
fn one_second_job() -> JobRequest {
    let config = FlowConfig {
        rewrite_iterations: 1_000,
        node_limit: 5_000_000,
        saturation_time_limit: Some(Duration::from_secs(1)),
        extractor: ExtractorKind::BottomUp,
        verify: false,
        ..FlowConfig::fast()
    };
    JobRequest::new(benchgen::multiplier(6).aig, config)
}

#[test]
fn a_waiting_duplicate_can_be_cancelled_or_take_the_computation_over() {
    let server = SynthesisServer::start(&ServerOptions { workers: 3 });
    let computing = server.submit(one_second_job());
    wait_until_running(&server, computing);
    let cancelled = server.submit(one_second_job());
    let heir = server.submit(one_second_job());
    wait_until_running(&server, cancelled);
    wait_until_running(&server, heir);

    // Cancelling a duplicate that sleeps on the computing job's claim ends
    // it now, not when the computing job does.
    assert!(server.cancel(cancelled));
    assert_eq!(
        server.wait(cancelled).unwrap().state,
        JobState::Preempted,
        "a cancelled duplicate is preempted"
    );
    assert_eq!(server.status(computing).unwrap().state, JobState::Running);
    assert_eq!(server.status(heir).unwrap().state, JobState::Running);

    // Preempting the computing job releases its claims; the duplicate that
    // is left claims them and computes the answer itself.
    assert!(server.cancel(computing));
    assert_eq!(server.wait(computing).unwrap().state, JobState::Preempted);
    let heir = completed(server.wait(heir));
    assert!(!heir.cache_hit, "nobody published a result to hit");
    assert!(!heir.result.unwrap().reused_checkpoint);

    let stats = server.stats();
    assert_eq!(stats.preempted, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.saturations, 1, "an interrupted saturation is not one");
    assert_eq!(server.cached_results(), 1);
    assert_eq!(server.stored_checkpoints(), 1);
}

#[test]
fn a_budgeted_job_is_a_key_of_its_own() {
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    let circuit = benchgen::adder(6).aig;
    let config = FlowConfig::fast();
    let request = || JobRequest::new(circuit.clone(), config.clone());

    let unbudgeted = completed(server.wait(server.submit(request())));
    let unbudgeted = unbudgeted.result.unwrap();

    // A zero budget stops saturation before its first iteration: the job is
    // served from the e-graph of the prepared network as converted.
    let budgeted = server.submit(request().with_budget(Duration::ZERO));
    let budgeted = completed(server.wait(budgeted));
    assert!(!budgeted.cache_hit, "the budget is part of the result key");
    let budgeted = budgeted.result.unwrap();
    assert!(
        !budgeted.reused_checkpoint,
        "the budget is part of the saturation key"
    );
    assert!(budgeted.verified);
    let prepared = prepare_network(&circuit, &config);
    let unsaturated = emorphic::convert::aig_to_egraph(&prepared).egraph;
    assert_eq!(budgeted.egraph_nodes, unsaturated.total_nodes());
    assert!(budgeted.egraph_nodes < unbudgeted.egraph_nodes);

    // The same budget again is the same key.
    let again = server.submit(request().with_budget(Duration::ZERO));
    assert!(completed(server.wait(again)).cache_hit);

    let stats = server.stats();
    assert_eq!(stats.saturations, 2);
    assert_eq!(stats.checkpoint_hits, 0);
    assert_eq!(server.cached_results(), 2);
    assert_eq!(server.stored_checkpoints(), 2);
}
