//! Integration tests for the synthesis daemon: the determinism/serving
//! contract (same circuit twice ⇒ cache hit with a bit-identical netlist),
//! checkpoint reuse across extractor kinds, and cooperative cancellation
//! (a cancelled job reports preemption, and its worker goes back to
//! serving the queue).

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::unwrap_used)]

use aig::{Aig, AigNode, Lit, NodeId};
use emorphic::checkpoint::FlowCheckpoint;
use emorphic::flow::{
    check_equivalence_swept, extract_network, prepare_network, saturate_network, verify_and_map,
    FlowConfig,
};
use emorphic::ExtractorKind;
use emorphic_server::{JobRequest, JobState, ServerOptions, SynthesisServer};
use std::time::{Duration, Instant};

/// Bit-identity proxy: `Aig` intentionally has no `PartialEq` (equality of
/// networks is a semantic question), so the serving contract is checked on
/// the exact serialized bytes.
fn aig_bytes(aig: &Aig) -> String {
    serde_json::to_string(aig).unwrap()
}

#[test]
fn resubmission_is_a_cache_hit_with_bit_identical_netlist() {
    let server = SynthesisServer::start(&ServerOptions { workers: 2 });
    let circuit = benchgen::adder(6).aig;
    let config = FlowConfig::fast();

    let cold = server.submit(JobRequest::new(circuit.clone(), config.clone()));
    let cold = server.wait(cold).unwrap();
    assert_eq!(cold.state, JobState::Completed);
    assert!(!cold.cache_hit, "first submission must be a cold miss");
    let cold_result = cold.result.unwrap();
    assert!(cold_result.verified, "served netlist must be CEC-verified");

    let warm = server.submit(JobRequest::new(circuit, config));
    let warm = server.wait(warm).unwrap();
    assert_eq!(warm.state, JobState::Completed);
    assert!(warm.cache_hit, "identical resubmission must hit the cache");
    let warm_result = warm.result.unwrap();

    // The determinism contract: the cached answer IS the first answer.
    assert_eq!(
        aig_bytes(&cold_result.final_aig),
        aig_bytes(&warm_result.final_aig),
        "cache hit must serve a bit-identical netlist"
    );
    assert_eq!(cold_result.qor.area_um2, warm_result.qor.area_um2);
    assert_eq!(cold_result.qor.delay_ps, warm_result.qor.delay_ps);

    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.saturations, 1, "one circuit, one saturation");
}

#[test]
fn renumbered_clone_shares_the_cache_entry() {
    // The cache key is the structural fingerprint, not node numbering or
    // names: a renamed copy of the same function is the same key.
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    let circuit = benchgen::adder(5).aig;
    let mut renamed = circuit.clone();
    renamed.set_name("adder5_copy");

    let config = FlowConfig::fast();
    let first = server.submit(JobRequest::new(circuit, config.clone()));
    assert_eq!(server.wait(first).unwrap().state, JobState::Completed);

    let second = server.submit(JobRequest::new(renamed, config));
    let second = server.wait(second).unwrap();
    assert_eq!(second.state, JobState::Completed);
    assert!(second.cache_hit, "renamed clone must share the cache key");
}

#[test]
fn different_extractor_reuses_the_checkpoint_without_resaturating() {
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    let circuit = benchgen::adder(6).aig;
    let base = FlowConfig::fast();

    let bottom_up = server.submit(JobRequest::new(
        circuit.clone(),
        base.clone().with_extractor(ExtractorKind::BottomUp),
    ));
    let bottom_up = server.wait(bottom_up).unwrap();
    assert_eq!(bottom_up.state, JobState::Completed);
    let bottom_up = bottom_up.result.unwrap();
    assert!(!bottom_up.reused_checkpoint);

    // A different extraction engine is a different *result* key but the
    // same *saturation* key: the stored checkpoint must be re-extracted
    // instead of re-saturating.
    let greedy = server.submit(JobRequest::new(
        circuit,
        base.with_extractor(ExtractorKind::GlobalGreedyDag),
    ));
    let greedy = server.wait(greedy).unwrap();
    assert_eq!(greedy.state, JobState::Completed);
    assert!(
        !greedy.cache_hit,
        "different config must miss the result cache"
    );
    let greedy = greedy.result.unwrap();
    assert!(
        greedy.reused_checkpoint,
        "same saturation key must restore the checkpoint"
    );
    assert!(greedy.verified, "re-extracted netlist must be CEC-verified");

    let stats = server.stats();
    assert_eq!(stats.saturations, 1, "the e-graph must be built only once");
    assert_eq!(stats.checkpoint_hits, 1);
    assert_eq!(server.stored_checkpoints(), 1);
    assert_eq!(server.cached_results(), 2);
}

#[test]
fn cancel_preempts_cleanly_and_the_worker_keeps_serving() {
    // One worker: the heavy job holds it, the light job queues behind.
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });

    // Generous limits and no time cap: without cancellation this job would
    // occupy the worker for a long time.
    let mut heavy_config = FlowConfig::paper();
    heavy_config.rewrite_iterations = 50;
    heavy_config.node_limit = 5_000_000;
    heavy_config.match_limit = 100_000;
    let heavy = server.submit(JobRequest::new(benchgen::multiplier(8).aig, heavy_config));
    let light = server.submit(JobRequest::new(benchgen::adder(4).aig, FlowConfig::fast()));
    // A queued job cancelled before any worker touches it is preempted
    // immediately.
    let never_run = server.submit(JobRequest::new(benchgen::adder(3).aig, FlowConfig::fast()));
    assert!(server.cancel(never_run));
    assert_eq!(server.status(never_run).unwrap().state, JobState::Preempted);

    // Wait until the heavy job is actually running, then cancel it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = server.status(heavy).unwrap().state;
        if state == JobState::Running || state.is_terminal() {
            break;
        }
        assert!(Instant::now() < deadline, "heavy job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.cancel(heavy));

    let heavy = server.wait(heavy).unwrap();
    assert_eq!(
        heavy.state,
        JobState::Preempted,
        "cancellation must report preemption, not a corrupted result"
    );
    assert!(heavy.result.is_none());
    assert!(heavy.error.is_none());

    // The reclaimed worker serves the queued job to completion: preemption
    // left no corrupted shared state behind.
    let light = server.wait(light).unwrap();
    assert_eq!(light.state, JobState::Completed);
    assert!(light.result.unwrap().verified);

    let stats = server.stats();
    assert_eq!(stats.preempted, 2);
    assert_eq!(stats.completed, 1);
}

#[test]
fn batch_of_duplicates_is_served_deterministically() {
    let server = SynthesisServer::start(&ServerOptions { workers: 4 });
    let circuit = benchgen::adder(5).aig;
    let config = FlowConfig::fast();
    let requests = (0..6)
        .map(|_| JobRequest::new(circuit.clone(), config.clone()))
        .collect();

    let statuses = server.run_batch(requests);
    let mut bytes: Vec<String> = Vec::new();
    let mut misses = 0;
    for status in statuses {
        let status = status.unwrap();
        assert_eq!(status.state, JobState::Completed);
        misses += usize::from(!status.cache_hit);
        bytes.push(aig_bytes(&status.result.unwrap().final_aig));
    }
    // Every duplicate of the key gets the identical answer, no matter which
    // worker computed it or how the pool interleaved.
    assert!(bytes.windows(2).all(|w| w[0] == w[1]));
    // One job computes the key; the other five are served its result.
    assert_eq!(misses, 1);
    assert_eq!(server.cached_results(), 1);
    assert_eq!(server.stats().saturations, 1);
    assert_eq!(server.stats().checkpoint_hits, 0);
}

#[test]
fn windowed_job_fails_typed_and_the_worker_keeps_serving() {
    // Regression: a job with `partitioning: Some(_)` used to be saturated
    // monolithically without a word. The windowed path has no checkpoint
    // unit, so such a job fails with a reason — and the single worker is
    // back in the pool for the next job.
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    let circuit = benchgen::adder(6).aig;
    let windowed = FlowConfig::fast().with_partitioning(window::WindowOptions::default());

    let failed = server.submit(JobRequest::new(circuit.clone(), windowed));
    let failed = server.wait(failed).unwrap();
    assert_eq!(failed.state, JobState::Failed);
    assert!(failed.result.is_none());
    let error = failed.error.expect("a failed job says why");
    assert!(error.contains("partitioning"), "{error}");

    let next = server.submit(JobRequest::new(circuit, FlowConfig::fast()));
    let next = server.wait(next).unwrap();
    assert_eq!(next.state, JobState::Completed);

    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.saturations, 1, "the failed job never saturated");
}

/// The same network under another name with its ANDs created in another
/// order: outputs last to first, second fanin before the first.
fn renumbered(aig: &Aig, name: &str) -> Aig {
    let mut copy = Aig::new(name);
    let mut table: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    table[NodeId::CONST.index()] = Some(Lit::FALSE);
    for (&input, input_name) in aig.inputs().iter().zip(aig.input_names()) {
        table[input.index()] = Some(copy.add_input(input_name.clone()));
    }
    let mut stack: Vec<NodeId> = aig.outputs().iter().map(|lit| lit.node()).collect();
    while let Some(&id) = stack.last() {
        let AigNode::And { fanin0, fanin1 } = *aig.node(id) else {
            stack.pop();
            continue;
        };
        let mapped = |lit: Lit| table[lit.node().index()].map(|m| m.xor(lit.is_complemented()));
        match (mapped(fanin1), mapped(fanin0)) {
            (Some(b), Some(a)) => {
                if table[id.index()].is_none() {
                    table[id.index()] = Some(copy.and(b, a));
                }
                stack.pop();
            }
            (b, a) => {
                stack.extend(a.is_none().then(|| fanin0.node()));
                stack.extend(b.is_none().then(|| fanin1.node()));
            }
        }
    }
    for (lit, output_name) in aig.outputs().iter().zip(aig.output_names()) {
        let mapped = table[lit.node().index()]
            .unwrap()
            .xor(lit.is_complemented());
        copy.add_output(mapped, output_name.clone());
    }
    copy
}

#[test]
fn a_reextract_job_serves_the_hand_composed_restore_path() {
    // What a checkpoint hit serves, spelled out of the flow's public stages:
    // the first submitter's circuit prepared and saturated, the e-graph taken
    // through capture → restore, extracted under the second job's config,
    // and the swept CEC run against the circuit the second job submitted.
    let first = benchgen::adder(6).aig;
    let cold_config = FlowConfig::fast().with_extractor(ExtractorKind::BottomUp);
    let config = FlowConfig::fast().with_extractor(ExtractorKind::GlobalGreedyDag);
    let clone = renumbered(&first, "adder6_renumbered");
    assert_eq!(
        clone.structural_fingerprint(),
        first.structural_fingerprint()
    );
    assert_ne!(aig_bytes(&clone), aig_bytes(&first));

    let prepared = prepare_network(&first, &cold_config);
    let checkpoint = FlowCheckpoint::capture(&saturate_network(&prepared, &cold_config));
    let restored = checkpoint.restore().unwrap();
    for submitted in [&first, &clone] {
        let (extracted, _) = extract_network(&restored, &config);
        let (final_aig, netlist, verified) =
            verify_and_map(&prepared, extracted, &config, |resynthesized| {
                check_equivalence_swept(submitted, resynthesized, &config.cec, &config.sweep)
            });
        let mut qor = netlist.qor();
        qor.name = submitted.name().to_string();

        let server = SynthesisServer::start(&ServerOptions { workers: 1 });
        let cold = server.submit(JobRequest::new(first.clone(), cold_config.clone()));
        assert_eq!(server.wait(cold).unwrap().state, JobState::Completed);
        let job = server.submit(JobRequest::new(submitted.clone(), config.clone()));
        let job = server.wait(job).unwrap();
        assert_eq!(job.state, JobState::Completed);
        assert!(!job.cache_hit);
        let served = job.result.unwrap();
        assert!(served.reused_checkpoint);
        assert_eq!(aig_bytes(&served.final_aig), aig_bytes(&final_aig));
        assert_eq!(served.qor, qor);
        assert_eq!(served.verified, verified);
        assert!(verified);
        assert_eq!(server.stats().saturations, 1);
    }
}
