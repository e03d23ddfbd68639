//! The server serves the flow: a cold job and `emorphic_flow` on the same
//! circuit and config end in the same network and the same QoR. They share
//! every stage down to `verify_and_map`; what differs is only what the
//! verifier compares against (the submitted circuit, swept, versus the
//! prepared network), which decides `verified` and nothing else unless a
//! mismatch is proved.

#![allow(clippy::unwrap_used)]

use emorphic::flow::{emorphic_flow, FlowConfig};
use emorphic::ExtractorKind;
use emorphic_server::{JobRequest, JobState, ServerOptions, SynthesisServer};

#[test]
fn a_cold_job_and_emorphic_flow_end_in_the_same_network_and_qor() {
    let server = SynthesisServer::start(&ServerOptions { workers: 1 });
    for (circuit, extractor) in [
        (benchgen::adder(6).aig, ExtractorKind::Sa),
        (benchgen::multiplier(3).aig, ExtractorKind::BottomUp),
    ] {
        let config = FlowConfig {
            extractor,
            ..FlowConfig::fast()
        };
        let direct = emorphic_flow(&circuit, &config);

        let job = server.submit(JobRequest::new(circuit.clone(), config));
        let status = server.wait(job).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert!(!status.cache_hit);
        let served = status.result.unwrap();
        assert!(!served.reused_checkpoint, "a cold job saturates");

        assert_eq!(
            served.final_aig.structural_fingerprint(),
            direct.final_aig.structural_fingerprint(),
            "{}",
            circuit.name()
        );
        assert_eq!(served.qor, direct.qor, "{}", circuit.name());
        assert_eq!(served.egraph_nodes, direct.egraph_nodes);
        assert!(served.verified && direct.verified);
    }
}
