//! Property tests for the windowed-saturation pipeline.
//!
//! Pinned here, on random circuits pushed through the real partition →
//! saturate → stitch machinery: **thread determinism** — the windowed
//! decomposition is bit-identical at 1 and 4 search threads, with the same
//! stitched network and the same statistics.
//!
//! `PROPTEST_CASES` scales the random-circuit coverage.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use choices::ChoiceConfig;
use emorphic::flow::FlowConfig;
use emorphic::saturate_windows;
use proptest::prelude::*;
use window::WindowOptions;

/// A reduced flow configuration so each proptest case stays fast; windows
/// are kept small so even 30-gate circuits split into several.
fn test_config() -> (FlowConfig, WindowOptions) {
    let config = FlowConfig::fast();
    let opts = WindowOptions {
        max_leaves: 6,
        max_volume: 24,
    };
    (config, opts)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The whole windowed decomposition — stitched choice network and its
    /// statistics — is bit-identical at 1 and 4 search threads.
    #[test]
    fn windowed_decomposition_is_thread_deterministic(
        seed in 0u64..10_000,
        num_ands in 10usize..60,
        num_inputs in 3usize..7,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let (config, opts) = test_config();
        let choices = ChoiceConfig::default();
        let serial = FlowConfig { search_threads: 1, ..config.clone() };
        let parallel = FlowConfig { search_threads: 4, ..config };

        let (s, _, s_report) =
            saturate_windows(&circuit, &opts, &serial, &choices).expect("serial stitch");
        let (p, _, p_report) =
            saturate_windows(&circuit, &opts, &parallel, &choices).expect("parallel stitch");
        prop_assert_eq!(s.stats, p.stats, "stitch statistics diverged");
        prop_assert_eq!(&s.table, &p.table, "boundary tables diverged");
        prop_assert_eq!(
            s.network.aig().num_nodes(),
            p.network.aig().num_nodes(),
            "stitched node counts diverged"
        );
        prop_assert_eq!(
            s.network.classes().len(),
            p.network.classes().len(),
            "class counts diverged"
        );
        prop_assert_eq!(s_report.windows, p_report.windows);
        prop_assert_eq!(s_report.classes_exported, p_report.classes_exported);
        prop_assert_eq!(s_report.alternatives, p_report.alternatives);
    }
}
