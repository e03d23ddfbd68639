//! EPFL-like combinational benchmark circuit generators.
//!
//! The E-morphic paper evaluates on ten circuits of the EPFL combinational
//! benchmark suite (`hyp`, `div`, `mem_ctrl`, `log2`, `multiplier`, `sqrt`,
//! `square`, `arbiter`, `sin`, `adder`). The original AIGs are distributed as
//! files; this crate regenerates functionally comparable circuits from
//! parametric generators so the whole reproduction is self-contained:
//! the same arithmetic/control functions, the same relative size ordering
//! (hyp largest … adder smallest), at bit-widths scaled to laptop-friendly
//! sizes (see `DESIGN.md` for the substitution rationale).
//!
//! # Example
//!
//! ```
//! let suite = benchgen::epfl_like_suite(benchgen::SuiteScale::Tiny);
//! assert_eq!(suite.len(), 10);
//! let adder = suite.iter().find(|c| c.name == "adder").unwrap();
//! assert!(adder.aig.num_ands() > 0);
//! ```

#![warn(missing_docs)]

mod circuits;
mod random;
mod words;

pub use circuits::{
    adder, arbiter, crossbar, divider, hypotenuse, log2, mem_ctrl, multiplier, sine, square,
    square_root, BenchCircuit, SuiteScale,
};
pub use random::random_aig;

/// Generates the full ten-circuit EPFL-like suite at the given scale,
/// ordered roughly from largest to smallest (the Table II/III row order).
pub fn epfl_like_suite(scale: SuiteScale) -> Vec<BenchCircuit> {
    let (w_small, w_mid, w_big) = match scale {
        SuiteScale::Tiny => (6, 8, 8),
        SuiteScale::Small => (8, 12, 16),
        SuiteScale::Default => (16, 24, 32),
    };
    vec![
        hypotenuse(w_big),
        divider(w_big),
        mem_ctrl(w_mid),
        log2(w_big),
        multiplier(w_big),
        square_root(w_big),
        square(w_mid),
        arbiter(4 * w_mid),
        sine(w_small),
        adder(2 * w_mid),
    ]
}

/// Generates the scaling-class circuits used by the windowed-saturation
/// benchmarks: instances of the regular generators at sizes where monolithic
/// saturation starts to struggle (up to the paper-style `multiplier64` at
/// [`SuiteScale::Default`]), plus the crossbar [`router`](crossbar)
/// interconnect fabric. Names carry the size (`multiplier32`, …) so results
/// at different scales stay distinguishable.
pub fn scaling_suite(scale: SuiteScale) -> Vec<BenchCircuit> {
    fn named(mut circuit: BenchCircuit, name: &str) -> BenchCircuit {
        circuit.name = name.to_string();
        circuit
    }
    match scale {
        SuiteScale::Tiny => vec![
            named(multiplier(8), "multiplier8"),
            named(adder(32), "adder32"),
            named(crossbar(4, 4), "router4x4"),
        ],
        SuiteScale::Small => vec![
            named(multiplier(16), "multiplier16"),
            named(adder(64), "adder64"),
            named(crossbar(8, 8), "router8x8"),
        ],
        SuiteScale::Default => vec![
            named(multiplier(32), "multiplier32"),
            named(multiplier(64), "multiplier64"),
            named(adder(128), "adder128"),
            named(crossbar(8, 16), "router8x16"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_named_circuits() {
        let suite = epfl_like_suite(SuiteScale::Tiny);
        let names: Vec<&str> = suite.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "hyp",
                "div",
                "mem_ctrl",
                "log2",
                "multiplier",
                "sqrt",
                "square",
                "arbiter",
                "sin",
                "adder"
            ]
        );
    }

    #[test]
    fn size_ordering_roughly_matches_epfl() {
        let suite = epfl_like_suite(SuiteScale::Small);
        let size = |name: &str| {
            suite
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.aig.num_ands())
                .unwrap()
        };
        // hyp is the largest circuit; adder and arbiter are among the smallest.
        assert!(size("hyp") > size("multiplier"));
        assert!(size("hyp") > size("adder"));
        assert!(size("div") > size("adder"));
        assert!(size("multiplier") > size("adder"));
    }

    #[test]
    fn scales_are_monotonic() {
        let tiny = epfl_like_suite(SuiteScale::Tiny);
        let small = epfl_like_suite(SuiteScale::Small);
        let total = |s: &[BenchCircuit]| s.iter().map(|c| c.aig.num_ands()).sum::<usize>();
        assert!(total(&small) > total(&tiny));
    }

    #[test]
    fn scaling_suite_grows_with_scale() {
        let tiny = scaling_suite(SuiteScale::Tiny);
        let small = scaling_suite(SuiteScale::Small);
        let largest = |s: &[BenchCircuit]| s.iter().map(|c| c.aig.num_ands()).max().unwrap();
        assert!(largest(&small) > largest(&tiny));
        // Every circuit carries a size-qualified name.
        for c in tiny.iter().chain(&small) {
            assert!(c.name.chars().any(|ch| ch.is_ascii_digit()), "{}", c.name);
        }
    }
}
