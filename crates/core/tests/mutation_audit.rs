//! The audit catalogs together: every rule of [`RuleId`] is owned by a
//! checker in exactly one of the six crates that audit their own structures
//! (`aig`, `egraph`, `sat`, `choices`, `techmap`, `window`). Each rule's
//! mutation test lives beside its checker, in the unit tests of that crate's
//! `audit` module, where it corrupts the structure's private fields directly.

use audit::{Check, RuleId};
use emorphic::BoolLang;

/// The rules of a catalog, in catalog order.
fn rules<T: ?Sized>(catalog: &[Box<dyn Check<T>>]) -> Vec<RuleId> {
    catalog.iter().map(|check| check.rule()).collect()
}

/// Every non-[`RuleId::Custom`] rule is owned by exactly one catalog
/// checker, and the shipped catalogs together span the whole enum — so the
/// per-rule mutation tests in the owning crates cover everything the
/// catalogs can fire. The catalogs' order is pinned too: it is the order
/// their diagnostics are reported in.
#[test]
fn catalogs_cover_every_rule() {
    let listed = [
        rules(&aig::aig_catalog()),
        rules(&egraph::egraph_catalog::<BoolLang>()),
        rules(&choices::choice_catalog()),
        rules(&techmap::netlist_catalog()),
        rules(&sat::sat_catalog()),
        rules(&window::window_catalog()),
        rules(&window::stitch_catalog()),
    ]
    .concat();

    let all = vec![
        RuleId::AigFaninRange,
        RuleId::AigTopoOrder,
        RuleId::AigFaninOrder,
        RuleId::AigDuplicateAnd,
        RuleId::AigTrivialAnd,
        RuleId::AigDanglingAnd,
        RuleId::EgraphDirty,
        RuleId::EgraphUnionFind,
        RuleId::EgraphCanonicalClass,
        RuleId::EgraphCanonicalChildren,
        RuleId::EgraphCongruence,
        RuleId::EgraphHashcons,
        RuleId::EgraphParents,
        RuleId::EgraphOpIndex,
        RuleId::EgraphNodeCount,
        RuleId::ChoiceReprLast,
        RuleId::ChoiceMemberValid,
        RuleId::ChoicePhaseConflict,
        RuleId::ChoiceDuplicateMember,
        RuleId::ChoiceMemberEquiv,
        RuleId::NetlistCoverLegal,
        RuleId::NetlistFaninResolved,
        RuleId::NetlistTiming,
        RuleId::SatWatchInvariant,
        RuleId::SatTrailConsistent,
        RuleId::SatHeapIndex,
        RuleId::SatLbdBounds,
        RuleId::WindowCoverage,
        RuleId::WindowLeafCut,
        RuleId::WindowStitchTable,
        RuleId::WindowChoiceDag,
    ];
    assert_eq!(all.len(), 31);
    assert_eq!(listed, all, "catalog rules drifted from the RuleId enum");

    // The DAG-shape catalog is the first four rules of the full AIG one.
    assert_eq!(rules(&aig::dag_catalog()), all[..4]);
}
