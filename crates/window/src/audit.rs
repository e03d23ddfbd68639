//! The window crate's own checkers over partitions and stitched choice
//! networks. A [`Partition`] only carries node ids into the host AIG it was
//! carved from, so every checker reads the host beside it.

use ::audit::{AuditLevel, AuditReport, RuleId, Severity};
use aig::{audit_aig_dag_only, Aig, NodeId};
use fxhash::FxHashSet;

use crate::{Partition, Stitched};

/// [`RuleId::WindowCoverage`]: every AND gate of the host belongs to at
/// least one window volume (the partition is a cover, not a sample).
fn coverage(aig: &Aig, partition: &Partition, report: &mut AuditReport) {
    let n = aig.num_nodes();
    let mut covered = vec![false; n];
    for window in &partition.windows {
        for v in &window.volume {
            if v.index() < n {
                covered[v.index()] = true;
            }
        }
    }
    for id in aig.and_ids() {
        if !covered[id.index()] {
            report.push(
                RuleId::WindowCoverage,
                Severity::Error,
                format!("node {id}"),
                "AND gate is covered by no window volume",
            );
        }
    }
}

/// [`RuleId::WindowLeafCut`]: each window is a true cut — the root is
/// interior and roots no other window, interior nodes are AND gates whose
/// fanins stay inside `volume ∪ leaves ∪ {constant}`, no leaf is also
/// interior, and the extracted cone's leaf and root maps match the declared
/// leaves and root.
fn leaf_cut(aig: &Aig, partition: &Partition, report: &mut AuditReport) {
    let n = aig.num_nodes();
    let mut roots: FxHashSet<NodeId> = FxHashSet::default();
    for window in &partition.windows {
        let location = format!("window {}", window.id);
        if !roots.insert(window.root) {
            report.push(
                RuleId::WindowLeafCut,
                Severity::Error,
                location.clone(),
                format!("root {} already roots another window", window.root),
            );
        }
        if !window.volume.contains(&window.root) {
            report.push(
                RuleId::WindowLeafCut,
                Severity::Error,
                location.clone(),
                format!("root {} is not in its own volume", window.root),
            );
        }
        for leaf in &window.leaves {
            if leaf.index() >= n {
                report.push(
                    RuleId::WindowLeafCut,
                    Severity::Error,
                    location.clone(),
                    format!("leaf {leaf} references node {} of {n}", leaf.index()),
                );
            }
            if window.volume.contains(leaf) {
                report.push(
                    RuleId::WindowLeafCut,
                    Severity::Error,
                    location.clone(),
                    format!("leaf {leaf} is also interior (cut crosses the volume)"),
                );
            }
        }
        for v in &window.volume {
            if v.index() >= n {
                report.push(
                    RuleId::WindowLeafCut,
                    Severity::Error,
                    location.clone(),
                    format!("interior {v} references node {} of {n}", v.index()),
                );
                continue;
            }
            if !aig.node(*v).is_and() {
                report.push(
                    RuleId::WindowLeafCut,
                    Severity::Error,
                    location.clone(),
                    format!("interior {v} is not an AND gate"),
                );
                continue;
            }
            let (f0, f1) = aig.fanins(*v);
            for f in [f0, f1] {
                let id = f.node();
                if id != NodeId::CONST
                    && !window.volume.contains(&id)
                    && !window.leaves.contains(&id)
                {
                    report.push(
                        RuleId::WindowLeafCut,
                        Severity::Error,
                        location.clone(),
                        format!("interior {v} reads {id} from outside volume and cut"),
                    );
                }
            }
        }
        if window.cone.leaf_map != window.leaves {
            report.push(
                RuleId::WindowLeafCut,
                Severity::Error,
                location.clone(),
                "extracted cone's leaf map disagrees with the declared leaves",
            );
        }
        if window.cone.root_map != [window.root.lit()] {
            report.push(
                RuleId::WindowLeafCut,
                Severity::Error,
                location,
                "extracted cone's root map is not the window root",
            );
        }
    }
}

/// [`RuleId::WindowStitchTable`]: the stitch translation table maps every
/// boundary literal — each window's leaves and root, the host's inputs and
/// output drivers — and is sized to the host node space.
fn stitch_table(aig: &Aig, partition: &Partition, stitched: &Stitched, report: &mut AuditReport) {
    let table = &stitched.table;
    if table.len() != aig.num_nodes() {
        report.push(
            RuleId::WindowStitchTable,
            Severity::Error,
            "table",
            format!(
                "table covers {} node slots but the host has {}",
                table.len(),
                aig.num_nodes()
            ),
        );
        return;
    }
    let mapped = |id: NodeId| table.get(id.index()).copied().flatten().is_some();
    for &input in aig.inputs() {
        if !mapped(input) {
            report.push(
                RuleId::WindowStitchTable,
                Severity::Error,
                format!("input {input}"),
                "host input has no stitched literal",
            );
        }
    }
    for (i, out) in aig.outputs().iter().enumerate() {
        if !mapped(out.node()) {
            report.push(
                RuleId::WindowStitchTable,
                Severity::Error,
                format!("output {i}"),
                format!("output driver {} has no stitched literal", out.node()),
            );
        }
    }
    for window in &partition.windows {
        let location = format!("window {}", window.id);
        if !mapped(window.root) {
            report.push(
                RuleId::WindowStitchTable,
                Severity::Error,
                location.clone(),
                format!("root {} has no stitched literal", window.root),
            );
        }
        for leaf in &window.leaves {
            if !mapped(*leaf) {
                report.push(
                    RuleId::WindowStitchTable,
                    Severity::Error,
                    location.clone(),
                    format!("boundary leaf {leaf} has no stitched literal"),
                );
            }
        }
    }
}

/// [`RuleId::WindowChoiceDag`]: the stitched choice network's underlying
/// AIG satisfies the structural DAG rules of [`audit_aig_dag_only`] (fanin
/// ranges, topological order, normalized fanins, strash dedup). Violations
/// it finds are re-emitted under this rule so a stitch bug is
/// attributable to the stitcher, not to a generic AIG check.
fn choice_dag(stitched: &Stitched, report: &mut AuditReport) {
    let inner = audit_aig_dag_only(stitched.network.aig(), AuditLevel::PhaseBoundaries);
    for diag in inner.diagnostics {
        report.push(
            RuleId::WindowChoiceDag,
            diag.severity,
            format!("stitched {}", diag.location),
            format!("[{}] {}", diag.rule, diag.message),
        );
    }
}

/// Audits a window partition against its host AIG at the given level.
pub fn audit_partition(aig: &Aig, partition: &Partition, level: AuditLevel) -> AuditReport {
    let mut report = AuditReport::new();
    if level != AuditLevel::Off {
        report.run(|r| coverage(aig, partition, r));
        report.run(|r| leaf_cut(aig, partition, r));
    }
    report
}

/// Audits a stitched choice network against its host and partition at the
/// given level.
pub fn audit_stitched(
    aig: &Aig,
    partition: &Partition,
    stitched: &Stitched,
    level: AuditLevel,
) -> AuditReport {
    let mut report = AuditReport::new();
    if level != AuditLevel::Off {
        report.run(|r| stitch_table(aig, partition, stitched, r));
        report.run(|r| choice_dag(stitched, r));
    }
    report
}

/// Mutation tests: each starts from a clean partition or stitch, corrupts it
/// directly, and asserts the expected rule fires.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, stitch, WindowOptions};
    use aig::AigNode;
    use choices::ChoiceAig;
    use serde::value::Value;
    use serde::{Deserialize, Serialize};

    fn assert_clean(stage: &str, report: &AuditReport) {
        assert!(report.is_clean(), "{stage} audit not clean:\n{report}");
    }

    /// A small adder, partitioned with the default knobs; clean at `Paranoid`.
    fn window_fixture() -> (Aig, Partition) {
        let aig = benchgen::adder(4).aig;
        let part = partition(&aig, &WindowOptions::default()).expect("partition");
        assert_clean(
            "partition base",
            &audit_partition(&aig, &part, AuditLevel::Paranoid),
        );
        (aig, part)
    }

    /// The fixture partition stitched with no choice spaces (bare host
    /// rebuild), clean at `Paranoid`.
    fn stitched_fixture() -> (Aig, Partition, Stitched) {
        let (aig, part) = window_fixture();
        let stitched = stitch(&aig, &part, &[]).expect("stitch");
        assert_clean(
            "stitch base",
            &audit_stitched(&aig, &part, &stitched, AuditLevel::Paranoid),
        );
        (aig, part, stitched)
    }

    #[test]
    fn window_coverage_fires_on_dropped_windows() {
        let (aig, mut part) = window_fixture();
        // No windows at all: every AND gate is uncovered. The leaf-cut
        // checker has nothing to inspect, so exactly the coverage rule fires.
        part.windows.clear();
        let report = audit_partition(&aig, &part, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::WindowCoverage]);
    }

    #[test]
    fn window_leaf_cut_fires_on_interior_leaf() {
        let (aig, mut part) = window_fixture();
        // The root is now declared a leaf of its own window: the cut crosses
        // the volume (and the extracted cone's leaf map no longer matches).
        // Coverage is untouched — the volumes themselves did not change.
        let root = part.windows[0].root;
        part.windows[0].leaves.push(root);
        let report = audit_partition(&aig, &part, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::WindowLeafCut]);
    }

    #[test]
    fn window_leaf_cut_fires_on_shared_root_and_foreign_cone_root() {
        let (aig, part) = window_fixture();
        // A second window over the same root: volumes, leaves and cones are
        // all a true cut, but two windows now claim one root.
        let mut shared = part.clone();
        shared.windows.push(shared.windows[0].clone());
        let report = audit_partition(&aig, &shared, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::WindowLeafCut]);

        // The extracted cone claims another window's root as its output.
        let mut foreign = part;
        foreign.windows[0].cone.root_map = foreign.windows[1].cone.root_map.clone();
        let report = audit_partition(&aig, &foreign, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::WindowLeafCut]);
    }

    #[test]
    fn window_stitch_table_fires_on_unmapped_boundary() {
        let (aig, part, mut stitched) = stitched_fixture();
        // A window leaf loses its translation: the boundary is no longer
        // fully mapped. The stitched network itself is untouched, so the DAG
        // rule stays quiet.
        let leaf = part.windows[0].leaves[0];
        stitched.table[leaf.index()] = None;
        let report = audit_stitched(&aig, &part, &stitched, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::WindowStitchTable]);
    }

    #[test]
    fn window_choice_dag_fires_on_corrupted_stitched_network() {
        let (aig, part, mut stitched) = stitched_fixture();
        // Swap one AND's fanins inside the stitched network: the raw order
        // invariant of the underlying AIG breaks, which the delegated DAG
        // audit reports and the stitch checker re-emits under its own rule.
        // From outside the `aig` crate the raw node vector is reachable only
        // through the network's serialized form.
        let inner = stitched.network.aig();
        let and = inner.and_ids().next().expect("stitched AIG has an AND");
        let mut value = inner.to_value();
        let Value::Object(fields) = &mut value else {
            panic!("an AIG serializes to an object");
        };
        let Some((_, Value::Array(nodes))) = fields.iter_mut().find(|(key, _)| key == "nodes")
        else {
            panic!("a serialized AIG lists its nodes");
        };
        let Value::Object(variant) = &mut nodes[and.index()] else {
            panic!("an AND serializes to a tagged object");
        };
        let (_, Value::Object(pins)) = &mut variant[0] else {
            panic!("an AND carries its fanins");
        };
        let fanin0 = std::mem::replace(&mut pins[0].1, Value::Null);
        pins[0].1 = std::mem::replace(&mut pins[1].1, fanin0);
        let corrupted = Aig::from_value(&value).expect("the swapped AIG deserializes");
        assert!(matches!(
            corrupted.node(and),
            AigNode::And { fanin0, fanin1 } if fanin0.raw() > fanin1.raw()
        ));
        let classes = stitched.network.classes().to_vec();
        stitched.network = ChoiceAig::new(corrupted, classes).expect("classes still valid");
        let report = audit_stitched(&aig, &part, &stitched, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::WindowChoiceDag]);
    }
}
