//! Fanout-seeded, reconvergence-bounded window extraction.
//!
//! Seeds are chosen where committed resynthesis has the most room to help:
//! output drivers and multi-fanout nodes, in descending id (top-down) order
//! so a window claims its whole cone before smaller seeds inside it are
//! considered. Each window grows downward from its root by repeatedly
//! expanding the cut node that keeps the frontier narrowest, bounded by
//! [`WindowOptions::max_leaves`] and [`WindowOptions::max_volume`]. A final
//! sweep seeds every AND the primary pass left uncovered, so the partition
//! always covers the host network.

use crate::{WindowError, WindowOptions};
use aig::{try_extract_cone, Aig, Cone, NodeId};
use fxhash::FxHashSet;

/// One reconvergence-bounded window of the host AIG.
#[derive(Debug, Clone)]
pub struct Window {
    /// Index of this window within its [`Partition`].
    pub id: usize,
    /// The host AND node the window is rooted at (unique per window).
    pub root: NodeId,
    /// Cut leaves, ascending host id; matches `cone.leaf_map` order.
    pub leaves: Vec<NodeId>,
    /// Interior nodes (root included), ascending host id. Every interior
    /// node's fanins lie in `volume ∪ leaves ∪ {constant}`.
    pub volume: Vec<NodeId>,
    /// The extracted sub-circuit: inputs are `leaves`, single output is the
    /// root function.
    pub cone: Cone,
}

/// Summary statistics of a [`Partition`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Primary seeds considered (before coverage fallback).
    pub seeds: usize,
    /// Windows produced.
    pub windows: usize,
    /// Host AND gates covered by at least one window volume. Equals
    /// `total_ands` by construction.
    pub covered_ands: usize,
    /// Host AND gates in total.
    pub total_ands: usize,
    /// Sum of leaf counts over all windows.
    pub total_leaves: usize,
    /// Widest cut observed.
    pub max_leaves: usize,
    /// Largest interior observed.
    pub max_volume: usize,
}

/// A complete window cover of a host AIG.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The windows; roots are unique, volumes may overlap.
    pub windows: Vec<Window>,
    /// Summary statistics.
    pub stats: PartitionStats,
}

/// Carves `aig` into reconvergence-bounded windows covering every AND gate.
///
/// # Errors
/// * [`WindowError::InvalidOptions`] — the knobs are unsatisfiable.
/// * [`WindowError::Cone`] — a window cut was rejected by
///   [`aig::try_extract_cone`]; construction guarantees dominating cuts, so
///   this indicates an internal inconsistency and is surfaced typed rather
///   than panicking.
pub fn partition(aig: &Aig, opts: &WindowOptions) -> Result<Partition, WindowError> {
    opts.validate()?;
    let num_nodes = aig.num_nodes();
    let fanouts = aig.fanout_counts();
    let mut drives_output = vec![false; num_nodes];
    for out in aig.outputs() {
        drives_output[out.node().index()] = true;
    }

    let mut covered = vec![false; num_nodes];
    let mut windows: Vec<Window> = Vec::new();
    let mut stats = PartitionStats {
        total_ands: aig.num_ands(),
        ..PartitionStats::default()
    };

    // Primary pass: top-down over output drivers and multi-fanout nodes.
    let mut and_ids: Vec<NodeId> = aig.and_ids().collect();
    and_ids.sort_unstable_by(|a, b| b.cmp(a));
    for &seed in &and_ids {
        let interesting = drives_output[seed.index()] || fanouts[seed.index()] >= 2;
        if !interesting || covered[seed.index()] {
            continue;
        }
        stats.seeds += 1;
        grow_window(aig, seed, opts, &mut covered, &mut windows, &mut stats)?;
    }

    // Coverage fallback: every AND must belong to at least one volume.
    for &seed in &and_ids {
        if covered[seed.index()] {
            continue;
        }
        grow_window(aig, seed, opts, &mut covered, &mut windows, &mut stats)?;
    }

    stats.windows = windows.len();
    stats.covered_ands = covered
        .iter()
        .enumerate()
        .filter(|(i, &c)| c && aig.node(NodeId(*i as u32)).is_and())
        .count();
    Ok(Partition { windows, stats })
}

/// Grows one window rooted at `root` and records it.
fn grow_window(
    aig: &Aig,
    root: NodeId,
    opts: &WindowOptions,
    covered: &mut [bool],
    windows: &mut Vec<Window>,
    stats: &mut PartitionStats,
) -> Result<(), WindowError> {
    let mut volume: FxHashSet<NodeId> = FxHashSet::default();
    let mut cut: FxHashSet<NodeId> = FxHashSet::default();
    volume.insert(root);
    let (f0, f1) = aig.fanins(root);
    for f in [f0, f1] {
        if f.node() != NodeId::CONST {
            cut.insert(f.node());
        }
    }

    // Greedy frontier growth: expand the cut AND that keeps the cut
    // narrowest, preferring reconvergent expansions (which *shrink* the
    // frontier). Ties break toward the largest id so growth is deterministic
    // and stays near the root.
    loop {
        if volume.len() >= opts.max_volume {
            break;
        }
        let mut best: Option<(usize, NodeId)> = None;
        for &n in &cut {
            if !aig.node(n).is_and() {
                continue;
            }
            let (g0, g1) = aig.fanins(n);
            let fresh = [g0, g1]
                .iter()
                .filter(|l| {
                    let id = l.node();
                    id != NodeId::CONST && !cut.contains(&id) && !volume.contains(&id)
                })
                .count();
            let new_leaves = cut.len() - 1 + fresh;
            if new_leaves > opts.max_leaves {
                continue;
            }
            let candidate = (new_leaves, n);
            let better = match best {
                None => true,
                Some((bl, bn)) => new_leaves < bl || (new_leaves == bl && n > bn),
            };
            if better {
                best = Some(candidate);
            }
        }
        let Some((_, n)) = best else { break };
        cut.remove(&n);
        volume.insert(n);
        let (g0, g1) = aig.fanins(n);
        for g in [g0, g1] {
            let id = g.node();
            // A fanin already interior must not become a leaf: a node is
            // never both inside the window and on its boundary.
            if id != NodeId::CONST && !volume.contains(&id) {
                cut.insert(id);
            }
        }
    }

    let mut leaves: Vec<NodeId> = cut.into_iter().collect();
    leaves.sort_unstable();
    let mut interior: Vec<NodeId> = volume.iter().copied().collect();
    interior.sort_unstable();
    let cone = try_extract_cone(aig, &[root.lit()], Some(&leaves))?;
    for &v in &interior {
        covered[v.index()] = true;
    }
    stats.total_leaves += leaves.len();
    stats.max_leaves = stats.max_leaves.max(leaves.len());
    stats.max_volume = stats.max_volume.max(interior.len());
    windows.push(Window {
        id: windows.len(),
        root,
        leaves,
        volume: interior,
        cone,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partition's own audit, every rule, at `Paranoid`.
    fn assert_audit_clean(aig: &Aig, part: &Partition) {
        let report = crate::audit_partition(aig, part, ::audit::AuditLevel::Paranoid);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn covers_small_circuits() {
        for bc in benchgen::epfl_like_suite(benchgen::SuiteScale::Tiny) {
            let part = partition(&bc.aig, &WindowOptions::default()).unwrap();
            assert_audit_clean(&bc.aig, &part);
            assert_eq!(part.stats.covered_ands, part.stats.total_ands);
            assert!(part.stats.max_leaves <= 8);
            assert!(part.stats.max_volume <= 64);
        }
    }

    #[test]
    fn respects_tight_knobs() {
        let aig = benchgen::adder(8).aig;
        let opts = WindowOptions {
            max_leaves: 4,
            max_volume: 6,
        };
        let part = partition(&aig, &opts).unwrap();
        assert_audit_clean(&aig, &part);
        for w in &part.windows {
            assert!(w.leaves.len() <= 4 || w.volume.len() == 1);
            assert!(w.volume.len() <= 6);
        }
    }

    #[test]
    fn rejects_bad_options() {
        let aig = benchgen::adder(4).aig;
        let err = partition(
            &aig,
            &WindowOptions {
                max_leaves: 1,
                ..WindowOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, WindowError::InvalidOptions(_)));
        let err = partition(
            &aig,
            &WindowOptions {
                max_volume: 0,
                ..WindowOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, WindowError::InvalidOptions(_)));
    }

    #[test]
    fn is_deterministic() {
        let aig = benchgen::multiplier(8).aig;
        let a = partition(&aig, &WindowOptions::default()).unwrap();
        let b = partition(&aig, &WindowOptions::default()).unwrap();
        assert_eq!(a.windows.len(), b.windows.len());
        for (wa, wb) in a.windows.iter().zip(&b.windows) {
            assert_eq!(wa.root, wb.root);
            assert_eq!(wa.leaves, wb.leaves);
            assert_eq!(wa.volume, wb.volume);
        }
    }
}
