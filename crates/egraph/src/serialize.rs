//! JSON-serializable snapshots of an e-graph.
//!
//! This is the generic machinery behind E-morphic's intermediate DSL
//! (paper Fig. 7): every e-class is stored under its id, with its e-nodes
//! given as an operator string plus child class ids, and a redundant
//! `parents` list to make bottom-up traversals cheap after deserialization.

use crate::{EGraph, FromOp, Id, Language, ParseError};
use fxhash::FxHashMap;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A structural defect in a serialized snapshot, found by
/// [`SerializedEGraph::validate`].
///
/// Every variant names the offending ids so rejection tests (and users
/// debugging hand-edited snapshots) can match on the exact failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The JSON `classes` object contains the same key more than once; a
    /// plain map deserialization would silently keep only one entry.
    DuplicateClassKey(String),
    /// A `classes` map key disagrees with the embedded `SerializedClass.id`.
    KeyMismatch {
        /// The map key.
        key: u32,
        /// The id stored inside the class.
        id: u32,
    },
    /// A class has no e-nodes (unreconstructible: nothing defines it).
    EmptyClass(u32),
    /// A node child references a class id that does not exist.
    MissingChild {
        /// The class containing the dangling reference.
        class: u32,
        /// The referenced, undefined class id.
        child: u32,
    },
    /// A parent entry references a class id that does not exist.
    MissingParent {
        /// The class containing the dangling reference.
        class: u32,
        /// The referenced, undefined class id.
        parent: u32,
    },
    /// A root references a class id that does not exist.
    MissingRoot(u32),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DuplicateClassKey(key) => {
                write!(f, "duplicate class key {key:?} in snapshot")
            }
            ValidationError::KeyMismatch { key, id } => {
                write!(f, "class key {key} disagrees with embedded id {id}")
            }
            ValidationError::EmptyClass(id) => write!(f, "class {id} has no nodes"),
            ValidationError::MissingChild { class, child } => {
                write!(f, "class {class} references undefined child class {child}")
            }
            ValidationError::MissingParent { class, parent } => {
                write!(
                    f,
                    "class {class} references undefined parent class {parent}"
                )
            }
            ValidationError::MissingRoot(id) => write!(f, "root class {id} is not defined"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<ValidationError> for ParseError {
    fn from(e: ValidationError) -> Self {
        ParseError(format!("invalid snapshot: {e}"))
    }
}

/// One e-node in serialized form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SerializedNode {
    /// Operator spelling (as produced by [`Language::op_str`]).
    pub op: String,
    /// Child e-class ids.
    pub children: Vec<u32>,
}

/// One e-class in serialized form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SerializedClass {
    /// Class id (canonical in the source e-graph).
    pub id: u32,
    /// The e-nodes of the class.
    pub nodes: Vec<SerializedNode>,
    /// Ids of classes containing at least one node that references this class.
    pub parents: Vec<u32>,
}

/// A whole e-graph in serialized form, plus the root classes of interest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct SerializedEGraph {
    /// Classes keyed by id (ordered for stable output).
    pub classes: BTreeMap<u32, SerializedClass>,
    /// Root class ids (e.g. the circuit outputs).
    pub roots: Vec<u32>,
}

/// Decoding rejects a `classes` object that repeats a key with
/// [`ValidationError::DuplicateClassKey`]: the JSON parser keeps every
/// entry of an object, but a map decode would keep only the last body of
/// the class. Every reader of a snapshot — [`SerializedEGraph::from_json`]
/// and any document that embeds one — goes through this check.
impl Deserialize for SerializedEGraph {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, serde::Error> {
            let Some(field) = value.get(name) else {
                return Err(serde::Error(format!(
                    "missing field `SerializedEGraph.{name}`"
                )));
            };
            T::from_value(field).map_err(|e| serde::Error(format!("SerializedEGraph.{name}: {e}")))
        }
        if !matches!(value, Value::Object(_)) {
            return Err(serde::Error::expected("object", value));
        }
        if let Some(Value::Object(classes)) = value.get("classes") {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            if let Some((key, _)) = classes.iter().find(|(key, _)| !seen.insert(key)) {
                let duplicate = ValidationError::DuplicateClassKey(key.clone());
                return Err(serde::Error::custom(duplicate));
            }
        }
        Ok(SerializedEGraph {
            classes: field(value, "classes")?,
            roots: field(value, "roots")?,
        })
    }
}

impl SerializedEGraph {
    /// Total number of e-nodes.
    pub fn num_nodes(&self) -> usize {
        self.classes.values().map(|c| c.nodes.len()).sum()
    }

    /// Number of e-classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Serializes to a pretty JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|_| unreachable!("serialization cannot fail"))
    }

    /// Parses from JSON and validates the snapshot's referential integrity.
    ///
    /// Duplicate `classes` keys are rejected (see the [`Deserialize`]
    /// impl), as is any key that disagrees with the embedded class id.
    ///
    /// # Errors
    /// Returns a [`ParseError`] describing malformed JSON or (via
    /// [`ValidationError`]) a structurally invalid snapshot.
    pub fn from_json(text: &str) -> Result<Self, ParseError> {
        let parsed: Self = serde_json::from_str(text).map_err(|e| ParseError(e.to_string()))?;
        parsed.validate()?;
        Ok(parsed)
    }

    /// Checks the snapshot's referential integrity: every map key equals the
    /// embedded class id, every class has at least one node, and every
    /// child / parent / root reference names a defined class.
    ///
    /// # Errors
    /// Returns the first [`ValidationError`] found (classes are visited in
    /// ascending id order).
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.flatten().map(drop)
    }

    /// Validates the snapshot as [`SerializedEGraph::validate`] describes
    /// and lays it out for [`replay`]: the ascending class keys, whose
    /// positions are the dense class indexes, the nodes in replay order, and
    /// each node's operator.
    fn flatten(&self) -> Result<(Vec<u32>, Flat, Vec<&str>), ValidationError> {
        let keys: Vec<u32> = self.classes.keys().copied().collect();
        let dense = |id: u32| keys.binary_search(&id).ok().map(|at| at as u32);
        let mut flat = Flat::new(keys.len(), self.num_nodes());
        let mut ops: Vec<&str> = Vec::with_capacity(self.num_nodes());
        let mut children: Vec<u32> = Vec::new();
        for (at, (&key, class)) in self.classes.iter().enumerate() {
            if key != class.id {
                return Err(ValidationError::KeyMismatch { key, id: class.id });
            }
            if class.nodes.is_empty() {
                return Err(ValidationError::EmptyClass(key));
            }
            for node in &class.nodes {
                children.clear();
                for &child in &node.children {
                    let missing = ValidationError::MissingChild { class: key, child };
                    children.push(dense(child).ok_or(missing)?);
                }
                flat.push(at, children.iter().copied());
                ops.push(&node.op);
            }
            if let Some(&parent) = class.parents.iter().find(|&&p| dense(p).is_none()) {
                return Err(ValidationError::MissingParent { class: key, parent });
            }
        }
        for &root in &self.roots {
            flat.roots
                .push(dense(root).ok_or(ValidationError::MissingRoot(root))?);
        }
        Ok((keys, flat, ops))
    }
}

/// Captures a snapshot of `egraph` (which must be rebuilt/clean).
pub fn to_serialized<L: Language>(egraph: &EGraph<L>, roots: &[Id]) -> SerializedEGraph {
    let mut classes: BTreeMap<u32, SerializedClass> = BTreeMap::new();
    for class in egraph.classes() {
        let nodes = class
            .nodes
            .iter()
            .map(|n| SerializedNode {
                op: n.op_str(),
                children: n.children().iter().map(|c| egraph.find(*c).0).collect(),
            })
            .collect();
        // The parent classes come straight from the e-graph's incrementally
        // maintained parent lists (entries may be stale; canonicalize).
        let mut parents: Vec<u32> = class
            .parents()
            .map(|(_, pclass)| egraph.find(pclass).0)
            .collect();
        parents.sort_unstable();
        parents.dedup();
        classes.insert(
            class.id.0,
            SerializedClass {
                id: class.id.0,
                nodes,
                parents,
            },
        );
    }
    SerializedEGraph {
        classes,
        roots: roots.iter().map(|r| egraph.find(*r).0).collect(),
    }
}

/// The result of [`from_serialized`]: the reconstructed e-graph, a mapping
/// from serialized ids to new class ids, and the translated roots.
pub type Deserialized<L> = (EGraph<L>, FxHashMap<u32, Id>, Vec<Id>);

/// Work accounting for [`from_serialized_with_stats`].
///
/// The reconstruction is linear: every serialized e-node is materialized
/// exactly once, so `node_attempts == SerializedEGraph::num_nodes()`. The
/// deep-chain regression test pins this (the previous worklist algorithm
/// re-attempted every remaining node on every pass, which was quadratic in
/// depth on chain-shaped graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconstructionStats {
    /// Number of e-node materialization attempts (`egraph.add` calls).
    pub node_attempts: usize,
}

/// What both front-ends hand to [`replay`]: the source's e-nodes in replay
/// order — classes by ascending source id, each class's nodes in order —
/// with every class named by its dense index in that order.
struct Flat {
    /// Number of classes.
    classes: usize,
    /// Per node, the dense index of its class.
    class: Vec<u32>,
    /// Per node, where its children start in `children`; one entry more
    /// than there are nodes.
    start: Vec<u32>,
    /// The dense class of every child reference, node after node.
    children: Vec<u32>,
    /// The dense class of every root.
    roots: Vec<u32>,
}

impl Flat {
    fn new(classes: usize, nodes: usize) -> Self {
        let mut start = Vec::with_capacity(nodes + 1);
        start.push(0);
        Flat {
            classes,
            class: Vec::with_capacity(nodes),
            start,
            children: Vec::with_capacity(2 * nodes),
            roots: Vec::new(),
        }
    }

    fn push(&mut self, class: usize, children: impl IntoIterator<Item = u32>) {
        self.class.push(class as u32);
        self.children.extend(children);
        self.start.push(self.children.len() as u32);
    }

    fn children(&self, node: usize) -> &[u32] {
        &self.children[self.start[node] as usize..self.start[node + 1] as usize]
    }

    /// The roots in `egraph`, given the id [`replay`] gave each class; every
    /// root class must have been materialized.
    fn roots<L: Language>(&self, egraph: &EGraph<L>, ids: &[Id]) -> Vec<Id> {
        self.roots
            .iter()
            .map(|&at| egraph.find(ids[at as usize]))
            .collect()
    }
}

/// A class [`replay`] has not materialized yet.
const UNMATERIALIZED: Id = Id(u32::MAX);

/// The replay both [`from_serialized`] and [`relayout`] run: one `add` per
/// e-node and one `union` per further node of a class, in Kahn order, then
/// one `rebuild`. `make` builds node `i` of `flat` over the new ids of its
/// children.
///
/// Each node waits on a count of child references not yet materialized
/// (all of them at the start; a repeated child counts once per occurrence).
/// When a class gets its first node, every node blocked on it — the CSR
/// waiter list, in node order — counts down, and a FIFO queue drains the
/// nodes whose count reached zero. Every node and every child reference is
/// handled exactly once, so the replay is linear whatever the graph's depth.
///
/// Returns the e-graph, per dense class the id of its first materialized
/// node ([`UNMATERIALIZED`] for a class no node of which could be built),
/// and the work done. `node_attempts` falls short of the node count exactly
/// when some nodes wait on a cycle with no base case.
fn replay<L: Language, E>(
    flat: &Flat,
    mut make: impl FnMut(usize, &[Id]) -> Result<L, E>,
) -> Result<(EGraph<L>, Vec<Id>, ReconstructionStats), E> {
    let nodes = flat.class.len();
    let mut waiter_start = vec![0u32; flat.classes + 1];
    for &child in &flat.children {
        waiter_start[child as usize + 1] += 1;
    }
    for c in 0..flat.classes {
        waiter_start[c + 1] += waiter_start[c];
    }
    let mut fill = waiter_start.clone();
    let mut waiters = vec![0u32; flat.children.len()];
    for node in 0..nodes {
        for &child in flat.children(node) {
            waiters[fill[child as usize] as usize] = node as u32;
            fill[child as usize] += 1;
        }
    }
    let mut missing: Vec<u32> = flat.start.windows(2).map(|w| w[1] - w[0]).collect();
    let mut ready: Vec<u32> = Vec::with_capacity(nodes);
    ready.extend((0..nodes as u32).filter(|&n| missing[n as usize] == 0));

    let mut egraph: EGraph<L> = EGraph::new();
    let mut ids = vec![UNMATERIALIZED; flat.classes];
    let mut children: Vec<Id> = Vec::new();
    let mut head = 0;
    while let Some(&node) = ready.get(head) {
        head += 1;
        let node = node as usize;
        children.clear();
        children.extend(flat.children(node).iter().map(|&c| ids[c as usize]));
        debug_assert!(!children.contains(&UNMATERIALIZED));
        let new_id = egraph.add(make(node, &children)?);
        let class = flat.class[node] as usize;
        if ids[class] != UNMATERIALIZED {
            egraph.union(ids[class], new_id);
            continue;
        }
        ids[class] = new_id;
        let blocked = waiter_start[class] as usize..waiter_start[class + 1] as usize;
        for &waiter in &waiters[blocked] {
            missing[waiter as usize] -= 1;
            if missing[waiter as usize] == 0 {
                ready.push(waiter);
            }
        }
    }
    egraph.rebuild();
    let stats = ReconstructionStats {
        node_attempts: head,
    };
    Ok((egraph, ids, stats))
}

/// Reconstructs an e-graph from a serialized snapshot.
///
/// Returns the e-graph plus a mapping from serialized ids to new class ids
/// and the translated roots.
///
/// # Errors
/// Returns a [`ParseError`] if the snapshot fails [`SerializedEGraph::validate`],
/// if an operator cannot be parsed by `L`, or if classes are cyclically
/// defined with no base case.
pub fn from_serialized<L: FromOp>(data: &SerializedEGraph) -> Result<Deserialized<L>, ParseError> {
    from_serialized_with_stats(data).map(|(d, _)| d)
}

/// [`from_serialized`], also returning work-accounting statistics.
///
/// The document front-end of the replay [`relayout`] shares: it validates
/// the snapshot while numbering its classes densely in ascending id order,
/// and parses each operator as the replay reaches its node.
///
/// # Errors
/// Same conditions as [`from_serialized`].
pub fn from_serialized_with_stats<L: FromOp>(
    data: &SerializedEGraph,
) -> Result<(Deserialized<L>, ReconstructionStats), ParseError> {
    let (keys, flat, ops) = data.flatten()?;
    let (egraph, ids, stats) = replay(&flat, |node, children| {
        L::from_op(ops[node], children.to_vec())
    })?;
    if stats.node_attempts < ops.len() {
        return Err(ParseError(format!(
            "serialized e-graph has {} nodes that could not be reconstructed (cyclic without base case?)",
            ops.len() - stats.node_attempts
        )));
    }
    let roots = flat.roots(&egraph, &ids);
    let id_map = keys.into_iter().zip(ids).collect();
    Ok(((egraph, id_map, roots), stats))
}

/// Rebuilds `egraph` (which must be clean) in the layout a snapshot of it
/// restores to, without building the snapshot: the result is exactly
/// `from_serialized(&to_serialized(egraph, roots))`'s e-graph and roots,
/// made by the same `add` / `union` / `rebuild` calls in the same order, so
/// its classes, ids, iteration order and indexes are the restored ones.
///
/// The live front-end of the replay [`from_serialized`] runs: classes in
/// ascending canonical id, each node cloned with its children renumbered.
pub fn relayout<L: Language>(egraph: &EGraph<L>, roots: &[Id]) -> (EGraph<L>, Vec<Id>) {
    let class_ids = egraph.class_ids_sorted();
    let mut dense = vec![u32::MAX; class_ids.last().map_or(0, |id| id.index() + 1)];
    for (at, id) in class_ids.iter().enumerate() {
        dense[id.index()] = at as u32;
    }
    let mut flat = Flat::new(class_ids.len(), egraph.total_nodes());
    let mut nodes: Vec<&L> = Vec::with_capacity(egraph.total_nodes());
    for (at, &id) in class_ids.iter().enumerate() {
        for node in &egraph.class(id).nodes {
            let children = node.children().iter();
            flat.push(at, children.map(|&c| dense[egraph.find(c).index()]));
            nodes.push(node);
        }
    }
    flat.roots = roots
        .iter()
        .map(|&r| dense[egraph.find(r).index()])
        .collect();
    let replayed = replay(&flat, |node, children| {
        let mut node = nodes[node].clone();
        node.children_mut().copy_from_slice(children);
        Ok::<L, std::convert::Infallible>(node)
    });
    let (relaid, ids, _) = match replayed {
        Ok(replayed) => replayed,
        Err(never) => match never {},
    };
    let roots = flat.roots(&relaid, &ids);
    (relaid, roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecExpr, SymbolLang};

    fn sample_egraph() -> (EGraph<SymbolLang>, Id) {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let e1: RecExpr<SymbolLang> = "(* x (+ y z))".parse().unwrap();
        let e2: RecExpr<SymbolLang> = "(+ (* x y) (* x z))".parse().unwrap();
        let r1 = eg.add_expr(&e1);
        let r2 = eg.add_expr(&e2);
        eg.union(r1, r2);
        eg.rebuild();
        (eg, r1)
    }

    #[test]
    fn snapshot_counts_match() {
        let (eg, root) = sample_egraph();
        let ser = to_serialized(&eg, &[root]);
        assert_eq!(ser.num_classes(), eg.num_classes());
        assert_eq!(ser.num_nodes(), eg.total_nodes());
        assert_eq!(ser.roots.len(), 1);
    }

    #[test]
    fn parents_are_populated() {
        let (eg, root) = sample_egraph();
        let ser = to_serialized(&eg, &[root]);
        // The class of `x` must have parents (it feeds two products).
        let x_class = ser
            .classes
            .values()
            .find(|c| c.nodes.iter().any(|n| n.op == "x"))
            .unwrap();
        assert!(!x_class.parents.is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let (eg, root) = sample_egraph();
        let ser = to_serialized(&eg, &[root]);
        let json = ser.to_json();
        let back = SerializedEGraph::from_json(&json).unwrap();
        assert_eq!(ser, back);
        assert!(SerializedEGraph::from_json("{not json").is_err());
    }

    #[test]
    fn reconstruction_preserves_equivalences() {
        let (eg, root) = sample_egraph();
        let ser = to_serialized(&eg, &[root]);
        let (eg2, _map, roots2) = from_serialized::<SymbolLang>(&ser).unwrap();
        assert_eq!(eg2.num_classes(), eg.num_classes());
        assert_eq!(eg2.total_nodes(), eg.total_nodes());
        // Both forms of the distributed expression must be in the root class.
        let f1: RecExpr<SymbolLang> = "(* x (+ y z))".parse().unwrap();
        let f2: RecExpr<SymbolLang> = "(+ (* x y) (* x z))".parse().unwrap();
        let mut eg2 = eg2;
        let a = eg2.add_expr(&f1);
        let b = eg2.add_expr(&f2);
        assert_eq!(eg2.find(a), eg2.find(roots2[0]));
        assert_eq!(eg2.find(b), eg2.find(roots2[0]));
    }

    #[test]
    fn missing_root_is_an_error() {
        let (eg, root) = sample_egraph();
        let mut ser = to_serialized(&eg, &[root]);
        ser.roots = vec![9999];
        assert!(from_serialized::<SymbolLang>(&ser).is_err());
        assert_eq!(ser.validate(), Err(ValidationError::MissingRoot(9999)));
    }

    /// Regression for the quadratic worklist reconstruction: on an n-deep
    /// chain the old algorithm re-attempted every remaining node on every
    /// pass (O(n^2) adds); the Kahn-style scheduler materializes each node
    /// exactly once.
    #[test]
    fn deep_chain_reconstruction_is_linear() {
        let depth = 3000usize;
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let mut id = eg.add(SymbolLang::leaf("x"));
        for _ in 0..depth {
            id = eg.add(SymbolLang::new("f", vec![id]));
        }
        eg.rebuild();
        let ser = to_serialized(&eg, &[id]);
        assert_eq!(ser.num_nodes(), depth + 1);

        let start = std::time::Instant::now();
        let ((eg2, _map, roots), stats) = from_serialized_with_stats::<SymbolLang>(&ser).unwrap();
        let elapsed = start.elapsed();

        // Exactly one materialization attempt per serialized node — the
        // pre-fix code performed ~depth^2/2 attempts on this shape.
        assert_eq!(stats.node_attempts, ser.num_nodes());
        assert_eq!(eg2.num_classes(), eg.num_classes());
        assert_eq!(roots.len(), 1);
        // Generous wall-clock ceiling: linear reconstruction of 3001 nodes
        // is milliseconds; the quadratic version took seconds.
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "reconstruction took {elapsed:?} — quadratic regression?"
        );
    }

    #[test]
    fn validate_rejects_key_id_mismatch() {
        let (eg, root) = sample_egraph();
        let mut ser = to_serialized(&eg, &[root]);
        let (&key, _) = ser.classes.iter().next().unwrap();
        ser.classes.get_mut(&key).unwrap().id = key + 1000;
        assert_eq!(
            ser.validate(),
            Err(ValidationError::KeyMismatch {
                key,
                id: key + 1000
            })
        );
        assert!(from_serialized::<SymbolLang>(&ser).is_err());
        // The mismatch must also be caught on the JSON path.
        assert!(SerializedEGraph::from_json(&ser.to_json()).is_err());
    }

    #[test]
    fn validate_rejects_empty_class() {
        let (eg, root) = sample_egraph();
        let mut ser = to_serialized(&eg, &[root]);
        let (&key, _) = ser.classes.iter().next().unwrap();
        ser.classes.get_mut(&key).unwrap().nodes.clear();
        assert_eq!(ser.validate(), Err(ValidationError::EmptyClass(key)));
        assert!(from_serialized::<SymbolLang>(&ser).is_err());
    }

    #[test]
    fn validate_rejects_dangling_child_and_parent() {
        let (eg, root) = sample_egraph();
        let ser = to_serialized(&eg, &[root]);

        let mut bad_child = ser.clone();
        let class = bad_child
            .classes
            .values_mut()
            .find(|c| c.nodes.iter().any(|n| !n.children.is_empty()))
            .unwrap();
        let cid = class.id;
        class
            .nodes
            .iter_mut()
            .find(|n| !n.children.is_empty())
            .unwrap()
            .children[0] = 4242;
        assert_eq!(
            bad_child.validate(),
            Err(ValidationError::MissingChild {
                class: cid,
                child: 4242
            })
        );
        assert!(from_serialized::<SymbolLang>(&bad_child).is_err());

        let mut bad_parent = ser.clone();
        let (&key, _) = bad_parent.classes.iter().next().unwrap();
        bad_parent.classes.get_mut(&key).unwrap().parents.push(4242);
        assert_eq!(
            bad_parent.validate(),
            Err(ValidationError::MissingParent {
                class: key,
                parent: 4242
            })
        );
    }

    #[test]
    fn from_json_rejects_duplicate_class_keys() {
        let (eg, root) = sample_egraph();
        let ser = to_serialized(&eg, &[root]);
        let json = ser.to_json();
        // Duplicate the first class entry inside the "classes" object. The
        // snapshot text stays syntactically valid JSON; a plain map parse
        // would silently drop one copy.
        let (&key, class) = ser.classes.iter().next().unwrap();
        let entry = serde_json::to_string(class).unwrap();
        let needle = format!("\"{key}\":");
        let pos = json.find(&needle).unwrap();
        let mut dup = json.clone();
        dup.insert_str(pos, &format!("\"{key}\": {entry}, "));
        let err = SerializedEGraph::from_json(&dup).unwrap_err();
        assert!(err.0.contains("duplicate class key"), "got: {}", err.0);
        // The original parses fine.
        assert!(SerializedEGraph::from_json(&json).is_ok());
    }
}
