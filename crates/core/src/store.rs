//! Hash-consed plan DAG: the one representation of a plan, behind plan
//! enumeration, execution and printing.
//!
//! Minimal plans of a query share almost all of their subplans — the 132
//! minimal plans of the 7-chain query are built from a few hundred distinct
//! subqueries, not 132 independent trees (Section 3.2; the journal version
//! makes the DAG view explicit). [`PlanStore`] interns every node exactly
//! once: structurally equal subplans receive the same dense [`PlanId`], so
//!
//! * enumeration memoizes each `(atoms_mask, head)` subquery once and
//!   reuses its plan ids across every cut that reaches it,
//! * sorting/deduplication compare `u32` ids instead of deep trees, and
//!   two plans interned into one store are equal iff their ids are,
//! * the engine's memo keyed by [`PlanId`] evaluates each distinct subplan
//!   once per evaluation — Optimization 2's view sharing falls out of the
//!   representation (equal subquery keys in a [`crate::opt::single_plan_id`]
//!   imply equal subplans, hence equal ids),
//! * interned plans are cheap to retain across calls, unblocking
//!   multi-query plan caching.

use crate::enumerate::EnumOptions;
use crate::schema::SchemaInfo;
use lapush_query::{Query, QueryShape, Term, VarFd, VarSet};
use lapush_storage::FxHashMap;

/// Dense handle of one interned plan node inside a [`PlanStore`].
///
/// Ids are assigned in first-intern order; children are always interned
/// before their parents, so `id_a < id_b` whenever `a` is a descendant of
/// `b` (the node vector is topologically sorted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(u32);

impl PlanId {
    /// The id as a dense index into [`PlanStore`] iteration order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Node payload: the plan algebra of Definition 4 plus the `min` operator
/// of Optimization 1. Children are [`PlanId`]s of the same store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Leaf: scan one atom of the query (by atom index).
    Scan {
        /// Atom index in the original query.
        atom: usize,
    },
    /// Probabilistic projection with duplicate elimination (`π^p`): group by
    /// the node's `head` and combine group scores with independent-OR.
    Project {
        /// Input plan.
        input: PlanId,
    },
    /// Natural k-ary join (`⋈^p`): scores multiply. Inputs are canonically
    /// ordered by their smallest atom index; ≥ 2 entries.
    Join {
        /// Input plans.
        inputs: Box<[PlanId]>,
    },
    /// The `min` operator of Optimization 1 (Algorithm 2): all inputs
    /// compute the same subquery; per output tuple, take the minimum score.
    /// ≥ 2 distinct entries, ascending by id.
    Min {
        /// Alternative plans for the same subquery.
        inputs: Box<[PlanId]>,
    },
}

impl NodeKind {
    /// The node's child plans (none for a scan), in operand order — the
    /// one place that knows where each variant keeps its inputs, so DAG
    /// walks need no per-variant `match`.
    pub fn inputs(&self) -> &[PlanId] {
        match self {
            NodeKind::Scan { .. } => &[],
            NodeKind::Project { input } => std::slice::from_ref(input),
            NodeKind::Join { inputs } | NodeKind::Min { inputs } => inputs,
        }
    }
}

/// One interned plan node: payload plus the subquery key
/// `(atoms_mask, head)` it computes. Plans are executable ("stripped")
/// plans over the original relations: `head` is expressed in original
/// query variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanNode {
    /// Node payload.
    pub kind: NodeKind,
    /// Output variables of this node (stripped level).
    pub head: VarSet,
    /// Bitmask of atom indices covered by this DAG node.
    pub atoms_mask: u64,
}

/// Arena interning plan nodes once each. See the [module docs](self).
#[derive(Debug, Default, Clone)]
pub struct PlanStore {
    nodes: Vec<PlanNode>,
    index: FxHashMap<PlanNode, PlanId>,
}

impl PlanStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    #[inline]
    pub fn node(&self, id: PlanId) -> &PlanNode {
        &self.nodes[id.0 as usize]
    }

    /// The node at dense index `idx` (see [`PlanId::index`]); index order
    /// is topological — children precede parents.
    #[inline]
    pub fn node_at(&self, idx: usize) -> &PlanNode {
        &self.nodes[idx]
    }

    /// Intern a fully-formed node, returning the existing id when an equal
    /// node is already present.
    pub fn intern(&mut self, node: PlanNode) -> PlanId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = PlanId(u32::try_from(self.nodes.len()).expect("plan store overflow"));
        self.index.insert(node.clone(), id);
        self.nodes.push(node);
        id
    }

    // -- smart constructors (normalizing) -----------------------------------

    /// Leaf scan of atom `atom`; its head is the atom's (original) variables.
    pub fn scan(&mut self, orig: &QueryShape, atom: usize) -> PlanId {
        self.intern(PlanNode {
            kind: NodeKind::Scan { atom },
            head: orig.atom_vars[atom],
            atoms_mask: 1u64 << atom,
        })
    }

    /// Probabilistic projection of `input` onto `keep`, which must be a
    /// subset of the input's head; a no-op projection returns `input`
    /// unchanged.
    pub fn project(&mut self, keep: VarSet, input: PlanId) -> PlanId {
        let node = self.node(input);
        debug_assert!(keep.is_subset(node.head), "projection widens head");
        if keep == node.head {
            return input;
        }
        let atoms_mask = node.atoms_mask;
        self.intern(PlanNode {
            kind: NodeKind::Project { input },
            head: keep,
            atoms_mask,
        })
    }

    /// Natural join, flattening nested joins and canonically ordering the
    /// children by their smallest atom index. A join of one input is the
    /// input itself.
    pub fn join(&mut self, inputs: Vec<PlanId>) -> PlanId {
        let mut flat: Vec<PlanId> = Vec::with_capacity(inputs.len());
        for id in inputs {
            match &self.node(id).kind {
                NodeKind::Join { inputs: nested } => flat.extend(nested.iter().copied()),
                _ => flat.push(id),
            }
        }
        if flat.len() == 1 {
            return flat[0];
        }
        flat.sort_by_key(|&id| self.node(id).atoms_mask.trailing_zeros());
        let mut head = VarSet::EMPTY;
        let mut atoms_mask = 0u64;
        for &id in &flat {
            head = head.union(self.node(id).head);
            atoms_mask |= self.node(id).atoms_mask;
        }
        self.intern(PlanNode {
            kind: NodeKind::Join {
                inputs: flat.into_boxed_slice(),
            },
            head,
            atoms_mask,
        })
    }

    /// `min` of alternative plans for the same subquery; inputs must agree
    /// on head and atom set. Duplicates (equal ids) are removed; a single
    /// distinct input is returned unchanged. Inputs are ordered by id —
    /// deterministic because construction order is.
    pub fn min_of(&mut self, inputs: Vec<PlanId>) -> PlanId {
        let mut distinct: Vec<PlanId> = Vec::with_capacity(inputs.len());
        for id in inputs {
            if !distinct.contains(&id) {
                distinct.push(id);
            }
        }
        if distinct.len() == 1 {
            return distinct[0];
        }
        distinct.sort_unstable();
        let head = self.node(distinct[0]).head;
        let atoms_mask = self.node(distinct[0]).atoms_mask;
        debug_assert!(
            distinct
                .iter()
                .all(|&id| self.node(id).head == head && self.node(id).atoms_mask == atoms_mask),
            "min over mismatched subqueries"
        );
        self.intern(PlanNode {
            kind: NodeKind::Min {
                inputs: distinct.into_boxed_slice(),
            },
            head,
            atoms_mask,
        })
    }

    /// Render `id` with variable/relation names from the query, in the
    /// paper's notation, e.g. `π-[x] ⋈[R(x), π-[y] ⋈[S(x,y), T(y)]]`. A
    /// shared node is printed once per occurrence.
    pub fn render(&self, id: PlanId, q: &Query) -> String {
        let node = self.node(id);
        let list = |inputs: &[PlanId], sep: &str| -> String {
            let parts: Vec<String> = inputs.iter().map(|&c| self.render(c, q)).collect();
            parts.join(sep)
        };
        match &node.kind {
            NodeKind::Scan { atom } => {
                let a = &q.atoms()[*atom];
                let vars: Vec<&str> = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => q.var_name(*v),
                        Term::Const(_) => "·",
                    })
                    .collect();
                format!("{}({})", a.relation, vars.join(","))
            }
            NodeKind::Project { input } => {
                let away = self.node(*input).head.minus(node.head);
                let away: Vec<&str> = away.iter().map(|v| q.var_name(v)).collect();
                format!("π-[{}] {}", away.join(","), self.render(*input, q))
            }
            NodeKind::Join { inputs } => format!("⋈[{}]", list(inputs, ", ")),
            NodeKind::Min { inputs } => format!("min[{}]", list(inputs, " | ")),
        }
    }

    // -- DAG statistics -----------------------------------------------------

    /// The distinct nodes reachable from `roots`, in ascending id order
    /// (children before parents). Children have smaller ids than their
    /// parents, so draining a max-heap pops every node only after all of
    /// its parents have pushed it: duplicates surface adjacent, and the
    /// walk costs `O(edges · log)` of the reachable subgraph — nothing
    /// proportional to the whole store, which matters when this is called
    /// once per root of a large plan set.
    pub fn reachable(&self, roots: &[PlanId]) -> Vec<PlanId> {
        let mut heap: std::collections::BinaryHeap<PlanId> = roots.iter().copied().collect();
        let mut out: Vec<PlanId> = Vec::new();
        while let Some(id) = heap.pop() {
            if out.last() != Some(&id) {
                out.push(id);
                heap.extend(self.node(id).kind.inputs());
            }
        }
        out.reverse();
        out
    }

    /// Per-node materialized-tree sizes — the node count of the tree that
    /// expands every shared node once per occurrence — computed bottom-up
    /// in one pass: the node vector is topologically ordered, children
    /// before parents. `u128` because shared nodes make trees exponentially
    /// larger than the DAG.
    pub fn tree_sizes(&self) -> Vec<u128> {
        let mut sizes: Vec<u128> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let below: u128 = node.kind.inputs().iter().map(|c| sizes[c.index()]).sum();
            sizes.push(1 + below);
        }
        sizes
    }
}

/// Cache key for multi-query plan caching: everything plan enumeration
/// depends on, and nothing it doesn't.
///
/// Enumeration (Algorithm 1, the single plan of Optimization 1, …) is a
/// function of the query's [`QueryShape`] — which variables appear in which
/// atoms, which atoms are probabilistic, which variables are in the head —
/// plus the schema FDs and the [`EnumOptions`] refinement toggles. Relation
/// *names*, constants, and comparison predicates never reach the
/// enumerators (plans reference atoms by index), so two syntactically
/// different queries with equal keys share their plan DAG verbatim: a
/// long-running service can enumerate once per shape and serve every
/// same-shaped query from the cached `(PlanStore, PlanId)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    shape: QueryShape,
    fds: Vec<VarFd>,
    use_deterministic: bool,
    use_fds: bool,
}

impl ShapeKey {
    /// Key of an explicit shape + FDs + enumeration options (the same
    /// triple [`crate::minimal_plan_set_with`] consumes).
    pub fn new(shape: &QueryShape, fds: &[VarFd], opts: EnumOptions) -> Self {
        ShapeKey {
            shape: shape.clone(),
            fds: fds.to_vec(),
            use_deterministic: opts.use_deterministic,
            use_fds: opts.use_fds,
        }
    }

    /// Key of a query under schema knowledge — mirrors how
    /// [`crate::minimal_plan_set_opts`] and [`crate::single_plan_id`]
    /// derive their shape and FDs from `(q, schema)`.
    pub fn of_query(q: &Query, schema: &SchemaInfo, opts: EnumOptions) -> Self {
        ShapeKey::new(&schema.shape(q), &schema.fds, opts)
    }

    /// The shape this key was built from.
    pub fn shape(&self) -> &QueryShape {
        &self.shape
    }
}

/// A set of plans over one shared [`PlanStore`]: what the memoized
/// enumerators produce and what the engine's id-based entry points consume.
#[derive(Debug, Clone)]
pub struct PlanSet {
    /// The arena holding every node of every plan in the set.
    pub store: PlanStore,
    /// Root ids, ascending (deduplicated: hash-consing makes id equality
    /// structural equality).
    pub roots: Vec<PlanId>,
}

impl PlanSet {
    /// Number of plans in the set.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Distinct interned nodes reachable from the roots — the DAG size.
    pub fn dag_node_count(&self) -> usize {
        self.store.reachable(&self.roots).len()
    }

    /// Total nodes if every root were materialized as an independent tree —
    /// the representation the DAG replaces.
    pub fn tree_node_count(&self) -> u128 {
        let sizes = self.store.tree_sizes();
        self.roots.iter().map(|&id| sizes[id.0 as usize]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_query::{parse_query, QueryShape};

    fn shape_of(text: &str) -> QueryShape {
        QueryShape::of_query(&parse_query(text).unwrap())
    }

    #[test]
    fn interning_is_structural() {
        let s = shape_of("q :- R(x), S(x, y), T(y)");
        let mut store = PlanStore::new();
        let a = store.scan(&s, 0);
        let b = store.scan(&s, 0);
        assert_eq!(a, b);
        let (s1, s2) = (store.scan(&s, 1), store.scan(&s, 2));
        let j1 = store.join(vec![s1, s2]);
        let j2 = store.join(vec![s2, s1]);
        assert_eq!(j1, j2, "join order is canonical");
        assert_eq!(store.len(), 4); // three scans + one join
    }

    #[test]
    fn noop_projection_elided() {
        let s = shape_of("q :- R(x), S(x)");
        let mut store = PlanStore::new();
        let scan = store.scan(&s, 0);
        let head = store.node(scan).head;
        assert_eq!(store.project(head, scan), scan);
    }

    #[test]
    fn min_dedups_and_unwraps() {
        let s = shape_of("q :- R(x), S(x)");
        let mut store = PlanStore::new();
        let r = store.scan(&s, 0);
        let s0 = store.scan(&s, 1);
        let j = store.join(vec![r, s0]);
        let p = store.project(VarSet::EMPTY, j);
        assert_eq!(store.min_of(vec![p, p]), p);
    }

    #[test]
    fn shape_keys_identify_plan_equivalent_queries() {
        let key = |text: &str, opts: EnumOptions| {
            let q = parse_query(text).unwrap();
            ShapeKey::of_query(&q, &SchemaInfo::from_query(&q), opts)
        };
        let base = key("q :- R(x), S(x, y), T(y)", EnumOptions::default());
        // Relation names, variable names, and constants are not part of
        // the key: these queries share the cached plan DAG.
        assert_eq!(
            base,
            key("q :- A(u), B(u, w), C(w)", EnumOptions::default())
        );
        // Head variables, atom structure, and enumeration options are.
        assert_ne!(
            base,
            key("q(x) :- R(x), S(x, y), T(y)", EnumOptions::default())
        );
        assert_ne!(base, key("q :- R(x), S(x, y), T(y)", EnumOptions::full()));
        assert_ne!(
            base,
            key("q :- R(x), S(x, y), T^d(y)", EnumOptions::default())
        );
    }

    #[test]
    fn tree_sizes_count_materialized_nodes() {
        let s = shape_of("q :- R(x), S(x, y), T(y)");
        let mut store = PlanStore::new();
        let inner = {
            let sc = store.scan(&s, 1);
            let tc = store.scan(&s, 2);
            let j = store.join(vec![sc, tc]);
            store.project(s.atom_vars[0], j)
        };
        let root = {
            let r = store.scan(&s, 0);
            let j = store.join(vec![r, inner]);
            store.project(VarSet::EMPTY, j)
        };
        // scan, scan, join, project, scan, join, project.
        let sizes = store.tree_sizes();
        assert_eq!(sizes[root.index()], 7);
        assert_eq!(store.reachable(&[root]).len(), store.len());
        // Example 17's two minimal plans share their four scans: 16 tree
        // nodes, 12 interned ones.
        let set = crate::minimal_plan_set(&shape_of("q :- R(x), S(x), T(x, y), U(y)"));
        assert_eq!(set.tree_node_count(), 16);
        assert_eq!(set.dag_node_count(), 12);
    }

    #[test]
    fn render_prints_the_paper_notation() {
        let q = parse_query("q :- R(x), S(x, 3), T(x, y), U(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let mut store = PlanStore::new();
        let [r, sc, t, u] = [0, 1, 2, 3].map(|a| store.scan(&s, a));
        let tu = store.join(vec![u, t]);
        let x = store.project(s.atom_vars[0], tu);
        let all = store.join(vec![x, sc, r]);
        let a = store.project(VarSet::EMPTY, all);
        assert_eq!(
            store.render(a, &q),
            "π-[x] ⋈[R(x), S(x,·), π-[y] ⋈[T(x,y), U(y)]]"
        );
        let rst = store.join(vec![r, sc, t]);
        let y = store.project(s.atom_vars[3], rst);
        let yu = store.join(vec![y, u]);
        let b = store.project(VarSet::EMPTY, yu);
        let m = store.min_of(vec![b, a]);
        assert_eq!(
            store.render(m, &q),
            format!("min[{} | {}]", store.render(a, &q), store.render(b, &q))
        );
    }

    #[test]
    fn inputs_list_each_variants_children() {
        let s = shape_of("q :- R(x), S(x, y), T(y)");
        let mut store = PlanStore::new();
        let (r, sc, t) = (store.scan(&s, 0), store.scan(&s, 1), store.scan(&s, 2));
        assert!(store.node(r).kind.inputs().is_empty());
        let j = store.join(vec![sc, t]);
        assert_eq!(store.node(j).kind.inputs(), &[sc, t]);
        let p = store.project(s.atom_vars[0], j);
        assert_eq!(store.node(p).kind.inputs(), &[j]);
        let rj = store.join(vec![r, p]);
        let a = store.project(VarSet::EMPTY, rj);
        let rs = store.join(vec![r, sc]);
        let rs = store.project(s.atom_vars[2], rs);
        let rst = store.join(vec![rs, t]);
        let b = store.project(VarSet::EMPTY, rst);
        let m = store.min_of(vec![b, a]);
        assert_eq!(store.node(m).kind.inputs(), &[a.min(b), a.max(b)]);
    }

    /// The stack walk `reachable` replaced (the old `reachable_count`).
    fn reachable_by_stack(store: &PlanStore, roots: &[PlanId]) -> usize {
        let mut seen = vec![false; store.len()];
        let mut stack: Vec<PlanId> = roots.to_vec();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut seen[id.index()], true) {
                count += 1;
                stack.extend(store.node(id).kind.inputs());
            }
        }
        count
    }

    #[test]
    fn reachable_is_ascending_deduplicated_and_complete() {
        // The 7-chain: 132 minimal plans sharing a DAG of a few hundred
        // nodes, most of them reachable from many roots.
        let chain7 = "q(x0, x7) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), R4(x3, x4), \
                      R5(x4, x5), R6(x5, x6), R7(x6, x7)";
        let set = crate::minimal_plan_set(&shape_of(chain7));
        assert_eq!(set.roots.len(), 132);
        let all = set.store.reachable(&set.roots);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        assert_eq!(all.len(), reachable_by_stack(&set.store, &set.roots));
        assert_eq!(all.len(), set.dag_node_count());
        for &root in &set.roots {
            let one = set.store.reachable(&[root]);
            assert!(one.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(one.last(), Some(&root), "a root is its own largest id");
            assert_eq!(one.len(), reachable_by_stack(&set.store, &[root]));
            assert!(one.iter().all(|id| all.binary_search(id).is_ok()));
        }
        // Duplicate roots change nothing.
        let twice = [set.roots[0], set.roots[0]];
        assert_eq!(
            set.store.reachable(&twice),
            set.store.reachable(&set.roots[..1])
        );
        assert!(set.store.reachable(&[]).is_empty());
    }
}
