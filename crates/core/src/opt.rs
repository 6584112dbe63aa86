//! Multi-query optimizations (Section 4).
//!
//! * **Optimization 1** ([`single_plan_id`], Algorithm 2): instead of
//!   evaluating every minimal plan and taking the minimum of their final
//!   scores, push the `min` operator down into the leaves, producing one
//!   single plan whose shared structure is evaluated once.
//! * **Optimization 2** ([`shared_subqueries_in`], Algorithm 3): subplans of
//!   the single plan are identified by their *subquery key* (atom set +
//!   head variables); keys occurring more than once are materialized as
//!   views by the engine and evaluated only once. Because plan construction
//!   is a deterministic function of the subquery, equal keys imply equal
//!   subplans.
//! * **Optimization 3** (deterministic semi-join reduction) is data-level
//!   and lives in `lapush-engine`.

use crate::enumerate::{chase_shape, mask_of, EnumOptions};
use crate::schema::SchemaInfo;
use crate::store::{NodeKind, PlanId, PlanStore};
use lapush_query::{components, min_cuts, min_pcuts, Query, QueryShape, VarSet};
use lapush_storage::FxHashMap;

/// Identity of a subquery: (bitmask of atoms, head variables). Plan nodes
/// with equal keys compute the same result (for plans produced by
/// [`single_plan_id`]); the engine's view cache is keyed by this.
pub type SubqueryKey = (u64, VarSet);

/// Optimization 1 / Algorithm 2: the single combined plan computing the
/// propagation score `ρ(q)`, with `min` operators pushed down to the point
/// where minimal plans diverge, interned into `store` — the natural input
/// for the engine's evaluation, where the hash-consed ids make
/// Optimization 2's view sharing a plain node memo.
pub fn single_plan_id(
    store: &mut PlanStore,
    q: &Query,
    schema: &SchemaInfo,
    opts: EnumOptions,
) -> PlanId {
    let shape = schema.shape(q);
    let enum_shape = if opts.use_fds {
        chase_shape(&shape, &schema.fds)
    } else {
        shape.clone()
    };
    let atoms = enum_shape.all_atoms();
    let mut sp = SpCtx {
        enum_shape: &enum_shape,
        orig: &shape,
        use_det: opts.use_deterministic,
        store,
        memo: FxHashMap::default(),
    };
    sp.rec(&atoms, enum_shape.head)
}

/// Single-plan recursion state: like `enumerate::EnumCtx`, the result of a
/// subcall is a deterministic function of `(atoms_mask, head)`, so the
/// recursion is memoized on the subquery key — equal subqueries intern the
/// same node once instead of rebuilding (and re-cloning) whole subtrees.
struct SpCtx<'a> {
    enum_shape: &'a QueryShape,
    orig: &'a QueryShape,
    use_det: bool,
    store: &'a mut PlanStore,
    memo: FxHashMap<(u64, VarSet), PlanId>,
}

impl SpCtx<'_> {
    fn rec(&mut self, atoms: &[usize], head: VarSet) -> PlanId {
        let key = (mask_of(atoms), head);
        if let Some(&hit) = self.memo.get(&key) {
            return hit;
        }
        let prob_count = atoms
            .iter()
            .filter(|&&a| self.enum_shape.probabilistic[a])
            .count();
        let result = if atoms.len() == 1 {
            let scan = self.store.scan(self.orig, atoms[0]);
            let keep = head.intersect(self.store.node(scan).head);
            self.store.project(keep, scan)
        } else if self.use_det && prob_count <= 1 {
            // The m_p ≤ 1 stopping rule: dissociate deterministic atoms
            // fully and take the unique safe plan (see
            // `enumerate::EnumCtx::dr_stop_plan`).
            let sub_vars = self.enum_shape.vars_of(atoms);
            let mut temp = self.enum_shape.clone();
            for &a in atoms {
                if !temp.probabilistic[a] {
                    temp.atom_vars[a] = temp.atom_vars[a].union(sub_vars);
                }
            }
            crate::plan::safe_plan_rec(self.store, &temp, self.orig, atoms, head)
                .expect("m_p ≤ 1 subquery is hierarchical after dissociating DRs")
        } else {
            let comps = components(self.enum_shape, atoms, head);
            if comps.len() > 1 {
                let children: Vec<PlanId> = comps
                    .iter()
                    .map(|comp| {
                        let child_head = head.intersect(self.enum_shape.vars_of(comp));
                        self.rec(comp, child_head)
                    })
                    .collect();
                self.store.join(children)
            } else {
                let cuts = if self.use_det {
                    min_pcuts(self.enum_shape, atoms, head)
                } else {
                    min_cuts(self.enum_shape, atoms, head)
                };
                debug_assert!(!cuts.is_empty());
                let stripped: VarSet = atoms
                    .iter()
                    .fold(VarSet::EMPTY, |h, &a| h.union(self.orig.atom_vars[a]));
                let keep = head.intersect(stripped);
                let branches: Vec<PlanId> = cuts
                    .iter()
                    .map(|&y| {
                        let child = self.rec(atoms, head.union(y));
                        let child_head = self.store.node(child).head;
                        self.store.project(keep.intersect(child_head), child)
                    })
                    .collect();
                self.store.min_of(branches)
            }
        };
        self.memo.insert(key, result);
        result
    }
}

/// Optimization 2 / Algorithm 3 (analysis part): count how many times each
/// subquery key occurs as a non-leaf node of the plan rooted at `root`,
/// counting *tree occurrences* — a shared node once per path to it. Keys
/// with count ≥ 2 are the common subplans worth materializing as views;
/// the engine caches on exactly these keys. One reverse-topological pass:
/// a node's multiplicity is the sum of its parents' multiplicities.
pub fn shared_subqueries_in(store: &PlanStore, root: PlanId) -> Vec<(SubqueryKey, usize)> {
    let mut mult = vec![0usize; store.len()];
    mult[root.index()] = 1;
    let mut counts: FxHashMap<SubqueryKey, usize> = FxHashMap::default();
    for idx in (0..=root.index()).rev() {
        let m = mult[idx];
        if m == 0 {
            continue;
        }
        // Reconstruct the id from the dense index: ids are assigned in
        // insertion order, so index order is topological (children first).
        let node = store.node_at(idx);
        match &node.kind {
            NodeKind::Scan { .. } => continue,
            NodeKind::Project { input } => mult[input.index()] += m,
            NodeKind::Join { inputs } | NodeKind::Min { inputs } => {
                for c in inputs.iter() {
                    mult[c.index()] += m;
                }
            }
        }
        *counts.entry((node.atoms_mask, node.head)).or_insert(0) += m;
    }
    let mut out: Vec<(SubqueryKey, usize)> = counts.into_iter().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissociation::Dissociation;
    use crate::enumerate::minimal_plan_set;
    use lapush_query::parse_query;

    fn setup(text: &str) -> (Query, QueryShape) {
        let q = parse_query(text).unwrap();
        let s = QueryShape::of_query(&q);
        (q, s)
    }

    fn single_plan_of(store: &mut PlanStore, q: &Query, opts: EnumOptions) -> PlanId {
        single_plan_id(store, q, &SchemaInfo::from_query(q), opts)
    }

    fn has_min(store: &PlanStore, root: PlanId) -> bool {
        let is_min = |&id: &PlanId| matches!(store.node(id).kind, NodeKind::Min { .. });
        store.reachable(&[root]).iter().any(is_min)
    }

    #[test]
    fn safe_query_single_plan_has_no_min() {
        let (q, s) = setup("q(z) :- R(z, x), S(x, y), K(x, y)");
        let mut store = PlanStore::new();
        let sp = single_plan_of(&mut store, &q, EnumOptions::default());
        assert!(!has_min(&store, sp));
        let bottom = Dissociation::bottom(s.num_atoms());
        assert_eq!(
            crate::plan::plan_id_for_dissociation(&mut store, &s, &bottom),
            Some(sp)
        );
    }

    #[test]
    fn example_17_single_plan_is_min_of_two() {
        let (q, _) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut store = PlanStore::new();
        let sp = single_plan_of(&mut store, &q, EnumOptions::default());
        match &store.node(sp).kind {
            NodeKind::Min { inputs } => assert_eq!(inputs.len(), 2),
            other => panic!("expected min at root, got {other:?}"),
        }
    }

    #[test]
    fn single_plan_branch_count_matches_minimal_plans_leaves() {
        // Every minimal plan corresponds to one way of resolving the min
        // choices; for Example 29 the min-resolutions number 6.
        let (q, s) = setup("q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)");
        let mut store = PlanStore::new();
        let sp = single_plan_of(&mut store, &q, EnumOptions::default());
        assert_eq!(
            count_min_resolutions(&store, sp),
            minimal_plan_set(&s).len()
        );
    }

    fn count_min_resolutions(store: &PlanStore, id: PlanId) -> usize {
        let kind = &store.node(id).kind;
        let counts = kind
            .inputs()
            .iter()
            .map(|&c| count_min_resolutions(store, c));
        match kind {
            NodeKind::Min { .. } => counts.sum(),
            _ => counts.product(),
        }
    }

    #[test]
    fn example_29_has_shared_views() {
        // Fig. 4c: V1 = π ⋈[S, M] and V2 = π ⋈[R, M] are each used twice
        // (directly and inside V3).
        let (q, _) = setup("q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)");
        let mut store = PlanStore::new();
        let sp = single_plan_of(&mut store, &q, EnumOptions::default());
        let shared = shared_subqueries_in(&store, sp);
        let views = shared.iter().filter(|(_, c)| *c >= 2).count();
        assert!(views >= 2, "shared: {shared:?}");
    }

    #[test]
    fn deterministic_knowledge_shrinks_single_plan() {
        let (q, _) = setup("q :- R(x), S(x, y), T^d(y)");
        let mut store = PlanStore::new();
        let plain = single_plan_of(&mut store, &q, EnumOptions::default());
        let with_dr = single_plan_of(
            &mut store,
            &q,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        );
        assert!(has_min(&store, plain));
        assert!(!has_min(&store, with_dr));
        let sizes = store.tree_sizes();
        assert!(sizes[with_dr.index()] < sizes[plain.index()]);
    }

    #[test]
    fn shared_subqueries_counts_nodes_not_scans() {
        let (q, _) = setup("q :- R(x), S(x, y), T(y)");
        let mut store = PlanStore::new();
        let sp = single_plan_of(&mut store, &q, EnumOptions::default());
        for ((mask, _), _) in shared_subqueries_in(&store, sp) {
            assert!(mask.count_ones() >= 1);
        }
    }
}
