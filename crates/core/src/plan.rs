//! The 1-to-1 correspondence between safe dissociations and query plans
//! (Theorem 18), and unique safe-plan construction (Lemma 3).
//!
//! Plans are nodes of a [`PlanStore`] (the algebra of Definition 4 is
//! [`crate::store::NodeKind`]). The dissociation a plan realizes is
//! implicit in its structure and is recovered with [`delta_of_plan_id`]
//! (the map `P ↦ Δ_P`); conversely [`plan_id_for_dissociation`] builds the
//! unique safe plan of `q^Δ` and strips it (the map `Δ ↦ P_Δ`). Property
//! tests verify these maps are mutually inverse, as Theorem 18(1) states.
//!
//! The extensional score semantics (`score`, Definition 4) is implemented in
//! `lapush-engine`; by Corollary 19 the score of *any* plan upper-bounds the
//! true probability.

use crate::dissociation::Dissociation;
use crate::store::{NodeKind, PlanId, PlanStore};
use lapush_query::{components, separator_vars, QueryShape, VarSet};

/// The map `P ↦ Δ_P` (Section 3.2): recover the dissociation a plan
/// realizes. For each join, every input is dissociated on the join variables
/// it is missing (`JVar − HVar(P_j)`), excluding head variables of the query
/// (those are per-answer constants) and variables the atom already contains.
/// The per-join contributions are idempotent unions, so visiting a shared
/// node once per parent is sound.
///
/// Returns `None` for plans containing `min` nodes (they realize a *set* of
/// dissociations, one per branch).
pub fn delta_of_plan_id(store: &PlanStore, id: PlanId, shape: &QueryShape) -> Option<Dissociation> {
    let mut delta = Dissociation::bottom(shape.num_atoms());
    fn walk(store: &PlanStore, id: PlanId, shape: &QueryShape, delta: &mut Dissociation) -> bool {
        let node = store.node(id);
        match &node.kind {
            NodeKind::Scan { .. } => true,
            NodeKind::Project { input } => walk(store, *input, shape, delta),
            NodeKind::Join { inputs } => {
                let jvar = inputs
                    .iter()
                    .fold(VarSet::EMPTY, |h, &c| h.union(store.node(c).head));
                for &c in inputs.iter() {
                    let child = store.node(c);
                    let missing = jvar.minus(child.head).minus(shape.head);
                    if !missing.is_empty() {
                        let mut m = child.atoms_mask;
                        while m != 0 {
                            let atom = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let add = missing.minus(shape.atom_vars[atom]);
                            delta.0[atom] = delta.0[atom].union(add);
                        }
                    }
                }
                inputs.iter().all(|&c| walk(store, c, shape, delta))
            }
            NodeKind::Min { .. } => false,
        }
    }
    walk(store, id, shape, &mut delta).then_some(delta)
}

/// The map `Δ ↦ P_Δ` (Section 3.2): if `q^Δ` is hierarchical, build its
/// unique safe plan (per the recursive characterization of Lemma 3) and
/// strip the dissociated variables, yielding an executable plan over the
/// original relations, interned into `store`. Returns `None` when the
/// dissociation is unsafe; with `Δ = Δ⊥` this is the query's own safe plan,
/// if it has one.
pub fn plan_id_for_dissociation(
    store: &mut PlanStore,
    orig: &QueryShape,
    delta: &Dissociation,
) -> Option<PlanId> {
    let dshape = delta.apply(orig);
    let atoms = dshape.all_atoms();
    safe_plan_rec(store, &dshape, orig, &atoms, dshape.head)
}

/// Lemma 3 recursion over the *dissociated* shape, interning nodes whose
/// heads are stripped back to original variables.
pub(crate) fn safe_plan_rec(
    store: &mut PlanStore,
    dshape: &QueryShape,
    orig: &QueryShape,
    atoms: &[usize],
    head: VarSet,
) -> Option<PlanId> {
    if atoms.len() == 1 {
        let a = atoms[0];
        // Any remaining existential variable of a singleton component is a
        // separator of itself; the stripped result is the same projection.
        let scan = store.scan(orig, a);
        let keep = head.intersect(orig.atom_vars[a]);
        return Some(store.project(keep, scan));
    }
    let comps = components(dshape, atoms, head);
    if comps.len() > 1 {
        let mut children = Vec::with_capacity(comps.len());
        for comp in &comps {
            let child_head = head.intersect(dshape.vars_of(comp));
            children.push(safe_plan_rec(store, dshape, orig, comp, child_head)?);
        }
        Some(store.join(children))
    } else {
        let sep = separator_vars(dshape, atoms, head);
        if sep.is_empty() {
            return None; // connected, ≥2 atoms, no separator: not hierarchical
        }
        let child = safe_plan_rec(store, dshape, orig, atoms, head.union(sep))?;
        let keep = head.intersect(store.node(child).head);
        Some(store.project(keep, child))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissociation::{all_dissociations, Dissociation};
    use lapush_query::{parse_query, Query};

    fn setup(text: &str) -> (Query, QueryShape) {
        let q = parse_query(text).unwrap();
        let s = QueryShape::of_query(&q);
        (q, s)
    }

    fn safe_plan_of(store: &mut PlanStore, s: &QueryShape) -> Option<PlanId> {
        plan_id_for_dissociation(store, s, &Dissociation::bottom(s.num_atoms()))
    }

    #[test]
    fn safe_plan_of_hierarchical_query() {
        // q1(z) :- R(z,x), S(x,y), K(x,y) has safe plan
        // π_z( R ⋈_x (π_x (S ⋈_{x,y} K)) )  (paper, Introduction).
        let (q, s) = setup("q(z) :- R(z, x), S(x, y), K(x, y)");
        let mut store = PlanStore::new();
        let p = safe_plan_of(&mut store, &s).expect("query is safe");
        let txt = store.render(p, &q);
        assert!(txt.contains("R(z,x)"), "got {txt}");
        assert!(txt.contains("π-[y] ⋈[S(x,y), K(x,y)]"), "got {txt}");
    }

    #[test]
    fn unsafe_query_has_no_safe_plan() {
        let (_, s) = setup("q :- R(x), S(x, y), T(y)");
        assert!(safe_plan_of(&mut PlanStore::new(), &s).is_none());
    }

    #[test]
    fn delta_of_example_23_plans() {
        // q :- R(x), S(x,y), T(y).
        let (q, s) = setup("q :- R(x), S(x, y), T(y)");
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let mut store = PlanStore::new();
        let [r, sc, t] = [0, 1, 2].map(|a| store.scan(&s, a));

        // P∆2 = π_{-x} ⋈[R(x), π_{-y} ⋈[S(x,y), T(y)]]: T gains x.
        let st = store.join(vec![sc, t]);
        let inner = store.project(VarSet::single(x), st);
        let top = store.join(vec![r, inner]);
        let p2 = store.project(VarSet::EMPTY, top);
        let d2 = delta_of_plan_id(&store, p2, &s).unwrap();
        assert_eq!(
            d2,
            Dissociation(vec![VarSet::EMPTY, VarSet::EMPTY, VarSet::single(x)])
        );

        // P∆1 = π_{-y} ⋈[π_{-x} ⋈[R(x), S(x,y)], T(y)]: R gains y.
        let rs = store.join(vec![r, sc]);
        let inner = store.project(VarSet::single(y), rs);
        let top = store.join(vec![inner, t]);
        let p1 = store.project(VarSet::EMPTY, top);
        let d1 = delta_of_plan_id(&store, p1, &s).unwrap();
        assert_eq!(
            d1,
            Dissociation(vec![VarSet::single(y), VarSet::EMPTY, VarSet::EMPTY])
        );
    }

    #[test]
    fn head_vars_never_dissociated() {
        // q2(z) :- R(z,x), S(x,y), T(y): plan P''_2 dissociates only R on y
        // even though S is "missing" head variable z at the inner join.
        let (q, s) = setup("q(z) :- R(z, x), S(x, y), T(y)");
        let y = q.var_by_name("y").unwrap();
        let z = q.var_by_name("z").unwrap();
        let mut store = PlanStore::new();
        let [r, sc, t] = [0, 1, 2].map(|a| store.scan(&s, a));
        let rs = store.join(vec![r, sc]);
        let inner = store.project(VarSet::from_iter([z, y]), rs);
        let top = store.join(vec![inner, t]);
        let p = store.project(VarSet::single(z), top);
        let d = delta_of_plan_id(&store, p, &s).unwrap();
        assert_eq!(
            d,
            Dissociation(vec![VarSet::single(y), VarSet::EMPTY, VarSet::EMPTY])
        );
    }

    #[test]
    fn maps_are_mutually_inverse_on_example_17() {
        // For every safe dissociation Δ of Example 17:
        // delta_of_plan_id(plan_id_for_dissociation(Δ)) == Δ.
        let (q, s) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut store = PlanStore::new();
        let mut safe_count = 0;
        for d in all_dissociations(&s, 10).unwrap() {
            let Some(p) = plan_id_for_dissociation(&mut store, &s, &d) else {
                assert!(!d.is_safe(&s));
                continue;
            };
            assert!(d.is_safe(&s));
            safe_count += 1;
            let d2 = delta_of_plan_id(&store, p, &s).unwrap();
            assert_eq!(d, d2, "plan {}", store.render(p, &q));
        }
        assert_eq!(safe_count, 5); // Fig. 1a: 5 safe dissociations
                                   // The single plan's `min` realizes two dissociations, not one.
        let sp = crate::opt::single_plan_id(
            &mut store,
            &q,
            &crate::schema::SchemaInfo::from_query(&q),
            crate::enumerate::EnumOptions::default(),
        );
        assert_eq!(delta_of_plan_id(&store, sp, &s), None);
    }

    #[test]
    fn top_dissociation_plan_joins_all_then_projects() {
        let (_, s) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let top = Dissociation::top(&s);
        let mut store = PlanStore::new();
        let p = plan_id_for_dissociation(&mut store, &s, &top).unwrap();
        // π_{-x,y} ⋈[R, S, T, U]: one projection over one 4-way join.
        match &store.node(p).kind {
            NodeKind::Project { input } => match &store.node(*input).kind {
                NodeKind::Join { inputs } => assert_eq!(inputs.len(), 4),
                other => panic!("expected join, got {other:?}"),
            },
            other => panic!("expected projection, got {other:?}"),
        }
        assert_eq!(store.node(p).head, VarSet::EMPTY);
    }

    #[test]
    fn join_flattens_and_orders() {
        let (_, s) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut store = PlanStore::new();
        let [r, sc, t] = [0, 1, 2].map(|a| store.scan(&s, a));
        let j1 = store.join(vec![t, r]);
        let j2 = store.join(vec![j1, sc]);
        match &store.node(j2).kind {
            NodeKind::Join { inputs } => assert_eq!(**inputs, [r, sc, t]),
            other => panic!("expected join, got {other:?}"),
        }
        assert_eq!(store.node(j2).atoms_mask, 0b111);
    }

    #[test]
    fn min_dedups_and_unwraps() {
        // Example 17's two minimal plans: `min` keeps each once, in id
        // order, and a `min` of one distinct plan is that plan.
        let (_, s) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let crate::PlanSet { mut store, roots } = crate::minimal_plan_set(&s);
        let [a, b] = roots[..] else {
            panic!("two minimal plans")
        };
        assert_eq!(store.min_of(vec![a, a]), a);
        let m = store.min_of(vec![b, a, b]);
        assert_eq!(store.node(m).kind.inputs(), [a, b]);
        assert_eq!(store.min_of(vec![a, b]), m);
    }

    #[test]
    fn noop_projection_elided() {
        // No plan of Example 17 projects onto its input's whole head.
        let (_, s) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut store = PlanStore::new();
        let roots = crate::enumerate::all_plan_ids(&mut store, &s);
        assert_eq!(roots.len(), 5);
        for id in store.reachable(&roots) {
            if let NodeKind::Project { input } = store.node(id).kind {
                assert_ne!(store.node(id).head, store.node(input).head);
            }
        }
        let scan = store.scan(&s, 0);
        assert_eq!(store.project(s.atom_vars[0], scan), scan);
    }

    #[test]
    fn plan_size_counts_nodes() {
        let (_, s) = setup("q :- R(x), S(x, y), T(y)");
        let mut store = PlanStore::new();
        let [r, sc, t] = [0, 1, 2].map(|a| store.scan(&s, a));
        let st = store.join(vec![sc, t]);
        let inner = store.project(s.atom_vars[0], st);
        let top = store.join(vec![r, inner]);
        let p = store.project(VarSet::EMPTY, top);
        // scan,scan,join,project,scan,join,project = 7
        assert_eq!(store.tree_sizes()[p.index()], 7);
    }
}
