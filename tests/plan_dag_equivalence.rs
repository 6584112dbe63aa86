//! Equivalence of the hash-consed DAG enumerator with the original
//! un-memoized Algorithm 1.
//!
//! The DAG enumerator memoizes subqueries and dedups by interned id; this
//! suite pins down that its plan sets are exactly the plan sets the
//! un-memoized recursion produces, across every [`EnumOptions`]
//! combination, for the paper's chain/star families and for random query
//! shapes. The `reference` module below is a faithful copy of the pre-DAG
//! recursion: no memo, every subplan rebuilt on every visit, dedup at the
//! top only. It builds through the store's normalizing constructors into
//! the store the enumerator filled, so the two plan sets are equal exactly
//! when their root ids are.

mod common;

use lapushdb::core::enumerate::chase_shape;
use lapushdb::core::{
    all_plan_ids, count_all_plans, count_minimal_plans, minimal_plan_set, minimal_plan_set_opts,
    minimal_plan_set_with, EnumOptions, SchemaInfo,
};
use lapushdb::prelude::*;
use lapushdb::query::VarFd;
use lapushdb::workload::random_query;
use proptest::prelude::*;

/// The seed (pre-DAG) enumeration: no memoization, dedup at the top only.
mod reference {
    use lapushdb::core::{PlanId, PlanStore};
    use lapushdb::query::{
        components, min_cuts, min_pcuts, separator_vars, QueryShape, VarFd, VarSet,
    };

    pub struct Ctx<'a> {
        pub enum_shape: &'a QueryShape,
        pub orig: &'a QueryShape,
        pub use_det: bool,
        pub store: &'a mut PlanStore,
    }

    impl Ctx<'_> {
        fn stripped_vars(&self, atoms: &[usize]) -> VarSet {
            atoms
                .iter()
                .fold(VarSet::EMPTY, |h, &a| h.union(self.orig.atom_vars[a]))
        }

        fn prob_count(&self, atoms: &[usize]) -> usize {
            atoms
                .iter()
                .filter(|&&a| self.enum_shape.probabilistic[a])
                .count()
        }

        fn join_all(&mut self, atoms: &[usize], head: VarSet) -> PlanId {
            let scans: Vec<PlanId> = atoms
                .iter()
                .map(|&a| self.store.scan(self.orig, a))
                .collect();
            let joined = self.store.join(scans);
            let keep = head.intersect(self.store.node(joined).head);
            self.store.project(keep, joined)
        }

        fn dr_stop_plan(&mut self, atoms: &[usize], head: VarSet) -> PlanId {
            let sub_vars = self.enum_shape.vars_of(atoms);
            let mut temp = self.enum_shape.clone();
            for &a in atoms {
                if !temp.probabilistic[a] {
                    temp.atom_vars[a] = temp.atom_vars[a].union(sub_vars);
                }
            }
            safe_plan_rec(self.store, &temp, self.orig, atoms, head)
                .expect("m_p ≤ 1 subquery is hierarchical after dissociating DRs")
        }

        fn project(&mut self, keep: VarSet, p: PlanId) -> PlanId {
            let keep = keep.intersect(self.store.node(p).head);
            self.store.project(keep, p)
        }
    }

    /// Lemma 3 recursion (unique safe plan of a shape).
    fn safe_plan_rec(
        store: &mut PlanStore,
        dshape: &QueryShape,
        orig: &QueryShape,
        atoms: &[usize],
        head: VarSet,
    ) -> Option<PlanId> {
        if atoms.len() == 1 {
            let a = atoms[0];
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
                return None;
            }
            let child = safe_plan_rec(store, dshape, orig, atoms, head.union(sep))?;
            let keep = head.intersect(store.node(child).head);
            Some(store.project(keep, child))
        }
    }

    /// Algorithm 1 without a memo (the seed `mp_rec`), interning into
    /// `store`; root ids ascending and deduplicated.
    pub fn minimal_plans_with(
        store: &mut PlanStore,
        shape: &QueryShape,
        fds: &[VarFd],
        use_det: bool,
        use_fds: bool,
    ) -> Vec<PlanId> {
        let enum_shape = if use_fds {
            super::chase_shape(shape, fds)
        } else {
            shape.clone()
        };
        let mut ctx = Ctx {
            enum_shape: &enum_shape,
            orig: shape,
            use_det,
            store,
        };
        let atoms = enum_shape.all_atoms();
        let mut plans = mp_rec(&mut ctx, &atoms, enum_shape.head);
        plans.sort_unstable();
        plans.dedup();
        plans
    }

    fn mp_rec(ctx: &mut Ctx<'_>, atoms: &[usize], head: VarSet) -> Vec<PlanId> {
        if atoms.len() == 1 {
            return vec![ctx.join_all(atoms, head)];
        }
        if ctx.use_det && ctx.prob_count(atoms) <= 1 {
            return vec![ctx.dr_stop_plan(atoms, head)];
        }
        let comps = components(ctx.enum_shape, atoms, head);
        if comps.len() > 1 {
            let per_comp: Vec<Vec<PlanId>> = comps
                .iter()
                .map(|comp| {
                    let child_head = head.intersect(ctx.enum_shape.vars_of(comp));
                    mp_rec(ctx, comp, child_head)
                })
                .collect();
            let mut out = Vec::new();
            cartesian_join(ctx.store, &per_comp, 0, &mut Vec::new(), &mut out);
            out
        } else {
            let cuts = if ctx.use_det {
                min_pcuts(ctx.enum_shape, atoms, head)
            } else {
                min_cuts(ctx.enum_shape, atoms, head)
            };
            let keep = head.intersect(ctx.stripped_vars(atoms));
            let mut out = Vec::new();
            for &y in &cuts {
                for p in mp_rec(ctx, atoms, head.union(y)) {
                    out.push(ctx.project(keep, p));
                }
            }
            out
        }
    }

    fn cartesian_join(
        store: &mut PlanStore,
        per_comp: &[Vec<PlanId>],
        i: usize,
        acc: &mut Vec<PlanId>,
        out: &mut Vec<PlanId>,
    ) {
        if i == per_comp.len() {
            out.push(store.join(acc.clone()));
            return;
        }
        for &p in &per_comp[i] {
            acc.push(p);
            cartesian_join(store, per_comp, i + 1, acc, out);
            acc.pop();
        }
    }

    /// All-plans enumeration without a memo (the seed version), interning
    /// into `store`; root ids ascending and deduplicated.
    pub fn all_plans(store: &mut PlanStore, shape: &QueryShape) -> Vec<PlanId> {
        let mut ctx = Ctx {
            enum_shape: shape,
            orig: shape,
            use_det: false,
            store,
        };
        let atoms = shape.all_atoms();
        let comps = components(shape, &atoms, shape.head);
        let mut plans = if comps.len() > 1 {
            let mut out = join_case(&mut ctx, &comps, shape.head);
            out.extend(connected_plans(&mut ctx, &atoms, shape.head));
            out
        } else {
            connected_plans(&mut ctx, &atoms, shape.head)
        };
        plans.sort_unstable();
        plans.dedup();
        plans
    }

    fn connected_plans(ctx: &mut Ctx<'_>, atoms: &[usize], head: VarSet) -> Vec<PlanId> {
        if atoms.len() == 1 {
            return vec![ctx.join_all(atoms, head)];
        }
        let evars = ctx.enum_shape.existential_of(atoms, head);
        let keep = head.intersect(ctx.stripped_vars(atoms));
        let mut out = Vec::new();
        for y in evars.subsets() {
            if y.is_empty() {
                continue;
            }
            let comps = components(ctx.enum_shape, atoms, head.union(y));
            if comps.len() < 2 {
                continue;
            }
            for jp in join_case(ctx, &comps, head.union(y)) {
                out.push(ctx.project(keep, jp));
            }
        }
        out
    }

    fn join_case(ctx: &mut Ctx<'_>, comps: &[Vec<usize>], head: VarSet) -> Vec<PlanId> {
        let mut out = Vec::new();
        for partition in partitions_min_blocks(comps.len(), 2) {
            let mut per_group: Vec<Vec<PlanId>> = Vec::with_capacity(partition.len());
            let mut dead = false;
            for block in &partition {
                let mut group_atoms: Vec<usize> = block
                    .iter()
                    .flat_map(|&ci| comps[ci].iter().copied())
                    .collect();
                group_atoms.sort_unstable();
                let group_head = head.intersect(ctx.enum_shape.vars_of(&group_atoms));
                let plans = connected_plans(ctx, &group_atoms, group_head);
                if plans.is_empty() {
                    dead = true;
                    break;
                }
                per_group.push(plans);
            }
            if dead {
                continue;
            }
            cartesian_join(ctx.store, &per_group, 0, &mut Vec::new(), &mut out);
        }
        out
    }

    fn partitions_min_blocks(n: usize, min_blocks: usize) -> Vec<Vec<Vec<usize>>> {
        let mut out = Vec::new();
        let mut current: Vec<Vec<usize>> = Vec::new();
        fn rec(i: usize, n: usize, current: &mut Vec<Vec<usize>>, out: &mut Vec<Vec<Vec<usize>>>) {
            if i == n {
                out.push(current.clone());
                return;
            }
            for b in 0..current.len() {
                current[b].push(i);
                rec(i + 1, n, current, out);
                current[b].pop();
            }
            current.push(vec![i]);
            rec(i + 1, n, current, out);
            current.pop();
        }
        rec(0, n, &mut current, &mut out);
        out.retain(|p| p.len() >= min_blocks);
        out
    }
}

const ALL_OPTS: [EnumOptions; 4] = [
    EnumOptions {
        use_deterministic: false,
        use_fds: false,
    },
    EnumOptions {
        use_deterministic: true,
        use_fds: false,
    },
    EnumOptions {
        use_deterministic: false,
        use_fds: true,
    },
    EnumOptions {
        use_deterministic: true,
        use_fds: true,
    },
];

/// The DAG enumerator's roots and the reference's, interned into one store.
fn both_enumerations(
    dag: PlanSet,
    shape: &QueryShape,
    fds: &[VarFd],
    opts: EnumOptions,
) -> (Vec<PlanId>, Vec<PlanId>) {
    let PlanSet { mut store, roots } = dag;
    let (det, chase) = (opts.use_deterministic, opts.use_fds);
    let reference = reference::minimal_plans_with(&mut store, shape, fds, det, chase);
    (roots, reference)
}

fn assert_enumerators_agree(shape: &QueryShape, fds: &[VarFd], label: &str) {
    for opts in ALL_OPTS {
        let dag = minimal_plan_set_with(shape, fds, opts);
        let (dag, tree) = both_enumerations(dag, shape, fds, opts);
        assert_eq!(dag, tree, "{label}, opts {opts:?}");
    }
}

/// Boolean k-chain query with head (x0, xk), as in Figure 2.
fn chain(k: usize) -> QueryShape {
    let mut b = QueryBuilder::new("q");
    let names: Vec<String> = (0..=k).map(|i| format!("x{i}")).collect();
    b = b.head(&[names[0].as_str(), names[k].as_str()]);
    for i in 1..=k {
        b = b.atom(
            &format!("R{i}"),
            &[names[i - 1].as_str(), names[i].as_str()],
        );
    }
    QueryShape::of_query(&b.build().unwrap())
}

/// k-star query, as in Figure 2.
fn star(k: usize) -> QueryShape {
    let mut b = QueryBuilder::new("q").head(&["a"]);
    let names: Vec<String> = (1..=k).map(|i| format!("x{i}")).collect();
    b = b.atom("R1", &["a", names[0].as_str()]);
    for i in 2..=k {
        b = b.atom(&format!("R{i}"), &[names[i - 1].as_str()]);
    }
    let all: Vec<&str> = names.iter().map(String::as_str).collect();
    b = b.atom("R0", &all);
    QueryShape::of_query(&b.build().unwrap())
}

#[test]
fn chains_match_reference_up_to_k7() {
    for k in 2..=7 {
        assert_enumerators_agree(&chain(k), &[], &format!("chain k={k}"));
    }
}

#[test]
fn stars_match_reference_up_to_k5() {
    for k in 1..=5 {
        assert_enumerators_agree(&star(k), &[], &format!("star k={k}"));
    }
}

#[test]
fn deterministic_marked_queries_match_reference() {
    for text in [
        "q :- R(x), S(x, y), T^d(y)",
        "q :- R^d(x), S(x, y), T^d(y)",
        "q :- R(x, y), S^d(y, z), T(z, u)",
        "q(z) :- R(z, x), S^d(x, y), T(y)",
    ] {
        let q = parse_query(text).unwrap();
        let schema = SchemaInfo::from_query(&q);
        let shape = schema.shape(&q);
        assert_enumerators_agree(&shape, &schema.fds, text);
        // The schema-level entry point agrees too.
        for opts in ALL_OPTS {
            let dag = minimal_plan_set_opts(&q, &schema, opts);
            let (dag, tree) = both_enumerations(dag, &shape, &schema.fds, opts);
            assert_eq!(dag, tree, "{text}, opts {opts:?}");
        }
    }
}

#[test]
fn fd_chase_matches_reference() {
    let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
    let shape = QueryShape::of_query(&q);
    let x = q.var_by_name("x").unwrap();
    let y = q.var_by_name("y").unwrap();
    let fds = vec![VarFd {
        lhs: lapushdb::query::VarSet::single(x),
        rhs: lapushdb::query::VarSet::single(y),
    }];
    assert_enumerators_agree(&shape, &fds, "RST with FD x→y");
    // Sanity: the chase actually changes the enumeration shape here.
    assert_ne!(chase_shape(&shape, &fds).atom_vars, shape.atom_vars);
}

#[test]
fn counts_consistent_with_enumeration_and_figure2() {
    // Figure 2 #MP: Catalan numbers for chains, k! for stars.
    let catalan = [1u128, 2, 5, 14, 42, 132];
    for (k, &expect) in (2..=7).zip(&catalan) {
        let s = chain(k);
        assert_eq!(count_minimal_plans(&s), expect, "chain k={k}");
        assert_eq!(
            minimal_plan_set(&s).len() as u128,
            expect,
            "chain k={k} enumeration"
        );
    }
    let factorial = [1u128, 2, 6, 24, 120];
    for (k, &expect) in (1..=5).zip(&factorial) {
        let s = star(k);
        assert_eq!(count_minimal_plans(&s), expect, "star k={k}");
        assert_eq!(
            minimal_plan_set(&s).len() as u128,
            expect,
            "star k={k} enumeration"
        );
    }
}

#[test]
fn dag_is_never_larger_than_the_forest() {
    for shape in [chain(4), chain(6), chain(7), star(3), star(5)] {
        let set = minimal_plan_set(&shape);
        assert!(
            set.roots.windows(2).all(|w| w[0] < w[1]),
            "roots are ascending and distinct"
        );
        assert!(
            (set.dag_node_count() as u128) <= set.tree_node_count(),
            "DAG larger than its own materialization?"
        );
    }
}

/// The 7-chain's 132 plans, evaluated two ways over relations large enough
/// to keep join key orders: the reference recursion's plans, one isolated
/// evaluation each (its own scans, nothing shared, so every join sorts for
/// itself), min-folded at the value level — against the DAG's
/// plan set through one shared memo, where a scan is sorted on a key once
/// and the order serves every plan and, at 4 threads, every fork. Same
/// keys, same score bits.
#[test]
fn chain7_plan_set_scores_match_plan_at_a_time_evaluation() {
    use lapushdb::engine::{eval_plan_id, propagation_score_ids, ExecOptions};
    use lapushdb::workload::{chain_db, chain_query, find_chain_domain};
    let q = chain_query(7);
    let shape = QueryShape::of_query(&q);
    let n = 600;
    let db = chain_db(7, n, find_chain_domain(7, n, 35.0), 1.0, 20150901).expect("db");
    let mut store = PlanStore::new();
    let plans = reference::minimal_plans_with(&mut store, &shape, &[], false, false);
    assert_eq!(plans.len(), 132);
    let eval = |&p: &PlanId| eval_plan_id(&db, &q, &store, p, ExecOptions::default());
    let want = common::oracle::min_over(plans.iter().map(|p| eval(p).expect("eval")));
    assert!(!want.is_empty());

    let set = minimal_plan_set(&shape);
    for threads in [1, 4] {
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        let got = propagation_score_ids(&db, &q, &set.store, &set.roots, opts).expect("eval");
        assert_eq!(got.len(), want.len(), "threads={threads}");
        for (key, &score) in &want.rows {
            assert_eq!(
                got.score_of(key).to_bits(),
                score.to_bits(),
                "threads={threads}: {key:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes: the DAG enumerator's plan set equals the
    /// un-memoized recursion's, under every options combination.
    #[test]
    fn random_shapes_match_reference(seed in 0u64..5000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let shape = QueryShape::of_query(&q);
        for opts in ALL_OPTS {
            let dag = minimal_plan_set_with(&shape, &[], opts);
            let (dag, tree) = both_enumerations(dag, &shape, &[], opts);
            prop_assert_eq!(&dag, &tree, "seed {} opts {:?}", seed, opts);
        }
    }

    /// Random shapes: all-plans enumeration (= all safe dissociations)
    /// agrees with the un-memoized version, and the count function with
    /// both.
    #[test]
    fn random_shapes_all_plans_match_reference(seed in 0u64..5000, atoms in 2usize..4) {
        let q = random_query(seed, atoms, 4);
        let shape = QueryShape::of_query(&q);
        let mut store = PlanStore::new();
        let dag = all_plan_ids(&mut store, &shape);
        let tree = reference::all_plans(&mut store, &shape);
        prop_assert_eq!(&dag, &tree, "seed {}", seed);
        prop_assert_eq!(dag.len() as u128, count_all_plans(&shape), "seed {}", seed);
    }
}
