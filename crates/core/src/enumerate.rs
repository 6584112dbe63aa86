//! Algorithm 1 (`MP`, EnumerateMinimalPlans) and its schema-aware
//! refinements (Theorems 20, 24, 27), plus all-plans enumeration and plan
//! counting (Figure 2).
//!
//! Enumeration runs on the hash-consed plan DAG of [`crate::store`]: the
//! recursion is memoized on the subquery key `(atoms_mask, head)`, so each
//! subquery's plan set is derived once no matter how many cut sequences
//! reach it, and the per-subquery sort/dedup compares dense [`PlanId`]s
//! instead of deep trees. [`minimal_plan_set`] and friends return the
//! shared [`PlanStore`] with the root ids, ascending — enumeration order.

use crate::schema::SchemaInfo;
use crate::store::{PlanId, PlanSet, PlanStore};
use lapush_query::{
    components, min_cuts, min_pcuts, var_closure, Query, QueryShape, VarFd, VarSet,
};
use lapush_storage::FxHashMap;
use std::rc::Rc;

/// Toggles for the schema-knowledge refinements of Section 3.3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumOptions {
    /// Use deterministic-relation knowledge: `MinPCuts` instead of
    /// `MinCuts`, and the `m_p ≤ 1` stopping rule (Theorem 24).
    pub use_deterministic: bool,
    /// Use functional dependencies: chase the query with `Δ_Γ` before
    /// enumerating (Theorem 27).
    pub use_fds: bool,
}

impl EnumOptions {
    /// All schema knowledge enabled.
    pub fn full() -> Self {
        EnumOptions {
            use_deterministic: true,
            use_fds: true,
        }
    }
}

/// Internal context for the recursions: `enum_shape` drives connectivity /
/// cuts (it may be the FD-chased shape), `orig` provides the stripped heads
/// for executable plan nodes. Owns the [`PlanStore`] borrow and the
/// subquery memo tables — everything the recursions produce is a function
/// of `(atoms_mask, head)` given the fixed shapes, which is what makes the
/// memoization sound.
struct EnumCtx<'a> {
    enum_shape: &'a QueryShape,
    orig: &'a QueryShape,
    use_det: bool,
    store: &'a mut PlanStore,
    /// Algorithm 1 memo: minimal plans per subquery key.
    mp_memo: FxHashMap<(u64, VarSet), Rc<Vec<PlanId>>>,
    /// All-plans memo: connected (merged) plans per subquery key.
    conn_memo: FxHashMap<(u64, VarSet), Rc<Vec<PlanId>>>,
}

pub(crate) fn mask_of(atoms: &[usize]) -> u64 {
    atoms.iter().fold(0u64, |m, &a| m | (1 << a))
}

impl<'a> EnumCtx<'a> {
    fn new(
        enum_shape: &'a QueryShape,
        orig: &'a QueryShape,
        use_det: bool,
        store: &'a mut PlanStore,
    ) -> Self {
        EnumCtx {
            enum_shape,
            orig,
            use_det,
            store,
            mp_memo: FxHashMap::default(),
            conn_memo: FxHashMap::default(),
        }
    }

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

    /// The plan "join all atoms, project onto head" (the single-atom base
    /// case).
    fn join_all(&mut self, atoms: &[usize], head: VarSet) -> PlanId {
        let scans: Vec<PlanId> = atoms
            .iter()
            .map(|&a| self.store.scan(self.orig, a))
            .collect();
        let joined = self.store.join(scans);
        let keep = head.intersect(self.store.node(joined).head);
        self.store.project(keep, joined)
    }

    /// The `m_p ≤ 1` stopping rule of Theorem 24, generalized: dissociate
    /// every *deterministic* atom fully (sound by Lemma 22) and return the
    /// unique safe plan of the result — always hierarchical, since all
    /// deterministic atoms then contain every variable of the subquery.
    ///
    /// The paper states this rule as "join all relations, project the
    /// head", which coincides with our plan whenever the one probabilistic
    /// relation contains all existential variables (as in its examples);
    /// when it does not, the literal flat join would dissociate the
    /// probabilistic relation as well and lose exactness, so we use the
    /// safe-plan form.
    fn dr_stop_plan(&mut self, atoms: &[usize], head: VarSet) -> PlanId {
        let sub_vars = self.enum_shape.vars_of(atoms);
        let mut temp = self.enum_shape.clone();
        for &a in atoms {
            if !temp.probabilistic[a] {
                temp.atom_vars[a] = temp.atom_vars[a].union(sub_vars);
            }
        }
        crate::plan::safe_plan_rec(self.store, &temp, self.orig, atoms, head)
            .expect("m_p ≤ 1 subquery is hierarchical after dissociating DRs")
    }
}

/// The FD chase `Δ_Γ` (Proposition 26): dissociate every atom on
/// `x⁺ ∖ x`, restricted to existential variables.
pub fn chase_shape(shape: &QueryShape, fds: &[VarFd]) -> QueryShape {
    if fds.is_empty() {
        return shape.clone();
    }
    let atoms = shape.all_atoms();
    let evar = shape.existential_of(&atoms, shape.head);
    let delta: Vec<VarSet> = shape
        .atom_vars
        .iter()
        .map(|&av| var_closure(av, fds).minus(av).intersect(evar))
        .collect();
    shape.dissociate(&delta)
}

/// Algorithm 1 with no schema knowledge: all minimal plans of the query
/// shape, as a [`PlanSet`] over a fresh hash-consed store. If the query is
/// safe this is exactly one plan — its safe plan (conservativity,
/// Section 3.2).
///
/// ```
/// use lapush_core::minimal_plan_set;
/// use lapush_query::{parse_query, QueryShape};
///
/// // The 7-chain query of Figure 2 has 132 minimal plans (Catalan C₆)…
/// let q = parse_query(
///     "q(x0, x7) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), R4(x3, x4), \
///      R5(x4, x5), R6(x5, x6), R7(x6, x7)",
/// )
/// .unwrap();
/// let set = minimal_plan_set(&QueryShape::of_query(&q));
/// assert_eq!(set.len(), 132);
/// // …but they share almost all of their subplans: the interned DAG is a
/// // fraction of the forest of materialized trees it replaces (595 nodes
/// // vs. 2508 at the time of writing).
/// assert!((set.dag_node_count() as u128) * 4 < set.tree_node_count());
/// ```
pub fn minimal_plan_set(shape: &QueryShape) -> PlanSet {
    minimal_plan_set_with(shape, &[], EnumOptions::default())
}

/// [`minimal_plan_set`] with schema knowledge taken from `schema`.
pub fn minimal_plan_set_opts(q: &Query, schema: &SchemaInfo, opts: EnumOptions) -> PlanSet {
    let shape = schema.shape(q);
    minimal_plan_set_with(&shape, &schema.fds, opts)
}

/// [`minimal_plan_set`] over an explicit shape + FDs. The root ids are
/// ascending and deduplicated (id equality is structural equality).
pub fn minimal_plan_set_with(shape: &QueryShape, fds: &[VarFd], opts: EnumOptions) -> PlanSet {
    let enum_shape = if opts.use_fds {
        chase_shape(shape, fds)
    } else {
        shape.clone()
    };
    let atoms = enum_shape.all_atoms();
    let mut store = PlanStore::new();
    let mut ctx = EnumCtx::new(&enum_shape, shape, opts.use_deterministic, &mut store);
    let roots = ctx.mp_rec(&atoms, enum_shape.head).as_ref().clone();
    PlanSet { store, roots }
}

impl EnumCtx<'_> {
    /// The recursion of Algorithm 1, memoized on the subquery key: each
    /// `(atoms_mask, head)` subquery is solved once regardless of how many
    /// cut sequences reach it.
    fn mp_rec(&mut self, atoms: &[usize], head: VarSet) -> Rc<Vec<PlanId>> {
        let key = (mask_of(atoms), head);
        if let Some(hit) = self.mp_memo.get(&key) {
            return Rc::clone(hit);
        }
        let mut out: Vec<PlanId>;
        if atoms.len() == 1 {
            out = vec![self.join_all(atoms, head)];
        } else if self.use_det && self.prob_count(atoms) <= 1 {
            // Modification (2) of Theorem 24: ≤ 1 probabilistic relation.
            out = vec![self.dr_stop_plan(atoms, head)];
        } else {
            let comps = components(self.enum_shape, atoms, head);
            if comps.len() > 1 {
                // Lines 3–6: cartesian product of component plans, joined.
                let per_comp: Vec<Rc<Vec<PlanId>>> = comps
                    .iter()
                    .map(|comp| {
                        let child_head = head.intersect(self.enum_shape.vars_of(comp));
                        self.mp_rec(comp, child_head)
                    })
                    .collect();
                out = Vec::new();
                cartesian_join(self.store, &per_comp, 0, &mut Vec::new(), &mut out);
            } else {
                // Lines 8–10: one projection per minimal cut-set.
                let cuts = if self.use_det {
                    min_pcuts(self.enum_shape, atoms, head)
                } else {
                    min_cuts(self.enum_shape, atoms, head)
                };
                debug_assert!(!cuts.is_empty(), "connected multi-atom query has a cut");
                let keep = head.intersect(self.stripped_vars(atoms));
                out = Vec::new();
                for &y in &cuts {
                    let sub = self.mp_rec(atoms, head.union(y));
                    for &p in sub.iter() {
                        let child_head = self.store.node(p).head;
                        out.push(self.store.project(keep.intersect(child_head), p));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        let out = Rc::new(out);
        self.mp_memo.insert(key, Rc::clone(&out));
        out
    }
}

fn cartesian_join(
    store: &mut PlanStore,
    per_comp: &[Rc<Vec<PlanId>>],
    i: usize,
    acc: &mut Vec<PlanId>,
    out: &mut Vec<PlanId>,
) {
    if i == per_comp.len() {
        out.push(store.join(acc.clone()));
        return;
    }
    for &p in per_comp[i].iter() {
        acc.push(p);
        cartesian_join(store, per_comp, i + 1, acc, out);
        acc.pop();
    }
}

/// All query plans of the shape — equivalently (Theorem 18) all *safe
/// dissociations*.
///
/// A plan's top-most projection removes the full separator set `y` of the
/// dissociated query; every atom is (implicitly) dissociated to contain `y`,
/// after which the residual components may be *merged into groups* by
/// further dissociation — each group becomes one child of the top join.
/// Enumerating `(y, partition into ≥2 groups, recursive group plans)`
/// produces each safe dissociation exactly once. Verified against
/// brute-force lattice enumeration in tests.
///
/// Note: the counts produced here exceed the `#P` column of the paper's
/// Figure 2 for chain queries (e.g. 17 vs. 11 for the 4-chain): the paper's
/// A001003 values count only *contiguous* join groupings, whereas the set of
/// hierarchical dissociations per Definitions 10/13 also contains
/// non-contiguous merges and non-canonical projection placements. The
/// minimal-plan counts (`#MP`, the ones all experiments depend on) agree
/// exactly.
///
/// Interns into an existing store; root ids ascending and deduplicated.
pub fn all_plan_ids(store: &mut PlanStore, shape: &QueryShape) -> Vec<PlanId> {
    let atoms = shape.all_atoms();
    let head = shape.head;
    let mut ctx = EnumCtx::new(shape, shape, false, store);
    let comps = components(ctx.enum_shape, &atoms, head);
    let mut roots = if comps.len() > 1 {
        let mut out = ctx.join_case(&comps, head);
        // A dissociation may also merge *everything* into one connected
        // query whose plan is a top-level projection.
        out.extend(ctx.connected_plans(&atoms, head).iter().copied());
        out
    } else {
        ctx.connected_plans(&atoms, head).as_ref().clone()
    };
    roots.sort_unstable();
    roots.dedup();
    roots
}

impl EnumCtx<'_> {
    /// Plans of a subquery whose dissociated form is *connected*: a single
    /// atom, or a top projection `π_{-y}` over a join of component groups.
    /// Memoized on the subquery key — groups recur across partitions.
    fn connected_plans(&mut self, atoms: &[usize], head: VarSet) -> Rc<Vec<PlanId>> {
        let key = (mask_of(atoms), head);
        if let Some(hit) = self.conn_memo.get(&key) {
            return Rc::clone(hit);
        }
        let mut out: Vec<PlanId>;
        if atoms.len() == 1 {
            out = vec![self.join_all(atoms, head)];
        } else {
            let evars = self.enum_shape.existential_of(atoms, head);
            let keep = head.intersect(self.stripped_vars(atoms));
            out = Vec::new();
            for y in evars.subsets() {
                if y.is_empty() {
                    continue;
                }
                let comps = components(self.enum_shape, atoms, head.union(y));
                if comps.len() < 2 {
                    continue; // y is not a full separator set of any dissociation
                }
                for jp in self.join_case(&comps, head.union(y)) {
                    let child_head = self.store.node(jp).head;
                    out.push(self.store.project(keep.intersect(child_head), jp));
                }
            }
            out.sort_unstable();
            out.dedup();
        }
        let out = Rc::new(out);
        self.conn_memo.insert(key, Rc::clone(&out));
        out
    }

    /// Top-level-join plans over the given components: partition them into
    /// ≥2 groups, each of which must admit a connected (merged) plan.
    fn join_case(&mut self, comps: &[Vec<usize>], head: VarSet) -> Vec<PlanId> {
        let mut out = Vec::new();
        for partition in partitions_min_blocks(comps.len(), 2) {
            let mut per_group: Vec<Rc<Vec<PlanId>>> = Vec::with_capacity(partition.len());
            let mut dead = false;
            for block in &partition {
                let mut group_atoms: Vec<usize> = block
                    .iter()
                    .flat_map(|&ci| comps[ci].iter().copied())
                    .collect();
                group_atoms.sort_unstable();
                let group_head = head.intersect(self.enum_shape.vars_of(&group_atoms));
                let plans = self.connected_plans(&group_atoms, group_head);
                if plans.is_empty() {
                    dead = true; // group cannot be merged (no existential vars)
                    break;
                }
                per_group.push(plans);
            }
            if dead {
                continue;
            }
            cartesian_join(self.store, &per_group, 0, &mut Vec::new(), &mut out);
        }
        out
    }
}

/// All set partitions of `{0, …, n−1}` with at least `min_blocks` blocks.
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

/// Count minimal plans without materializing them (`#MP` column of
/// Figure 2). Memoized on `(atom mask, head)`.
pub fn count_minimal_plans(shape: &QueryShape) -> u128 {
    let atoms = shape.all_atoms();
    let mut memo = FxHashMap::default();
    count_minimal_rec(shape, &atoms, shape.head, &mut memo)
}

fn count_minimal_rec(
    shape: &QueryShape,
    atoms: &[usize],
    head: VarSet,
    memo: &mut FxHashMap<(u64, VarSet), u128>,
) -> u128 {
    let mask = mask_of(atoms);
    if let Some(&c) = memo.get(&(mask, head)) {
        return c;
    }
    let result = if atoms.len() == 1 {
        1
    } else {
        let comps = components(shape, atoms, head);
        if comps.len() > 1 {
            comps
                .iter()
                .map(|comp| {
                    let child_head = head.intersect(shape.vars_of(comp));
                    count_minimal_rec(shape, comp, child_head, memo)
                })
                .product()
        } else {
            min_cuts(shape, atoms, head)
                .iter()
                .map(|&y| count_minimal_rec(shape, atoms, head.union(y), memo))
                .sum()
        }
    };
    memo.insert((mask, head), result);
    result
}

/// Count all plans (= all safe dissociations per Definitions 10/13;
/// see the note on [`all_plan_ids`] about the paper's Figure 2 `#P` column).
pub fn count_all_plans(shape: &QueryShape) -> u128 {
    let atoms = shape.all_atoms();
    let mut memo = FxHashMap::default();
    let comps = components(shape, &atoms, shape.head);
    if comps.len() > 1 {
        count_join_case(shape, &comps, shape.head, &mut memo)
            + count_connected(shape, &atoms, shape.head, &mut memo)
    } else {
        count_connected(shape, &atoms, shape.head, &mut memo)
    }
}

fn count_connected(
    shape: &QueryShape,
    atoms: &[usize],
    head: VarSet,
    memo: &mut FxHashMap<(u64, VarSet), u128>,
) -> u128 {
    if atoms.len() == 1 {
        return 1;
    }
    let mask = mask_of(atoms);
    if let Some(&c) = memo.get(&(mask, head)) {
        return c;
    }
    let evars = shape.existential_of(atoms, head);
    let mut total: u128 = 0;
    for y in evars.subsets() {
        if y.is_empty() {
            continue;
        }
        let comps = components(shape, atoms, head.union(y));
        if comps.len() < 2 {
            continue;
        }
        total += count_join_case(shape, &comps, head.union(y), memo);
    }
    memo.insert((mask, head), total);
    total
}

fn count_join_case(
    shape: &QueryShape,
    comps: &[Vec<usize>],
    head: VarSet,
    memo: &mut FxHashMap<(u64, VarSet), u128>,
) -> u128 {
    let mut total: u128 = 0;
    for partition in partitions_min_blocks(comps.len(), 2) {
        let mut product: u128 = 1;
        for block in &partition {
            let mut group_atoms: Vec<usize> = block
                .iter()
                .flat_map(|&ci| comps[ci].iter().copied())
                .collect();
            group_atoms.sort_unstable();
            let group_head = head.intersect(shape.vars_of(&group_atoms));
            product *= count_connected(shape, &group_atoms, group_head, memo);
            if product == 0 {
                break;
            }
        }
        total += product;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissociation::{naive_minimal_safe_dissociations, Dissociation};
    use crate::plan::{delta_of_plan_id, plan_id_for_dissociation};
    use lapush_query::{parse_query, QueryBuilder};

    /// Every plan of the shape (= every safe dissociation), in one store.
    fn all_plan_set(shape: &QueryShape) -> PlanSet {
        let mut store = PlanStore::new();
        let roots = all_plan_ids(&mut store, shape);
        PlanSet { store, roots }
    }

    /// The dissociation of every root (none contains a `min`).
    fn deltas(set: &PlanSet, shape: &QueryShape) -> Vec<Dissociation> {
        let delta = |&p: &PlanId| delta_of_plan_id(&set.store, p, shape).unwrap();
        set.roots.iter().map(delta).collect()
    }

    fn shape_of(text: &str) -> QueryShape {
        QueryShape::of_query(&parse_query(text).unwrap())
    }

    /// Boolean k-chain query: q :- R1(x0,x1), …, Rk(x_{k-1},x_k).
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

    /// k-star query: q :- R1(a,x1), R2(x2), …, Rk(xk), R0(x1,…,xk),
    /// with `a` a head variable standing in for the constant.
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
    fn safe_query_yields_single_plan() {
        // Conservativity: hierarchical query → exactly one (safe) plan.
        let s = shape_of("q(z) :- R(z, x), S(x, y), K(x, y)");
        let PlanSet { mut store, roots } = minimal_plan_set(&s);
        assert_eq!(roots.len(), 1);
        let bottom = Dissociation::bottom(s.num_atoms());
        assert_eq!(
            plan_id_for_dissociation(&mut store, &s, &bottom),
            Some(roots[0])
        );
    }

    #[test]
    fn example_17_two_minimal_plans() {
        let s = shape_of("q :- R(x), S(x), T(x, y), U(y)");
        assert_eq!(minimal_plan_set(&s).len(), 2);
        assert_eq!(all_plan_set(&s).len(), 5);
    }

    #[test]
    fn minimal_plans_match_naive_lattice_algorithm() {
        for text in [
            "q :- R(x), S(x), T(x, y), U(y)",
            "q :- R(x), S(x, y), T(y)",
            "q(z) :- R(z, x), S(x, y), T(y)",
            "q :- R(x, y), S(y, z), T(z, u)",
            "q :- A(x), B(x, y), C(y, z), D(z)",
            "q :- R(x, y), S(y), T(y, z), U(x)",
        ] {
            let s = shape_of(text);
            let mut from_alg = deltas(&minimal_plan_set(&s), &s);
            from_alg.sort();
            let mut naive = naive_minimal_safe_dissociations(&s, 20).unwrap();
            naive.sort();
            assert_eq!(from_alg, naive, "query {text}");
        }
    }

    #[test]
    fn all_plans_are_exactly_safe_dissociations() {
        for text in [
            "q :- R(x), S(x), T(x, y), U(y)",
            "q :- R(x), S(x, y), T(y)",
            "q(z) :- R(z, x), S(x, y), T(y)",
        ] {
            let s = shape_of(text);
            let mut plans = all_plan_set(&s);
            // Every plan's dissociation is safe and maps back to the plan.
            for (d, p) in deltas(&plans, &s).into_iter().zip(plans.roots.clone()) {
                assert!(d.is_safe(&s), "query {text}: {d:?}");
                assert_eq!(plan_id_for_dissociation(&mut plans.store, &s, &d), Some(p));
            }
            // Count matches the lattice.
            let safe_count = crate::dissociation::all_dissociations(&s, 20)
                .unwrap()
                .into_iter()
                .filter(|d| d.is_safe(&s))
                .count();
            assert_eq!(plans.len(), safe_count, "query {text}");
        }
    }

    #[test]
    fn figure2_chain_minimal_counts_match_paper() {
        // Figure 2, k-chain, #MP column (Catalan numbers A000108):
        // k:      2  3  4   5   6    7    8
        // #MP:    1  2  5  14  42  132  429
        let mp: Vec<u128> = (2..=8).map(|k| count_minimal_plans(&chain(k))).collect();
        assert_eq!(mp, vec![1, 2, 5, 14, 42, 132, 429]);
    }

    #[test]
    fn figure2_star_minimal_counts_match_paper() {
        // Figure 2, k-star, #MP column (k!).
        let mp: Vec<u128> = (1..=6).map(|k| count_minimal_plans(&star(k))).collect();
        assert_eq!(mp, vec![1, 2, 6, 24, 120, 720]);
    }

    #[test]
    fn chain_all_plan_counts_regression() {
        // Exact counts of safe dissociations per Definitions 10/13,
        // cross-checked against brute-force lattice enumeration below for
        // small k. NOTE: the paper's Figure 2 lists A001003
        // (1,3,11,45,197,903,4279), which counts only contiguous join
        // groupings and undercounts the full set of hierarchical
        // dissociations; see docs/REPRODUCTION.md.
        let ap: Vec<u128> = (2..=8).map(|k| count_all_plans(&chain(k))).collect();
        assert_eq!(ap, vec![1, 3, 17, 150, 1872, 31252, 672230]);
    }

    #[test]
    fn star_all_plan_counts_regression() {
        // Paper's Figure 2 lists A000670 (1,3,13,75,541,4683); same note as
        // for chains.
        let ap: Vec<u128> = (1..=6).map(|k| count_all_plans(&star(k))).collect();
        assert_eq!(ap, vec![1, 3, 19, 207, 3451, 81663]);
    }

    #[test]
    fn all_plan_counts_match_brute_force_lattice() {
        // Ground truth: enumerate every dissociation, test hierarchy.
        for shape in [chain(3), chain(4), chain(5), star(2), star(3)] {
            let safe = crate::dissociation::all_dissociations(&shape, 14)
                .unwrap()
                .into_iter()
                .filter(|d| d.is_safe(&shape))
                .count() as u128;
            assert_eq!(count_all_plans(&shape), safe);
        }
    }

    #[test]
    fn figure2_dissociation_counts() {
        use crate::dissociation::count_dissociations;
        // Chain: 2^((k-1)(k-2)); star: 2^(k(k-1)).
        assert_eq!(count_dissociations(&chain(3)), 4);
        assert_eq!(count_dissociations(&chain(4)), 64);
        assert_eq!(count_dissociations(&chain(5)), 4096);
        assert_eq!(count_dissociations(&star(2)), 4);
        assert_eq!(count_dissociations(&star(3)), 64);
        assert_eq!(count_dissociations(&star(4)), 4096);
    }

    #[test]
    fn enumeration_matches_counts() {
        for k in 2..=5 {
            let s = chain(k);
            assert_eq!(minimal_plan_set(&s).len() as u128, count_minimal_plans(&s));
            assert_eq!(all_plan_set(&s).len() as u128, count_all_plans(&s));
        }
        for k in 1..=4 {
            let s = star(k);
            assert_eq!(minimal_plan_set(&s).len() as u128, count_minimal_plans(&s));
            assert_eq!(all_plan_set(&s).len() as u128, count_all_plans(&s));
        }
    }

    #[test]
    fn minimal_plans_are_minimal_among_all_plans() {
        // Every minimal plan's dissociation must be ⪯-minimal within the
        // set of all safe dissociations.
        for text in [
            "q :- R(x), S(x), T(x, y), U(y)",
            "q :- R(x), S(x, y), T(y)",
            "q(z) :- R(z, x), S(x, y), T(y)",
        ] {
            let s = shape_of(text);
            let all = deltas(&all_plan_set(&s), &s);
            for d in deltas(&minimal_plan_set(&s), &s) {
                assert!(
                    all.iter().all(|other| !(other.leq(&d) && *other != d)),
                    "{text}: {d:?} is not minimal"
                );
            }
        }
    }

    #[test]
    fn dr_knowledge_single_plan_for_safe_query() {
        // Example 23: q :- R(x), S(x,y), T^d(y) is safe with DR knowledge;
        // the modified algorithm returns exactly P∆2.
        let q = parse_query("q :- R(x), S(x, y), T^d(y)").unwrap();
        let schema = SchemaInfo::from_query(&q);
        let opts = EnumOptions {
            use_deterministic: true,
            use_fds: false,
        };
        let plans = minimal_plan_set_opts(&q, &schema, opts);
        assert_eq!(plans.len(), 1);
        let rendered = plans.store.render(plans.roots[0], &q);
        // P∆2 = π_{-x} ⋈[R(x), π_{-y} ⋈[S(x,y), T(y)]].
        assert!(rendered.contains("π-[y] ⋈[S(x,y), T(y)]"), "{rendered}");

        // Without DR knowledge: two plans.
        let plans2 = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
        assert_eq!(plans2.len(), 2);
    }

    #[test]
    fn dr_stopping_rule_all_deterministic() {
        // q :- R^d(x), S(x,y), T^d(y): m_p = 1 → single flat plan
        // π ⋈[R, S, T] (the "top" plan P∆3 of Fig. 3c).
        let q = parse_query("q :- R^d(x), S(x, y), T^d(y)").unwrap();
        let schema = SchemaInfo::from_query(&q);
        let plans = minimal_plan_set_opts(
            &q,
            &schema,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        );
        assert_eq!(plans.len(), 1);
        let rendered = plans.store.render(plans.roots[0], &q);
        assert_eq!(rendered, "π-[x,y] ⋈[R(x), S(x,y), T(y)]");
    }

    #[test]
    fn fd_knowledge_single_plan() {
        // q :- R(x), S(x,y), T(y) with FD x→y on S is safe (well-known
        // example); the FD-aware algorithm returns a single plan
        // corresponding to ∆2.
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let mut schema = SchemaInfo::from_query(&q);
        schema.fds.push(VarFd {
            lhs: VarSet::single(x),
            rhs: VarSet::single(y),
        });
        let plans = minimal_plan_set_opts(&q, &schema, EnumOptions::full());
        assert_eq!(plans.len(), 1);
        // Without FDs: two plans.
        let plans2 = minimal_plan_set_opts(
            &q,
            &schema,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        );
        assert_eq!(plans2.len(), 2);
    }

    #[test]
    fn chase_shape_respects_evars_only() {
        let q = parse_query("q(z) :- R(z, x), S(x, y), T(y)").unwrap();
        let s = QueryShape::of_query(&q);
        let x = q.var_by_name("x").unwrap();
        let z = q.var_by_name("z").unwrap();
        // FD y→z (head var): chase must not add z to any atom.
        let fds = vec![VarFd {
            lhs: VarSet::single(q.var_by_name("y").unwrap()),
            rhs: VarSet::single(z),
        }];
        let chased = chase_shape(&s, &fds);
        assert_eq!(chased.atom_vars, s.atom_vars);
        // FD y→x: T(y) gains x.
        let fds = vec![VarFd {
            lhs: VarSet::single(q.var_by_name("y").unwrap()),
            rhs: VarSet::single(x),
        }];
        let chased = chase_shape(&s, &fds);
        assert!(chased.atom_vars[2].contains(x));
    }

    #[test]
    fn disconnected_query_cartesian_plans() {
        // q :- R(x), S(y): disconnected. One minimal plan (join of the two
        // projected components); four plans in total — each of the
        // dissociations R^y, S^x, and {R^y, S^x} merges the components into
        // a single connected safe query whose plan projects at the top.
        let s = shape_of("q :- R(x), S(y)");
        assert_eq!(minimal_plan_set(&s).len(), 1);
        let mut all = all_plan_set(&s);
        assert_eq!(all.len(), 4);
        for (d, p) in deltas(&all, &s).into_iter().zip(all.roots.clone()) {
            assert!(d.is_safe(&s));
            assert_eq!(plan_id_for_dissociation(&mut all.store, &s, &d), Some(p));
        }
    }

    #[test]
    fn example_29_six_minimal_plans() {
        // q :- R(x,z), S(y,u), T(z), U(u), M(x,y,z,u) has 6 minimal plans
        // (Figure 4a).
        let s = shape_of("q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)");
        assert_eq!(minimal_plan_set(&s).len(), 6);
    }
}
