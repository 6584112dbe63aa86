//! Query AST for self-join-free conjunctive queries.

use crate::varset::{VarSet, MAX_VARS};
use lapush_storage::Value;
use std::fmt;

/// Maximum number of atoms per query: plan enumeration and top-k address
/// atoms as bits of a `u64` mask.
pub const MAX_ATOMS: usize = 64;

/// A query variable, identified by its ordinal in the owning [`Query`]'s
/// variable table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An atom argument: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A query variable.
    Var(Var),
    /// A constant value.
    Const(Value),
}

/// A relational atom `R(t₁, …, t_k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relation name (unique per query: the query is self-join-free).
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
    /// Whether the atom was *declared* deterministic in the query text
    /// (the paper's `T^d` notation). Schema information derived from a
    /// database may override this; see `SchemaInfo` in `lapush-core`.
    pub declared_deterministic: bool,
}

impl Atom {
    /// The set of variables appearing in this atom (`Var(aᵢ)` in the paper).
    pub fn var_set(&self) -> VarSet {
        self.terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect()
    }

    /// Variables in term order, with duplicates.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        })
    }
}

/// Comparison operators for selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// SQL `LIKE` with `%` wildcards.
    Like,
}

impl CmpOp {
    /// Evaluate the comparison between a bound value and the literal.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Like => match rhs {
                Value::Str(p) => lhs.like(p),
                Value::Int(_) => false,
            },
        }
    }
}

/// A selection predicate `x op literal` (e.g. `s <= 1000`,
/// `n like '%red%'`). Selections restrict base relations before the
/// probabilistic computation and do not affect dissociation structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// The constrained variable.
    pub var: Var,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

/// Errors raised when constructing a [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Two atoms use the same relation: the query would have a self-join.
    SelfJoin(String),
    /// A head variable does not occur in any atom.
    UnboundHeadVar(String),
    /// A predicate variable does not occur in any atom.
    UnboundPredicateVar(String),
    /// More than [`MAX_VARS`] distinct variables.
    TooManyVars,
    /// More than [`MAX_ATOMS`] atoms.
    TooManyAtoms,
    /// The query has no atoms.
    NoAtoms,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::SelfJoin(r) => write!(
                f,
                "relation `{r}` occurs twice: only self-join-free queries are supported"
            ),
            QueryError::UnboundHeadVar(v) => {
                write!(f, "head variable `{v}` does not occur in any atom")
            }
            QueryError::UnboundPredicateVar(v) => {
                write!(f, "predicate variable `{v}` does not occur in any atom")
            }
            QueryError::TooManyVars => {
                write!(f, "queries support at most {MAX_VARS} distinct variables")
            }
            QueryError::TooManyAtoms => write!(f, "queries support at most {MAX_ATOMS} atoms"),
            QueryError::NoAtoms => write!(f, "query has no atoms"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A self-join-free conjunctive query
/// `q(y) :- R₁(x₁), …, R_m(x_m), σ₁, …, σ_j`.
///
/// Variables are interned: [`Var`] is an index into the query's name table.
/// The query may be Boolean (empty head). Invariants: atoms use distinct
/// relation symbols; head and predicate variables occur in some atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    name: String,
    var_names: Vec<String>,
    head: Vec<Var>,
    atoms: Vec<Atom>,
    predicates: Vec<Predicate>,
}

impl Query {
    /// Construct a validated query. Most callers should prefer
    /// [`QueryBuilder`] or [`crate::parser::parse_query`].
    pub fn new(
        name: impl Into<String>,
        var_names: Vec<String>,
        head: Vec<Var>,
        atoms: Vec<Atom>,
        predicates: Vec<Predicate>,
    ) -> Result<Self, QueryError> {
        if atoms.is_empty() {
            return Err(QueryError::NoAtoms);
        }
        if var_names.len() > MAX_VARS {
            return Err(QueryError::TooManyVars);
        }
        if atoms.len() > MAX_ATOMS {
            return Err(QueryError::TooManyAtoms);
        }
        let mut seen = std::collections::HashSet::new();
        for a in &atoms {
            if !seen.insert(a.relation.clone()) {
                return Err(QueryError::SelfJoin(a.relation.clone()));
            }
        }
        let body_vars: VarSet = atoms
            .iter()
            .map(Atom::var_set)
            .fold(VarSet::EMPTY, VarSet::union);
        for &h in &head {
            if !body_vars.contains(h) {
                return Err(QueryError::UnboundHeadVar(var_names[h.0 as usize].clone()));
            }
        }
        for p in &predicates {
            if !body_vars.contains(p.var) {
                return Err(QueryError::UnboundPredicateVar(
                    var_names[p.var.0 as usize].clone(),
                ));
            }
        }
        Ok(Query {
            name: name.into(),
            var_names,
            head,
            atoms,
            predicates,
        })
    }

    /// Query name (the head symbol, e.g. `q`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Head variables, in head order (`HVar(q)`).
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// Head variables as a set.
    pub fn head_set(&self) -> VarSet {
        self.head.iter().copied().collect()
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Selection predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// All variables of the query (`Var(q)`).
    pub fn all_vars(&self) -> VarSet {
        self.atoms
            .iter()
            .map(Atom::var_set)
            .fold(VarSet::EMPTY, VarSet::union)
    }

    /// Existential variables (`EVar(q)`): body variables minus head variables.
    pub fn existential_vars(&self) -> VarSet {
        self.all_vars().minus(self.head_set())
    }

    /// Name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Look up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }

    /// Render in datalog-ish syntax (re-parsable by the parser).
    pub fn display(&self) -> String {
        let mut s = format!("{}(", self.name);
        s.push_str(
            &self
                .head
                .iter()
                .map(|&v| self.var_name(v).to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str(") :- ");
        let mut parts: Vec<String> = Vec::new();
        for a in &self.atoms {
            let args = a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => self.var_name(*v).to_string(),
                    Term::Const(Value::Int(i)) => i.to_string(),
                    Term::Const(Value::Str(st)) => format!("'{st}'"),
                })
                .collect::<Vec<_>>()
                .join(", ");
            let det = if a.declared_deterministic { "^d" } else { "" };
            parts.push(format!("{}{det}({args})", a.relation));
        }
        for p in &self.predicates {
            let op = match p.op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Like => "like",
            };
            let val = match &p.value {
                Value::Int(i) => i.to_string(),
                Value::Str(s) => format!("'{s}'"),
            };
            parts.push(format!("{} {op} {val}", self.var_name(p.var)));
        }
        s.push_str(&parts.join(", "));
        s
    }
}

/// Incremental builder for [`Query`] values.
///
/// ```
/// use lapush_query::QueryBuilder;
/// let q = QueryBuilder::new("q")
///     .head(&["z"])
///     .atom("R", &["z", "x"])
///     .atom("S", &["x", "y"])
///     .atom("T", &["y"])
///     .build()
///     .unwrap();
/// assert_eq!(q.atoms().len(), 3);
/// assert_eq!(q.existential_vars().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    name: String,
    var_names: Vec<String>,
    head: Vec<Var>,
    atoms: Vec<Atom>,
    predicates: Vec<Predicate>,
}

impl QueryBuilder {
    /// Start a query with the given head symbol.
    pub fn new(name: impl Into<String>) -> Self {
        QueryBuilder {
            name: name.into(),
            var_names: Vec::new(),
            head: Vec::new(),
            atoms: Vec::new(),
            predicates: Vec::new(),
        }
    }

    /// Intern a variable by name.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            Var(i as u32)
        } else {
            let v = Var(self.var_names.len() as u32);
            self.var_names.push(name.to_string());
            v
        }
    }

    /// Set the head variables (by name).
    pub fn head(mut self, vars: &[&str]) -> Self {
        self.head = vars.iter().map(|n| self.var(n)).collect();
        self
    }

    /// Add an atom whose arguments are all variables (by name).
    pub fn atom(mut self, relation: &str, vars: &[&str]) -> Self {
        let terms = vars.iter().map(|n| Term::Var(self.var(n))).collect();
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms,
            declared_deterministic: false,
        });
        self
    }

    /// Add a deterministic atom (the paper's `R^d`) with variable arguments.
    #[cfg(test)]
    pub fn det_atom(mut self, relation: &str, vars: &[&str]) -> Self {
        let terms = vars.iter().map(|n| Term::Var(self.var(n))).collect();
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms,
            declared_deterministic: true,
        });
        self
    }

    /// Add an atom with explicit terms (variables and/or constants).
    pub fn atom_terms(mut self, relation: &str, terms: Vec<Term>) -> Self {
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms,
            declared_deterministic: false,
        });
        self
    }

    /// Add a selection predicate on a variable (by name).
    pub fn pred(mut self, var: &str, op: CmpOp, value: impl Into<Value>) -> Self {
        let v = self.var(var);
        self.predicates.push(Predicate {
            var: v,
            op,
            value: value.into(),
        });
        self
    }

    /// Mutable access to the most recently added atom (used by the parser to
    /// patch the `^d` determinism marker).
    pub(crate) fn last_atom_mut(&mut self) -> Option<&mut Atom> {
        self.atoms.last_mut()
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Query, QueryError> {
        Query::new(
            self.name,
            self.var_names,
            self.head,
            self.atoms,
            self.predicates,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_vars() {
        let q = QueryBuilder::new("q")
            .head(&["x"])
            .atom("R", &["x", "y"])
            .atom("S", &["y", "x"])
            .build()
            .unwrap();
        assert_eq!(q.num_vars(), 2);
        assert_eq!(q.var_by_name("x"), Some(Var(0)));
        assert_eq!(q.var_by_name("y"), Some(Var(1)));
        assert_eq!(q.var_by_name("z"), None);
    }

    #[test]
    fn head_and_existential_vars() {
        let q = QueryBuilder::new("q")
            .head(&["z"])
            .atom("R", &["z", "x"])
            .atom("S", &["x", "y"])
            .build()
            .unwrap();
        assert_eq!(q.head_set().len(), 1);
        assert_eq!(q.existential_vars().len(), 2);
        assert!(!q.head().is_empty());
    }

    #[test]
    fn boolean_query() {
        let q = QueryBuilder::new("q")
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .build()
            .unwrap();
        assert!(q.head().is_empty());
        assert_eq!(q.existential_vars().len(), 2);
    }

    #[test]
    fn self_join_rejected() {
        let r = QueryBuilder::new("q")
            .atom("R", &["x"])
            .atom("R", &["y"])
            .build();
        assert!(matches!(r, Err(QueryError::SelfJoin(_))));
    }

    #[test]
    fn unbound_head_var_rejected() {
        let mut b = QueryBuilder::new("q");
        let _ = b.var("z");
        let r = b.head(&["z"]).atom("R", &["x"]).build();
        assert!(matches!(r, Err(QueryError::UnboundHeadVar(_))));
    }

    #[test]
    fn empty_query_rejected() {
        assert!(matches!(
            QueryBuilder::new("q").build(),
            Err(QueryError::NoAtoms)
        ));
    }

    #[test]
    fn more_atoms_than_mask_bits_rejected() {
        // Atom masks are `u64`: a 65th atom would alias atom 0.
        let names: Vec<String> = (0..=MAX_ATOMS).map(|i| format!("R{i}")).collect();
        let build = |n: usize| {
            names[..n]
                .iter()
                .fold(QueryBuilder::new("q").head(&["x"]), |b, r| {
                    b.atom(r, &["x"])
                })
                .build()
        };
        let widest = build(MAX_ATOMS).unwrap();
        assert_eq!(widest.atoms().len(), MAX_ATOMS);
        assert_eq!(build(MAX_ATOMS + 1), Err(QueryError::TooManyAtoms));
    }

    #[test]
    fn display_roundtrips_syntax() {
        let q = QueryBuilder::new("q")
            .head(&["z"])
            .atom("R", &["z", "x"])
            .det_atom("T", &["x"])
            .pred("z", CmpOp::Le, 5)
            .build()
            .unwrap();
        let s = q.display();
        assert!(s.contains("q(z) :- R(z, x), T^d(x), z <= 5"), "got {s}");
    }

    #[test]
    fn cmp_op_eval() {
        use lapush_storage::Value;
        assert!(CmpOp::Le.eval(&Value::Int(3), &Value::Int(3)));
        assert!(CmpOp::Lt.eval(&Value::Int(2), &Value::Int(3)));
        assert!(!CmpOp::Gt.eval(&Value::Int(2), &Value::Int(3)));
        assert!(CmpOp::Ne.eval(&Value::Int(2), &Value::Int(3)));
        assert!(CmpOp::Like.eval(&Value::str("dark red"), &Value::str("%red%")));
        assert!(!CmpOp::Like.eval(&Value::Int(2), &Value::str("%red%")));
    }
}
