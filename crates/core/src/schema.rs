//! Schema knowledge attached to a query: probabilistic flags and FDs.

use lapush_query::{var_fds_from_db, Query, QueryShape, VarFd};
use lapush_storage::Database;

/// Schema-level information about the relations a query uses:
/// which atoms are probabilistic and which variable-level functional
/// dependencies hold (Section 3.3 of the paper).
///
/// Built either [from a database](SchemaInfo::from_db) (deterministic flags
/// and FDs read from the catalog) or [from the query text](SchemaInfo::from_query)
/// (the `R^d` markers; no FDs).
#[derive(Debug, Clone, Default)]
pub struct SchemaInfo {
    /// `probabilistic[i]` — atom `i`'s relation may hold uncertain tuples.
    pub probabilistic: Vec<bool>,
    /// Variable-level functional dependencies (the set `Γ`).
    pub fds: Vec<VarFd>,
}

impl SchemaInfo {
    /// Take determinism markers (`R^d`) from the query text; no FDs.
    pub fn from_query(q: &Query) -> Self {
        SchemaInfo {
            probabilistic: q
                .atoms()
                .iter()
                .map(|a| !a.declared_deterministic)
                .collect(),
            fds: Vec::new(),
        }
    }

    /// Read determinism flags and functional dependencies from a database
    /// catalog. An atom is deterministic if its relation is declared
    /// deterministic in the catalog *or* carries the `^d` marker in the
    /// query. Atoms whose relation is absent from the database fall back to
    /// the query marker.
    pub fn from_db(q: &Query, db: &Database) -> Self {
        let probabilistic = q
            .atoms()
            .iter()
            .map(|a| {
                let from_catalog = db
                    .relation_by_name(&a.relation)
                    .map(|r| r.is_deterministic())
                    .unwrap_or(false);
                !(a.declared_deterministic || from_catalog)
            })
            .collect();
        SchemaInfo {
            probabilistic,
            fds: var_fds_from_db(q, db),
        }
    }

    /// Build the [`QueryShape`] of `q` under this schema info.
    pub fn shape(&self, q: &Query) -> QueryShape {
        QueryShape::of_query_with_flags(q, self.probabilistic.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_query::parse_query;
    use lapush_storage::Fd;

    #[test]
    fn from_query_uses_markers() {
        let q = parse_query("q :- R(x), S(x, y), T^d(y)").unwrap();
        let s = SchemaInfo::from_query(&q);
        assert_eq!(s.probabilistic, vec![true, true, false]);
        assert!(s.fds.is_empty());
    }

    #[test]
    fn from_db_reads_catalog() {
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let mut db = Database::new();
        db.create_relation("R", 1).unwrap();
        let s_id = db.create_relation("S", 2).unwrap();
        db.create_deterministic("T", 1).unwrap();
        db.relation_mut(s_id).add_fd(Fd::new([0], [1])).unwrap();

        let info = SchemaInfo::from_db(&q, &db);
        assert_eq!(info.probabilistic, vec![true, true, false]);
        assert_eq!(info.fds.len(), 1);
    }

    #[test]
    fn query_marker_overrides_missing_catalog_entry() {
        let q = parse_query("q :- R^d(x), S(x)").unwrap();
        let db = Database::new();
        let info = SchemaInfo::from_db(&q, &db);
        assert_eq!(info.probabilistic, vec![false, true]);
    }
}
