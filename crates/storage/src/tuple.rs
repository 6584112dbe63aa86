//! Tuples and tuple identities.

use crate::value::Value;
use std::fmt;

/// A database tuple: an ordered sequence of attribute [`Value`]s.
///
/// Stored as a boxed slice: two words on the stack, no spare capacity.
pub type Tuple = Box<[Value]>;

/// Build a [`Tuple`] from anything convertible to values.
pub fn tuple<I, V>(vals: I) -> Tuple
where
    I: IntoIterator<Item = V>,
    V: Into<Value>,
{
    vals.into_iter().map(Into::into).collect()
}

/// Globally unique identity of a base tuple: relation ordinal + row ordinal.
///
/// `TupleId`s are the Boolean variables of lineage formulas: the lineage of a
/// query answer is a monotone DNF over `TupleId`s (paper, Section 2,
/// "Boolean Formulas").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId {
    /// Ordinal of the relation inside its [`crate::Database`].
    pub rel: u32,
    /// Row index inside the relation.
    pub row: u32,
}

impl TupleId {
    /// Create a tuple id.
    pub fn new(rel: u32, row: u32) -> Self {
        TupleId { rel, row }
    }
}

impl fmt::Debug for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:{}", self.rel, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_builder_mixes_types() {
        let t = tuple([Value::from(1), Value::from("a")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::str("a"));
    }

    #[test]
    fn tuple_id_orders_by_relation_then_row() {
        assert!(TupleId::new(0, 99) < TupleId::new(1, 0));
        assert!(TupleId::new(1, 0) < TupleId::new(1, 1));
    }
}
