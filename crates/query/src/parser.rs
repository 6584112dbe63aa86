//! A small datalog-style parser for sjfCQs.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query   := ident [ "(" vars? ")" ] ":-" item ("," item)*
//! item    := atom | predicate
//! atom    := ident ["^d"] "(" terms ")"
//! term    := ident | int | "'" chars "'"
//! predicate := ident op literal
//! op      := "<=" | "<" | ">=" | ">" | "!=" | "=" | "like"
//! ```
//!
//! Identifiers starting with a letter are variables inside atoms; quoted
//! strings and integers are constants. `R^d(...)` declares the atom's
//! relation deterministic (the paper's `R^d` notation).
//!
//! # Example
//!
//! ```
//! let q = lapush_query::parse_query(
//!     "q(z) :- R(z, x), S(x, y), T^d(y), z <= 10, n0 like '%red%'",
//! );
//! assert!(q.is_err()); // n0 does not occur in any atom
//! let q = lapush_query::parse_query("q(z) :- R(z, x), S(x, y), T^d(y)").unwrap();
//! assert_eq!(q.atoms().len(), 3);
//! assert!(q.atoms()[2].declared_deterministic);
//! ```

use crate::ast::{CmpOp, Query, QueryBuilder, QueryError, Term};
use lapush_storage::Value;
use std::fmt;

/// Parse failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        ParseError(e.to_string())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Implies, // :-
    DetMark, // ^d
    Op(CmpOp),
}

fn tokenize(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    toks.push(Tok::Implies);
                    i += 2;
                } else {
                    return Err(ParseError(format!("expected `:-` at byte {i}")));
                }
            }
            '^' => {
                if bytes.get(i + 1) == Some(&b'd') {
                    toks.push(Tok::DetMark);
                    i += 2;
                } else {
                    return Err(ParseError(format!("expected `^d` at byte {i}")));
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseError("unterminated string literal".into()));
                }
                toks.push(Tok::Str(input[start..j].to_string()));
                i = j + 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(CmpOp::Le));
                    i += 2;
                } else {
                    toks.push(Tok::Op(CmpOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(CmpOp::Ge));
                    i += 2;
                } else {
                    toks.push(Tok::Op(CmpOp::Gt));
                    i += 1;
                }
            }
            '=' => {
                toks.push(Tok::Op(CmpOp::Eq));
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(CmpOp::Ne));
                    i += 2;
                } else {
                    return Err(ParseError(format!("expected `!=` at byte {i}")));
                }
            }
            '-' | '0'..='9' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let n: i64 = text
                    .parse()
                    .map_err(|_| ParseError(format!("bad integer literal `{text}`")))?;
                toks.push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                // `^d` handling: `like` is a keyword operator, everything
                // else is an identifier.
                if word == "like" {
                    toks.push(Tok::Op(CmpOp::Like));
                } else {
                    toks.push(Tok::Ident(word.to_string()));
                }
            }
            other => return Err(ParseError(format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if got == *t => Ok(()),
            got => Err(ParseError(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(ParseError(format!("expected identifier, got {got:?}"))),
        }
    }
}

/// Parse a query from its textual form.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser { toks, pos: 0 };

    let name = p.ident()?;
    let mut builder = QueryBuilder::new(&name);
    let mut head_names: Vec<String> = Vec::new();
    if p.peek() == Some(&Tok::LParen) {
        p.next();
        while p.peek() != Some(&Tok::RParen) {
            head_names.push(p.ident()?);
            if p.peek() == Some(&Tok::Comma) {
                p.next();
            }
        }
        p.expect(&Tok::RParen)?;
    }
    let head_refs: Vec<&str> = head_names.iter().map(String::as_str).collect();
    builder = builder.head(&head_refs);

    p.expect(&Tok::Implies)?;

    loop {
        // Each item starts with an identifier: an atom (followed by `(` or
        // `^d(`) or a predicate variable (followed by an operator).
        let id = p.ident()?;
        match p.peek() {
            Some(&Tok::DetMark) | Some(&Tok::LParen) => {
                let det = if p.peek() == Some(&Tok::DetMark) {
                    p.next();
                    true
                } else {
                    false
                };
                p.expect(&Tok::LParen)?;
                let mut terms: Vec<Term> = Vec::new();
                while p.peek() != Some(&Tok::RParen) {
                    match p.next() {
                        Some(Tok::Ident(v)) => {
                            let var = builder.var(&v);
                            terms.push(Term::Var(var));
                        }
                        Some(Tok::Int(n)) => terms.push(Term::Const(Value::Int(n))),
                        Some(Tok::Str(s)) => terms.push(Term::Const(Value::str(s))),
                        got => return Err(ParseError(format!("expected term, got {got:?}"))),
                    }
                    if p.peek() == Some(&Tok::Comma) {
                        p.next();
                    }
                }
                p.expect(&Tok::RParen)?;
                builder = builder.atom_terms(&id, terms);
                if det {
                    // `atom_terms` pushes a probabilistic atom; patch it.
                    // (QueryBuilder has no det variant with raw terms.)
                    builder = mark_last_atom_det(builder);
                }
            }
            Some(&Tok::Op(op)) => {
                p.next();
                let value = match p.next() {
                    Some(Tok::Int(n)) => Value::Int(n),
                    Some(Tok::Str(s)) => Value::str(s),
                    got => {
                        return Err(ParseError(format!("expected literal, got {got:?}")));
                    }
                };
                builder = builder.pred(&id, op, value);
            }
            got => {
                return Err(ParseError(format!(
                    "expected `(` or comparison after `{id}`, got {got:?}"
                )))
            }
        }
        match p.next() {
            Some(Tok::Comma) => continue,
            None => break,
            got => return Err(ParseError(format!("expected `,` or end, got {got:?}"))),
        }
    }

    Ok(builder.build()?)
}

/// Flip `declared_deterministic` on the most recently added atom.
fn mark_last_atom_det(mut builder: QueryBuilder) -> QueryBuilder {
    if let Some(a) = builder.last_atom_mut() {
        a.declared_deterministic = true;
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

    #[test]
    fn parse_simple_chain() {
        let q = parse_query("q(x0, x2) :- R1(x0, x1), R2(x1, x2)").unwrap();
        assert_eq!(q.name(), "q");
        assert_eq!(q.head().len(), 2);
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.existential_vars().len(), 1);
    }

    #[test]
    fn parse_boolean_no_parens() {
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        assert!(q.head().is_empty());
    }

    #[test]
    fn parse_boolean_empty_parens() {
        let q = parse_query("q() :- R(x), S(x, y)").unwrap();
        assert!(q.head().is_empty());
    }

    #[test]
    fn parse_deterministic_marker() {
        let q = parse_query("q :- R(x), S(x, y), T^d(y)").unwrap();
        assert!(!q.atoms()[0].declared_deterministic);
        assert!(q.atoms()[2].declared_deterministic);
    }

    #[test]
    fn parse_constants() {
        let q = parse_query("q :- R('a', x), S(x, 3)").unwrap();
        assert_eq!(q.atoms()[0].terms[0], Term::Const(Value::str("a")));
        assert_eq!(q.atoms()[1].terms[1], Term::Const(Value::Int(3)));
    }

    #[test]
    fn parse_predicates() {
        let q =
            parse_query("q(a) :- S(s, a), PS(s, u), P(u, n), s <= 1000, n like '%red%'").unwrap();
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.predicates()[0].op, CmpOp::Le);
        assert_eq!(q.predicates()[1].op, CmpOp::Like);
        assert_eq!(q.predicates()[1].value, Value::str("%red%"));
    }

    #[test]
    fn parse_negative_int() {
        let q = parse_query("q :- R(x), x >= -5").unwrap();
        assert_eq!(q.predicates()[0].value, Value::Int(-5));
    }

    #[test]
    fn reject_self_join() {
        assert!(parse_query("q :- R(x), R(y)").is_err());
    }

    #[test]
    fn reject_garbage() {
        assert!(parse_query("q(x) :- ").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("q(x) : R(x)").is_err());
        assert!(parse_query("q(x) :- R(x").is_err());
        assert!(parse_query("q(x) :- R(x), 'lit'").is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        let text = "q(z) :- R(z, x), S(x, y), T^d(y), z <= 10";
        let q1 = parse_query(text).unwrap();
        let q2 = parse_query(&q1.display()).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(parse_query("q :- R(x), x like '%red").is_err());
    }
}
