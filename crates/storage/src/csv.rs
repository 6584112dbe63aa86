//! Loading relations from delimited text (CSV/TSV).
//!
//! Format: one tuple per line, comma- or tab-separated, `#` comments and
//! blank lines ignored. Cells parsing as `i64` become [`Value::Int`],
//! everything else [`Value::Str`] (surrounding whitespace trimmed; optional
//! double quotes stripped). With [`CsvOptions::prob_column`], the last
//! column is the tuple probability; otherwise every tuple is certain.

use crate::database::Database;
use crate::error::StorageError;
use crate::relation::Relation;
use crate::value::Value;

/// Options for the text loader.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Interpret the last column as the tuple probability.
    pub prob_column: bool,
    /// Declare the relation deterministic (requires `prob_column = false`
    /// or probabilities that are all 1).
    pub deterministic: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            prob_column: true,
            deterministic: false,
        }
    }
}

/// Errors from the text loader.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A line had a different arity than the first line.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Expected number of columns.
        expected: usize,
        /// Number found.
        got: usize,
    },
    /// The probability cell did not parse as a float.
    BadProbability {
        /// 1-based line number.
        line: usize,
        /// Offending cell contents.
        cell: String,
    },
    /// The file had no data rows.
    Empty,
    /// Underlying storage error (range checks etc.).
    Storage(StorageError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected} cells, got {got}"),
            CsvError::BadProbability { line, cell } => {
                write!(f, "line {line}: bad probability `{cell}`")
            }
            CsvError::Empty => write!(f, "no data rows"),
            CsvError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<StorageError> for CsvError {
    fn from(e: StorageError) -> Self {
        CsvError::Storage(e)
    }
}

fn parse_cell(cell: &str) -> Value {
    let trimmed = cell.trim();
    let unquoted = trimmed
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(trimmed);
    match unquoted.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::str(unquoted),
    }
}

/// Parse a relation from delimited text.
pub fn relation_from_text(name: &str, text: &str, opts: CsvOptions) -> Result<Relation, CsvError> {
    let mut rel: Option<Relation> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sep = if line.contains('\t') { '\t' } else { ',' };
        let cells: Vec<&str> = line.split(sep).collect();
        let (value_cells, prob) = if opts.prob_column {
            let (last, rest) = cells.split_last().expect("non-empty line");
            let p: f64 = last.trim().parse().map_err(|_| CsvError::BadProbability {
                line: lineno + 1,
                cell: last.trim().to_string(),
            })?;
            (rest, p)
        } else {
            (&cells[..], 1.0)
        };
        let arity = value_cells.len();
        let rel = rel.get_or_insert_with(|| {
            if opts.deterministic {
                Relation::deterministic(name, arity)
            } else {
                Relation::new(name, arity)
            }
        });
        if arity != rel.arity() {
            return Err(CsvError::RaggedRow {
                line: lineno + 1,
                expected: rel.arity(),
                got: arity,
            });
        }
        let row: Box<[Value]> = value_cells.iter().map(|c| parse_cell(c)).collect();
        rel.push(row, prob)?;
    }
    rel.ok_or(CsvError::Empty)
}

/// Load every `*.csv` file of a directory into a database: the file stem is
/// the relation name. A file that cannot be read or parsed is named in the
/// error.
pub fn database_from_dir(
    dir: &std::path::Path,
    opts: CsvOptions,
) -> Result<Database, Box<dyn std::error::Error>> {
    let mut db = Database::new();
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|x| x == "csv").unwrap_or(false))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or("bad file name")?
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = relation_from_text(&name, &text, opts)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        db.add_relation(rel)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_types_and_probs() {
        let rel = relation_from_text(
            "R",
            "1, red, 0.5\n2, \"dark blue\", 0.25\n# comment\n\n3, green, 1.0\n",
            CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.arity(), 2);
        assert_eq!(rel.row(0)[0], Value::Int(1));
        assert_eq!(rel.row(1)[1], Value::str("dark blue"));
        assert_eq!(rel.prob(1), 0.25);
    }

    #[test]
    fn tsv_detected() {
        let rel = relation_from_text("R", "1\t2\t0.5\n", CsvOptions::default()).unwrap();
        assert_eq!(rel.arity(), 2);
        assert_eq!(rel.prob(0), 0.5);
    }

    #[test]
    fn no_prob_column_certain_tuples() {
        let opts = CsvOptions {
            prob_column: false,
            deterministic: true,
        };
        let rel = relation_from_text("R", "1,2\n3,4\n", opts).unwrap();
        assert!(rel.is_deterministic());
        assert_eq!(rel.prob(0), 1.0);
        assert_eq!(rel.arity(), 2);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = relation_from_text("R", "1,2,0.5\n1,0.5\n", CsvOptions::default());
        assert!(matches!(err, Err(CsvError::RaggedRow { line: 2, .. })));
    }

    #[test]
    fn bad_probability_rejected() {
        let err = relation_from_text("R", "1,notaprob\n", CsvOptions::default());
        assert!(matches!(err, Err(CsvError::BadProbability { .. })));
        let err = relation_from_text("R", "1,1.5\n", CsvOptions::default());
        assert!(matches!(err, Err(CsvError::Storage(_))));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            relation_from_text("R", "# only comments\n", CsvOptions::default()),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn directory_loader() {
        let dir = std::env::temp_dir().join(format!("lapush_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("R.csv"), "1,0.5\n2,0.25\n").unwrap();
        std::fs::write(dir.join("S.csv"), "1,10,0.75\n").unwrap();
        std::fs::write(dir.join("ignore.txt"), "not csv").unwrap();
        let db = database_from_dir(&dir, CsvOptions::default()).unwrap();
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.relation_by_name("R").unwrap().len(), 2);
        assert_eq!(db.relation_by_name("S").unwrap().arity(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
