//! Plain-text persistence for database states.
//!
//! A deliberately simple, dependency-free line format (the workspace's
//! sanctioned crates do not include a serialization framework):
//!
//! ```text
//! # hypoquery dump v1
//! relation emp 2 id,salary
//! 1\t100
//! 2\t"ann \"the boss\""
//! relation tags 1
//! true
//! ```
//!
//! One `relation <name> <arity> [attrs]` header per relation (attrs
//! comma-separated, omitted for positional schemas), followed by one row
//! per line with tab-separated values: bare integers, `true`/`false`
//! booleans, and double-quoted strings with `\"`/`\\`/`\t`/`\n` escapes.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use crate::database::DatabaseState;
use crate::relation::Relation;
use crate::schema::{Catalog, RelSchema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Errors raised while loading a dump.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DumpError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dump error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DumpError {}

fn decode_value(field: &str, line: usize) -> Result<Value, DumpError> {
    let field = field.trim();
    if field == "true" {
        return Ok(Value::bool(true));
    }
    if field == "false" {
        return Ok(Value::bool(false));
    }
    if let Ok(i) = field.parse::<i64>() {
        return Ok(Value::int(i));
    }
    if field.starts_with('"') && field.ends_with('"') && field.len() >= 2 {
        let inner = &field[1..field.len() - 1];
        let mut s = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('t') => s.push('\t'),
                    Some('n') => s.push('\n'),
                    other => {
                        return Err(DumpError {
                            line,
                            message: format!("bad escape \\{other:?} in string"),
                        })
                    }
                }
            } else {
                s.push(c);
            }
        }
        return Ok(Value::str(s));
    }
    Err(DumpError {
        line,
        message: format!("unparseable value {field:?}"),
    })
}

/// Encode one tuple as a dump/wire row line: tab-separated values as
/// [`Value`]'s `Display` prints them (bare integers, `true`/`false`,
/// double-quoted escaped strings), or the literal `()` for the 0-ary
/// tuple. The inverse of [`decode_tuple`].
pub fn encode_tuple(t: &Tuple) -> String {
    if t.arity() == 0 {
        return "()".to_string();
    }
    let mut row = String::new();
    for (i, v) in t.fields().iter().enumerate() {
        if i > 0 {
            row.push('\t');
        }
        let _ = write!(row, "{v}");
    }
    row
}

/// Decode a row line produced by [`encode_tuple`]. `line_no` only labels
/// errors (pass 0 when there is no meaningful line number).
pub fn decode_tuple(line: &str, line_no: usize) -> Result<Tuple, DumpError> {
    let line = line.trim_end();
    if line == "()" {
        return Ok(Tuple::empty());
    }
    let values: Result<Vec<Value>, DumpError> =
        line.split('\t').map(|f| decode_value(f, line_no)).collect();
    Ok(Tuple::new(values?))
}

/// Serialize a state (catalog + data) to the text format.
pub fn dump_state(db: &DatabaseState) -> String {
    let mut out = String::from("# hypoquery dump v1\n");
    for (name, schema) in db.catalog().iter() {
        out.push_str("relation ");
        out.push_str(name.as_str());
        out.push(' ');
        out.push_str(&schema.arity.to_string());
        if let Some(attrs) = &schema.attrs {
            out.push(' ');
            out.push_str(&attrs.join(","));
        }
        out.push('\n');
        if let Ok(rel) = db.get(name) {
            for t in rel.iter() {
                // Note the 0-ary tuple encodes as `()`, not a blank line
                // (which the loader skips).
                out.push_str(&encode_tuple(t));
                out.push('\n');
            }
        }
    }
    out
}

/// Load a state from the text format.
pub fn load_state(src: &str) -> Result<DatabaseState, DumpError> {
    let mut catalog = Catalog::new();
    // First pass: headers build the catalog.
    for (i, line) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("relation ") {
            let mut parts = rest.splitn(3, ' ');
            let name = parts.next().filter(|s| !s.is_empty()).ok_or(DumpError {
                line: line_no,
                message: "relation header missing name".into(),
            })?;
            let arity: usize = parts.next().and_then(|s| s.parse().ok()).ok_or(DumpError {
                line: line_no,
                message: "relation header missing arity".into(),
            })?;
            let schema = match parts.next() {
                Some(attrs) if !attrs.trim().is_empty() => {
                    let attrs: Vec<String> =
                        attrs.split(',').map(|a| a.trim().to_string()).collect();
                    if attrs.len() != arity {
                        return Err(DumpError {
                            line: line_no,
                            message: format!("{} attribute names for arity {arity}", attrs.len()),
                        });
                    }
                    RelSchema::named(attrs)
                }
                _ => RelSchema::positional(arity),
            };
            catalog.declare(name, schema).map_err(|e| DumpError {
                line: line_no,
                message: e.to_string(),
            })?;
        }
    }
    // Second pass: rows, decoded per relation (a repeated header adds to
    // its relation), then each relation built in one step.
    // Per relation: its first header's line, its arity and its rows.
    let mut rows: HashMap<&str, (usize, usize, Vec<Tuple>)> = HashMap::new();
    let mut current: Option<&str> = None;
    for (i, line) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("relation ") {
            let mut parts = rest.splitn(3, ' ');
            let name = parts.next().unwrap_or_default();
            let arity: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            rows.entry(name).or_insert((line_no, arity, Vec::new()));
            current = Some(name);
            continue;
        }
        let name = current.ok_or(DumpError {
            line: line_no,
            message: "row before any relation header".into(),
        })?;
        let (_, arity, section) = rows.get_mut(name).expect("a header opened the section");
        let t = decode_tuple(line, line_no)?;
        if t.arity() != *arity {
            return Err(DumpError {
                line: line_no,
                message: format!("expected {arity} fields, found {}", t.arity()),
            });
        }
        section.push(t);
    }
    let mut db = DatabaseState::new(catalog);
    for (name, (header, arity, section)) in rows {
        Relation::from_rows(arity, section)
            .and_then(|rel| db.set(name, rel))
            .map_err(|e| DumpError {
                line: header,
                message: e.to_string(),
            })?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare("emp", RelSchema::named(["id", "name"]))
            .unwrap();
        cat.declare_arity("flags", 1).unwrap();
        cat.declare_arity("unit", 0).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_row("emp", tuple![1, "ann \"the boss\""]).unwrap();
        db.insert_row("emp", tuple![2, "bob\ttabbed\nline"])
            .unwrap();
        db.insert_row("flags", tuple![true]).unwrap();
        db.insert_row("unit", Tuple::empty()).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample();
        let text = dump_state(&db);
        let back = load_state(&text).unwrap();
        assert_eq!(back, db);
        // Named attrs survive.
        assert_eq!(
            back.catalog().schema(&"emp".into()).unwrap().attrs,
            Some(vec!["id".to_string(), "name".to_string()])
        );
    }

    #[test]
    fn empty_relations_roundtrip() {
        let mut cat = Catalog::new();
        cat.declare_arity("lonely", 3).unwrap();
        let db = DatabaseState::new(cat);
        let back = load_state(&dump_state(&db)).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.catalog().arity(&"lonely".into()).unwrap(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = load_state("1\t2\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("before any relation header"));

        let e = load_state("relation R 2\n1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected 2 fields"));

        let e = load_state("relation R 2 a,b,c\n").unwrap_err();
        assert!(e.message.contains("attribute names"));

        let e = load_state("relation R two\n").unwrap_err();
        assert!(e.message.contains("missing arity"));

        let e = load_state("relation R 1\nwhat\n").unwrap_err();
        assert!(e.message.contains("unparseable"));
    }

    #[test]
    fn tuple_codec_roundtrips() {
        for t in [
            Tuple::empty(),
            tuple![1, -2, 3],
            tuple!["plain", "tab\there", "quote\"backslash\\", "nl\nend"],
            tuple![true, false, 0],
        ] {
            let line = encode_tuple(&t);
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(decode_tuple(&line, 7).unwrap(), t, "{line:?}");
        }
        assert_eq!(decode_tuple("nope", 7).unwrap_err().line, 7);
    }

    #[test]
    fn a_repeated_header_adds_to_its_relation() {
        let text = "relation R 2\n1\t10\nrelation S 1\n7\nrelation R 2\n2\t20\n1\t10\n";
        let db = load_state(text).unwrap();
        let r = db.get(&"R".into()).unwrap();
        assert_eq!(
            r,
            Relation::from_rows(2, [tuple![1, 10], tuple![2, 20]]).unwrap()
        );
        assert_eq!(db.get(&"S".into()).unwrap().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nrelation R 1\n# comment inside\n5\n\n";
        let db = load_state(text).unwrap();
        assert_eq!(db.get(&"R".into()).unwrap().len(), 1);
    }
}
