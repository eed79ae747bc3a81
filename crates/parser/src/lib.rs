//! # hypoquery-parser
//!
//! A hand-written lexer and recursive-descent parser for the HQL surface
//! language — queries, updates, hypothetical-state expressions, explicit
//! substitutions and compositions — standing in for the paper's
//! SQL-mimicking update syntax. See [`parser`] for the grammar; the AST
//! types' `Display` prints it back.

#![warn(missing_docs)]

pub mod parser;
pub mod token;

pub use parser::{
    is_keyword, parse_predicate, parse_query, parse_query_named, parse_rows, parse_state_expr,
    parse_state_expr_named, parse_update, parse_update_named, ParseError,
};
pub use token::{tokenize, LexError, Token, TokenKind};
