//! Recursive-descent parser for the HQL surface language.
//!
//! Grammar (keywords lowercase; columns are positional `#N`):
//!
//! ```text
//! query   := set ('when' state)*                      -- when binds loosest
//! set     := term (('union'|'except'|'intersect') term)*
//! term    := factor ('times' factor | 'join' factor 'on' pred)*
//! factor  := 'select' pred '(' query ')'
//!          | 'project' [INT (',' INT)*] '(' query ')'
//!          | 'aggregate' '[' cols ';' [aggs] ']' '(' query ')'
//!          | 'row' row
//!          | 'empty' '(' INT ')'
//!          | NAME
//!          | '(' query ')'
//! state   := sprim ('#' sprim)*                       -- composition
//! sprim   := '{' update '}' | '{' [binding (',' binding)*] '}'
//!          | '(' state ')'
//! binding := query '/' NAME
//! update  := atomic (';' atomic)*
//! atomic  := 'insert' 'into' NAME query | '(' update ')'
//!          | 'delete' 'from' NAME query
//!          | 'if' query 'then' update 'else' update 'end'
//! pred    := conjunctions/disjunctions of `scalar op scalar`,
//!            'true', 'false', 'not', parentheses
//! scalar  := '#' INT | NAME | lit
//! lit     := INT | STRING | 'true' | 'false'
//! row     := '(' [lit (',' lit)*] ')'
//! rows    := row*                                     -- LOAD's inline rows
//! ```
//!
//! `Display` on the AST types prints this syntax back, fully
//! parenthesized: `parse_query(&q.to_string()) == q` whenever no relation
//! name is a keyword.
//!
//! Examples:
//!
//! ```text
//! (R join S on #0 = #2) when {insert into R (select #0 > 30 (S))}
//! Q when {select #0 >= 60 (S) / S} # {insert into R (S)}
//! ```

use std::fmt;

use hypoquery_storage::{Catalog, Tuple, Value};

use hypoquery_algebra::depth::{too_deep, MAX_DEPTH};
use hypoquery_algebra::{
    AggExpr, CmpOp, ExplicitSubst, Predicate, Query, ScalarExpr, StateExpr, Update,
};

use crate::token::{tokenize, Token, TokenKind};

/// A parse error with source offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset of the offending token.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

const KEYWORDS: &[&str] = &[
    "select",
    "project",
    "aggregate",
    "row",
    "empty",
    "when",
    "union",
    "except",
    "intersect",
    "times",
    "join",
    "on",
    "insert",
    "into",
    "delete",
    "from",
    "if",
    "then",
    "else",
    "end",
    "and",
    "or",
    "not",
    "true",
    "false",
    "count",
    "sum",
    "min",
    "max",
];

/// The comparison tokens and the operators they stand for.
const CMP_OPS: [(TokenKind, CmpOp); 6] = [
    (TokenKind::Eq, CmpOp::Eq),
    (TokenKind::Ne, CmpOp::Ne),
    (TokenKind::Lt, CmpOp::Lt),
    (TokenKind::Le, CmpOp::Le),
    (TokenKind::Gt, CmpOp::Gt),
    (TokenKind::Ge, CmpOp::Ge),
];

/// The attribute names a named column resolves against: `None` when the
/// input has none to offer (no catalog, or an input that does not type).
type Attrs<'a> = Option<&'a [Option<String>]>;

/// A column reference before name resolution.
enum PreCol {
    Pos(usize),
    Named(String, usize),
}

impl PreCol {
    fn is_named(&self) -> bool {
        matches!(self, PreCol::Named(..))
    }
}

/// An aggregate before column resolution.
enum PreAgg {
    Count,
    Sum(PreCol),
    Min(PreCol),
    Max(PreCol),
}

/// A scalar term before name resolution.
enum PreScalar {
    Col(PreCol),
    Const(Value),
}

/// A predicate before name resolution.
enum PrePred {
    True,
    False,
    Cmp(PreScalar, CmpOp, PreScalar),
    And(Box<PrePred>, Box<PrePred>),
    Or(Box<PrePred>, Box<PrePred>),
    Not(Box<PrePred>),
}

impl PrePred {
    /// Whether a named column occurs, so resolution needs attribute names.
    fn has_names(&self) -> bool {
        let named = |s: &PreScalar| matches!(s, PreScalar::Col(c) if c.is_named());
        match self {
            PrePred::True | PrePred::False => false,
            PrePred::Cmp(a, _, b) => named(a) || named(b),
            PrePred::And(a, b) | PrePred::Or(a, b) => a.has_names() || b.has_names(),
            PrePred::Not(a) => a.has_names(),
        }
    }
}

struct Parser<'c> {
    toks: Vec<Token>,
    pos: usize,
    /// Current recursion depth, bounded by [`MAX_DEPTH`]. Every parse
    /// function that returns a tree also returns its height (as
    /// [`hypoquery_algebra::depth::height`] counts it), bounded the same
    /// way, so nothing this parser builds is too deep to walk.
    depth: usize,
    /// Schema used to resolve named columns (`salary >= 200`). `None`
    /// restricts predicates/projections to positional `#N` references.
    catalog: Option<&'c Catalog>,
}

impl<'c> Parser<'c> {
    fn new(src: &str, catalog: Option<&'c Catalog>) -> Result<Parser<'c>, ParseError> {
        let toks = tokenize(src).map_err(|e| ParseError {
            offset: e.offset,
            message: e.message,
        })?;
        Ok(Parser {
            toks,
            pos: 0,
            depth: 0,
            catalog,
        })
    }

    /// Enter one level of recursion (left by `self.depth -= 1`).
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.error(too_deep());
        }
        Ok(())
    }

    /// `h`, the height of a tree just built, if it is within the limit.
    fn height(&self, h: usize) -> Result<usize, ParseError> {
        if h > MAX_DEPTH {
            return self.error(too_deep());
        }
        Ok(h)
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.peek().offset,
            message: message.into(),
        })
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.error(format!(
                "expected keyword `{kw}`, found {}",
                self.peek().kind
            ))
        }
    }

    fn expect_name(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            TokenKind::Ident(s) => {
                self.error(format!("`{s}` is a keyword and cannot name a relation"))
            }
            other => self.error(format!("expected relation name, found {other}")),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.advance();
                Ok(v)
            }
            _ => self.error(format!("expected integer, found {}", self.peek().kind)),
        }
    }

    fn expect_usize(&mut self) -> Result<usize, ParseError> {
        let v = self.expect_int()?;
        usize::try_from(v).map_err(|_| ParseError {
            offset: self.toks[self.pos.saturating_sub(1)].offset,
            message: format!("expected non-negative column index, found {v}"),
        })
    }

    // -- queries -----------------------------------------------------------

    fn query(&mut self) -> Result<(Query, usize), ParseError> {
        self.descend()?;
        let (mut q, mut h) = self.set_expr()?;
        while self.eat_keyword("when") {
            let (eta, he) = self.state_expr()?;
            h = self.height(1 + h.max(he))?;
            q = q.when(eta);
        }
        self.depth -= 1;
        Ok((q, h))
    }

    fn set_expr(&mut self) -> Result<(Query, usize), ParseError> {
        let (mut q, mut h) = self.term()?;
        loop {
            let op: fn(Query, Query) -> Query = if self.eat_keyword("union") {
                Query::union
            } else if self.eat_keyword("except") {
                Query::diff
            } else if self.eat_keyword("intersect") {
                Query::intersect
            } else {
                return Ok((q, h));
            };
            let (rhs, hr) = self.term()?;
            h = self.height(1 + h.max(hr))?;
            q = op(q, rhs);
        }
    }

    fn term(&mut self) -> Result<(Query, usize), ParseError> {
        let (mut q, mut h) = self.factor()?;
        // The attribute names of `q`: computed when a named column first
        // needs them, then extended link by link, so a long chain is not
        // walked again at every `join`.
        let mut attrs: Option<Vec<Option<String>>> = None;
        loop {
            let product = self.eat_keyword("times");
            if !product && !self.eat_keyword("join") {
                return Ok((q, h));
            }
            let (rhs, hr) = self.factor()?;
            let (p, hp) = if product {
                (None, 0)
            } else {
                self.expect_keyword("on")?;
                let (p, hp) = self.pre_predicate()?;
                (Some(p), hp)
            };
            h = self.height(1 + h.max(hr).max(hp))?;
            if attrs.is_none() && p.as_ref().is_some_and(PrePred::has_names) {
                attrs = self.attrs_for(&q);
            }
            if let Some(a) = &mut attrs {
                match self.attrs_for(&rhs) {
                    Some(more) => a.extend(more),
                    None => attrs = None,
                }
            }
            q = match p {
                None => q.product(rhs),
                Some(p) => {
                    let p = self.resolve_pred(p, attrs.as_deref())?;
                    q.join(rhs, p)
                }
            };
        }
    }

    fn factor(&mut self) -> Result<(Query, usize), ParseError> {
        if self.eat_keyword("select") {
            let (p, hp) = self.pre_predicate()?;
            self.expect(&TokenKind::LParen)?;
            let (q, h) = self.query()?;
            self.expect(&TokenKind::RParen)?;
            let attrs = self.attrs_if(p.has_names(), &q);
            let p = self.resolve_pred(p, attrs.as_deref())?;
            return Ok((q.select(p), self.height(1 + h.max(hp))?));
        }
        if self.eat_keyword("project") {
            let mut cols = Vec::new();
            if self.at_pre_col() {
                cols.push(self.pre_col()?);
                while self.peek().kind == TokenKind::Comma {
                    self.advance();
                    cols.push(self.pre_col()?);
                }
            }
            self.expect(&TokenKind::LParen)?;
            let (q, h) = self.query()?;
            self.expect(&TokenKind::RParen)?;
            let attrs = self.attrs_if(cols.iter().any(PreCol::is_named), &q);
            let cols = self.resolve_cols(cols, attrs.as_deref())?;
            return Ok((q.project(cols), self.height(1 + h)?));
        }
        if self.eat_keyword("aggregate") {
            self.expect(&TokenKind::LBracket)?;
            let mut cols = Vec::new();
            while self.at_pre_col() {
                cols.push(self.pre_col()?);
                if self.peek().kind == TokenKind::Comma {
                    self.advance();
                }
            }
            self.expect(&TokenKind::Semi)?;
            let mut aggs = Vec::new();
            if self.peek().kind != TokenKind::RBracket {
                aggs.push(self.pre_agg()?);
                while self.peek().kind == TokenKind::Comma {
                    self.advance();
                    aggs.push(self.pre_agg()?);
                }
            }
            self.expect(&TokenKind::RBracket)?;
            self.expect(&TokenKind::LParen)?;
            let (q, h) = self.query()?;
            self.expect(&TokenKind::RParen)?;
            let named = cols.iter().any(PreCol::is_named)
                || aggs.iter().any(|a| {
                    matches!(a, PreAgg::Sum(c) | PreAgg::Min(c) | PreAgg::Max(c) if c.is_named())
                });
            let attrs = self.attrs_if(named, &q);
            let cols = self.resolve_cols(cols, attrs.as_deref())?;
            let aggs = aggs
                .into_iter()
                .map(|a| self.resolve_agg(a, attrs.as_deref()))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok((q.aggregate(cols, aggs), self.height(1 + h)?));
        }
        if self.eat_keyword("row") {
            return Ok((Query::singleton(self.row_literal()?), 1));
        }
        if self.eat_keyword("empty") {
            self.expect(&TokenKind::LParen)?;
            let arity = self.expect_usize()?;
            self.expect(&TokenKind::RParen)?;
            return Ok((Query::empty(arity), 1));
        }
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            let q = self.query()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(q);
        }
        let name = self.expect_name()?;
        Ok((Query::base(name), 1))
    }

    fn pre_agg(&mut self) -> Result<PreAgg, ParseError> {
        if self.eat_keyword("count") {
            return Ok(PreAgg::Count);
        }
        if self.eat_keyword("sum") {
            return Ok(PreAgg::Sum(self.pre_col()?));
        }
        if self.eat_keyword("min") {
            return Ok(PreAgg::Min(self.pre_col()?));
        }
        if self.eat_keyword("max") {
            return Ok(PreAgg::Max(self.pre_col()?));
        }
        self.error(format!(
            "expected aggregate (count/sum/min/max), found {}",
            self.peek().kind
        ))
    }

    // -- named-column machinery --------------------------------------------

    fn at_pre_col(&self) -> bool {
        match &self.peek().kind {
            TokenKind::Int(_) => true,
            TokenKind::Ident(s) => !KEYWORDS.contains(&s.as_str()),
            _ => false,
        }
    }

    /// A column reference: a position or an attribute name.
    fn pre_col(&mut self) -> Result<PreCol, ParseError> {
        match &self.peek().kind {
            TokenKind::Int(_) => Ok(PreCol::Pos(self.expect_usize()?)),
            TokenKind::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                let name = s.clone();
                let offset = self.peek().offset;
                self.advance();
                Ok(PreCol::Named(name, offset))
            }
            other => self.error(format!("expected column (position or name), found {other}")),
        }
    }

    /// Inferred output attribute names of `q`, when a catalog is present.
    fn attrs_for(&self, q: &Query) -> Option<Vec<Option<String>>> {
        let catalog = self.catalog?;
        hypoquery_algebra::attrs_of(q, catalog).ok()
    }

    /// [`Parser::attrs_for`], computed only if a named column needs it.
    fn attrs_if(&self, named: bool, q: &Query) -> Option<Vec<Option<String>>> {
        named.then(|| self.attrs_for(q)).flatten()
    }

    fn resolve_col(&self, col: PreCol, attrs: Attrs) -> Result<usize, ParseError> {
        match col {
            PreCol::Pos(i) => Ok(i),
            PreCol::Named(name, offset) => {
                let attrs = attrs.ok_or(ParseError {
                    offset,
                    message: format!(
                        "named column `{name}` requires a schema with attribute names"
                    ),
                })?;
                hypoquery_algebra::position_of(attrs, &name).ok_or(ParseError {
                    offset,
                    message: format!("no column named `{name}` in this input"),
                })
            }
        }
    }

    fn resolve_cols(&self, cols: Vec<PreCol>, attrs: Attrs) -> Result<Vec<usize>, ParseError> {
        cols.into_iter()
            .map(|c| self.resolve_col(c, attrs))
            .collect()
    }

    fn resolve_agg(&self, agg: PreAgg, attrs: Attrs) -> Result<AggExpr, ParseError> {
        Ok(match agg {
            PreAgg::Count => AggExpr::Count,
            PreAgg::Sum(c) => AggExpr::Sum(self.resolve_col(c, attrs)?),
            PreAgg::Min(c) => AggExpr::Min(self.resolve_col(c, attrs)?),
            PreAgg::Max(c) => AggExpr::Max(self.resolve_col(c, attrs)?),
        })
    }

    fn resolve_pred(&self, p: PrePred, attrs: Attrs) -> Result<Predicate, ParseError> {
        Ok(match p {
            PrePred::True => Predicate::True,
            PrePred::False => Predicate::False,
            PrePred::Cmp(a, op, b) => Predicate::Cmp(
                self.resolve_scalar(a, attrs)?,
                op,
                self.resolve_scalar(b, attrs)?,
            ),
            PrePred::And(a, b) => self
                .resolve_pred(*a, attrs)?
                .and(self.resolve_pred(*b, attrs)?),
            PrePred::Or(a, b) => self
                .resolve_pred(*a, attrs)?
                .or(self.resolve_pred(*b, attrs)?),
            PrePred::Not(a) => self.resolve_pred(*a, attrs)?.not(),
        })
    }

    fn resolve_scalar(&self, s: PreScalar, attrs: Attrs) -> Result<ScalarExpr, ParseError> {
        Ok(match s {
            PreScalar::Col(c) => ScalarExpr::Col(self.resolve_col(c, attrs)?),
            PreScalar::Const(v) => ScalarExpr::Const(v),
        })
    }

    /// `'(' [lit (',' lit)*] ')'`: the fields of `row(…)` and of each of
    /// LOAD's rows. `()` is the 0-ary row.
    fn row_literal(&mut self) -> Result<Tuple, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut vals = Vec::new();
        if self.peek().kind != TokenKind::RParen {
            vals.push(self.literal()?);
            while self.peek().kind == TokenKind::Comma {
                self.advance();
                vals.push(self.literal()?);
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Tuple::new(vals))
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Value::int(v))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Value::str(s))
            }
            TokenKind::Ident(ref s) if s == "true" => {
                self.advance();
                Ok(Value::bool(true))
            }
            TokenKind::Ident(ref s) if s == "false" => {
                self.advance();
                Ok(Value::bool(false))
            }
            other => self.error(format!("expected literal, found {other}")),
        }
    }

    // -- state expressions ---------------------------------------------------

    fn state_expr(&mut self) -> Result<(StateExpr, usize), ParseError> {
        self.descend()?;
        let (mut eta, mut h) = self.state_primary()?;
        while self.peek().kind == TokenKind::Hash {
            self.advance();
            let (rhs, hr) = self.state_primary()?;
            h = self.height(1 + h.max(hr))?;
            eta = eta.compose(rhs);
        }
        self.depth -= 1;
        Ok((eta, h))
    }

    fn state_primary(&mut self) -> Result<(StateExpr, usize), ParseError> {
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            let eta = self.state_expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(eta);
        }
        self.expect(&TokenKind::LBrace)?;
        // Empty substitution.
        if self.peek().kind == TokenKind::RBrace {
            self.advance();
            return Ok((StateExpr::subst(ExplicitSubst::empty()), 1));
        }
        // Update?
        if self.at_keyword("insert") || self.at_keyword("delete") || self.at_keyword("if") {
            let (u, h) = self.update()?;
            self.expect(&TokenKind::RBrace)?;
            return Ok((StateExpr::update(u), self.height(1 + h)?));
        }
        // Explicit substitution: binding (',' binding)*.
        let mut subst = ExplicitSubst::empty();
        let mut h = 0;
        loop {
            let (q, hq) = self.query()?;
            h = h.max(hq);
            self.expect(&TokenKind::Slash)?;
            let name = self.expect_name()?;
            subst.bind(name, q);
            if self.peek().kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok((StateExpr::subst(subst), self.height(1 + h)?))
    }

    // -- updates -------------------------------------------------------------

    fn update(&mut self) -> Result<(Update, usize), ParseError> {
        self.descend()?;
        let (mut u, mut h) = self.atomic_update()?;
        while self.peek().kind == TokenKind::Semi {
            self.advance();
            let (rhs, hr) = self.atomic_update()?;
            h = self.height(1 + h.max(hr))?;
            u = u.then(rhs);
        }
        self.depth -= 1;
        Ok((u, h))
    }

    fn atomic_update(&mut self) -> Result<(Update, usize), ParseError> {
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            let u = self.update()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(u);
        }
        if self.eat_keyword("insert") {
            self.expect_keyword("into")?;
            let name = self.expect_name()?;
            let (q, h) = self.factor()?;
            return Ok((Update::insert(name, q), self.height(1 + h)?));
        }
        if self.eat_keyword("delete") {
            self.expect_keyword("from")?;
            let name = self.expect_name()?;
            let (q, h) = self.factor()?;
            return Ok((Update::delete(name, q), self.height(1 + h)?));
        }
        if self.eat_keyword("if") {
            let (guard, hg) = self.query()?;
            self.expect_keyword("then")?;
            let (then_u, ht) = self.update()?;
            self.expect_keyword("else")?;
            let (else_u, he) = self.update()?;
            self.expect_keyword("end")?;
            let h = self.height(1 + hg.max(ht).max(he))?;
            return Ok((Update::cond(guard, then_u, else_u), h));
        }
        self.error(format!(
            "expected update (insert/delete/if), found {}",
            self.peek().kind
        ))
    }

    // -- predicates ------------------------------------------------------------

    fn pre_predicate(&mut self) -> Result<(PrePred, usize), ParseError> {
        self.descend()?;
        let (mut p, mut h) = self.pre_and()?;
        while self.eat_keyword("or") {
            let (rhs, hr) = self.pre_and()?;
            h = self.height(1 + h.max(hr))?;
            p = PrePred::Or(Box::new(p), Box::new(rhs));
        }
        self.depth -= 1;
        Ok((p, h))
    }

    fn pre_and(&mut self) -> Result<(PrePred, usize), ParseError> {
        let (mut p, mut h) = self.pre_unary()?;
        while self.eat_keyword("and") {
            let (rhs, hr) = self.pre_unary()?;
            h = self.height(1 + h.max(hr))?;
            p = PrePred::And(Box::new(p), Box::new(rhs));
        }
        Ok((p, h))
    }

    fn pre_unary(&mut self) -> Result<(PrePred, usize), ParseError> {
        if self.eat_keyword("not") {
            self.descend()?;
            let (p, h) = self.pre_unary()?;
            self.depth -= 1;
            return Ok((PrePred::Not(Box::new(p)), self.height(1 + h)?));
        }
        // `true`/`false` are predicates unless compared (`true = #0`).
        let compared = self
            .toks
            .get(self.pos + 1)
            .is_some_and(|t| CMP_OPS.iter().any(|(k, _)| *k == t.kind));
        if !compared && self.eat_keyword("true") {
            return Ok((PrePred::True, 1));
        }
        if !compared && self.eat_keyword("false") {
            return Ok((PrePred::False, 1));
        }
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            let p = self.pre_predicate()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(p);
        }
        let a = self.pre_scalar()?;
        let op = self.cmp_op()?;
        let b = self.pre_scalar()?;
        Ok((PrePred::Cmp(a, op, b), 1))
    }

    fn pre_scalar(&mut self) -> Result<PreScalar, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Hash => {
                self.advance();
                Ok(PreScalar::Col(PreCol::Pos(self.expect_usize()?)))
            }
            TokenKind::Int(_) | TokenKind::Str(_) => Ok(PreScalar::Const(self.literal()?)),
            TokenKind::Ident(ref b) if b == "true" || b == "false" => {
                Ok(PreScalar::Const(self.literal()?))
            }
            TokenKind::Ident(ref name) if !KEYWORDS.contains(&name.as_str()) => {
                let name = name.clone();
                let offset = self.peek().offset;
                self.advance();
                Ok(PreScalar::Col(PreCol::Named(name, offset)))
            }
            other => self.error(format!(
                "expected scalar (#N, column name, integer, string), found {other}"
            )),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let Some(&(_, op)) = CMP_OPS.iter().find(|(k, _)| *k == self.peek().kind) else {
            return self.error(format!(
                "expected comparison operator, found {}",
                self.peek().kind
            ));
        };
        self.advance();
        Ok(op)
    }

    fn finish<T>(&mut self, value: T) -> Result<T, ParseError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(value)
        } else {
            self.error(format!("unexpected trailing input: {}", self.peek().kind))
        }
    }
}

/// Parse a complete query (positional column references only).
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let mut p = Parser::new(src, None)?;
    let (q, _) = p.query()?;
    p.finish(q)
}

/// Parse a complete query, resolving named column references
/// (`salary >= 200`) against the catalog's attribute names.
pub fn parse_query_named(src: &str, catalog: &Catalog) -> Result<Query, ParseError> {
    let mut p = Parser::new(src, Some(catalog))?;
    let (q, _) = p.query()?;
    p.finish(q)
}

/// Parse a complete update expression (positional columns only).
pub fn parse_update(src: &str) -> Result<Update, ParseError> {
    let mut p = Parser::new(src, None)?;
    let (u, _) = p.update()?;
    p.finish(u)
}

/// Parse a complete update expression with named-column resolution.
pub fn parse_update_named(src: &str, catalog: &Catalog) -> Result<Update, ParseError> {
    let mut p = Parser::new(src, Some(catalog))?;
    let (u, _) = p.update()?;
    p.finish(u)
}

/// Parse a complete hypothetical-state expression.
pub fn parse_state_expr(src: &str) -> Result<StateExpr, ParseError> {
    let mut p = Parser::new(src, None)?;
    let (eta, _) = p.state_expr()?;
    p.finish(eta)
}

/// Parse a complete hypothetical-state expression with named-column
/// resolution.
pub fn parse_state_expr_named(src: &str, catalog: &Catalog) -> Result<StateExpr, ParseError> {
    let mut p = Parser::new(src, Some(catalog))?;
    let (eta, _) = p.state_expr()?;
    p.finish(eta)
}

/// Parse a complete predicate (positional columns only — there is no
/// input schema to resolve names against).
pub fn parse_predicate(src: &str) -> Result<Predicate, ParseError> {
    let mut p = Parser::new(src, None)?;
    let (pred, _) = p.pre_predicate()?;
    let pred = p.resolve_pred(pred, None)?;
    p.finish(pred)
}

/// Parse `LOAD`'s inline rows, `(v, …) (v, …)`: each row holds the
/// literals `row(…)` reads, and `()` is the 0-ary row.
pub fn parse_rows(src: &str) -> Result<Vec<Tuple>, ParseError> {
    let mut p = Parser::new(src, None)?;
    let mut rows = Vec::new();
    while p.peek().kind != TokenKind::Eof {
        rows.push(p.row_literal()?);
    }
    Ok(rows)
}

/// Check whether `name` is reserved as a keyword in the surface language.
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_2_1b() {
        // ((R ⋈ S) when {ins(R, σ_{#0>30}(S))}) when {del(S, σ_{#0<60}(S))}
        let q = parse_query(
            "(R join S on #0 = #2) \
             when {insert into R (select #0 > 30 (S))} \
             when {delete from S (select #0 < 60 (S))}",
        )
        .unwrap();
        let expected = Query::base("R")
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
            .when(StateExpr::update(Update::insert(
                "R",
                Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
            )))
            .when(StateExpr::update(Update::delete(
                "S",
                Query::base("S").select(Predicate::col_cmp(0, CmpOp::Lt, 60)),
            )));
        assert_eq!(q, expected);
    }

    #[test]
    fn set_operators_left_assoc() {
        let q = parse_query("R union S except T intersect R").unwrap();
        assert_eq!(
            q,
            Query::base("R")
                .union(Query::base("S"))
                .diff(Query::base("T"))
                .intersect(Query::base("R"))
        );
    }

    #[test]
    fn explicit_substitutions_and_composition() {
        let eta = parse_state_expr("{S / R, select #0 = 1 (R) / S} # {insert into T (R)}").unwrap();
        match eta {
            StateExpr::Compose(a, b) => {
                let eps = a.as_subst().unwrap();
                assert_eq!(eps.len(), 2);
                assert_eq!(eps.get(&"R".into()), Some(&Query::base("S")));
                assert!(matches!(*b, StateExpr::Update(_)));
            }
            other => panic!("expected composition, got {other}"),
        }
    }

    #[test]
    fn empty_substitution_parses() {
        assert_eq!(
            parse_state_expr("{}").unwrap(),
            StateExpr::subst(ExplicitSubst::empty())
        );
    }

    #[test]
    fn rows_empties_projections_aggregates() {
        let q = parse_query("project 1, 0 (row(1, \"x\") union empty(2))").unwrap();
        assert_eq!(
            q,
            Query::singleton(hypoquery_storage::tuple![1, "x"])
                .union(Query::empty(2))
                .project([1usize, 0])
        );
        let q = parse_query("aggregate [0; count, sum 1] (R)").unwrap();
        assert_eq!(
            q,
            Query::base("R").aggregate([0], [AggExpr::Count, AggExpr::Sum(1)])
        );
        // Global aggregate: empty group-by list.
        let q = parse_query("aggregate [; count] (R)").unwrap();
        assert_eq!(
            q,
            Query::base("R").aggregate(Vec::<usize>::new(), [AggExpr::Count])
        );
    }

    #[test]
    fn conditional_updates() {
        let u =
            parse_update("if select #0 = 1 (V) then insert into R (S) else delete from R (S) end")
                .unwrap();
        assert!(matches!(u, Update::Cond { .. }));
        // Sequencing.
        let u = parse_update("insert into R (S); delete from S (S); insert into T (R)").unwrap();
        assert_eq!(u.flatten().len(), 3);
    }

    #[test]
    fn predicates_full_grammar() {
        let p = parse_predicate("not (#0 < 3 and #1 <> \"a\") or true").unwrap();
        assert_eq!(
            p,
            Predicate::col_cmp(0, CmpOp::Lt, 3)
                .and(Predicate::Cmp(
                    ScalarExpr::Col(1),
                    CmpOp::Ne,
                    ScalarExpr::Const(Value::str("a"))
                ))
                .not()
                .or(Predicate::True)
        );
    }

    /// Run `f` on a thread with room for [`MAX_DEPTH`] levels of parser
    /// recursion in a debug build.
    fn on_big_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(hypoquery_algebra::MAX_DEPTH_STACK)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    fn is_too_deep<T: fmt::Debug>(r: Result<T, ParseError>) -> bool {
        matches!(r, Err(e) if e.message == too_deep())
    }

    #[test]
    fn recursion_past_the_limit_is_an_error() {
        on_big_stack(|| {
            let parens = |n| format!("{}R{}", "(".repeat(n), ")".repeat(n));
            assert_eq!(parse_query(&parens(MAX_DEPTH - 1)), Ok(Query::base("R")));
            assert!(is_too_deep(parse_query(&parens(MAX_DEPTH))));
            let nots = |n| format!("{}#0 = 1", "not ".repeat(n));
            assert!(parse_predicate(&nots(MAX_DEPTH - 2)).is_ok());
            assert!(is_too_deep(parse_predicate(&nots(100_000))));
            let braces = |n| format!("{}{{}}{}", "(".repeat(n), ")".repeat(n));
            assert!(is_too_deep(parse_state_expr(&braces(100_000))));
            let updates = |n| format!("{}insert into R (R){}", "(".repeat(n), ")".repeat(n));
            assert!(is_too_deep(parse_update(&updates(100_000))));
        });
    }

    /// Chains are built by loops, not recursion, but the trees they build
    /// are bounded by the same limit, with the height
    /// [`hypoquery_algebra::depth::height`] measures.
    #[test]
    fn trees_past_the_limit_are_an_error() {
        let union_chain = |n| format!("R{}", " union R".repeat(n - 1));
        let q = parse_query(&union_chain(MAX_DEPTH)).unwrap();
        assert_eq!(hypoquery_algebra::depth::height(&q), MAX_DEPTH);
        assert!(is_too_deep(parse_query(&union_chain(MAX_DEPTH + 1))));
        assert!(is_too_deep(parse_query(&union_chain(100_000))));
        // A chain nested as the left operand of another adds to its height.
        let half = format!("R{}", " union R".repeat(MAX_DEPTH / 2));
        assert!(is_too_deep(parse_query(&format!("({half}){}", &half[1..]))));
        let ors = format!("#0 = 1{}", " or #0 = 2".repeat(100_000));
        assert!(is_too_deep(parse_predicate(&ors)));
        let seq = format!("insert into R (R){}", "; delete from R (R)".repeat(100_000));
        assert!(is_too_deep(parse_update(&seq)));
        let compose = format!("{{}}{}", " # {}".repeat(100_000));
        assert!(is_too_deep(parse_state_expr(&compose)));
    }

    #[test]
    fn errors_have_positions_and_messages() {
        let e = parse_query("select #0 > (S)").unwrap_err();
        assert!(e.to_string().contains("expected scalar"), "{e}");
        let e = parse_query("R union").unwrap_err();
        assert!(e.offset > 0);
        let e = parse_query("R S").unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        let e = parse_query("select true (S").unwrap_err();
        assert!(e.to_string().contains("expected `)`"), "{e}");
    }

    #[test]
    fn keywords_cannot_name_relations() {
        let e = parse_query("union").unwrap_err();
        assert!(e.to_string().contains("keyword"), "{e}");
        let e = parse_state_expr("{R / when}").unwrap_err();
        assert!(e.to_string().contains("keyword"), "{e}");
        assert!(is_keyword("when"));
        assert!(!is_keyword("R"));
    }

    #[test]
    fn when_binds_loosest() {
        let q = parse_query("R union S when {insert into R (S)}").unwrap();
        match q {
            Query::When(body, _) => {
                assert_eq!(*body, Query::base("R").union(Query::base("S")));
            }
            other => panic!("expected when at root, got {other}"),
        }
    }

    #[test]
    fn parenthesized_state_composition_after_when() {
        let q = parse_query("R when ({insert into R (S)} # {delete from R (S)})").unwrap();
        match q {
            Query::When(_, eta) => assert!(matches!(*eta, StateExpr::Compose(_, _))),
            other => panic!("expected when, got {other}"),
        }
    }

    #[test]
    fn documented_syntax_parses() {
        for src in [
            "R",
            "row(1, 2)",
            "empty(0)",
            "select #0 >= 60 (S)",
            "project 0 (R times V)",
            "R join S on #0 = #2 and #1 > 5",
            "R when {}",
            "(R except S) when {S / R}",
        ] {
            parse_query(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }
}

#[cfg(test)]
mod named_tests {
    use super::*;
    use hypoquery_storage::RelSchema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("emp", RelSchema::named(["id", "salary"]))
            .unwrap();
        c.declare("dept", RelSchema::named(["emp_id", "dept_id"]))
            .unwrap();
        c.declare_arity("anon", 2).unwrap();
        c
    }

    #[test]
    fn named_select_resolves() {
        let c = catalog();
        let q = parse_query_named("select salary >= 200 (emp)", &c).unwrap();
        assert_eq!(
            q,
            Query::base("emp").select(Predicate::col_cmp(1, CmpOp::Ge, 200))
        );
        // Mixed named and positional.
        let q = parse_query_named("select salary >= 200 and #0 < 5 (emp)", &c).unwrap();
        assert_eq!(
            q,
            Query::base("emp").select(
                Predicate::col_cmp(1, CmpOp::Ge, 200).and(Predicate::col_cmp(0, CmpOp::Lt, 5))
            )
        );
    }

    #[test]
    fn named_join_resolves_across_sides() {
        let c = catalog();
        let q = parse_query_named("emp join dept on id = emp_id", &c).unwrap();
        assert_eq!(
            q,
            Query::base("emp").join(Query::base("dept"), Predicate::col_col(0, CmpOp::Eq, 2))
        );
    }

    #[test]
    fn named_project_and_aggregate() {
        let c = catalog();
        let q = parse_query_named("project salary, id (emp)", &c).unwrap();
        assert_eq!(q, Query::base("emp").project([1usize, 0]));
        let q = parse_query_named("aggregate [id; count, sum salary] (emp)", &c).unwrap();
        assert_eq!(
            q,
            Query::base("emp").aggregate([0], [AggExpr::Count, AggExpr::Sum(1)])
        );
    }

    #[test]
    fn names_flow_through_operators() {
        let c = catalog();
        // After projecting salary first, `salary` is column 0.
        let q = parse_query_named("select salary > 10 (project salary (emp))", &c).unwrap();
        assert_eq!(
            q,
            Query::base("emp")
                .project([1usize])
                .select(Predicate::col_cmp(0, CmpOp::Gt, 10))
        );
        // Names survive a `when`.
        let q =
            parse_query_named("select salary > 10 (emp when {insert into emp (emp)})", &c).unwrap();
        assert!(matches!(q, Query::Select(_, _)));
    }

    #[test]
    fn named_update_queries() {
        let c = catalog();
        let u = parse_update_named("delete from emp (select salary < 100 (emp))", &c).unwrap();
        assert_eq!(
            u,
            Update::delete(
                "emp",
                Query::base("emp").select(Predicate::col_cmp(1, CmpOp::Lt, 100))
            )
        );
    }

    #[test]
    fn unknown_and_unresolvable_names_error() {
        let c = catalog();
        let e = parse_query_named("select wages > 10 (emp)", &c).unwrap_err();
        assert!(e.to_string().contains("no column named `wages`"), "{e}");
        // Anonymous schema: names cannot resolve.
        let e = parse_query_named("select wages > 10 (anon)", &c).unwrap_err();
        assert!(e.to_string().contains("no column named"), "{e}");
        // No catalog at all: clear error.
        let e = parse_query("select salary > 10 (emp)").unwrap_err();
        assert!(e.to_string().contains("requires a schema"), "{e}");
    }

    #[test]
    fn named_column_resolves_deep_in_a_long_join_chain() {
        let c = catalog();
        // A named column early, positional links, then names again at the
        // end of the chain: `dept_id` is the chain's last column.
        let links = 300;
        let src = format!(
            "emp join anon on salary = #2{} times anon join dept on dept_id = id",
            " join anon on #0 = #2".repeat(links)
        );
        let mut expected =
            Query::base("emp").join(Query::base("anon"), Predicate::col_col(1, CmpOp::Eq, 2));
        for _ in 0..links {
            expected = expected.join(Query::base("anon"), Predicate::col_col(0, CmpOp::Eq, 2));
        }
        let width = 2 + 2 * (links + 2);
        let expected = expected.product(Query::base("anon")).join(
            Query::base("dept"),
            Predicate::col_col(width + 1, CmpOp::Eq, 0),
        );
        assert_eq!(parse_query_named(&src, &c).unwrap(), expected);
    }

    #[test]
    fn join_name_collision_takes_first() {
        let mut c = catalog();
        c.declare("emp2", RelSchema::named(["id", "bonus"]))
            .unwrap();
        // Both sides have `id`; the first occurrence (left side, col 0)
        // wins — document-by-test.
        let q = parse_query_named("emp join emp2 on id = bonus", &c).unwrap();
        assert_eq!(
            q,
            Query::base("emp").join(Query::base("emp2"), Predicate::col_col(0, CmpOp::Eq, 3))
        );
    }
}
