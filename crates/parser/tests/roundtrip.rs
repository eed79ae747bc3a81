//! Print/parse round-trip: `parse(x.to_string()) == x` on random
//! well-formed queries, updates and state expressions, with literals that
//! need the string escapes woven in.

use proptest::prelude::*;

use hypoquery_algebra::{
    AggExpr, CmpOp, ExplicitSubst, Predicate, Query, ScalarExpr, StateExpr, Update,
};
use hypoquery_parser::{parse_query, parse_rows, parse_state_expr, parse_update};
use hypoquery_storage::{tuple, Tuple, Value};
use hypoquery_testkit::{arb_query, arb_state_expr, arb_update, Universe};

/// Strings over an alphabet of the characters the printer must escape
/// (`"`, `\`, tab, newline) and those LOAD's rows once split on (`,`, `)`).
fn arb_text() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'Z', ' ', '"', '\\', '\t', '\n', ',', ')', '(', '#', 'é',
    ];
    prop::collection::vec(prop::sample::select(alphabet), 0..8)
        .prop_map(|cs| cs.into_iter().collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::int),
        Just(Value::int(i64::MIN)),
        any::<bool>().prop_map(Value::bool),
        arb_text().prop_map(Value::str),
    ]
}

fn arb_row() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), 0..4).prop_map(Tuple::new)
}

/// `q`, with a row and a compared constant of `v` around it. The arities
/// need not agree: printing and parsing are syntax only.
fn with_literals(q: Query, row: Tuple, v: Value) -> Query {
    let cmp = Predicate::Cmp(ScalarExpr::Const(v), CmpOp::Ne, ScalarExpr::Col(0));
    q.union(Query::singleton(row)).select(cmp)
}

fn roundtrips_query(q: &Query) {
    let src = q.to_string();
    let back = parse_query(&src)
        .unwrap_or_else(|e| panic!("Display produced unparseable source:\n{src}\n{e}"));
    assert_eq!(&back, q, "source: {src}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn query_roundtrip(
        q in arb_query(&Universe::standard(), 2, 4),
        row in arb_row(),
        v in arb_value(),
    ) {
        roundtrips_query(&q);
        roundtrips_query(&with_literals(q, row, v));
    }

    #[test]
    fn unary_query_roundtrip(q in arb_query(&Universe::standard(), 1, 4)) {
        roundtrips_query(&q);
    }

    #[test]
    fn update_roundtrip(u in arb_update(&Universe::standard(), 3), row in arb_row()) {
        let u = Update::insert("R", Query::singleton(row)).then(u);
        let src = u.to_string();
        prop_assert_eq!(parse_update(&src).unwrap(), u, "source: {}", src);
    }

    #[test]
    fn state_expr_roundtrip(
        eta in arb_state_expr(&Universe::standard(), 3),
        row in arb_row(),
        v in arb_value(),
    ) {
        let bound = with_literals(Query::base("S"), row, v);
        let eta = eta.compose(StateExpr::subst(ExplicitSubst::single("S", bound)));
        let src = eta.to_string();
        prop_assert_eq!(parse_state_expr(&src).unwrap(), eta, "source: {}", src);
    }

    #[test]
    fn rows_roundtrip(rows in prop::collection::vec(arb_row(), 0..4)) {
        let src: Vec<String> = rows.iter().map(Tuple::to_string).collect();
        let src = src.join(" ");
        prop_assert_eq!(parse_rows(&src).unwrap(), rows, "source: {}", src);
    }
}

#[test]
fn simple_roundtrips() {
    let cases = [
        Query::base("R"),
        Query::singleton(tuple![1, "a", true]),
        Query::singleton(Tuple::empty()),
        Query::empty(3),
        Query::base("R").select(Predicate::col_cmp(0, CmpOp::Ge, 60)),
        Query::base("R").select(Predicate::Cmp(
            ScalarExpr::Const(Value::bool(true)),
            CmpOp::Eq,
            ScalarExpr::Col(0),
        )),
        Query::base("R").project([1, 0]),
        Query::base("R").project(Vec::<usize>::new()),
        Query::base("R")
            .union(Query::base("S"))
            .diff(Query::base("T")),
        Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2)),
        Query::base("R").aggregate([0], [AggExpr::Count, AggExpr::Sum(1)]),
        Query::base("R").aggregate([0, 1], Vec::<AggExpr>::new()),
    ];
    for q in &cases {
        roundtrips_query(q);
    }
}

#[test]
fn string_escapes_roundtrip() {
    let q = Query::singleton(tuple![r#"a"b\c"#, "tab\there", "line\nbreak", "é, )"]);
    assert_eq!(
        q.to_string(),
        r#"row("a\"b\\c", "tab\there", "line\nbreak", "é, )")"#
    );
    roundtrips_query(&q);
}

#[test]
fn hypothetical_roundtrips() {
    let eta = StateExpr::update(
        Update::insert("R", Query::base("S")).then(Update::delete("S", Query::base("S"))),
    );
    let q = Query::base("R")
        .when(eta.clone())
        .when(StateExpr::subst(ExplicitSubst::single(
            "S",
            Query::base("R").select(Predicate::col_cmp(1, CmpOp::Lt, 5)),
        )));
    roundtrips_query(&q);
    roundtrips_query(&Query::base("R").when(StateExpr::subst(ExplicitSubst::empty())));

    let comp = eta.clone().compose(eta);
    let src = comp.to_string();
    assert_eq!(parse_state_expr(&src).unwrap(), comp, "source: {src}");
}

#[test]
fn update_roundtrips() {
    let ins = |r: &str| Update::insert(r, Query::base("S"));
    // A right-nested sequence keeps its shape.
    let right = ins("R").then(ins("S").then(ins("T")));
    assert_eq!(
        right.to_string(),
        "insert into R (S); (insert into S (S); insert into T (S))"
    );
    let u = Update::cond(
        Query::base("V"),
        right,
        Update::delete("R", Query::base("R")),
    );
    let src = u.to_string();
    assert!(
        src.starts_with("if V then ") && src.ends_with(" end"),
        "{src}"
    );
    assert_eq!(parse_update(&src).unwrap(), u, "source: {src}");
}
