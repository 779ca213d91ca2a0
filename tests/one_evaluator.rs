//! Every way of running a query gives the same answer, because every way
//! runs the same collection operators: `Session::run` (program
//! statements), `Session::query` (the streamed worker), `query_first_n`
//! prefixes, and a session with every optimizer rule set off (no joins,
//! no parallel loops, no cached subqueries in the plan). Each CPL text
//! below is run all four ways; values, printed forms and error classes
//! must agree.

use std::mem::discriminant;

use kleisli::{Session, StmtResult};
use kleisli_core::{KError, KResult, Value};
use kleisli_opt::OptConfig;

/// Large enough to drain every result below.
const ALL: usize = 1000;

const CASES: &[&str] = &[
    // Scalar roots over comprehensions.
    r"sum({x * 2 | \x <- S})",
    r"count({| x | \x <- B, x > 1 |})",
    r"count({[a = p.v, b = q.v] | \p <- P, \q <- Q, p.k = q.k})",
    r"if isempty({x | \x <- S, x > 100}) then 1 else 2",
    // Comprehensions nested inside records and primitives.
    r"[evens = {x | \x <- S, x mod 2 = 0}, next = [| l + 1 | \l <- L |]]",
    r"{[k = p.k, partners = {q.v | \q <- Q, q.k = p.k}] | \p <- P}",
    r"member(3, {x + 1 | \x <- S})",
    // Set, list and bag joins.
    r"{[a = p.v, b = q.v] | \p <- P, \q <- Q, p.k = q.k}",
    r"{[a = p.v, b = q.v] | \p <- P, \q <- Q, p.k < q.k}",
    r"[| [a = l, b = r] | \l <- L, \r <- R, l < r + 100 |]",
    r"[| [a = l, b = r] | \l <- L, \r <- R, l = r |]",
    r"{| [a = x, b = y] | \x <- B, \y <- B, x < y |}",
    // Unions and flattening.
    r"{1, 2, 3, 2}",
    r"[| 3, 1, 2 |]",
    r"{x | \s <- {S, {100, 200}}, \x <- s}",
    r"{| x | \b <- {| B, {| 9, 9 |} |}, \x <- b |}",
    r"[| x | \l <- [| L, R |], \x <- l |]",
    // The paper's keyword inversion over nested publications.
    r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] | \y <- DB, \k <- y.keywd}",
    // Runtime errors.
    r"{10 / x | \x <- S}",
    r"sum({10 / x | \x <- S})",
    r"[| 10 / (l - 2) | \l <- L |]",
    r"{[a = p.v, b = 1 / (q.v - 3)] | \p <- P, \q <- Q, p.k = q.k}",
    // Compile-time errors.
    r"{p.year.title | \p <- DB}",
    r"{x | \x <- NoSuchName}",
    r"{x | \x <- S",
];

fn bind(s: &mut Session) {
    let ints = |r: std::ops::Range<i64>| r.map(Value::Int).collect::<Vec<_>>();
    let keyed = |n: i64, m: i64| {
        Value::set(
            (0..n)
                .map(|i| Value::record_from(vec![("k", Value::Int(i % m)), ("v", Value::Int(i))]))
                .collect(),
        )
    };
    s.bind_value("S", Value::set(ints(0..6)));
    s.bind_value("L", Value::list(ints(0..5)));
    s.bind_value("R", Value::list(ints(0..3)));
    let bag = [1, 1, 2, 3, 3, 3].into_iter().map(Value::Int).collect();
    s.bind_value("B", Value::bag(bag));
    s.bind_value("P", keyed(12, 4));
    s.bind_value("Q", keyed(9, 3));
    s.bind_value("DB", bio_data::publications(12, 1995));
}

fn session(config: OptConfig) -> Session {
    let mut s = Session::new();
    bind(&mut s);
    s.set_opt_config(config);
    s
}

fn run_value(s: &mut Session, text: &str) -> KResult<Value> {
    match s.run(&format!("{text};"))?.pop() {
        Some(StmtResult::Value(v)) => Ok(v),
        other => panic!("{text}: expected a value statement, got {other:?}"),
    }
}

/// Same value and printed form, or errors of the same class.
fn assert_agree(text: &str, path: &str, got: &KResult<Value>, want: &KResult<Value>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g, w, "{text}: {path} disagrees on the value");
            assert_eq!(
                g.to_string(),
                w.to_string(),
                "{text}: {path} prints differently"
            );
        }
        (Err(g), Err(w)) => assert_eq!(
            discriminant(g),
            discriminant(w),
            "{text}: {path} raised {g:?}, the query raised {w:?}"
        ),
        _ => panic!("{text}: {path} gave {got:?}, the query gave {want:?}"),
    }
}

/// A prefix of `n` rows must be drawn from the full result: the list
/// prefix in order, set prefixes distinct, bag prefixes within the
/// multiset.
fn assert_prefix(text: &str, full: &Value, n: usize, prefix: &[Value]) {
    let all = full.elements().expect("collection");
    assert_eq!(
        prefix.len(),
        n.min(all.len()),
        "{text}: first_n({n}) length"
    );
    match full {
        Value::List(_) => assert_eq!(prefix, &all[..prefix.len()], "{text}: first_n({n})"),
        Value::Set(_) => {
            for (i, v) in prefix.iter().enumerate() {
                assert!(all.contains(v), "{text}: first_n({n}) invented {v}");
                assert!(
                    !prefix[..i].contains(v),
                    "{text}: first_n({n}) repeated {v}"
                );
            }
        }
        _ => {
            for v in prefix {
                let have = all.iter().filter(|x| *x == v).count();
                let took = prefix.iter().filter(|x| *x == v).count();
                assert!(
                    took <= have,
                    "{text}: first_n({n}) took {v} {took}x of {have}"
                );
            }
        }
    }
}

#[test]
fn every_path_agrees_on_values_and_errors() {
    let mut optimized = session(OptConfig::default());
    let mut unoptimized = session(OptConfig::none());
    for text in CASES {
        let want = optimized.query(text);
        assert_agree(text, "run", &run_value(&mut optimized, text), &want);
        assert_agree(text, "query without rules", &unoptimized.query(text), &want);
        assert_agree(
            text,
            "run without rules",
            &run_value(&mut unoptimized, text),
            &want,
        );
        match &want {
            Ok(full) if full.elements().is_some() => {
                for n in 0..=full.len().unwrap_or(0) + 1 {
                    let prefix = optimized.query_first_n(text, n).expect("prefix");
                    assert_prefix(text, full, n, &prefix);
                }
            }
            Ok(_) => {}
            Err(_) => {
                let drained = optimized.query_first_n(text, ALL).map(Value::list);
                assert_agree(text, "first_n", &drained, &want);
            }
        }
    }
}

#[test]
fn the_table_covers_joins_values_and_errors() {
    // Guard the table itself: the optimizer must plan local joins for the
    // join texts, and both outcomes must be represented.
    let s = session(OptConfig::default());
    let joins = CASES
        .iter()
        .filter(|t| {
            let c = s.compile(t);
            c.map(|c| c.optimized.to_string().contains("-JOIN"))
                .unwrap_or(false)
        })
        .count();
    assert!(joins >= 4, "only {joins} texts plan a local join");
    let errors: Vec<KError> = CASES.iter().filter_map(|t| s.query(t).err()).collect();
    assert!(errors.iter().any(|e| matches!(e, KError::Eval(_))));
    assert!(errors.iter().any(|e| matches!(e, KError::Type(_))));
    assert!(errors.len() < CASES.len() / 2);
}
