//! The eager evaluator for NRC.
//!
//! Kleisli's evaluation mechanism "is basically eager, with rules used to
//! introduce a limited amount of laziness in strategic places" (Section 4).
//! This module is the eager core; the strategic laziness lives in
//! [`crate::stream`], and the `ParExt` case below overlaps its
//! per-element driver round-trips by scheduling each chunk on the
//! context's shared [`kleisli_core::Executor`] — bounded by the plan's
//! `max_in_flight` on top of the executor's own worker limit, with no
//! per-chunk OS threads.

use std::collections::HashMap;
use std::sync::Arc;

use kleisli_core::{CollKind, KError, KResult, Value};
use nrc::{Expr, JoinStrategy, Prim};

use crate::context::{request_from_value, CacheLookup, Context};
use crate::env::{Env, Rt};
use crate::prims::apply_prim;

/// Evaluate a closed, collection- or value-producing expression.
pub fn eval(e: &Expr, env: &Env, ctx: &Context) -> KResult<Value> {
    eval_rt(e, env, ctx)?.into_value()
}

/// Evaluate, permitting a function result (used for `Apply` heads).
pub fn eval_rt(e: &Expr, env: &Env, ctx: &Context) -> KResult<Rt> {
    match e {
        Expr::Const(v) => Ok(Rt::Val(v.clone())),
        Expr::Var(n) => env
            .lookup(n)
            .cloned()
            .ok_or_else(|| KError::Unbound(n.to_string())),
        Expr::Let { var, def, body } => {
            let d = eval_rt(def, env, ctx)?;
            eval_rt(body, &env.bind(Arc::clone(var), d), ctx)
        }
        Expr::Lambda { var, body } => Ok(Rt::Closure {
            var: Arc::clone(var),
            body: Arc::clone(body),
            env: env.clone(),
        }),
        Expr::Apply(f, a) => {
            let fv = eval_rt(f, env, ctx)?;
            let av = eval_rt(a, env, ctx)?;
            match fv {
                Rt::Closure {
                    var,
                    body,
                    env: cenv,
                } => eval_rt(&body, &cenv.bind(var, av), ctx),
                Rt::Val(v) => Err(KError::eval(format!(
                    "cannot apply a non-function ({})",
                    v.kind_name()
                ))),
            }
        }
        Expr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (n, fe) in fields {
                out.push((Arc::clone(n), eval(fe, env, ctx)?));
            }
            Ok(Rt::Val(Value::record(out)))
        }
        Expr::Proj(inner, field) => {
            let v = eval(inner, env, ctx)?;
            match &v {
                Value::Record(r) => r
                    .get(field)
                    .cloned()
                    .map(Rt::Val)
                    .ok_or_else(|| KError::eval(format!("record has no field '{field}': {v}"))),
                other => Err(KError::eval(format!(
                    "projection '.{field}' on non-record {}",
                    other.kind_name()
                ))),
            }
        }
        Expr::Inject(tag, inner) => Ok(Rt::Val(Value::Variant(
            Arc::clone(tag),
            Arc::new(eval(inner, env, ctx)?),
        ))),
        Expr::Case {
            scrutinee,
            arms,
            default,
        } => {
            let v = eval(scrutinee, env, ctx)?;
            let Value::Variant(tag, payload) = &v else {
                return Err(KError::eval(format!(
                    "case on non-variant {}",
                    v.kind_name()
                )));
            };
            for arm in arms {
                if arm.tag == *tag {
                    let env2 = env.bind(Arc::clone(&arm.var), Rt::Val((**payload).clone()));
                    return eval_rt(&arm.body, &env2, ctx);
                }
            }
            match default {
                Some(d) => eval_rt(d, env, ctx),
                None => Err(KError::eval(format!("no case arm for variant tag '{tag}'"))),
            }
        }
        Expr::Empty(kind) => Ok(Rt::Val(Value::empty(*kind))),
        Expr::Single(kind, inner) => Ok(Rt::Val(Value::collection(
            *kind,
            vec![eval(inner, env, ctx)?],
        ))),
        Expr::Union(kind, a, b) => {
            let va = eval(a, env, ctx)?;
            let vb = eval(b, env, ctx)?;
            union_values(*kind, va, vb)
        }
        Expr::Ext {
            kind,
            var,
            body,
            source,
        } => {
            let src = eval(source, env, ctx)?;
            let elems = any_coll_elems(&src, "comprehension generator")?;
            let mut out = Vec::new();
            for el in elems {
                let env2 = env.bind(Arc::clone(var), Rt::Val(el.clone()));
                let piece = eval(body, &env2, ctx)?;
                extend_from_piece(&mut out, &piece, *kind)?;
            }
            Ok(Rt::Val(Value::collection(*kind, out)))
        }
        Expr::If(c, t, f) => {
            let cv = eval(c, env, ctx)?;
            match cv {
                Value::Bool(true) => eval_rt(t, env, ctx),
                Value::Bool(false) => eval_rt(f, env, ctx),
                other => Err(KError::eval(format!(
                    "if condition must be bool, got {}",
                    other.kind_name()
                ))),
            }
        }
        Expr::Prim(p, args) => {
            // `and`/`or` short-circuit like the paper's examples expect.
            if *p == Prim::And || *p == Prim::Or {
                let a = eval(&args[0], env, ctx)?;
                if let Value::Bool(b) = a {
                    if (*p == Prim::And && !b) || (*p == Prim::Or && b) {
                        return Ok(Rt::Val(Value::Bool(b)));
                    }
                    return eval_rt(&args[1], env, ctx);
                }
                return Err(KError::eval(format!(
                    "'{p}' expects bool operands, got {}",
                    a.kind_name()
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, ctx)?);
            }
            apply_prim(*p, &vals, ctx).map(Rt::Val)
        }
        Expr::RemoteApp { driver, arg } => {
            let argv = eval(arg, env, ctx)?;
            let req = request_from_value(&argv)?;
            run_remote(driver, &req, ctx)
        }
        Expr::Remote { driver, request } => run_remote(driver, request, ctx),
        Expr::Join {
            kind,
            strategy,
            left,
            right,
            lvar,
            rvar,
            left_key,
            right_key,
            cond,
            body,
        } => {
            let lv = eval(left, env, ctx)?;
            let rv = eval(right, env, ctx)?;
            let lelems = coll_elems(&lv, *kind, "join left")?;
            let relems = coll_elems(&rv, *kind, "join right")?;
            let mut out = Vec::new();
            match strategy {
                JoinStrategy::BlockedNl { block_size } => {
                    // Scan the inner relation once per block of outer
                    // elements (I/O pattern of [Kim 80]). Blocking permutes
                    // the output order, which only lists observe: they
                    // keep nested-loop order (blocks of one). Equi-keys, if
                    // present, are folded into the condition.
                    let cond = match (left_key, right_key) {
                        (Some(lk), Some(rk)) => Expr::and_arc(
                            Arc::new(Expr::eq_arc(Arc::clone(lk), Arc::clone(rk))),
                            Arc::clone(cond),
                        ),
                        _ => (**cond).clone(),
                    };
                    let block = match kind {
                        CollKind::List => 1,
                        CollKind::Set | CollKind::Bag => (*block_size).max(1),
                    };
                    for chunk in lelems.chunks(block) {
                        for r in relems {
                            for l in chunk {
                                emit_join_pair(
                                    l, r, lvar, rvar, &cond, body, *kind, env, ctx, &mut out,
                                )?;
                            }
                        }
                    }
                }
                JoinStrategy::IndexedNl => {
                    // Build an index on the fly over the inner relation.
                    let rk = right_key
                        .as_ref()
                        .ok_or_else(|| KError::eval("indexed join without a right key"))?;
                    let lk = left_key
                        .as_ref()
                        .ok_or_else(|| KError::eval("indexed join without a left key"))?;
                    let mut index: HashMap<Value, Vec<&Value>> = HashMap::new();
                    for r in relems {
                        let env2 = env.bind(Arc::clone(rvar), Rt::Val(r.clone()));
                        let key = eval(rk, &env2, ctx)?;
                        index.entry(key).or_default().push(r);
                    }
                    for l in lelems {
                        let env2 = env.bind(Arc::clone(lvar), Rt::Val(l.clone()));
                        let key = eval(lk, &env2, ctx)?;
                        if let Some(matches) = index.get(&key) {
                            for r in matches {
                                emit_join_pair(
                                    l, r, lvar, rvar, cond, body, *kind, env, ctx, &mut out,
                                )?;
                            }
                        }
                    }
                }
            }
            Ok(Rt::Val(Value::collection(*kind, out)))
        }
        Expr::Cached { id, expr } => match ctx.cache_cell(*id).lookup_or_begin() {
            CacheLookup::Hit(v) => Ok(Rt::Val(v)),
            CacheLookup::Miss(ticket) => {
                // Single-flight: concurrent evaluators of the same id
                // block in lookup_or_begin until this commit (or until
                // the ticket is dropped by `?` on an Err, which aborts
                // and lets one of them retry).
                let v = eval(expr, env, ctx)?;
                ticket.commit(v.clone());
                Ok(Rt::Val(v))
            }
            // This thread is already populating this id higher up the
            // stack; evaluate without the cache to avoid self-deadlock.
            CacheLookup::Reentrant => Ok(Rt::Val(eval(expr, env, ctx)?)),
        },
        Expr::ParExt {
            kind,
            var,
            body,
            source,
            max_in_flight,
            batch,
        } => {
            let src = eval(source, env, ctx)?;
            let elems = any_coll_elems(&src, "parallel generator")?;
            // Fold the loop's per-element requests into batched wire
            // round-trips before the body runs; the guard keeps the
            // seeded flights answerable for the whole loop.
            let _seeds = batch
                .as_ref()
                .and_then(|spec| warm_up_batch(spec, elems, var, env, ctx));
            let pieces = eval_parallel(elems, var, body, env, ctx, *max_in_flight)?;
            let mut out = Vec::new();
            for piece in &pieces {
                extend_from_piece(&mut out, piece, *kind)?;
            }
            Ok(Rt::Val(Value::collection(*kind, out)))
        }
    }
}

/// The batching warm-up for a marked `ParExt`: evaluate the spec's
/// request argument for every source element (it is pure-local by the
/// optimizer's construction, so this duplicates no driver effects),
/// and ship the distinct requests as a few multi-key wire round-trips
/// via [`Context::submit_batch`]. Any surprise — an argument that fails
/// to evaluate, a non-request value, too few distinct keys, a driver
/// without batching — skips the warm-up entirely and returns `None`:
/// the per-element path then behaves exactly as unbatched, surfacing
/// its own errors in their usual place.
pub(crate) fn warm_up_batch(
    spec: &nrc::BatchSpec,
    elems: &[Value],
    var: &nrc::Name,
    env: &Env,
    ctx: &Context,
) -> Option<crate::context::BatchGuard> {
    if elems.len() < spec.min_keys.max(1) {
        return None;
    }
    let mut reqs = Vec::with_capacity(elems.len());
    for el in elems {
        let env2 = env.bind(Arc::clone(var), Rt::Val(el.clone()));
        let v = eval(&spec.arg, &env2, ctx).ok()?;
        reqs.push(request_from_value(&v).ok()?);
    }
    let mut distinct = 0usize;
    for (i, r) in reqs.iter().enumerate() {
        if !reqs[..i].contains(r) {
            distinct += 1;
        }
    }
    if distinct < spec.min_keys.max(1) {
        return None;
    }
    ctx.submit_batch(&spec.driver, &reqs).ok().flatten()
}

/// Evaluate `body` for every element of `elems`, at most `max_in_flight`
/// at a time, preserving element order in the result. This is the
/// parallel-retrieval primitive of Section 4 ("Laziness, Latency, and
/// Concurrency"): requests to remote servers overlap, but no more than the
/// server's tolerated number run at once.
///
/// Each chunk runs as a batch on the context's shared
/// [`kleisli_core::Executor`] — tasks own cheap clones of the body
/// `Arc`, the environment, and the context handle, so no OS thread is
/// ever created per element. The submitting thread helps drain its own
/// batch, which both caps in-flight work at `max_in_flight` and keeps
/// nested parallel loops deadlock-free on the bounded pool (see
/// `kleisli_core::executor`). A task that panics surfaces as an
/// evaluation error, and an error stops later chunks from being
/// submitted at all.
pub fn eval_parallel(
    elems: &[Value],
    var: &nrc::Name,
    body: &Arc<Expr>,
    env: &Env,
    ctx: &Context,
    max_in_flight: usize,
) -> KResult<Vec<Value>> {
    let width = max_in_flight.max(1);
    if width == 1 || elems.len() <= 1 {
        return elems
            .iter()
            .map(|el| eval(body, &env.bind(Arc::clone(var), Rt::Val(el.clone())), ctx))
            .collect();
    }
    let mut out = Vec::with_capacity(elems.len());
    for chunk in elems.chunks(width) {
        let tasks: Vec<Box<dyn FnOnce() -> KResult<Value> + Send>> = chunk
            .iter()
            .map(|el| {
                let env2 = env.bind(Arc::clone(var), Rt::Val(el.clone()));
                let body = Arc::clone(body);
                let ctx = ctx.clone();
                Box::new(move || eval(&body, &env2, &ctx))
                    as Box<dyn FnOnce() -> KResult<Value> + Send>
            })
            .collect();
        for r in ctx.executor().run_all(tasks) {
            out.push(r.unwrap_or_else(|| Err(KError::eval("worker thread panicked")))?);
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)] // one slot per join-clause binding
fn emit_join_pair(
    l: &Value,
    r: &Value,
    lvar: &nrc::Name,
    rvar: &nrc::Name,
    cond: &Expr,
    body: &Expr,
    kind: CollKind,
    env: &Env,
    ctx: &Context,
    out: &mut Vec<Value>,
) -> KResult<()> {
    let env2 = env
        .bind(Arc::clone(lvar), Rt::Val(l.clone()))
        .bind(Arc::clone(rvar), Rt::Val(r.clone()));
    match eval(cond, &env2, ctx)? {
        Value::Bool(true) => {
            let piece = eval(body, &env2, ctx)?;
            extend_from_piece(out, &piece, kind)
        }
        Value::Bool(false) => Ok(()),
        other => Err(KError::eval(format!(
            "join condition must be bool, got {}",
            other.kind_name()
        ))),
    }
}

fn run_remote(driver: &str, req: &kleisli_core::DriverRequest, ctx: &Context) -> KResult<Rt> {
    // Submit-then-wait: the eager evaluator is the blocking consumer of
    // the two-phase driver API (overlap lives in the streaming executor).
    // The wait enforces the driver's resilience policy and the query
    // deadline; the drain re-checks the budget at block boundaries so a
    // mid-stream stall resolves as Timeout, not a hang.
    let mut stream = ctx.submit_resilient(driver, req)?.wait()?;
    let mut out = Vec::new();
    while let Some(block) = stream.next_block(kleisli_core::DEFAULT_BLOCK_ROWS) {
        ctx.check_budget()?;
        for item in block.into_rows() {
            out.push(item?);
        }
    }
    Ok(Rt::Val(Value::set(out)))
}

/// Elements of *any* collection kind. CPL generators may draw from a
/// collection of a different kind than the comprehension produces (the
/// paper: "x <- p.authors matches elements of a list rather than elements
/// of a set").
fn any_coll_elems<'a>(v: &'a Value, what: &str) -> KResult<&'a [Value]> {
    v.elements().ok_or_else(|| {
        KError::eval(format!(
            "{what}: expected a collection, got {}",
            v.kind_name()
        ))
    })
}

fn coll_elems<'a>(v: &'a Value, kind: CollKind, what: &str) -> KResult<&'a [Value]> {
    match v.coll_kind() {
        Some(k) if k == kind => Ok(v.elements().expect("collection")),
        Some(k) => Err(KError::eval(format!(
            "{what}: expected a {}, got a {}",
            kind.name(),
            k.name()
        ))),
        None => Err(KError::eval(format!(
            "{what}: expected a {}, got {}",
            kind.name(),
            v.kind_name()
        ))),
    }
}

fn extend_from_piece(out: &mut Vec<Value>, piece: &Value, kind: CollKind) -> KResult<()> {
    match piece.coll_kind() {
        Some(k) if k == kind => {
            out.extend_from_slice(piece.elements().expect("collection"));
            Ok(())
        }
        _ => Err(KError::eval(format!(
            "comprehension body must produce a {}, got {}",
            kind.name(),
            piece.kind_name()
        ))),
    }
}

fn union_values(kind: CollKind, a: Value, b: Value) -> KResult<Rt> {
    let ea = coll_elems(&a, kind, "union")?;
    let eb = coll_elems(&b, kind, "union")?;
    let mut out = Vec::with_capacity(ea.len() + eb.len());
    out.extend_from_slice(ea);
    out.extend_from_slice(eb);
    Ok(Rt::Val(Value::collection(kind, out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpl::{desugar, parse_expr, Definitions};

    fn run_with(src: &str, defs: &Definitions) -> KResult<Value> {
        let ast = parse_expr(src).expect("parse");
        let e = desugar(&ast, defs)?;
        eval(&e, &Env::empty(), &Context::new())
    }

    fn publications() -> Value {
        let p = |title: &str, year: i64, authors: Vec<&str>, journal: Value, kw: Vec<&str>| {
            Value::record_from(vec![
                ("title", Value::str(title)),
                ("year", Value::Int(year)),
                (
                    "authors",
                    Value::list(
                        authors
                            .into_iter()
                            .map(|a| {
                                Value::record_from(vec![
                                    ("name", Value::str(a)),
                                    ("initial", Value::str("X")),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("journal", journal),
                (
                    "keywd",
                    Value::set(kw.into_iter().map(Value::str).collect()),
                ),
            ])
        };
        Value::set(vec![
            p(
                "Structure of the human perforin gene",
                1989,
                vec!["Lichtenheld", "Podack"],
                Value::variant(
                    "controlled",
                    Value::variant("medline-jta", Value::str("J Immunol")),
                ),
                vec!["Exons", "Base Sequence"],
            ),
            p(
                "A second paper",
                1988,
                vec!["Smith"],
                Value::variant("uncontrolled", Value::str("Ad Hoc Reviews")),
                vec!["Exons"],
            ),
        ])
    }

    fn pub_defs() -> Definitions {
        let mut defs = Definitions::new();
        defs.insert_value("DB", publications());
        defs
    }

    #[test]
    fn paper_title_authors_projection() {
        let v = run_with(
            r"{[title = p.title, authors = p.authors] | \p <- DB}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(v.len(), Some(2));
        let first = &v.elements().unwrap()[0];
        assert!(first.project("title").is_some());
        assert!(first.project("authors").is_some());
        assert!(first.project("year").is_none());
    }

    #[test]
    fn paper_pattern_and_filter_equivalence() {
        let a = run_with(
            r"{[title = t] | [title = \t, year = \y, ...] <- DB, y = 1988}",
            &pub_defs(),
        )
        .unwrap();
        let b = run_with(
            r"{[title = t] | [title = \t, year = 1988, ...] <- DB}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), Some(1));
    }

    #[test]
    fn paper_flatten_keywords() {
        let v = run_with(
            r"{[title = t, keyword = k] | [title = \t, keywd = \kk, ...] <- DB, \k <- kk}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(v.len(), Some(3));
    }

    #[test]
    fn paper_keyword_inversion() {
        let v = run_with(
            r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] | \y <- DB, \k <- y.keywd}",
            &pub_defs(),
        )
        .unwrap();
        // keywords: Exons (2 titles), Base Sequence (1 title)
        assert_eq!(v.len(), Some(2));
        let exons = v
            .elements()
            .unwrap()
            .iter()
            .find(|e| e.project("keyword") == Some(&Value::str("Exons")))
            .unwrap();
        assert_eq!(exons.project("titles").unwrap().len(), Some(2));
    }

    #[test]
    fn paper_uncontrolled_journals() {
        let v = run_with(
            r"{[name = n, title = t] | [title = \t, journal = <uncontrolled = \n>, ...] <- DB}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(v.len(), Some(1));
        assert_eq!(
            v.elements().unwrap()[0].project("name"),
            Some(&Value::str("Ad Hoc Reviews"))
        );
    }

    #[test]
    fn paper_jname_function() {
        let src = r#"
            define jname ==
                <uncontrolled = \s> => s
              | <controlled = <medline-jta = \s>> => s
              | <controlled = <iso-jta = \s>> => s
              | <controlled = <journal-title = \s>> => s
              | <controlled = <issn = \s>> => s;
            {[title = t, name = jname(v)] | [title = \t, journal = \v, ...] <- DB};
        "#;
        let stmts = cpl::parse_program(src).unwrap();
        let mut defs = pub_defs();
        let mut result = None;
        for s in &stmts {
            if let Some(e) = cpl::desugar_stmt(s, &mut defs).unwrap() {
                result = Some(eval(&e, &Env::empty(), &Context::new()).unwrap());
            }
        }
        let v = result.unwrap();
        assert_eq!(v.len(), Some(2));
        let names: Vec<_> = v
            .elements()
            .unwrap()
            .iter()
            .map(|e| e.project("name").unwrap().clone())
            .collect();
        assert!(names.contains(&Value::str("J Immunol")));
        assert!(names.contains(&Value::str("Ad Hoc Reviews")));
    }

    #[test]
    fn papers_of_membership() {
        let src = r#"
            define papers-of == \x => {p.title | \p <- DB, x <- p.authors};
            papers-of([name = "Smith", initial = "X"]);
        "#;
        let stmts = cpl::parse_program(src).unwrap();
        let mut defs = pub_defs();
        let mut result = None;
        for s in &stmts {
            if let Some(e) = cpl::desugar_stmt(s, &mut defs).unwrap() {
                result = Some(eval(&e, &Env::empty(), &Context::new()).unwrap());
            }
        }
        assert_eq!(
            result.unwrap(),
            Value::set(vec![Value::str("A second paper")])
        );
    }

    #[test]
    fn bag_comprehension_keeps_duplicates() {
        let mut defs = Definitions::new();
        defs.insert_value(
            "B",
            Value::bag(vec![Value::Int(1), Value::Int(1), Value::Int(2)]),
        );
        let v = run_with(r"{| x * 10 | \x <- B |}", &defs).unwrap();
        assert_eq!(
            v,
            Value::bag(vec![Value::Int(10), Value::Int(10), Value::Int(20)])
        );
    }

    #[test]
    fn list_comprehension_preserves_order() {
        let mut defs = Definitions::new();
        defs.insert_value(
            "L",
            Value::list(vec![Value::Int(3), Value::Int(1), Value::Int(2)]),
        );
        let v = run_with(r"[| x + 1 | \x <- L |]", &defs).unwrap();
        assert_eq!(
            v,
            Value::list(vec![Value::Int(4), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn aggregates_and_conditionals() {
        let defs = pub_defs();
        let v = run_with(r"sum({y | [year = \y, ...] <- DB})", &defs).unwrap();
        assert_eq!(v, Value::Int(1989 + 1988));
        let v = run_with(r#"if count(DB) = 2 then "two" else "other""#, &defs).unwrap();
        assert_eq!(v, Value::str("two"));
    }

    #[test]
    fn join_strategies_agree_with_nested_loops() {
        use nrc::name;
        let mk_set = |range: std::ops::Range<i64>, f: fn(i64) -> i64| {
            Value::set(
                range
                    .map(|i| {
                        Value::record_from(vec![("k", Value::Int(f(i))), ("v", Value::Int(i))])
                    })
                    .collect(),
            )
        };
        let left = mk_set(0..30, |i| i % 7);
        let right = mk_set(0..20, |i| i % 5);
        // reference: nested-loop comprehension
        let mut defs = Definitions::new();
        defs.insert_value("L", left.clone());
        defs.insert_value("R", right.clone());
        let reference =
            run_with(r"{[a = l.v, b = r.v] | \l <- L, \r <- R, l.k = r.k}", &defs).unwrap();

        let body = Expr::single(
            CollKind::Set,
            Expr::record(vec![
                ("a", Expr::proj(Expr::var("l"), "v")),
                ("b", Expr::proj(Expr::var("r"), "v")),
            ]),
        );
        for strategy in [
            JoinStrategy::BlockedNl { block_size: 4 },
            JoinStrategy::IndexedNl,
        ] {
            let e = Expr::Join {
                kind: CollKind::Set,
                strategy: strategy.clone(),
                left: Arc::new(Expr::Const(left.clone())),
                right: Arc::new(Expr::Const(right.clone())),
                lvar: name("l"),
                rvar: name("r"),
                left_key: Some(Arc::new(Expr::proj(Expr::var("l"), "k"))),
                right_key: Some(Arc::new(Expr::proj(Expr::var("r"), "k"))),
                cond: Arc::new(Expr::eq(
                    Expr::proj(Expr::var("l"), "k"),
                    Expr::proj(Expr::var("r"), "k"),
                )),
                body: Arc::new(body.clone()),
            };
            let got = eval(&e, &Env::empty(), &Context::new()).unwrap();
            assert_eq!(got, reference, "strategy {strategy:?}");
        }

        // Lists observe order: a blocked non-equi join over lists must
        // emit pairs in nested-loop order, whatever the block size.
        let llist = Value::list((0..5).map(Value::Int).collect());
        let rlist = Value::list((0..3).map(Value::Int).collect());
        defs.insert_value("LL", llist.clone());
        defs.insert_value("RL", rlist.clone());
        let reference = run_with(
            r"[| [a = l, b = r] | \l <- LL, \r <- RL, l < r + 100 |]",
            &defs,
        )
        .unwrap();
        let e = Expr::Join {
            kind: CollKind::List,
            strategy: JoinStrategy::BlockedNl { block_size: 4 },
            left: Arc::new(Expr::Const(llist)),
            right: Arc::new(Expr::Const(rlist)),
            lvar: name("l"),
            rvar: name("r"),
            left_key: None,
            right_key: None,
            cond: Arc::new(Expr::prim(
                Prim::Lt,
                vec![
                    Expr::var("l"),
                    Expr::prim(Prim::Add, vec![Expr::var("r"), Expr::int(100)]),
                ],
            )),
            body: Arc::new(Expr::single(
                CollKind::List,
                Expr::record(vec![("a", Expr::var("l")), ("b", Expr::var("r"))]),
            )),
        };
        let got = eval(&e, &Env::empty(), &Context::new()).unwrap();
        assert_eq!(got, reference, "blocked list join must keep nested-loop order");
    }

    #[test]
    fn cached_node_memoizes() {
        let ctx = Context::new();
        let inner = Expr::single(CollKind::Set, Expr::int(1));
        let e = Expr::Cached {
            id: 99,
            expr: Arc::new(inner),
        };
        let v1 = eval(&e, &Env::empty(), &ctx).unwrap();
        ctx.cache_put(99, Value::set(vec![Value::Int(42)])); // prove it reads the cache
        let v2 = eval(&e, &Env::empty(), &ctx).unwrap();
        assert_eq!(v1, Value::set(vec![Value::Int(1)]));
        assert_eq!(v2, Value::set(vec![Value::Int(42)]));
    }

    #[test]
    fn par_ext_matches_sequential() {
        use nrc::name;
        let src = Value::set((0..50).map(Value::Int).collect());
        let body = Expr::single(
            CollKind::Set,
            Expr::prim(Prim::Mul, vec![Expr::var("x"), Expr::int(3)]),
        );
        let seq = Expr::Ext {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body.clone()),
            source: Arc::new(Expr::Const(src.clone())),
        };
        let par = Expr::ParExt {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(Expr::Const(src)),
            max_in_flight: 8,
            batch: None,
        };
        let ctx = Context::new();
        assert_eq!(
            eval(&seq, &Env::empty(), &ctx).unwrap(),
            eval(&par, &Env::empty(), &ctx).unwrap()
        );
    }

    #[test]
    fn par_ext_preserves_list_order() {
        use nrc::name;
        let src = Value::list((0..20).rev().map(Value::Int).collect());
        let body = Expr::single(CollKind::List, Expr::var("x"));
        let par = Expr::ParExt {
            kind: CollKind::List,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(Expr::Const(src.clone())),
            max_in_flight: 4,
            batch: None,
        };
        let got = eval(&par, &Env::empty(), &Context::new()).unwrap();
        assert_eq!(got, src);
    }

    #[test]
    fn runtime_errors_are_reported() {
        let defs = Definitions::new();
        assert!(run_with("1 / 0", &defs).is_err());
        assert!(run_with("[a = 1].b", &defs).is_err());
        assert!(run_with("if 3 then 1 else 2", &defs).is_err());
    }

    #[test]
    fn mixed_kind_union_is_an_error() {
        let e = Expr::union(
            CollKind::Set,
            Expr::Const(Value::set(vec![])),
            Expr::Const(Value::list(vec![])),
        );
        assert!(eval(&e, &Env::empty(), &Context::new()).is_err());
    }
}
