//! Semantics-equivalence harness for batched driver round-trips: a plan
//! executed with the optimizer's IN-list / multi-uid batching mark must
//! be indistinguishable — values, printed form, error messages, and
//! order-sensitive observables (`first_n`, list order, set dedup) —
//! from the same plan executed per element with batching disabled.
//!
//! Batching is *advisory* by construction (warm-up pre-seeds shared
//! flights; the loop body is unchanged and merely attaches to them), so
//! any divergence here is a real defect in the batch window, the
//! batched reply splitting, or the warm-up's sharing discipline.

use std::time::Duration;

use bench_harness::latency_federation;
use kleisli::Session;
use kleisli_core::Value;
use proptest::prelude::*;

/// Set comprehension (dedup observable): per-uid link counts.
const LINK_SET: &str =
    r#"{[u = uid, n = count(GenBank([db = "na", link = uid]))] | \uid <- UIDS}"#;

/// List comprehension (order + duplicate observable) over `UIDL`.
const LINK_LIST: &str = r#"[| count(GenBank([db = "na", link = uid])) | \uid <- UIDL |]"#;

/// Nested comprehension: the batched request feeds an inner loop.
const NESTED: &str =
    r#"{[u = uid, hits = {l.uid | \l <- GenBank([db = "na", link = uid])}] | \uid <- UIDS}"#;

/// A fresh federation session plus every valid GenBank uid.
fn fed_session() -> (Session, Vec<i64>) {
    let (session, fed) = latency_federation(12, Duration::ZERO);
    let uids = fed.genbank_data.entries.iter().map(|e| e.uid).collect();
    (session, uids)
}

/// Bind the generated key list both as a set (`UIDS`) and, preserving
/// duplicates and order, as a list (`UIDL`).
fn bind_keys(session: &mut Session, keys: &[i64]) {
    let vals: Vec<Value> = keys.iter().copied().map(Value::Int).collect();
    session.bind_value("UIDS", Value::set(vals.clone()));
    session.bind_value("UIDL", Value::list(vals));
}

/// Run `query` with batching off then on; both outcomes stringified so
/// error messages participate in the equivalence check too.
fn both_ways(session: &mut Session, query: &str) -> (Result<String, String>, Result<String, String>) {
    session.set_batching(false);
    let plain = session.query(query).map(|v| v.to_string()).map_err(|e| e.to_string());
    session.set_batching(true);
    let batched = session.query(query).map(|v| v.to_string()).map_err(|e| e.to_string());
    (plain, batched)
}

/// Keys sampled (with repetition) from the valid uid pool — duplicate,
/// empty, and singleton key sets all arise from the size range.
fn key_picks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn set_comprehension_matches_unbatched(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, LINK_SET);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn list_comprehension_preserves_order_and_duplicates(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, LINK_LIST);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn nested_comprehension_matches_unbatched(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, NESTED);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn first_n_sees_the_same_prefix(picks in key_picks(), n in 0usize..12) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        s.set_batching(false);
        let plain = s.query_first_n(LINK_LIST, n).map_err(|e| e.to_string());
        s.set_batching(true);
        let batched = s.query_first_n(LINK_LIST, n).map_err(|e| e.to_string());
        prop_assert_eq!(plain, batched);
    }
}

#[test]
fn empty_and_singleton_key_sets() {
    let (mut s, pool) = fed_session();
    for keys in [vec![], vec![pool[0]]] {
        bind_keys(&mut s, &keys);
        for q in [LINK_SET, LINK_LIST, NESTED] {
            let (plain, batched) = both_ways(&mut s, q);
            assert_eq!(plain, batched, "query {q} diverged on keys {keys:?}");
            assert!(plain.is_ok(), "query {q} failed on keys {keys:?}: {plain:?}");
        }
    }
}

#[test]
fn duplicate_keys_share_one_flight_per_distinct_key() {
    let (mut s, pool) = fed_session();
    // 16 logical keys (one warm-up chunk), 6 distinct: well past
    // min_keys, and the batch must fold to the distinct set (one 6-key
    // wire request), while the list result still answers all 16
    // positions.
    let keys: Vec<i64> = (0..16).map(|i| pool[i % 6]).collect();
    bind_keys(&mut s, &keys);
    s.reset_metrics();
    let (plain, batched) = both_ways(&mut s, LINK_LIST);
    assert_eq!(plain, batched);
    let m = s.driver_metrics("GenBank").expect("metrics");
    assert_eq!(m.batched_keys, 6, "duplicates must not inflate the batch: {m:?}");
    assert_eq!(m.batch_requests, 1, "6 distinct keys fit one wire request: {m:?}");
}

#[test]
fn a_bad_key_fails_identically_in_both_modes() {
    let (mut s, pool) = fed_session();
    // One unknown uid among valid ones: the per-key error must surface
    // with the same message whether the request rode a batch or not.
    let keys = vec![pool[0], -7777, pool[1], pool[2], pool[3]];
    bind_keys(&mut s, &keys);
    let (plain, batched) = both_ways(&mut s, LINK_SET);
    assert_eq!(plain, batched);
    let err = plain.expect_err("an unknown uid must fail the query");
    assert!(
        err.contains("no entry with uid -7777"),
        "unexpected error shape: {err}"
    );
}

#[test]
fn batched_run_actually_batches() {
    // Guard against the harness silently testing nothing: on a 32-key
    // workload the batched path must issue multi-key wire requests.
    let (mut s, pool) = fed_session();
    let keys: Vec<i64> = (0..32).map(|i| pool[i % pool.len()]).collect();
    bind_keys(&mut s, &keys);
    s.set_batching(true);
    s.reset_metrics();
    s.query(LINK_SET).expect("query");
    let m = s.driver_metrics("GenBank").expect("metrics");
    assert!(
        m.batch_requests >= 1 && m.batched_keys >= 16,
        "batching never engaged: {m:?}"
    );
}
