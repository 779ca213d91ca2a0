//! # kleisli-exec
//!
//! Query execution for the Kleisli reproduction. There is one evaluator:
//!
//! * [`stream`] — the block pipeline, the only implementation of the
//!   collection operators: generators, unions, the two local join
//!   operators of Section 4 (blocked nested-loop and indexed blocked
//!   nested-loop with an on-the-fly index), the bounded-concurrency
//!   parallel retrieval primitive, remote scans and subquery caching. It
//!   provides the paper's strategic laziness: `first_n` produces initial
//!   output without materializing the full result.
//! * [`mod@eval`] — the scalar nodes (records, variants, primitives,
//!   bindings, conditionals); a collection node is drained from the
//!   block pipeline at full grain.
//! * [`context`] — the driver registry, object store, and subquery cache.
//! * [`result_cache`] — the process-wide memory-accounted single-flight
//!   result cache shared by multi-session deployments (`kleislid`).
//! * [`mod@env`] — runtime environments and closures.

pub mod context;
pub mod env;
pub mod eval;
pub mod prims;
pub mod result_cache;
pub mod stream;

pub use context::{
    request_from_value, BatchGuard, CacheCell, CacheLookup, Context, ObjectStore, PopulateTicket,
};
pub use env::{Env, Rt};
pub use eval::{eval, eval_rt};
pub use result_cache::{
    ResultCache, ResultCacheStats, ResultLookup, ResultTicket, DEFAULT_RESULT_CACHE_BUDGET,
};
pub use stream::{
    collect_blocks, collect_stream, eval_blocks, eval_stream, first_n, first_n_distinct, RowStream,
};
