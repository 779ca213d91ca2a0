//! Batched driver round-trips: many per-key requests folded into one
//! wire request, and the per-driver window in which their pending
//! replies are shared.
//!
//! The paper's Section 4 semijoin strategy ships a *set* of keys to a
//! source in one request instead of one round-trip per element. This
//! module supplies the shared state behind that:
//!
//! * **Multi-key batching.** `DriverResilience::submit_batch` groups up
//!   to [`BatchPolicy::max_keys`] distinct per-key requests into one
//!   wire request (an `IN`-list for SQL sources, a multi-uid fetch for
//!   Entrez), executed by [`crate::Driver::submit_batch`] through the
//!   driver's worker pool. Each key gets a [`Flight`]; the batched reply
//!   is split back out per key, and each flight resolves with its own
//!   rows (or its own error).
//! * **The window.** A per-driver [`BatchWindow`] keyed by request hash
//!   holds the *pending* batched flights. `submit_batch` is the only
//!   place that opens one. A plain submission of an identical request
//!   attaches to the pending flight instead of issuing a second wire
//!   request; with no pending flight it goes to the wire directly and
//!   streams its reply lazily.
//!
//! # The flight life cycle
//!
//! ```text
//!   submit_batch         batch completion callback
//!  ─────────────► Pending ─────────────────────────► Done(result)
//!                    │  attach                         │
//!                    ▼                                 ▼
//!           waiters park on the              every waiter replays the
//!           flight's condvar under           shared rows (or clones the
//!           their own deadline/cancel        error); the flight leaves
//!                                            the window
//! ```
//!
//! No waiter drives the wire: the batch operation resolves the flight
//! from the pool worker that ran the wire request. A waiter whose own
//! deadline passes, or whose query is cancelled, resolves only itself —
//! the flight and its other waiters are untouched.
//!
//! # Invariants
//!
//! * **One admission ticket per wire request, never per logical key.**
//!   Attached waiters hold promise-side state only; the only pool
//!   submission is the one batched request covering many keys.
//! * **Failures are charged once.** The batch operation records breaker
//!   failures and `retries` per *wire* event; attached waiters receive
//!   the cloned error without touching the breaker.
//! * **Errors are never cached.** The window holds pending flights only:
//!   a resolved flight is skipped by every lookup and removed as soon as
//!   it resolves, so the next submitter goes to the wire afresh.
//! * **Values are byte-identical.** A shared reply is the materialized
//!   row vector of the wire reply; every waiter replays the same rows in
//!   the same order (then the same terminal error, if the reply failed
//!   mid-way). What changes is *when* rows cross the boundary and the
//!   per-waiter traffic counters — never the rows themselves.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};

use crate::block::{BlockSource, BlockStream, ValueBlock, DEFAULT_BLOCK_ROWS};
use crate::driver::DriverRequest;
use crate::error::KError;
use crate::oneshot::Pulsable;
use crate::value::Value;

/// A driver's batching advertisement, carried in
/// [`crate::Capabilities::batching`]. Present means the source supports
/// set-at-a-time access (multi-uid Entrez fetches, SQL `IN`-lists) and
/// opts its coalescable requests into the batched submit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum logical keys folded into one wire request by the batched
    /// submit path. `0` is normalized to `1` (no folding) by
    /// [`BatchPolicy::keys_per_request`].
    pub max_keys: usize,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy { max_keys: 16 }
    }
}

impl BatchPolicy {
    /// The normalized per-wire-request key budget (a declared `0` means
    /// "one key per request", never "no keys").
    pub fn keys_per_request(&self) -> usize {
        self.max_keys.max(1)
    }
}

/// The deterministic window key of a request: an FNV-1a fold over the
/// request's `Hash` impl. Collisions are tolerated — the window chains
/// flights per key and compares the full [`DriverRequest`] on attach.
pub fn request_key(req: &DriverRequest) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    req.hash(&mut h);
    h.finish()
}

/// The materialized reply of one wire request, shared by every waiter of
/// a flight: the rows the stream produced, plus the terminal error if it
/// failed mid-stream (rows delivered before a failure are replayed in
/// front of it, exactly as the live stream delivered them).
#[derive(Debug)]
pub struct SharedReply {
    /// The rows of the wire stream, in delivery order.
    pub rows: Vec<Value>,
    /// The mid-stream failure that ended the wire stream, if any.
    pub terminal: Option<KError>,
}

impl SharedReply {
    /// A successful reply of plain rows.
    pub fn of_rows(rows: Vec<Value>) -> SharedReply {
        SharedReply {
            rows,
            terminal: None,
        }
    }

    /// Drain a live wire stream into a shared reply. Pulls at
    /// [`DEFAULT_BLOCK_ROWS`] grain; per-row charges (latency model,
    /// traffic counters) fire here, once, on the draining thread.
    pub fn materialize(mut stream: BlockStream) -> SharedReply {
        let mut rows = Vec::new();
        let mut terminal = None;
        while let Some(block) = stream.next_block(DEFAULT_BLOCK_ROWS) {
            for r in block.into_rows() {
                match r {
                    Ok(v) => rows.push(v),
                    Err(e) => {
                        terminal = Some(e);
                        return SharedReply { rows, terminal };
                    }
                }
            }
        }
        SharedReply { rows, terminal }
    }

    /// A fresh [`BlockStream`] replaying the shared rows (then the
    /// terminal error, if any). Replayed rows charge nothing: the wire
    /// stream already charged them once at materialization.
    pub fn replay(self: &Arc<Self>) -> BlockStream {
        Box::new(Replay {
            reply: Arc::clone(self),
            pos: 0,
            done: false,
        })
    }
}

struct Replay {
    reply: Arc<SharedReply>,
    pos: usize,
    done: bool,
}

impl BlockSource for Replay {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if self.done {
            return None;
        }
        let max = max_rows.max(1);
        let rows = &self.reply.rows;
        let mut block = ValueBlock::with_capacity(max.min(DEFAULT_BLOCK_ROWS));
        while block.len() < max && self.pos < rows.len() {
            block.push_row(rows[self.pos].clone());
            self.pos += 1;
        }
        if self.pos >= rows.len() && block.len() < max {
            self.done = true;
            if let Some(e) = &self.reply.terminal {
                block.push_err(e.clone());
            }
        }
        if block.is_empty() {
            None
        } else {
            Some(block)
        }
    }
}

/// The shared state of one batched key: created by
/// `DriverResilience::submit_batch`, held by the driver's
/// [`BatchWindow`] while pending, by the batch operation that resolves
/// it, and by every attached `ResilientHandle`.
pub struct Flight {
    pub(crate) driver: String,
    pub(crate) key: u64,
    pub(crate) request: DriverRequest,
    pub(crate) state: Mutex<FlightState>,
    pub(crate) cv: Condvar,
}

pub(crate) enum FlightState {
    /// The batched wire request has not answered this key yet.
    Pending,
    /// Resolved: every current and future waiter replays the result.
    Done(Result<Arc<SharedReply>, KError>),
}

impl Flight {
    pub(crate) fn new(driver: &str, req: &DriverRequest) -> Arc<Flight> {
        Arc::new(Flight {
            driver: driver.to_string(),
            key: request_key(req),
            request: req.clone(),
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        })
    }

    /// The name of the driver this flight belongs to.
    pub fn driver(&self) -> &str {
        &self.driver
    }

    /// The request every attached waiter is waiting on.
    pub fn request(&self) -> &DriverRequest {
        &self.request
    }

    /// The window key of [`Flight::request`].
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether the flight has resolved (without blocking).
    pub fn is_done(&self) -> bool {
        matches!(&*self.lock_state(), FlightState::Done(_))
    }

    pub(crate) fn lock_state(&self) -> std::sync::MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolve the flight (first resolution wins) and wake every waiter.
    pub(crate) fn finish(&self, result: Result<Arc<SharedReply>, KError>) {
        let mut st = self.lock_state();
        if matches!(&*st, FlightState::Pending) {
            *st = FlightState::Done(result);
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Waking a flight re-checks cancellation and resolution; registered as
/// a `CancelToken` watcher by attached waiters so a query cancel
/// interrupts their wait promptly.
impl Pulsable for Flight {
    fn pulse_now(&self) {
        // Take the state lock first: a waiter between its flag check and
        // its condvar wait must not miss the notification (same
        // lost-wakeup discipline as `RequestGate::nudge`).
        let _guard = self.lock_state();
        self.cv.notify_all();
    }
}

/// Outcome of [`BatchWindow::join`].
pub(crate) enum Joined {
    /// A pending flight already answers this request.
    Attached(Arc<Flight>),
    /// A fresh flight was registered; the caller must hand it to a batch
    /// operation that resolves it.
    Lead(Arc<Flight>),
}

/// The per-driver submit window: request hash → pending flights.
/// Resolved flights are skipped by every lookup (and pruned on the way)
/// until their batch operation removes them, so a failure is never
/// handed to a later submitter.
#[derive(Default)]
pub struct BatchWindow {
    entries: Mutex<HashMap<u64, Vec<Arc<Flight>>>>,
}

impl BatchWindow {
    /// An empty window.
    pub fn new() -> BatchWindow {
        BatchWindow::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Vec<Arc<Flight>>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Live flights registered right now (tests/inspection).
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Whether the window holds no flights.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attach to the pending flight for `req`, or register a fresh one
    /// the caller must lead. Lock order: window before flight, matching
    /// [`BatchWindow::try_attach`].
    pub(crate) fn join(&self, driver: &str, req: &DriverRequest) -> Joined {
        let mut map = self.lock();
        let chain = map.entry(request_key(req)).or_default();
        chain.retain(|f| !f.is_done());
        if let Some(f) = chain.iter().find(|f| f.request == *req) {
            return Joined::Attached(Arc::clone(f));
        }
        let f = Flight::new(driver, req);
        chain.push(Arc::clone(&f));
        Joined::Lead(f)
    }

    /// Attach to the pending flight for `req` without ever registering
    /// a fresh one: a plain submission keeps streaming its own reply
    /// lazily, but an identical request already in a batch answers it.
    pub(crate) fn try_attach(&self, req: &DriverRequest) -> Option<Arc<Flight>> {
        let key = request_key(req);
        let mut map = self.lock();
        let chain = map.get_mut(&key)?;
        chain.retain(|f| !f.is_done());
        if chain.is_empty() {
            map.remove(&key);
            return None;
        }
        chain.iter().find(|f| f.request == *req).cloned()
    }

    /// Drop `flight`'s window entry (by identity; a newer flight under
    /// the same key is left alone).
    pub(crate) fn remove(&self, flight: &Arc<Flight>) {
        let mut map = self.lock();
        if let Some(chain) = map.get_mut(&flight.key) {
            chain.retain(|f| !Arc::ptr_eq(f, flight));
            if chain.is_empty() {
                map.remove(&flight.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KError;
    use crate::value::Value;

    fn req(uid: i64) -> DriverRequest {
        DriverRequest::EntrezLinks {
            db: "na".into(),
            uid,
        }
    }

    fn lead(w: &BatchWindow, uid: i64) -> Arc<Flight> {
        match w.join("E", &req(uid)) {
            Joined::Lead(f) => f,
            Joined::Attached(_) => panic!("expected a fresh flight for {uid}"),
        }
    }

    #[test]
    fn request_keys_are_deterministic_and_distinguish_requests() {
        assert_eq!(request_key(&req(1)), request_key(&req(1)));
        assert_ne!(request_key(&req(1)), request_key(&req(2)));
    }

    #[test]
    fn shared_reply_replays_rows_and_terminal_error() {
        let reply = Arc::new(SharedReply {
            rows: vec![Value::Int(1), Value::Int(2)],
            terminal: Some(KError::eval("boom")),
        });
        // Two independent replays see the same rows then the same error.
        for _ in 0..2 {
            let mut s = reply.replay();
            let b = s.next_block(64).unwrap();
            assert_eq!(b.len(), 3);
            assert!(b.ends_with_err());
            assert_eq!(b.rows()[0].as_ref().unwrap(), &Value::Int(1));
            assert!(s.next_block(64).is_none(), "a stream fails at most once");
        }
    }

    #[test]
    fn replay_respects_the_requested_grain() {
        let reply = Arc::new(SharedReply::of_rows(
            (0..5).map(Value::Int).collect::<Vec<_>>(),
        ));
        let mut s = reply.replay();
        assert_eq!(s.next_block(2).unwrap().len(), 2);
        assert_eq!(s.next_block(1).unwrap().len(), 1);
        assert_eq!(s.next_block(64).unwrap().len(), 2);
        assert!(s.next_block(64).is_none());
    }

    #[test]
    fn empty_reply_replays_as_an_empty_stream() {
        let reply = Arc::new(SharedReply::of_rows(vec![]));
        let mut s = reply.replay();
        assert!(s.next_block(64).is_none());
    }

    #[test]
    fn window_attaches_to_pending_and_prunes_failed_flights() {
        let w = BatchWindow::new();
        let f = lead(&w, 7);
        // Pending flights are attachable, by both lookups.
        match w.join("E", &req(7)) {
            Joined::Attached(g) => assert!(Arc::ptr_eq(&f, &g)),
            Joined::Lead(_) => panic!("must attach to the pending flight"),
        }
        assert!(Arc::ptr_eq(&f, &w.try_attach(&req(7)).expect("pending")));
        // A failed flight leaves the window: the next join leads afresh.
        f.finish(Err(KError::eval("boom")));
        w.remove(&f);
        assert!(w.is_empty());
        let g = lead(&w, 7);
        assert!(!Arc::ptr_eq(&f, &g), "errors are never cached");
    }

    #[test]
    fn finished_flights_are_never_attached_before_their_removal() {
        // A batch resolves its flight before it removes the window
        // entry; in between, neither lookup may hand the resolved
        // flight out (an `Err` seed would cache the error).
        let w = BatchWindow::new();
        let f = lead(&w, 5);
        f.finish(Err(KError::eval("boom")));
        assert!(w.try_attach(&req(5)).is_none(), "try_attach skips Done");
        let g = lead(&w, 5);
        assert!(!Arc::ptr_eq(&f, &g), "join skips Done");
        assert_eq!(w.len(), 1, "the resolved flight was pruned");
        // Late removal of the old flight leaves the fresh one alone.
        w.remove(&f);
        assert!(Arc::ptr_eq(&g, &w.try_attach(&req(5)).expect("fresh")));
    }

    #[test]
    fn zero_window_drops_completed_flights_immediately() {
        // Successful completions are not retained either: the window
        // holds pending flights only.
        let w = BatchWindow::new();
        let f = lead(&w, 3);
        f.finish(Ok(Arc::new(SharedReply::of_rows(vec![]))));
        assert!(w.try_attach(&req(3)).is_none());
        assert!(w.is_empty(), "completions leave immediately");
    }

    #[test]
    fn hash_collisions_are_disambiguated_by_request_equality() {
        let w = BatchWindow::new();
        let _f = lead(&w, 1);
        // A different request always leads its own flight, even if the
        // chain under its key were shared.
        let _g = lead(&w, 2);
        assert_eq!(w.len(), 2);
    }
}
