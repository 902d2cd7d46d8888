//! Non-poisoning locks, scoped threads, and a debug-build lock-order
//! deadlock detector.
//!
//! `Mutex`/`RwLock` here wrap `std::sync` but expose the `parking_lot`
//! calling convention the codebase uses: `.lock()`, `.read()`, and
//! `.write()` return guards directly. A poisoned lock (a panic while
//! held) is not an error state for this workload — every critical
//! section is a small data-structure update — so poison is stripped.
//!
//! Scoped threads come straight from `std::thread::scope` (stable since
//! 1.63), which replaces `crossbeam::scope`.
//!
//! # Lock-order deadlock detection
//!
//! In debug builds (`cfg(debug_assertions)` — i.e. under `cargo test`)
//! every blocking acquisition is recorded in a per-thread held-lock
//! stack and a global acquisition-order graph. Acquiring lock `B` while
//! holding lock `A` adds the edge `A → B`; if the graph already proves
//! `B → … → A`, the two orders can interleave into a deadlock, and the
//! detector panics *at acquisition time* with both witness sites — the
//! `#[track_caller]` location of the current acquisition and the
//! location(s) that established the reverse order. Release builds
//! compile all tracking out; the guards are zero-cost wrappers.
//!
//! `try_lock` acquisitions never block, so they cannot close a cycle;
//! they are pushed on the held stack (edges *from* them still matter)
//! but do not record or check edges themselves.
//!
//! This is the dynamic complement to the static `conformance` pass
//! (rule `lock-discipline`): the linter proves every lock goes through
//! this guard API, and the detector proves the guarded acquisitions are
//! cycle-free on every path the test suite exercises.

// conformance: atomics(relaxed) — lock ids are opaque tokens; ordering comes from the locks themselves

use std::sync::{
    MutexGuard as StdMutexGuard, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard,
};

pub use std::thread::{scope, Scope, ScopedJoinHandle};

#[cfg(debug_assertions)]
mod order {
    //! The lock-order registry backing the deadlock detector.
    //!
    //! Uses raw `std::sync::Mutex` internally — the registry cannot
    //! track itself, and `foundation` is the one crate the
    //! `lock-discipline` conformance rule exempts.

    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A code location pair witnessing one recorded edge `from → to`:
    /// where `from` was acquired (and held), and where `to` was then
    /// acquired on top of it.
    #[derive(Clone, Copy)]
    struct Witness {
        held_at: &'static Location<'static>,
        acquired_at: &'static Location<'static>,
    }

    /// Global acquisition-order graph: `from-lock → to-lock → witness`.
    /// Keyed by per-instance lock ids, so independent tests sharing the
    /// process can never alias each other's locks.
    static GRAPH: Mutex<BTreeMap<u64, BTreeMap<u64, Witness>>> = Mutex::new(BTreeMap::new());

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    /// Mint a fresh lock id.
    pub fn next_id() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    struct HeldLock {
        id: u64,
        acquired_at: &'static Location<'static>,
    }

    thread_local! {
        /// The locks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    }

    /// Pops its lock id from the thread's held stack on drop; embedded
    /// in every guard.
    pub struct Held {
        id: u64,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let id = self.id;
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Guards may drop out of acquisition order; remove the
                // most recent matching entry.
                if let Some(i) = held.iter().rposition(|h| h.id == id) {
                    held.remove(i);
                }
            });
        }
    }

    /// Is `to` reachable from `from` in the order graph? Returns the
    /// witnessed edge path when it is.
    fn path(
        graph: &BTreeMap<u64, BTreeMap<u64, Witness>>,
        from: u64,
        to: u64,
    ) -> Option<Vec<(u64, u64, Witness)>> {
        let mut stack = vec![(from, Vec::new())];
        let mut visited = Vec::new();
        while let Some((node, trail)) = stack.pop() {
            if visited.contains(&node) {
                continue;
            }
            visited.push(node);
            if let Some(edges) = graph.get(&node) {
                for (&next, &witness) in edges {
                    let mut extended = trail.clone();
                    extended.push((node, next, witness));
                    if next == to {
                        return Some(extended);
                    }
                    stack.push((next, extended));
                }
            }
        }
        None
    }

    /// Record a blocking acquisition of `id` at `site`: check and add
    /// edges from every currently-held lock, then push onto the held
    /// stack. Panics when an edge would close a cycle.
    pub(crate) fn acquire(id: u64, site: &'static Location<'static>) -> Held {
        let inversion = HELD.with(|held| {
            let held = held.borrow();
            let mut graph = GRAPH.lock().unwrap_or_else(|p| p.into_inner());
            for h in held.iter() {
                if h.id == id {
                    // Re-entrant acquisition (legal for RwLock reads on
                    // some platforms); not an ordering edge.
                    continue;
                }
                let known = graph.get(&h.id).is_some_and(|e| e.contains_key(&id));
                if known {
                    continue;
                }
                if let Some(reverse) = path(&graph, id, h.id) {
                    return Some((h.id, h.acquired_at, reverse));
                }
                graph.entry(h.id).or_default().insert(
                    id,
                    Witness { held_at: h.acquired_at, acquired_at: site },
                );
            }
            None
        });

        if let Some((held_id, held_at, reverse)) = inversion {
            let mut msg = format!(
                "lock-order inversion detected (potential deadlock):\n  \
                 this thread acquires lock #{id} at {site}\n  \
                 while holding lock #{held_id} (acquired at {held_at}),\n  \
                 but the reverse order #{id} → … → #{held_id} is already on record:"
            );
            for (from, to, w) in &reverse {
                msg.push_str(&format!(
                    "\n    lock #{to} acquired at {} while holding lock #{from} (acquired at {})",
                    w.acquired_at, w.held_at
                ));
            }
            panic!("{msg}"); // conformance: allow(panic-policy) — the detector's contract is to panic with both witness stacks
        }

        push_held(id, site)
    }

    /// Record a non-blocking (`try_lock`) acquisition: it cannot close
    /// a cycle, so it only joins the held stack.
    pub(crate) fn push_held(id: u64, site: &'static Location<'static>) -> Held {
        HELD.with(|held| {
            held.borrow_mut().push(HeldLock { id, acquired_at: site });
        });
        Held { id }
    }
}

/// Per-lock detector state: a fresh id in debug builds, nothing in
/// release builds.
#[derive(Debug, Default)]
struct LockId {
    #[cfg(debug_assertions)]
    id: std::sync::OnceLock<u64>,
}

impl LockId {
    const fn new() -> LockId {
        LockId {
            #[cfg(debug_assertions)]
            id: std::sync::OnceLock::new(),
        }
    }

    #[cfg(debug_assertions)]
    fn get(&self) -> u64 {
        *self.id.get_or_init(order::next_id)
    }
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    id: LockId,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`]; releases on drop and, in debug
/// builds, pops the deadlock detector's held-lock stack.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: StdMutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { id: LockId::new(), inner: std::sync::Mutex::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; poison is stripped. In debug builds
    /// the acquisition is checked against the global lock-order graph
    /// and panics on a would-deadlock inversion.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let _held = order::acquire(self.id.get(), std::panic::Location::caller());
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|p| p.into_inner()),
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Try to acquire without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: order::push_held(self.id.get(), std::panic::Location::caller()),
        })
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A readers-writer lock whose `read()`/`write()` return guards
/// directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    id: LockId,
    inner: std::sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: StdRwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: StdRwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> RwLock<T> {
        RwLock { id: LockId::new(), inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard; poison is stripped. Checked by the
    /// debug-build deadlock detector like every blocking acquisition.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let _held = order::acquire(self.id.get(), std::panic::Location::caller());
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|p| p.into_inner()),
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Acquire the exclusive write guard; poison is stripped. Checked
    /// by the debug-build deadlock detector.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let _held = order::acquire(self.id.get(), std::panic::Location::caller());
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|p| p.into_inner()),
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable paired with [`Mutex`].
///
/// Wraps [`std::sync::Condvar`] so waiters hand over (and get back) the
/// workspace's deadlock-checked [`MutexGuard`] rather than a raw std
/// guard. While a thread is blocked in `wait*` it holds no other locks
/// (the guard it surrendered is the only one a waiter may hold by the
/// lock-discipline rule), so the held-lock marker is carried across the
/// wait unchanged — conservative, and it keeps the re-acquisition
/// invisible to the order graph (no new edges can form while parked).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Atomically release `guard` and block until notified; the lock is
    /// re-acquired before returning. Poison is stripped like every
    /// other acquisition in this module.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held,
        } = guard;
        let inner = self.inner.wait(inner).unwrap_or_else(|p| p.into_inner());
        MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// [`Condvar::wait`] with a timeout; the boolean is `true` when the
    /// wait timed out rather than being notified.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held,
        } = guard;
        let (inner, res) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(|p| p.into_inner());
        (
            MutexGuard {
                inner,
                #[cfg(debug_assertions)]
                _held,
            },
            res.timed_out(),
        )
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condvar_wakes_waiter_and_times_out() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        // Timeout path: nothing signals, so the wait must report a timeout.
        {
            let (lock, cv) = &*pair;
            let guard = lock.lock();
            let (_guard, timed_out) =
                cv.wait_timeout(guard, std::time::Duration::from_millis(10));
            assert!(timed_out);
        }
        // Notify path: a second thread flips the flag and signals.
        let p2 = std::sync::Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock() = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut guard = lock.lock();
        while !*guard {
            let (g, timed_out) = cv.wait_timeout(guard, std::time::Duration::from_secs(5));
            guard = g;
            assert!(!timed_out || *guard, "waiter starved");
        }
        t.join().unwrap();
    }
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn lock_survives_panic_in_holder() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: still usable.
        *m.lock() += 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn scoped_threads_share_stack_state() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.into_inner(), 400);
    }

    // ------------------------------------------- lock-order detector

    #[test]
    fn consistent_lock_order_stays_silent() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        // A → B, many times, from several threads: one global order is
        // never an inversion.
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let ga = a.lock();
                        let mut gb = b.lock();
                        *gb += *ga;
                    }
                });
            }
        });
        assert_eq!(*b.lock(), 0);
    }

    #[test]
    #[should_panic(expected = "lock-order inversion detected")]
    fn ab_ba_inversion_panics() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // establishes A → B
        }
        let _gb = b.lock();
        let _ga = a.lock(); // B → A closes the cycle: must panic
    }

    #[test]
    fn inversion_report_names_both_witness_sites() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // first witness: this line
        }
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // second witness: this line
        }))
        .expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string>".into());
        // Both acquisition sites land in the report, file and line.
        assert!(msg.contains("sync.rs"), "sites are source locations:\n{msg}");
        assert!(
            msg.contains("while holding lock #"),
            "current held lock is named:\n{msg}"
        );
        assert!(
            msg.contains("already on record"),
            "recorded reverse order is cited:\n{msg}"
        );
        // The message cites at least two distinct source lines.
        let mut lines: Vec<&str> = msg
            .match_indices("sync.rs:")
            .map(|(i, _)| &msg[i..msg[i..].find([' ', ',', '\n']).map_or(msg.len(), |e| i + e)])
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(lines.len() >= 2, "two distinct witness sites:\n{msg}");
    }

    #[test]
    #[should_panic(expected = "lock-order inversion detected")]
    fn transitive_inversion_panics() {
        // A → B, B → C, then C → A: the cycle spans three locks.
        let a = Mutex::new(());
        let b = Mutex::new(());
        let c = Mutex::new(());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _gc = c.lock();
        }
        let _gc = c.lock();
        let _ga = a.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order inversion detected")]
    fn rwlock_participates_in_ordering() {
        let a = RwLock::new(());
        let b = Mutex::new(());
        {
            let _ga = a.read();
            let _gb = b.lock();
        }
        let _gb = b.lock();
        let _ga = a.write();
    }

    #[test]
    fn try_lock_does_not_close_cycles() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // A → B on record
        }
        // try_lock(A) while holding B never blocks, so it is exempt
        // from the cycle check even though the order is inverted.
        let _gb = b.lock();
        let ga = a.try_lock();
        assert!(ga.is_some());
    }

    #[test]
    fn detector_tracks_release_correctly() {
        // A held, released, then B → A is fine as long as A → B was
        // never recorded while both were held.
        let a = Mutex::new(());
        let b = Mutex::new(());
        {
            let _ga = a.lock();
        } // released before B
        {
            let _gb = b.lock();
            let _ga = a.lock(); // records B → A
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // same direction again: silent
        }
    }
}
