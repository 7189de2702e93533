//! In-tree stand-in for the `parking_lot` crate, exposing the subset of its API this
//! workspace uses (`Mutex`, `RwLock`, `Condvar`, `WaitTimeoutResult`).
//!
//! The build environment has no access to a crate registry, so the real `parking_lot`
//! cannot be vendored. This shim wraps `std::sync` primitives and mirrors
//! `parking_lot`'s two observable API differences:
//!
//! * locking returns the guard directly (no poisoning `Result`) — a panic while a lock
//!   is held must not wedge every other rank thread of a simulated job, so poisoned
//!   locks are recovered transparently;
//! * `Condvar::wait_for` takes `&mut MutexGuard` rather than consuming the guard.
//!
//! Because every lock and every condvar park in the workspace goes through this shim,
//! it is also the natural instrumentation point for the in-tree deadlock detector: the
//! [`order`] module can tag each lock with its construction site and record
//! per-thread acquisition orders, which the `analyzer` crate turns into a lock-order
//! graph with cycle detection, and it records every traced lock still held when its
//! thread parks on a [`Condvar`] (a held-across-block finding). The tracing is
//! env-var gated (`MANA_LOCK_ORDER` / `MANA_LOCK_ORDER_DIR`) and costs one branch per
//! operation when off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod order;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// A mutual-exclusion lock with `parking_lot`'s panic-free locking API.
pub struct Mutex<T: ?Sized> {
    site: Option<u32>,
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex guarding `value`.
    #[track_caller]
    pub fn new(value: T) -> Self {
        Mutex {
            site: trace_site(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Construction-site tag for the lock-order tracer, when tracing is enabled.
#[track_caller]
fn trace_site() -> Option<u32> {
    if order::enabled() {
        Some(order::site_id(std::panic::Location::caller()))
    } else {
        None
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available. Poisoning is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(site) = self.site {
            order::on_attempt(site);
        }
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(site) = self.site {
            order::on_acquired(site);
        }
        MutexGuard {
            inner: Some(guard),
            site: self.site,
        }
    }

    /// Mutable access without locking (the borrow checker proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            Err(_) => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner `Option` exists so [`Condvar::wait_for`] can temporarily take ownership of
/// the underlying std guard; it is `Some` at every point user code can observe.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    site: Option<u32>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Guard invariant: `inner` is Some outside Condvar::wait.
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Guard invariant: `inner` is Some outside Condvar::wait.
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(site) = self.site {
            order::on_release(site);
        }
    }
}

/// A reader-writer lock with `parking_lot`'s panic-free locking API.
pub struct RwLock<T: ?Sized> {
    site: Option<u32>,
    inner: std::sync::RwLock<T>,
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// Create a new lock guarding `value`.
    #[track_caller]
    pub fn new(value: T) -> Self {
        RwLock {
            site: trace_site(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock. Poisoning is recovered.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some(site) = self.site {
            order::on_attempt(site);
        }
        let guard = self
            .inner
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(site) = self.site {
            order::on_acquired(site);
        }
        RwLockReadGuard {
            inner: guard,
            site: self.site,
        }
    }

    /// Acquire an exclusive write lock. Poisoning is recovered.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some(site) = self.site {
            order::on_attempt(site);
        }
        let guard = self
            .inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(site) = self.site {
            order::on_acquired(site);
        }
        RwLockWriteGuard {
            inner: guard,
            site: self.site,
        }
    }

    /// Mutable access without locking (the borrow checker proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    site: Option<u32>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(site) = self.site {
            order::on_release(site);
        }
    }
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    site: Option<u32>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(site) = self.site {
            order::on_release(site);
        }
    }
}

/// A condition variable usable with [`MutexGuard`] in place, `parking_lot`-style.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified, releasing the guard's lock while waiting.
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // Guard invariant: `inner` is Some outside a wait.
        let std_guard = guard.inner.take().expect("guard present outside wait");
        // The lock is released for the duration of the park: the held-stack must not
        // show it, or a concurrent acquisition would record a phantom edge. Whatever
        // the stack still shows is held across the park.
        if let Some(site) = guard.site {
            order::on_release(site);
            order::on_block(std::panic::Location::caller());
        }
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(site) = guard.site {
            order::on_attempt(site);
            order::on_acquired(site);
        }
        guard.inner = Some(std_guard);
    }

    /// Block until notified or `timeout` elapses, releasing the guard's lock while
    /// waiting.
    #[track_caller]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        // Guard invariant: `inner` is Some outside a wait.
        let std_guard = guard.inner.take().expect("guard present outside wait");
        if let Some(site) = guard.site {
            order::on_release(site);
            order::on_block(std::panic::Location::caller());
        }
        let (std_guard, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(site) = guard.site {
            order::on_attempt(site);
            order::on_acquired(site);
        }
        guard.inner = Some(std_guard);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // parking_lot semantics: the next lock succeeds.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut guard = pair.0.lock();
        let timed_out = pair
            .1
            .wait_for(&mut guard, Duration::from_millis(10))
            .timed_out();
        assert!(timed_out);
        drop(guard);

        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_all();
        });
        let mut guard = pair.0.lock();
        while !*guard {
            pair.1.wait_for(&mut guard, Duration::from_millis(50));
        }
        drop(guard);
        waker.join().unwrap();
    }

    #[test]
    fn traced_locks_record_acquisition_edges() {
        order::force_enable();
        let a = Mutex::new(1u32); // site A
        let b = Mutex::new(2u32); // site B
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let snap = order::snapshot();
        assert!(snap.sites.iter().any(|s| s.contains("lib.rs")));
        // Some edge from a lib.rs site to another lib.rs site must exist (A -> B).
        assert!(
            !snap.edges.is_empty(),
            "nested acquisition must record an edge"
        );
    }

    /// The held-across-block findings recorded at a wait on `line` of this file,
    /// as `(held lock's construction site, wait call site)`.
    fn findings_at_line(line: u32) -> Vec<(String, String)> {
        let snap = order::snapshot();
        let at_line = format!("lib.rs:{line}:");
        snap.held_across_block
            .iter()
            .filter(|(_, at, _)| at.contains(&at_line))
            .map(|(held, at, _)| (held.clone(), at.clone()))
            .collect()
    }

    #[test]
    fn condvar_wait_releases_held_entry() {
        // The finding is planted on purpose: under an ambient traced run it would
        // land in the suite's dump and fail the held-across-block gate.
        if order::ambient() {
            eprintln!("skipping: ambient lock-order tracing is enabled");
            return;
        }
        order::force_enable();
        let outer = Arc::new(Mutex::new(0u32));
        let outer_line = line!() - 1;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        // Holding `outer` then parking on `pair.0`: the park releases `pair.0`, so
        // only `outer` is held across it. The waker cannot set the flag before the
        // park, because it needs `pair.0`, which only the park releases.
        let _outer_guard = outer.lock();
        let mut guard = pair.0.lock();
        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_all();
        });
        let wait_line = line!() + 2;
        while !*guard {
            pair.1.wait(&mut guard);
        }
        drop(guard);
        waker.join().unwrap();

        let findings = findings_at_line(wait_line);
        assert_eq!(findings.len(), 1, "only `outer` is held: {findings:?}");
        assert!(
            findings[0].0.contains(&format!("lib.rs:{outer_line}:")),
            "the finding names the held lock's construction site: {findings:?}"
        );
    }

    /// Parks on a fresh condvar for a millisecond from one line; returns that line.
    fn park_briefly() -> u32 {
        let pair = (Mutex::new(()), Condvar::new());
        let mut guard = pair.0.lock();
        pair.1.wait_for(&mut guard, Duration::from_millis(1));
        line!() - 1
    }

    #[test]
    fn parks_holding_nothing_else_record_nothing() {
        order::force_enable();
        let state = Mutex::new(7u32);
        // The condvar idiom: the park releases the only lock held.
        let park_line = park_briefly();
        // Early drop.
        let guard = state.lock();
        let value = *guard;
        drop(guard);
        park_briefly();
        // A temporary guard, dropped at the end of its statement.
        let sum = *state.lock() + value;
        park_briefly();
        // Scope exit.
        {
            let _guard = state.lock();
        }
        park_briefly();
        assert_eq!(sum, 14);
        assert_eq!(findings_at_line(park_line), Vec::new());
    }
}
