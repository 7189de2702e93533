//! Known-bad fixture for the `guard-across-blocking` rule: a guard held across a
//! fabric send and one across the fabric's wait primitive, plus the patterns that
//! must NOT fire (condvar-wait idiom, early drop, temporary guard, scope exit).

pub fn holds_guard_across_send(state: &State, endpoint: &Endpoint) {
    let guard = state.inner.lock();
    endpoint.send(guard_free_payload());
    drop(guard);
}

pub fn holds_guard_across_the_fabric_wait(state: &State, endpoint: &Endpoint) {
    let board = state.inner.lock();
    endpoint.park_until(&state.site, None, |mailbox| mailbox.take(), |_| String::new());
    drop(board);
}

pub fn condvar_idiom_is_fine(state: &State) {
    let mut guard = state.inner.lock();
    while !guard.ready {
        state.cv.wait(&mut guard);
    }
}

pub fn early_drop_is_fine(state: &State, endpoint: &Endpoint) {
    let guard = state.inner.lock();
    let payload = guard.payload();
    drop(guard);
    endpoint.send(payload);
}

pub fn temporary_is_fine(state: &State, endpoint: &Endpoint) {
    let len = state.inner.lock().len();
    endpoint.send(len);
}

pub fn scope_exit_is_fine(state: &State, endpoint: &Endpoint) {
    {
        let _guard = state.inner.lock();
    }
    endpoint.send(guard_free_payload());
}
