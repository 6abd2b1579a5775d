//! Deliberately broken lease discipline for the leases pass:
//! * `pick_winner` reads locking-list priority (`.top(`) without a
//!   `purge_expired*` call earlier in its body;
//! * the file enqueues lease requests (`.request(`) but contains no
//!   release path (`remove` / `purge_expired*`).
//! Never compiled — parsed by `crates/analyzer/tests/passes.rs`.

pub fn pick_winner(ll: &LockingList) -> Option<u64> {
    ll.top().map(|e| e.agent)
}

pub fn enqueue(ll: &mut LockingList, agent: u64, now: u64) {
    ll.request(agent, now);
}
