//! Known-bad fixture: thread identity leaking into routing behavior.
//! Seeding tie-breaks from the thread id makes results depend on which
//! worker picked up the net.

pub fn tie_break_seed() -> u64 {
    let id = thread::current().id();
    hash_of(id)
}
