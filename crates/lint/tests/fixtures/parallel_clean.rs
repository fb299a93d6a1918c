// CLEAN: ownership and std::sync only — exactly what the supervisord
// pipeline's determinism discipline prescribes. Mentions of the banned
// names in comments ("RefCell", "unsafe") and strings must not fire.
use std::sync::{Arc, Barrier, Mutex};

pub struct Ctl {
    pub end: u64,
    pub done: bool,
}

pub fn window_sync(workers: usize) -> (Arc<Barrier>, Arc<Mutex<Ctl>>) {
    let barrier = Arc::new(Barrier::new(workers));
    let ctl = Arc::new(Mutex::new(Ctl { end: 0, done: false }));
    (barrier, ctl)
}

pub fn describe() -> &'static str {
    "no unsafe or RefCell here, only std::sync"
}

pub fn audited() -> u64 {
    // lint: allow(shared-mut): fixture exercising the escape hatch
    let cell = std::cell::Cell::new(7u64);
    cell.get()
}
