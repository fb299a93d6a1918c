//! Fixture: first half of a cross-crate lock-order cycle.

use std::sync::Mutex;

/// Lock A.
pub static LOCK_A: Mutex<u32> = Mutex::new(0);

/// Acquires A, then B through `dui_telemetry::channel::bump_b`.
pub fn forward() {
    let a = LOCK_A.lock();
    dui_telemetry::channel::bump_b();
    drop(a);
}
