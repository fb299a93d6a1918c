//! Fixture: second half of the cycle — B then A.

use std::sync::Mutex;

/// Lock B.
pub static LOCK_B: Mutex<u32> = Mutex::new(0);

/// Acquires B alone.
pub fn bump_b() {
    let b = LOCK_B.lock();
    drop(b);
}

/// Acquires B, then A through `grab_a`.
pub fn reverse() {
    let b = LOCK_B.lock();
    grab_a();
    drop(b);
}

/// Acquires A.
fn grab_a() {
    let a = dui_supervisord::order_a::LOCK_A.lock();
    drop(a);
}
