//! Fixture: out-of-pipeline helper that honors the pipeline's
//! ownership discipline — `std::sync` only.

use std::sync::Mutex;

/// Synchronized state: fine to reach from the pipeline.
pub static COUNT: Mutex<u32> = Mutex::new(0);

/// Bumps through the mutex.
pub fn bump() {
    if let Ok(mut c) = COUNT.lock() {
        *c += 1;
    }
}
