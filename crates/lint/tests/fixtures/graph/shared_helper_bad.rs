//! Fixture: out-of-pipeline helper smuggling interior mutability.

/// Uses `RefCell` — fine on its own, banned when the pipeline reaches it.
pub fn bump() {
    let c = std::cell::RefCell::new(0u32);
    *c.borrow_mut() += 1;
}
