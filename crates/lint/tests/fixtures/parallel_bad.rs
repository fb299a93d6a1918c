// BAD: unsynchronized shared mutability inside the supervisord pipeline.
use std::cell::RefCell;
use std::rc::Rc;

static mut WINDOW_COUNT: u64 = 0;

pub fn bump() {
    unsafe {
        WINDOW_COUNT += 1;
    }
}

pub fn shared_counter() -> Rc<RefCell<u64>> {
    Rc::new(RefCell::new(0))
}

pub fn reinterpret(x: u64) -> i64 {
    unsafe { std::mem::transmute(x) }
}
