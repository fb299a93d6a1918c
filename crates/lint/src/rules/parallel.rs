//! `parallel/no-shared-mut`: the streaming detection pipeline under
//! `crates/supervisord/src/` must not smuggle in unsynchronized shared
//! mutability.
//!
//! The pipeline's determinism argument rests on a simple discipline:
//! each worker touches only the state it owns; everything crossing
//! threads moves by value through bounded channels and is folded by a
//! single-threaded sink. The safe way to express that in Rust is
//! ownership plus `std::sync` primitives (`Mutex`, channels, `Arc` over
//! immutable data) — which the borrow checker then enforces. What this
//! rule bans are the constructs that opt *out* of that enforcement:
//!
//! * `unsafe` blocks/fns (including `transmute`) — sidestep the borrow
//!   checker entirely;
//! * `static mut` — ambient shared mutability, racy by construction;
//! * `UnsafeCell` — raw interior mutability;
//! * `Cell` / `RefCell` / `Rc` — single-threaded interior mutability
//!   and shared ownership; `!Sync`/`!Send`, so smuggling one across the
//!   worker boundary requires an `unsafe impl` that would lie about it.
//!
//! `std::sync` types are explicitly fine and deliberately not matched.
//!
//! Escape hatch: `// lint: allow(shared-mut): <reason>` on the
//! offending line or the line above, for the rare case where an audited
//! exception is genuinely needed.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::scan::ScannedFile;

const RULE: &str = "parallel/no-shared-mut";

/// The escape-hatch annotation.
pub const ALLOW: &str = "lint: allow(shared-mut)";

/// Type/function names whose bare appearance is a violation (also
/// matched by `parallel/transitive-shared-mut` outside the pipeline).
pub(crate) const BANNED_IDENTS: &[&str] = &["UnsafeCell", "RefCell", "Cell", "Rc", "transmute"];

/// `parallel/no-shared-mut`.
pub fn no_shared_mut(file: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    if !PathClass::of(file).is_supervisord_pipeline() {
        return;
    }
    let push = |i: usize, what: &str, out: &mut Vec<Finding>| {
        let t = file.ct(i);
        if file.line_or_above_contains(t.line, ALLOW) {
            return;
        }
        out.push(finding_at(
            file,
            i,
            RULE,
            Severity::Error,
            format!(
                "{what} in the supervisord pipeline — worker state must be owned \
                 by exactly one thread, with cross-thread effects moved by value \
                 through channels; use ownership or std::sync, or annotate with \
                 `// {ALLOW}: <reason>`"
            ),
        ));
    };
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "unsafe" {
            push(i, "`unsafe` code", out);
        } else if t.text == "static" && file.ctext(i + 1) == "mut" {
            push(i, "`static mut`", out);
        } else if BANNED_IDENTS.contains(&t.text) {
            // `Rc::new(...)`, `RefCell<...>`, `use std::cell::Cell`,
            // `mem::transmute(...)` — any appearance counts; there is no
            // benign use of these names inside the pipeline.
            push(i, &format!("`{}`", t.text), out);
        }
    }
}
