//! Conservative call graph over the symbol table.
//!
//! One pass over every symbol's body tokens finds call expressions
//! (`name(`, `path::name(`, `.name(`) and resolves them against
//! [`crate::symbols::SymbolGraph`]:
//!
//! * exact canonical path (after normalizing `crate`/`self`/`super`/
//!   `Self` and `dui_*` external-crate prefixes, and splicing the
//!   file's `use`-alias table into the head segment);
//! * last-two-segment suffix (`Type::name`, `module::name`) — robust
//!   to re-exports;
//! * bare free-fn name, preferring same-crate candidates;
//! * method calls by receiver heuristics: `self.m(...)` resolves
//!   within the enclosing impl type, anything else fans out to every
//!   method of that name (a conservative over-approximation).
//!
//! Anything that still doesn't resolve is recorded as an **Unknown
//! edge** (the callee display string, deduped per caller) so the
//! graph is explicit about where it is blind instead of silently
//! dropping edges. `.lock()` calls are deliberately *not* call edges:
//! the lock-order rule treats them as acquisitions, and modeling them
//! as both would fabricate self-deadlocks on clean code.
//!
//! Known blind spots (documented, not silent): turbofish call sites
//! (`f::<T>(…)`) and calls through function-pointer/closure values
//! resolve as Unknown.

use crate::lexer::TokKind;
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;
use crate::symbols::{Symbol, SymbolGraph};
use std::collections::BTreeMap;

/// Candidate cap for bare-name and method fallbacks: a name that fans
/// out wider than this is recorded as Unknown instead (it would only
/// blur witnesses).
const MAX_CANDIDATES: usize = 8;

/// One deduplicated call edge endpoint with its witness site (the
/// first site in the caller's body, by `(line, col)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallEdge {
    /// The other endpoint's symbol id.
    pub other: u32,
    /// 1-based line of the call site, in the caller's file.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
}

/// One call site inside a caller's body, with every symbol the callee
/// name may resolve to.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
    /// Candidate callee symbol ids, sorted.
    pub targets: Vec<u32>,
}

/// The workspace call graph, indexed by symbol id.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Per caller: every resolved call site in body order.
    pub sites: Vec<Vec<CallSite>>,
    /// Per caller: deduped forward edges, sorted by callee id.
    pub callees: Vec<Vec<CallEdge>>,
    /// Per callee: deduped reverse edges, sorted by caller id. The
    /// site is in the *caller's* file.
    pub callers: Vec<Vec<CallEdge>>,
    /// Per caller: unresolved callee displays with their first site.
    pub unknown: Vec<Vec<(String, u32, u32)>>,
}

enum Resolution {
    Resolved(Vec<u32>),
    Unknown(String),
    Skip,
}

/// Identifiers that look like calls but are keywords or enum/tuple
/// constructors — never call edges.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "mut", "ref", "where",
    "impl", "dyn", "break", "continue", "unsafe", "let", "else", "fn", "pub", "use", "mod",
    "crate", "self", "super", "Self", "true", "false", "const", "static", "type", "enum",
    "struct", "trait", "box", "await", "yield",
];

impl CallGraph {
    /// Build the graph by scanning every symbol body in id order.
    pub fn build(files: &[ParsedFile<'_>], g: &SymbolGraph) -> CallGraph {
        let n = g.symbols.len();
        let mut cg = CallGraph {
            sites: vec![Vec::new(); n],
            callees: vec![Vec::new(); n],
            callers: vec![Vec::new(); n],
            unknown: vec![Vec::new(); n],
        };
        let mut fwd: Vec<BTreeMap<u32, (u32, u32)>> = vec![BTreeMap::new(); n];
        let mut rev: Vec<BTreeMap<u32, (u32, u32)>> = vec![BTreeMap::new(); n];
        let mut unk: Vec<BTreeMap<String, (u32, u32)>> = vec![BTreeMap::new(); n];

        for (sid, sym) in g.symbols.iter().enumerate() {
            let Some(file) = files.get(sym.file_idx as usize) else {
                continue;
            };
            let Some(item) = file.items.get(sym.item_idx as usize) else {
                continue;
            };
            let Some((b0, b1)) = item.body else {
                continue;
            };
            let scan = &file.scan;
            let mut i = b0 + 1;
            while i < b1.min(scan.code.len()) {
                let t = *scan.ct(i);
                if t.kind != TokKind::Ident || scan.ctext(i + 1) != "(" {
                    i += 1;
                    continue;
                }
                let prev = if i == 0 { "" } else { scan.ctext(i - 1) };
                if prev == "fn" || NON_CALL_IDENTS.contains(&t.text) {
                    i += 1;
                    continue;
                }
                let res = if prev == "." {
                    if t.text == "lock" {
                        // Acquisition, not a call edge (see module docs).
                        i += 1;
                        continue;
                    }
                    method_targets(scan, g, sym, i, t.text)
                } else {
                    // Walk the `::` chain back to its head.
                    let mut segs = vec![t.text.to_string()];
                    let mut h = i;
                    while h >= 3
                        && scan.path_sep(h - 2)
                        && scan.ct(h - 3).kind == TokKind::Ident
                    {
                        h -= 3;
                        segs.insert(0, scan.ctext(h).to_string());
                    }
                    resolve_call(scan, g, sym, &segs)
                };
                match res {
                    Resolution::Resolved(mut targets) => {
                        targets.sort_unstable();
                        targets.dedup();
                        targets.retain(|&tid| tid != sid as u32); // no self loops
                        if !targets.is_empty() {
                            for &tid in &targets {
                                fwd[sid].entry(tid).or_insert((t.line, t.col));
                                rev[tid as usize]
                                    .entry(sid as u32)
                                    .or_insert((t.line, t.col));
                            }
                            cg.sites[sid].push(CallSite {
                                line: t.line,
                                col: t.col,
                                targets,
                            });
                        }
                    }
                    Resolution::Unknown(d) => {
                        unk[sid].entry(d).or_insert((t.line, t.col));
                    }
                    Resolution::Skip => {}
                }
                i += 1;
            }
        }

        for sid in 0..n {
            cg.callees[sid] = fwd[sid]
                .iter()
                .map(|(&o, &(l, c))| CallEdge {
                    other: o,
                    line: l,
                    col: c,
                })
                .collect();
            cg.callers[sid] = rev[sid]
                .iter()
                .map(|(&o, &(l, c))| CallEdge {
                    other: o,
                    line: l,
                    col: c,
                })
                .collect();
            cg.unknown[sid] = unk[sid]
                .iter()
                .map(|(d, &(l, c))| (d.clone(), l, c))
                .collect();
        }
        cg
    }

    /// A synthetic graph from explicit `(caller, callee)` pairs — for
    /// the taint propcheck suites. Sites carry `(line, col) = (1, 1)`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CallGraph {
        let mut fwd: Vec<BTreeMap<u32, (u32, u32)>> = vec![BTreeMap::new(); n];
        let mut rev: Vec<BTreeMap<u32, (u32, u32)>> = vec![BTreeMap::new(); n];
        for &(a, b) in edges {
            if (a as usize) < n && (b as usize) < n {
                fwd[a as usize].entry(b).or_insert((1, 1));
                rev[b as usize].entry(a).or_insert((1, 1));
            }
        }
        let mut cg = CallGraph {
            sites: vec![Vec::new(); n],
            callees: vec![Vec::new(); n],
            callers: vec![Vec::new(); n],
            unknown: vec![Vec::new(); n],
        };
        for sid in 0..n {
            cg.callees[sid] = fwd[sid]
                .iter()
                .map(|(&o, &(l, c))| CallEdge { other: o, line: l, col: c })
                .collect();
            cg.callers[sid] = rev[sid]
                .iter()
                .map(|(&o, &(l, c))| CallEdge { other: o, line: l, col: c })
                .collect();
        }
        cg
    }

    /// Total deduplicated caller→callee pairs.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// Total deduplicated unresolved-callee records.
    pub fn unknown_count(&self) -> usize {
        self.unknown.iter().map(Vec::len).sum()
    }
}

fn prefer_same_crate(g: &SymbolGraph, caller: &Symbol, ids: &[u32]) -> Vec<u32> {
    let same: Vec<u32> = ids
        .iter()
        .copied()
        .filter(|&id| {
            g.symbols
                .get(id as usize)
                .is_some_and(|s| s.crate_name == caller.crate_name)
        })
        .collect();
    if same.is_empty() {
        ids.to_vec()
    } else {
        same
    }
}

fn method_targets(
    scan: &ScannedFile<'_>,
    g: &SymbolGraph,
    caller: &Symbol,
    i: usize,
    name: &str,
) -> Resolution {
    // `self.m(...)` with a plain `self` receiver: resolve within the
    // enclosing impl type first.
    if i >= 2 && scan.ctext(i - 2) == "self" && (i < 4 || scan.ctext(i - 3) != ".") {
        if let Some(t) = &caller.self_type {
            if let Some(ids) = g.lookup_suffix2(&format!("{t}::{name}")) {
                return Resolution::Resolved(ids.to_vec());
            }
        }
    }
    match g.lookup_method(name) {
        Some(ids) => {
            let pick = prefer_same_crate(g, caller, ids);
            if pick.len() <= MAX_CANDIDATES {
                Resolution::Resolved(pick)
            } else {
                Resolution::Unknown(format!(".{name}"))
            }
        }
        None => {
            if name.starts_with(|c: char| c.is_lowercase() || c == '_') {
                Resolution::Unknown(format!(".{name}"))
            } else {
                Resolution::Skip
            }
        }
    }
}

fn resolve_call(
    scan: &ScannedFile<'_>,
    g: &SymbolGraph,
    caller: &Symbol,
    segs: &[String],
) -> Resolution {
    if segs.len() == 1 {
        let name = &segs[0];
        // Same-module free fn.
        let mut p = caller.mod_segs.clone();
        p.push(name.clone());
        if let Some(ids) = g.lookup_path(&p.join("::")) {
            return Resolution::Resolved(ids.to_vec());
        }
        // Through the file's use-alias table.
        if let Some(u) = scan.resolve_use(name) {
            if u.path.len() > 1 || u.path.first().map(String::as_str) != Some(name.as_str()) {
                return resolve_abs(g, caller, &u.path);
            }
        }
        // Bare free-fn fallback, same crate preferred.
        if let Some(ids) = g.lookup_fn(name) {
            let pick = prefer_same_crate(g, caller, ids);
            if pick.len() <= MAX_CANDIDATES {
                return Resolution::Resolved(pick);
            }
            return Resolution::Unknown(name.clone());
        }
        if name.starts_with(|c: char| c.is_lowercase() || c == '_') {
            return Resolution::Unknown(name.clone());
        }
        return Resolution::Skip; // `Some(`, `Vec(`-style constructors
    }
    // Multi-segment path: splice the head through the use table first
    // (`channel::bounded(...)` with `use dui_telemetry::channel;`).
    if let Some(u) = scan.resolve_use(&segs[0]) {
        if u.path.len() > 1 || u.path.first() != Some(&segs[0]) {
            let mut full = u.path.clone();
            full.extend(segs[1..].iter().cloned());
            return resolve_abs(g, caller, &full);
        }
    }
    resolve_abs(g, caller, segs)
}

fn resolve_abs(g: &SymbolGraph, caller: &Symbol, segs: &[String]) -> Resolution {
    let mut segs: Vec<String> = segs.to_vec();
    if segs.is_empty() {
        return Resolution::Skip;
    }
    match segs[0].as_str() {
        "crate" => segs[0] = caller.crate_name.clone(),
        "self" => {
            segs.remove(0);
            let mut p = caller.mod_segs.clone();
            p.extend(segs);
            segs = p;
        }
        "super" => {
            segs.remove(0);
            let mut p = caller.mod_segs.clone();
            if p.len() > 1 {
                p.pop();
            }
            p.extend(segs);
            segs = p;
        }
        "Self" => match &caller.self_type {
            Some(t) => segs[0] = t.clone(),
            None => return Resolution::Unknown(segs.join("::")),
        },
        "std" | "core" | "alloc" => return Resolution::Unknown(segs.join("::")),
        s => {
            // Workspace crates are `dui-<name>` packages imported as
            // `dui_<name>`; canonical paths use the bare directory name.
            if let Some(rest) = s.strip_prefix("dui_") {
                if !rest.is_empty() {
                    segs[0] = rest.to_string();
                }
            }
        }
    }
    if segs.is_empty() {
        return Resolution::Skip;
    }
    if let Some(ids) = g.lookup_path(&segs.join("::")) {
        return Resolution::Resolved(ids.to_vec());
    }
    if segs.len() >= 2 {
        let suf = segs[segs.len() - 2..].join("::");
        if let Some(ids) = g.lookup_suffix2(&suf) {
            let pick = prefer_same_crate(g, caller, ids);
            if pick.len() <= MAX_CANDIDATES {
                return Resolution::Resolved(pick);
            }
        }
    }
    Resolution::Unknown(segs.join("::"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::ParsedFile;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<ParsedFile<'static>>, SymbolGraph, CallGraph) {
        let mut sorted: Vec<(&str, &str)> = srcs.to_vec();
        sorted.sort();
        let files: Vec<ParsedFile<'static>> = sorted
            .iter()
            .map(|(p, s)| ParsedFile::parse(p, Box::leak(s.to_string().into_boxed_str())))
            .collect();
        let g = SymbolGraph::build(&files);
        let cg = CallGraph::build(&files, &g);
        (files, g, cg)
    }

    fn id(g: &SymbolGraph, path: &str) -> u32 {
        g.lookup_path(path).and_then(|ids| ids.first().copied()).expect(path)
    }

    fn has_edge(cg: &CallGraph, from: u32, to: u32) -> bool {
        cg.callees[from as usize].iter().any(|e| e.other == to)
    }

    #[test]
    fn direct_and_cross_crate_calls_resolve() {
        let (_f, g, cg) = graph(&[
            (
                "crates/alpha/src/lib.rs",
                "pub fn seed() {}\npub fn hop() { seed(); }\n",
            ),
            (
                "crates/beta/src/lib.rs",
                "use dui_alpha::hop;\npub fn entry() { hop(); }\n\
                 pub fn qualified() { dui_alpha::seed(); }\n",
            ),
        ]);
        assert!(has_edge(&cg, id(&g, "alpha::hop"), id(&g, "alpha::seed")));
        assert!(has_edge(&cg, id(&g, "beta::entry"), id(&g, "alpha::hop")));
        assert!(has_edge(&cg, id(&g, "beta::qualified"), id(&g, "alpha::seed")));
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let (_f, g, cg) = graph(&[(
            "crates/alpha/src/lib.rs",
            "struct W;\nimpl W { fn a(&self) { self.b(); } fn b(&self) {} }\n",
        )]);
        assert!(has_edge(&cg, id(&g, "alpha::W::a"), id(&g, "alpha::W::b")));
    }

    #[test]
    fn std_calls_are_unknown_not_edges() {
        let (_f, g, cg) = graph(&[(
            "crates/alpha/src/lib.rs",
            "pub fn f() { std::mem::take(&mut 0u32); }\n",
        )]);
        let sid = id(&g, "alpha::f") as usize;
        assert!(cg.callees[sid].is_empty());
        assert_eq!(cg.unknown[sid].len(), 1);
        assert_eq!(cg.unknown[sid][0].0, "std::mem::take");
    }

    #[test]
    fn lock_calls_are_not_call_edges() {
        let (_f, g, cg) = graph(&[(
            "crates/alpha/src/lib.rs",
            "struct S;\nimpl S { fn lock(&self) {} }\n\
             pub fn f(s: &S) { s.lock(); }\n",
        )]);
        let sid = id(&g, "alpha::f") as usize;
        assert!(cg.callees[sid].is_empty());
        assert!(cg.unknown[sid].is_empty());
    }
}
