//! Deterministic interprocedural taint propagation.
//!
//! A breadth-first fixed point over the call graph, iterated in
//! sorted symbol-id order (ids are path-sorted, so iteration order —
//! and therefore every witness path — is a pure function of the
//! sources). Taint is monotone reachability: adding an edge can only
//! add tainted symbols, never remove one (the propcheck suite pins
//! this down), which is what makes the analysis sound-by-
//! over-approximation in the presence of Unknown edges.
//!
//! Two directions share the engine:
//!
//! * [`reach_callers`] — callee→caller flow: "anything that can reach
//!   a wall-clock read is itself clock-tainted" (the transitive
//!   determinism rules);
//! * [`reach_callees`] — caller→callee flow: "anything reachable from
//!   a supervisord pipeline entry point runs under the pipeline's
//!   shared-mutability contract" (`parallel/transitive-shared-mut`).
//!
//! `blocked` symbols are barriers: they neither receive nor forward
//! taint (quarantine boundaries, `#[cfg(test)]` regions, per-item
//! `lint: allow(...)` escapes).

use crate::callgraph::CallGraph;
use std::collections::BTreeMap;

/// How a tainted symbol was reached.
#[derive(Debug, Clone, Copy)]
pub struct Trace {
    /// The neighbor one hop closer to a seed, with the call site that
    /// links them (in the file of whichever endpoint is the caller).
    /// `None` on seeds.
    pub via: Option<(u32, u32, u32)>,
    /// Hop distance from the nearest seed.
    pub depth: u32,
}

/// Propagate taint from `seeds` to transitive callers (callee→caller
/// flow). Returns every tainted symbol with its deterministic
/// minimum-depth, minimum-id witness trace.
pub fn reach_callers(
    g: &CallGraph,
    seeds: &[u32],
    blocked: &dyn Fn(u32) -> bool,
) -> BTreeMap<u32, Trace> {
    reach(g, seeds, blocked, true)
}

/// Forward reachability from `seeds` to transitive callees
/// (caller→callee flow), same determinism guarantees.
pub fn reach_callees(
    g: &CallGraph,
    seeds: &[u32],
    blocked: &dyn Fn(u32) -> bool,
) -> BTreeMap<u32, Trace> {
    reach(g, seeds, blocked, false)
}

fn reach(
    g: &CallGraph,
    seeds: &[u32],
    blocked: &dyn Fn(u32) -> bool,
    reverse: bool,
) -> BTreeMap<u32, Trace> {
    let mut out: BTreeMap<u32, Trace> = BTreeMap::new();
    let mut sorted_seeds: Vec<u32> = seeds.to_vec();
    sorted_seeds.sort_unstable();
    sorted_seeds.dedup();
    let mut frontier: Vec<u32> = Vec::new();
    for &s in &sorted_seeds {
        if blocked(s) {
            continue;
        }
        out.insert(s, Trace { via: None, depth: 0 });
        frontier.push(s);
    }
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        // Level-synchronous expansion: every frontier symbol proposes
        // its neighbors, and each newly tainted symbol keeps the
        // minimum `(neighbor id, line, col)` proposal — a canonical
        // shortest witness independent of discovery order.
        let mut next: BTreeMap<u32, (u32, u32, u32)> = BTreeMap::new();
        for &s in &frontier {
            let edges = if reverse {
                g.callers.get(s as usize)
            } else {
                g.callees.get(s as usize)
            };
            for e in edges.into_iter().flatten() {
                if out.contains_key(&e.other) || blocked(e.other) {
                    continue;
                }
                let cand = (s, e.line, e.col);
                next.entry(e.other)
                    .and_modify(|cur| {
                        if cand < *cur {
                            *cur = cand;
                        }
                    })
                    .or_insert(cand);
            }
        }
        frontier = next.keys().copied().collect();
        for (k, via) in next {
            out.insert(
                k,
                Trace {
                    via: Some(via),
                    depth,
                },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    #[test]
    fn caller_ward_taint_follows_reverse_edges() {
        // 0 -> 1 -> 2 (seed at 2): taint flows 2 -> 1 -> 0.
        let g = CallGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = reach_callers(&g, &[2], &|_| false);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&0).map(|tr| tr.depth), Some(2));
        assert_eq!(t.get(&1).and_then(|tr| tr.via).map(|v| v.0), Some(2));
    }

    #[test]
    fn barriers_stop_propagation() {
        let g = CallGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = reach_callers(&g, &[2], &|s| s == 1);
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn witness_prefers_smallest_neighbor() {
        // Both 1 and 2 are seeds calling into... rather: 3 calls both
        // 1 and 2 (seeds); the witness hop from 3 must pick 1.
        let g = CallGraph::from_edges(4, &[(3, 1), (3, 2)]);
        let t = reach_callers(&g, &[1, 2], &|_| false);
        assert_eq!(t.get(&3).and_then(|tr| tr.via).map(|v| v.0), Some(1));
    }

    #[test]
    fn forward_reach_follows_call_direction() {
        let g = CallGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = reach_callees(&g, &[0], &|_| false);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&2).map(|tr| tr.depth), Some(2));
    }

    #[test]
    fn cycles_terminate() {
        let g = CallGraph::from_edges(2, &[(0, 1), (1, 0)]);
        let t = reach_callers(&g, &[0], &|_| false);
        assert_eq!(t.len(), 2);
    }
}
