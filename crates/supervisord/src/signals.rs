//! Per-group signal state: the three windowed risk signals evaluated
//! on every frame of a group.

use crate::verdict::{Action, Verdict};
use dui_defense::streaming::{
    DropPatternWindow, GroupOutlierWindow, OccupancyWindow, SynBacklogWindow,
};
use dui_telemetry::delta::Frame;

/// Gauge watched by the Blink occupancy signal.
const BLINK_METRIC: &str = "blink.cells.malicious";
/// Full-scale occupancy (risk 1.0) for the Blink signal — 64 cells in
/// the paper's selector.
const BLINK_CAPACITY: f64 = 64.0;
/// Gauge-name prefix whose members feed the Pytheas outlier signal.
const PYTHEAS_PREFIX: &str = "pytheas.qoe.";
/// Counter-name prefix (`<prefix>.{high,low}_{lossy,total}`) feeding the
/// PCC drop-pattern signal.
const PCC_PREFIX: &str = "pcc.mi";
/// Metric-name prefix (`<prefix>.{synrcvd_live,syn_dropped,synrcvd}`)
/// feeding the SYN-backlog signal.
const SYN_PREFIX: &str = "tcp.handshake";
/// Listener backlog capacity (risk 1.0 occupancy) for the SYN-backlog
/// signal.
const SYN_BACKLOG: f64 = 64.0;
/// Window length, in frames, for every signal's state.
const WINDOW: usize = 8;
/// Lower PCC ε bound for the amplitude clamp.
const EPS_MIN: f64 = 0.01;
/// Upper PCC ε bound for the amplitude clamp.
const EPS_MAX: f64 = 0.05;
/// Risk above which verdicts constrain the drivers.
const CONSTRAIN_ABOVE: f64 = 0.25;
/// Risk above which verdicts veto proposals outright.
const VETO_ABOVE: f64 = 0.5;

/// The windowed signal state of one group. Created lazily when the
/// group's first frame arrives; owned by exactly one worker (a group's
/// frames always hash to a single shard), so no cross-worker
/// synchronization is needed.
///
/// Every group uses the same fixed wiring: 8-frame windows, risk above
/// 0.25 constrains and above 0.5 vetoes, and the PCC ε clamp spans
/// `[0.01, 0.05]`.
#[derive(Debug, Clone)]
pub struct SignalBank {
    blink: OccupancyWindow,
    pytheas: GroupOutlierWindow,
    pcc: DropPatternWindow,
    syn: SynBacklogWindow,
}

impl Default for SignalBank {
    fn default() -> Self {
        Self::new()
    }
}

impl SignalBank {
    /// Fresh signal state for one group.
    pub fn new() -> Self {
        SignalBank {
            blink: OccupancyWindow::new(BLINK_METRIC, BLINK_CAPACITY, WINDOW),
            pytheas: GroupOutlierWindow::new(PYTHEAS_PREFIX, WINDOW),
            pcc: DropPatternWindow::new(PCC_PREFIX, WINDOW),
            syn: SynBacklogWindow::new(SYN_PREFIX, SYN_BACKLOG, WINDOW),
        }
    }

    /// Fold one frame's delta into the windowed state and rule on it.
    /// Deterministic: the verdict is a pure function of the frame
    /// sequence observed so far (`ingest_ns` is ignored).
    pub fn observe(&mut self, group: &str, frame: &Frame) -> Verdict {
        let blink = self.blink.observe(&frame.delta).0;
        let pytheas = self.pytheas.observe(&frame.delta).0;
        let pcc = self.pcc.observe(&frame.delta).0;
        // SYN-backlog pressure folds into the overall risk only; it has
        // no dedicated verdict column (the verdict log format — and
        // every golden built on it — predates the signal). Frames that
        // carry no tcp.handshake.* metrics score 0.0 here.
        let syn = self.syn.observe(&frame.delta).0;
        let risk = blink.max(pytheas).max(pcc).max(syn);
        let action = if risk > VETO_ABOVE {
            Action::Veto
        } else if risk > CONSTRAIN_ABOVE {
            Action::Constrain
        } else {
            Action::Allow
        };
        Verdict {
            epoch: frame.epoch,
            producer: frame.producer,
            seq: frame.seq,
            group: group.to_string(),
            blink,
            pytheas,
            pcc,
            risk,
            eps_max: self.pcc.recommended_eps(EPS_MIN, EPS_MAX),
            action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_telemetry::{Registry, Snapshot};

    fn frame(seq: u64, delta: Snapshot) -> Frame {
        Frame {
            producer: 0,
            seq,
            epoch: seq,
            ingest_ns: 0,
            delta,
        }
    }

    #[test]
    fn quiet_group_allows() {
        let mut bank = SignalBank::new();
        let v = bank.observe("g", &frame(0, Snapshot::default()));
        assert_eq!(v.action, Action::Allow);
        assert_eq!(v.risk, 0.0);
        assert_eq!(v.eps_max, 0.05);
    }

    #[test]
    fn syn_backlog_pressure_escalates_to_veto() {
        let mut bank = SignalBank::new();
        let mut reg = Registry::new();
        let g = reg.gauge("tcp.handshake.synrcvd_live");
        reg.observe(g, 60.0);
        let d = reg.counter("tcp.handshake.syn_dropped");
        reg.add(d, 200);
        let e = reg.counter("tcp.handshake.synrcvd");
        reg.add(e, 64);
        let v = bank.observe("g", &frame(0, reg.snapshot()));
        assert_eq!(v.action, Action::Veto);
        // The verdict log has no syn column; the pressure surfaces
        // through the overall risk while the named signals stay quiet.
        assert!(v.risk > 0.9, "risk = {}", v.risk);
        assert_eq!(v.blink, 0.0);
        assert_eq!(v.pcc, 0.0);
    }

    #[test]
    fn blink_occupancy_escalates_to_veto() {
        let mut bank = SignalBank::new();
        let mut reg = Registry::new();
        let g = reg.gauge("blink.cells.malicious");
        reg.observe(g, 56.0);
        let v = bank.observe("g", &frame(0, reg.snapshot()));
        assert_eq!(v.blink, 0.875);
        assert_eq!(v.action, Action::Veto);
        assert_eq!(v.risk, 0.875);
    }
}
