//! The risk scale of the paper's Fig. 3 supervisor.
//!
//! A *driver* reads data-plane signals and proposes actions; a
//! *supervisor* holds a model of plausible behavior, estimates the risk
//! that the driver is "under the influence" (being fed adversarial
//! inputs), and withdraws authority as that risk grows. Every §5 signal
//! in this crate reports on the same [`Risk`] scale: the windows in
//! [`streaming`](crate::streaming) (which `dui-supervisord` maps to
//! allow / constrain / veto verdicts and an ε clamp) and the in-sim
//! [`BlinkRtoGuard`](crate::BlinkRtoGuard).

/// Risk that the driver's current inputs are adversarial, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Risk(pub f64);

impl Risk {
    /// No evidence of manipulation.
    pub const NONE: Risk = Risk(0.0);
    /// Certain manipulation.
    pub const CERTAIN: Risk = Risk(1.0);

    /// Clamp into `[0, 1]`.
    pub fn clamped(v: f64) -> Risk {
        Risk(v.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn risk_clamped_constructor() {
        assert_eq!(Risk::clamped(-0.3).0, 0.0);
        assert_eq!(Risk::clamped(1.5).0, 1.0);
        assert!(Risk::NONE < Risk::CERTAIN);
    }
}
