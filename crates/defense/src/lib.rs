//! # dui-defense
//!
//! The §5 countermeasures of *"(Self) Driving Under the Influence"*
//! (HotNets'19): the paper's Fig. 3 **driver / supervisor** loop as
//! windowed risk signals plus the concrete defenses the paper sketches
//! for its case studies.
//!
//! Fig. 3 is realised in two places. Online, the [`streaming`] windows
//! estimate risk from telemetry and `dui-supervisord`'s `SignalBank`
//! maps that risk to allow / constrain / veto verdicts and a PCC ε
//! clamp. Inside the simulation, [`BlinkRtoGuard`] vetoes implausible
//! Blink reroutes.
//!
//! | Module | Paper point | Defends |
//! |---|---|---|
//! | [`streaming`] | Fig. 3, points III–IV: incremental `observe(delta) -> Risk` with windowed state | all three, online (consumed by `dui-supervisord`) |
//! | [`supervisor`] | Fig. 3's risk scale | the [`Risk`] every signal reports |
//! | [`blink_guard`] | "Blink could monitor the RTT distribution … approximate the expected RTO distribution upon a failure" | Blink (§3.1 attack) |
//! | [`pytheas_guard`] | "look at the distribution of throughput across all clients in a group … the low-throughput clients can be tackled separately" | Pytheas (§4.1 attack) |
//! | [`pcc_guard`] | "monitor when packets are dropped in every +ε or −ε phase as well as limit the amplitude of the oscillations" | PCC (§4.2 attack) |
//! | [`fuzzing`] | point II: "fuzzing techniques that enable auto-generation of (realistic) adversarial inputs" | testing Blink |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blink_guard;
pub mod fuzzing;
pub mod pcc_guard;
pub mod pytheas_guard;
pub mod streaming;
pub mod supervisor;

pub use blink_guard::BlinkRtoGuard;
pub use fuzzing::{BlinkFuzzer, FuzzConfig};
pub use pcc_guard::PccLossPatternMonitor;
pub use pytheas_guard::MadReportFilter;
pub use streaming::{DropPatternWindow, GroupOutlierWindow, OccupancyWindow, SynBacklogWindow};
pub use supervisor::Risk;
