//! The parts of the repository benchmark that stand on their own and
//! are unit-tested: the percentile rule, the seeded design-point picker
//! of the served workload, the timing wrapper around a traffic source,
//! the timestamping event sink, and the result line.
//!
//! The workloads themselves live in the binary (`src/main.rs`,
//! `src/sim.rs`, `src/served.rs`).

pub mod picker;
pub mod report;
pub mod stats;
pub mod timing;
