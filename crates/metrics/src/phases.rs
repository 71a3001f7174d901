//! Where a tick's wall time went, phase by phase.
//!
//! `Simulation::step` and `DdPolice::on_tick` each bracket their phases with
//! `Instant::now()` and add the differences here. Pure observability, like
//! [`crate::ParallelStats`]: never hashed, never snapshotted, never read by
//! the run, so two runs that differ only in these numbers are the same run.

use std::time::Duration;

/// Wall time `Simulation::step` spent in each phase, summed over `ticks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepPhases {
    /// Ticks accumulated.
    pub ticks: u64,
    /// Churn, crash injection and the per-tick scratch/counter refresh.
    pub churn: Duration,
    /// Drawing and shuffling the tick's query and attack emissions.
    pub emission_build: Duration,
    /// Flooding every emission through the overlay.
    pub flood: Duration,
    /// Folding processed-query counts into per-node utilization.
    pub utilization: Duration,
    /// `Defense::on_tick` plus applying the cuts and reconnects it asked for.
    pub defense: Duration,
}

/// Wall time `DdPolice::on_tick` spent in each phase, summed over `ticks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicePhases {
    /// Ticks accumulated.
    pub ticks: u64,
    /// Neighbor-list exchange: late mail plus the refresh when one is due.
    pub exchange: Duration,
    /// Monitor ingest and every observer's judgments.
    pub judge: Duration,
    /// Replaying the shards' deferred effects onto shared state.
    pub replay: Duration,
}
