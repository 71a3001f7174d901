//! One runner per paper table/figure, plus ablations.

mod ablations;
mod churn;
mod collusion;
mod ct;
mod fuzz;
mod policy;
mod resilience;
mod scale;
mod sketch;
mod soak;
mod static_figs;
mod structured;
mod sweep;
mod testbed;

pub use ablations::{
    ablate_clamp, ablate_forwarding, ablate_lists, ablate_radius, ablate_rejoin, ablate_topology,
    ablate_warning,
};
pub use churn::{
    churn, churn_grid, churn_grid_params, redetection_stats, ChurnCell, ChurnParams, DWELLS,
    MEAN_SESSIONS, SESSION_MODELS,
};
pub use collusion::{
    collusion, collusion_grid, readmission, readmission_grid, CollusionCell, ReadmissionCell,
};
pub use ct::{ct_sweep, fig12, fig13, fig14, CtRow, CT_GRID};
pub use fuzz::{fuzz, fuzz_seed_range, FUZZ_SMOKE_SCENARIOS};
pub use policy::{cheating, exchange};
pub use resilience::{detection_latency, resilience, resilience_grid, ResilienceCell};
pub use scale::{measure_cell, scale, scale_grid, ScaleCell};
pub use sketch::{measure_sketch_cell, sketch, sketch_grid, SketchCell};
pub use soak::soak;
pub use static_figs::{fig2, fig5, fig6, table1};
pub use structured::structured;
pub use sweep::{agent_sweep, consequences, fig10, fig11, fig9, SweepRow};
pub use testbed::testbed;

use crate::output::{OutputError, Table};
use crate::scenario::{DamageReport, ExpOptions, ScenarioBuilder};

/// Map `f(index, item)` over a sweep grid on the simulation worker pool,
/// one cell per claim, as wide as the host allows. Results come back in item
/// order and every cell derives its own seed, so tables are byte-identical
/// at every width. Cells run the engine serially (`--threads` is read only
/// by the timed, one-cell-at-a-time `scale` runner), so pools never nest.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_at(width, items, f)
}

/// [`par_map`] at a forced pool width (what the width-equivalence test pins).
fn par_map_at<T: Sync, R: Send>(
    width: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    ddp_sim::pool::run_partitioned(width, items.len(), |i| f(i, &items[i]))
}

/// Replicate means of what `measure` reads off one configuration's damage
/// pairs. `config` picks the seed stream ([`ExpOptions::seed_for`]): rows that
/// share one judge identical topologies, workloads and attacks.
pub(crate) fn damage_means<const K: usize>(
    opts: &ExpOptions,
    config: usize,
    scenario: &ScenarioBuilder,
    mut measure: impl FnMut(&DamageReport) -> [f64; K],
) -> [f64; K] {
    opts.mean_over(|r| {
        measure(&scenario.clone().seed(opts.seed_for(config, r)).build().run_with_damage())
    })
}

/// Print a table and, if requested, persist it as CSV. A failed write is the
/// caller's to stop on: a campaign must not exit 0 with tables missing.
pub fn emit(table: &Table, opts: &ExpOptions) -> Result<(), OutputError> {
    print!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        println!("[csv] {}", table.write_csv(dir)?.display());
    }
    println!();
    Ok(())
}
