//! # simrt — the simulated OpenMP runtime
//!
//! Executes [`model::Model`] workload descriptions under a
//! `TuningConfig` on a simulated machine (`archsim`), in deterministic
//! virtual time. This is the substrate that lets the reproduction run the
//! paper's 240,000-sample sweep on a laptop: every tuning effect the
//! paper measures is modelled explicitly —
//!
//! - **placement & binding** → NUMA locality of streaming traffic,
//!   per-node bandwidth sharing, core oversubscription (the `master`-bind
//!   worst-trend), migration penalties for random-lookup tables,
//! - **schedule** → chunk assignment (reusing the real runtime's chunk
//!   math), dispatch costs, imbalance tails,
//! - **library & blocktime** → region-start wake-up latencies
//!   (spin vs. yield vs. park) and task-starvation costs,
//! - **force-reduction & align-alloc** → reduction-method costs and the
//!   adjacent-line interference of the runtime's internal allocations.
//!
//! See `costs` for every formula and `EXPERIMENTS.md` for calibration.

pub mod costs;
pub mod energy;
pub mod exec;
pub mod explain;
pub mod microsim;
pub mod model;
pub mod plan;

/// Serializes the crate's tests that simulate. Telemetry sessions and
/// the flight recorder are process-global: a test that opens one
/// observes every simulation running in the process, so a test that
/// simulates without this lock would leak spans, counters and region
/// records into a concurrent test's assertions.
#[cfg(test)]
pub(crate) fn tel_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the tests after it still run.
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

pub use energy::{power_for, price_energy};
pub use exec::{machine_for, simulate, simulate_monolithic, SimResult, TimeBreakdown, MAX_UNITS};
pub use explain::{explain, Explanation, PhaseCost};
pub use microsim::{run_loop_event_driven, MicroResult};
pub use model::{AccessPattern, Imbalance, LoopPhase, Model, Phase, TaskPhase};
pub use plan::{simulate_with_cache, PlanCache, PriceScratch, RegionPlan};
