//! Property-based tests of the simulated runtime: physical bounds that
//! must hold for *every* configuration and workload shape.

use omptune_core::{Arch, ConfigSpace, TuningConfig};
use proptest::prelude::*;
use simrt::{
    simulate, simulate_monolithic, AccessPattern, Imbalance, LoopPhase, Model, Phase, PlanCache,
    TaskPhase,
};

fn arch_strategy() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::A64fx), Just(Arch::Skylake), Just(Arch::Milan)]
}

fn loop_model(iters: u64, cycles: f64, timesteps: u32) -> Model {
    Model {
        name: "prop".into(),
        phases: vec![Phase::Loop(LoopPhase {
            iters,
            cycles_per_iter: cycles,
            bytes_per_iter: 0.0,
            access: AccessPattern::CacheResident,
            imbalance: Imbalance::Uniform,
            reductions: 0,
        })],
        timesteps,
        migration_sensitivity: 0.0,
    }
}

proptest! {
    /// Makespan can never beat the work-conserving bound
    /// total_compute / threads, and a single thread can never beat the
    /// serial compute time.
    #[test]
    fn makespan_respects_capacity_bound(
        arch in arch_strategy(),
        config_idx in 0usize..4608,
        iters in 1u64..2_000_000,
        cycles in 1.0f64..5_000.0,
    ) {
        let t = arch.cores();
        let space = ConfigSpace::new(arch, t);
        let config = space.get(config_idx % space.len()).expect("in space");
        let model = loop_model(iters, cycles, 1);
        let machine = simrt::machine_for(arch);
        let r = simulate(arch, &config, &model, 0);
        let serial_ns = iters as f64 * cycles / machine.clock_ghz;
        prop_assert!(
            r.total_ns >= serial_ns / t as f64,
            "superlinear: {} < {}",
            r.total_ns,
            serial_ns / t as f64
        );
        // And the simulation is monotone in work for the same config.
        let bigger = loop_model(iters * 2, cycles, 1);
        let r2 = simulate(arch, &config, &bigger, 0);
        prop_assert!(r2.total_ns > r.total_ns);
    }

    /// Determinism across repeated evaluation, for arbitrary configs.
    #[test]
    fn simulation_is_pure(
        arch in arch_strategy(),
        config_idx in 0usize..4608,
        seed in any::<u64>(),
    ) {
        let t = arch.cores();
        let space = ConfigSpace::new(arch, t);
        let config = space.get(config_idx % space.len()).expect("in space");
        let model = loop_model(50_000, 300.0, 3);
        let a = simulate(arch, &config, &model, seed);
        let b = simulate(arch, &config, &model, seed);
        prop_assert_eq!(a, b);
    }

    /// More timesteps never run faster; time is additive-ish in steps.
    #[test]
    fn timesteps_monotone(arch in arch_strategy(), steps in 1u32..50) {
        let config = TuningConfig::default_for(arch, arch.cores());
        let small = loop_model(10_000, 200.0, steps);
        let big = loop_model(10_000, 200.0, steps + 1);
        let a = simulate(arch, &config, &small, 1).total_ns;
        let b = simulate(arch, &config, &big, 1).total_ns;
        prop_assert!(b > a);
    }

    /// Task phases: makespan bounded below by total work / threads and
    /// above by the serial sum (plus overheads scaled by the worst
    /// placement divisor).
    #[test]
    fn task_phase_bounds(
        arch in arch_strategy(),
        n_tasks in 1u64..100_000,
        cycles in 100.0f64..100_000.0,
    ) {
        let t = arch.cores();
        let config = TuningConfig::default_for(arch, t);
        let model = Model {
            name: "tasks".into(),
            phases: vec![Phase::Tasks(TaskPhase {
                n_tasks,
                cycles_per_task: cycles,
                cv: 0.0,
                starvation: 0.0,
                bytes_per_task: 0.0,
            })],
            timesteps: 1,
            migration_sensitivity: 0.0,
        };
        let machine = simrt::machine_for(arch);
        let r = simulate(arch, &config, &model, 0);
        let serial = n_tasks as f64 * cycles / machine.clock_ghz;
        prop_assert!(r.total_ns >= serial / t as f64);
    }

    /// The plan/price split is bit-identical to the monolithic path for
    /// arbitrary configurations, seeds, and workload shapes — the
    /// contract that lets the sweep share plans across pricing variants.
    #[test]
    fn planned_pricing_is_bit_identical_to_monolithic(
        arch in arch_strategy(),
        config_idx in 0usize..4608,
        seed in any::<u64>(),
        iters in 1u64..300_000,
        timesteps in 1u32..8,
        reductions in 0u32..3,
    ) {
        let t = arch.cores();
        let space = ConfigSpace::new(arch, t);
        let config = space.get(config_idx % space.len()).expect("in space");
        let mut model = loop_model(iters, 250.0, timesteps);
        if let Phase::Loop(l) = &mut model.phases[0] {
            l.reductions = reductions;
            l.imbalance = Imbalance::Random { cv: 0.3 };
        }
        let split = simulate(arch, &config, &model, seed);
        let mono = simulate_monolithic(arch, &config, &model, seed);
        prop_assert_eq!(
            split.total_ns.to_bits(),
            mono.total_ns.to_bits(),
            "total_ns differs: {} vs {}", split.total_ns, mono.total_ns
        );
        prop_assert_eq!(split, mono);
    }

    /// A shared plan cache prices every configuration identically to a
    /// fresh simulation: cache reuse never changes a result.
    #[test]
    fn plan_cache_reuse_is_bit_identical(
        arch in arch_strategy(),
        base_idx in 0usize..4608,
        seed in any::<u64>(),
    ) {
        let t = arch.cores();
        let space = ConfigSpace::new(arch, t);
        let model = loop_model(40_000, 300.0, 4);
        let cache = PlanCache::new(arch, &model, seed);
        // A run of neighbouring configs: the odometer enumeration makes
        // adjacent indices share plan projections, so the cache hits.
        for k in 0..12 {
            let config = space.get((base_idx + k) % space.len()).expect("in space");
            let cached = simrt::simulate_with_cache(arch, &config, &model, seed, &cache);
            let fresh = simulate_monolithic(arch, &config, &model, seed);
            prop_assert_eq!(
                cached.total_ns.to_bits(),
                fresh.total_ns.to_bits(),
                "config {} differs", (base_idx + k) % space.len()
            );
            prop_assert_eq!(cached, fresh);
        }
        let (hits, misses) = cache.stats();
        prop_assert_eq!(hits + misses, 12);
        prop_assert!(misses >= 1);
    }

    /// Batch pricing (SoA loop-nest transpose) is bit-identical to
    /// per-config pricing for arbitrary architectures, projections, and
    /// workload shapes — the contract that lets the scheduler price a
    /// whole miss group against one plan fetch.
    #[test]
    fn price_batch_is_bit_identical_to_per_config_price(
        arch in arch_strategy(),
        config_idx in 0usize..4608,
        seed in any::<u64>(),
        iters in 0u64..200_000,
        n_tasks in 0u64..50_000,
        timesteps in 1u32..6,
        reductions in 0u32..3,
        serial_ns in 0.0f64..50_000.0,
    ) {
        use omptune_core::{KmpAlignAlloc, KmpBlocktime, KmpForceReduction};
        let t = arch.cores();
        let space = ConfigSpace::new(arch, t);
        let base = space.get(config_idx % space.len()).expect("in space");
        // Every pricing variant of the base projection: the 24-config
        // group a scheduling unit batches together.
        let mut group = Vec::new();
        for bt in [KmpBlocktime::Zero, KmpBlocktime::Default200, KmpBlocktime::Infinite] {
            for fr in [
                KmpForceReduction::Unset,
                KmpForceReduction::Tree,
                KmpForceReduction::Critical,
                KmpForceReduction::Atomic,
            ] {
                for al in [KmpAlignAlloc(64), KmpAlignAlloc(4096)] {
                    let mut c = base;
                    c.blocktime = bt;
                    c.force_reduction = fr;
                    c.align_alloc = al;
                    group.push(c);
                }
            }
        }
        let mut model = loop_model(iters, 250.0, timesteps);
        if let Phase::Loop(l) = &mut model.phases[0] {
            l.reductions = reductions;
            l.imbalance = Imbalance::Random { cv: 0.3 };
        }
        model.phases.push(Phase::Serial { ns: serial_ns });
        model.phases.push(Phase::Tasks(TaskPhase {
            n_tasks,
            cycles_per_task: 600.0,
            cv: 0.2,
            starvation: 0.3,
            bytes_per_task: 8.0,
        }));
        let cache = PlanCache::new(arch, &model, seed);
        let plan = cache.plan_batch(&group[0], &model, group.len() as u64);
        let mut out = Vec::new();
        let mut scratch = simrt::PriceScratch::new();
        plan.price_batch(&group, &mut scratch, &mut out);
        prop_assert_eq!(out.len(), group.len());
        for (c, got) in group.iter().zip(&out) {
            let want = plan.price(c);
            prop_assert_eq!(
                got.total_ns.to_bits(),
                want.total_ns.to_bits(),
                "total differs for {:?}: {} vs {}", c, got.total_ns, want.total_ns
            );
            prop_assert_eq!(got.regions, want.regions);
            prop_assert_eq!(
                got.breakdown.sync_ns.to_bits(), want.breakdown.sync_ns.to_bits()
            );
            prop_assert_eq!(
                got.breakdown.wake_ns.to_bits(), want.breakdown.wake_ns.to_bits()
            );
            prop_assert_eq!(got, &want);
        }
    }

    /// The default configuration is never the absolute worst: the
    /// master-bind configs must always be at least as slow.
    #[test]
    fn master_bind_never_beats_default_at_full_threads(
        arch in arch_strategy(),
        iters in 10_000u64..500_000,
    ) {
        let t = arch.cores();
        let default = TuningConfig::default_for(arch, t);
        let master = TuningConfig {
            places: omptune_core::OmpPlaces::Cores,
            proc_bind: omptune_core::OmpProcBind::Master,
            ..default
        };
        let model = loop_model(iters, 400.0, 2);
        let d = simulate(arch, &default, &model, 0).total_ns;
        let m = simulate(arch, &master, &model, 0).total_ns;
        prop_assert!(m > d, "master {m} should exceed default {d}");
    }
}

/// Static-, dynamic- and guided-scheduled sweeps of this model cover
/// every loop planner path: three loops of different memory behaviour
/// (streaming with reductions, random shared lookups, cache-resident
/// with a linear imbalance), a serial gap and a task phase.
fn memo_model(timesteps: u32) -> Model {
    Model {
        name: "memo".into(),
        phases: vec![
            Phase::Loop(LoopPhase {
                iters: 30_000,
                cycles_per_iter: 220.0,
                bytes_per_iter: 48.0,
                access: AccessPattern::Streaming,
                imbalance: Imbalance::Random { cv: 0.35 },
                reductions: 2,
            }),
            Phase::Loop(LoopPhase {
                iters: 9_000,
                cycles_per_iter: 400.0,
                bytes_per_iter: 0.0,
                access: AccessPattern::RandomShared {
                    accesses_per_iter: 3.0,
                },
                imbalance: Imbalance::Uniform,
                reductions: 0,
            }),
            Phase::Serial { ns: 6_000.0 },
            Phase::Loop(LoopPhase {
                iters: 2_000,
                cycles_per_iter: 900.0,
                bytes_per_iter: 0.0,
                access: AccessPattern::CacheResident,
                imbalance: Imbalance::Linear { skew: 1.5 },
                reductions: 1,
            }),
            Phase::Tasks(TaskPhase {
                n_tasks: 4_000,
                cycles_per_task: 800.0,
                cv: 0.3,
                starvation: 0.4,
                bytes_per_task: 16.0,
            }),
        ],
        timesteps,
        migration_sensitivity: 0.6,
    }
}

/// A configuration with another spelling of the same thread placement
/// (Sec. III-2): `unset` binds `spread` once places are set, `true`
/// binds `close`, and without places `unset` means `false`. Returns the
/// input unchanged when it has no such twin.
fn placement_twin(c: &TuningConfig) -> TuningConfig {
    use omptune_core::{OmpPlaces, OmpProcBind};
    let mut twin = *c;
    twin.proc_bind = match (c.places, c.proc_bind) {
        (OmpPlaces::Unset, OmpProcBind::Unset) => OmpProcBind::False,
        (OmpPlaces::Unset, OmpProcBind::False) => OmpProcBind::Unset,
        (_, OmpProcBind::Unset) => OmpProcBind::Spread,
        (places, OmpProcBind::Spread) if places != OmpPlaces::Unset => OmpProcBind::Unset,
        (_, OmpProcBind::True) => OmpProcBind::Close,
        (_, OmpProcBind::Close) => OmpProcBind::True,
        (_, bind) => bind,
    };
    twin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan cache's region memo is exact: pricing through a shared
    /// cache — where projections that resolve to one placement assemble
    /// the same memoized regions — is bit-identical to a fresh
    /// `RegionPlan::build(..).price` and to the monolithic simulation,
    /// for random configurations and their placement twins.
    #[test]
    fn region_memo_is_bit_identical_to_fresh_plans(
        arch in arch_strategy(),
        half_team in any::<bool>(),
        indices in prop::collection::vec(0usize..4608, 6..12),
        seed in any::<u64>(),
        timesteps in 1u32..5,
    ) {
        use omptune_core::Placement;
        let t = if half_team { arch.cores() / 2 } else { arch.cores() };
        let space = ConfigSpace::new(arch, t);
        let model = memo_model(timesteps);
        let cache = PlanCache::new(arch, &model, seed);
        let mut twins = 0;
        for idx in indices {
            let config = space.get(idx % space.len()).expect("in space");
            let twin = placement_twin(&config);
            prop_assert_eq!(
                Placement::compute(arch, &config),
                Placement::compute(arch, &twin)
            );
            if twin != config {
                twins += 1;
            }
            for c in [config, twin] {
                let cached = simrt::simulate_with_cache(arch, &c, &model, seed, &cache);
                let fresh = simrt::RegionPlan::build(arch, c.plan_projection(), &model, seed)
                    .price(&c);
                let mono = simulate_monolithic(arch, &c, &model, seed);
                for other in [&fresh, &mono] {
                    prop_assert_eq!(
                        cached.total_ns.to_bits(),
                        other.total_ns.to_bits(),
                        "total differs for {:?}", c
                    );
                    prop_assert_eq!(
                        cached.breakdown.compute_ns.to_bits(),
                        other.breakdown.compute_ns.to_bits()
                    );
                    prop_assert_eq!(
                        cached.breakdown.dispatch_ns.to_bits(),
                        other.breakdown.dispatch_ns.to_bits()
                    );
                    prop_assert_eq!(&cached, other);
                }
            }
        }
        // Every region of every planned projection came from the memo,
        // and a twin's regions are always reused, never re-planned.
        let (_, plans) = cache.stats();
        let (builds, reuses) = cache.region_stats();
        let steps = if timesteps > 1 { 2 } else { 1 };
        prop_assert_eq!(builds + reuses, plans * 4 * steps);
        if twins > 0 {
            prop_assert!(reuses >= 4 * steps, "{} twins but {} reuses", twins, reuses);
        }
    }
}
