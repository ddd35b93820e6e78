//! `perfbench-trace`: the traced half of the repository benchmark.
//!
//! Repeats one benchmark workload's pipeline inside this process. It
//! calls each layer's public functions in the order the shipped binary
//! calls them, and records a span around every call. Spans stay in
//! memory and are written out, with per-pass counters, when the run
//! ends. `perfbench/run.py` turns them into self times, per-layer
//! metrics and a Perfetto trace.
//!
//! ```text
//! perfbench-trace WORKLOAD --seed N --seconds S --out DIR
//! ```
//!
//! `WORKLOAD` is `collect-cold`, `collect-warm` or `repro`, all at the
//! binaries' `fast` scope. Passes repeat until `S` seconds have gone, at
//! least [`MIN_PASSES`] of them, with `SweepSpec.seed = N`. Each pass is
//! one root span `trace.run`, followed by a root span `trace.probe` that
//! times single calls over a fixed probe set. Afterwards the run writes
//! `DIR/trace.json` with the spans, the counters, and the paths of:
//! - `check_a`, `check_b`: two `samples.csv` of seed `N` that must be
//!   byte-equal (cold vs warm cache for collect; the legacy vs the
//!   scheduled engine for repro);
//! - `default_*`: the same pipeline's outputs under
//!   `SweepSpec::default()`, to compare with the binaries' outputs.

use bench_harness::Reproduction;
use omptune_core::{Arch, ConfigSpace, GroupBy, LiveInfluence, TuningConfig};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sweep::{
    BatchPartial, CollectCore, Dataset, Registry, RunKey, SampleCache, Scope, SettingData,
    SweepOptions, SweepSpec,
};

/// The binaries' `fast` scope: every 24th configuration.
const SCOPE: Scope = Scope::Strided(24);
/// Scheduler workers: the host's 2 cores, as `collect --workers 2`.
const WORKERS: usize = 2;
/// Passes made even when the first one outlasts `--seconds`, so every
/// per-layer metric has a rep array.
const MIN_PASSES: u32 = 2;
/// Config strata of the drift series; must match `collect`.
const STRATA: usize = 8;
/// Probe set sizes, per architecture.
const PROBE_MODELS: usize = 32;
const PROBE_BUILDS: usize = 48;
const PROBE_PRICES: usize = 512;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    CollectCold,
    CollectWarm,
    Repro,
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

/// In-memory span recorder. Spans nest by call order on this thread;
/// the scheduler's worker threads run inside the span of the call that
/// spawned them.
struct Tracer {
    t0: Instant,
    on: Cell<bool>,
    run: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            on: Cell::new(false),
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (a no-op while tracing is off).
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }
}

/// Named per-pass numbers that are not span durations.
#[derive(Default)]
struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }
    fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.0.entry(key).or_insert(0.0);
        *slot = slot.max(v);
    }
    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of this
/// process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds this process has used so far.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Reset this process's peak RSS to its current RSS.
fn reset_hwm() {
    // Best effort: without the reset, VmHWM reports the process peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak RSS since the last [`reset_hwm`], in MiB.
fn hwm_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Bytes of every file under `path`.
fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = fs::symlink_metadata(path) else {
        return 0;
    };
    if !meta.is_dir() {
        return meta.len();
    }
    fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

fn remove_dir(path: &Path) -> io::Result<()> {
    match fs::remove_dir_all(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Write `path` through `write` inside a span, recording the peak RSS
/// the call reached under `hwm_key`.
fn write_file(
    tr: &Tracer,
    span: &'static str,
    hwm_key: &'static str,
    c: &mut Counters,
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    reset_hwm();
    tr.span(span, || {
        let mut w = BufWriter::new(fs::File::create(path)?);
        write(&mut w)?;
        w.flush()
    })?;
    c.max(hwm_key, hwm_mib());
    Ok(())
}

/// Output, sample-cache and registry directories of one collect pass.
struct Dirs {
    out: PathBuf,
    cache: PathBuf,
    registry: PathBuf,
}

impl Dirs {
    fn under(root: &Path) -> Dirs {
        Dirs {
            out: root.join("out"),
            cache: root.join("cache"),
            registry: root.join("registry"),
        }
    }
}

/// Feed one batch's speedups (or joule savings) into a live influence
/// tracker, as `collect`'s batch observers do.
fn observe(live: &Mutex<LiveInfluence>, data: &SettingData, energy: bool) {
    let value = |t: &sweep::SampleTelemetry, mean: f64| {
        if energy {
            t.energy.total_j
        } else {
            mean
        }
    };
    let default = value(&data.default_telemetry, data.default_mean());
    if !default.is_finite() || default <= 0.0 {
        return;
    }
    let mut live = live.lock().expect("influence tracker poisoned");
    for sample in &data.samples {
        let v = value(&sample.telemetry, sample.mean_runtime());
        if v.is_finite() && v > 0.0 {
            live.observe(&sample.config, default / v);
        }
    }
}

/// One architecture's time-series appends, as `collect` makes them.
/// Returns the number of points appended.
fn append_series(
    tsdb: &mut omptel::Tsdb,
    arch: Arch,
    batches: &[SettingData],
    meter: &omptel::Progress,
    stats: &sweep::SweepStats,
    influence: [(&str, &Mutex<LiveInfluence>); 2],
) -> io::Result<u64> {
    let mut points = 0u64;
    let mut put = |series: String, count: u64, sum: f64, ts: u64| {
        points += 1;
        tsdb.append(&series, omptel::Point { ts, count, sum })
    };
    let mut stratum_seq = [0u64; STRATA];
    let (mut joules, mut edp_js, mut samples) = (0.0f64, 0.0f64, 0u64);
    for data in batches {
        for sample in &data.samples {
            samples += 1;
            let e = &sample.telemetry.energy;
            if e.total_j.is_finite() {
                joules += e.total_j;
                edp_js += e.edp_js(sample.telemetry.virtual_ns);
            }
            let finite: Vec<f64> = sample
                .runtimes
                .iter()
                .copied()
                .filter(|t| t.is_finite())
                .collect();
            if finite.is_empty() {
                continue;
            }
            let k = sample.config_index % STRATA;
            let ts = stratum_seq[k];
            stratum_seq[k] += 1;
            put(
                format!("{}/virt/s{k}", arch.id()),
                finite.len() as u64,
                finite.iter().sum(),
                ts,
            )?;
            if e.total_j.is_finite() && e.total_j > 0.0 {
                put(format!("{}/energy/s{k}", arch.id()), 1, e.total_j, ts)?;
            }
        }
    }
    if joules > 0.0 {
        put(format!("{}/energy/joules", arch.id()), samples, joules, 0)?;
        put(format!("{}/energy/edp_js", arch.id()), samples, edp_js, 0)?;
    }
    let lat = meter.latency_histogram();
    if !lat.is_empty() {
        let sum = meter.latency_sum_ns() as f64;
        put(format!("{}/wall/sample_ns", arch.id()), lat.count, sum, 0)?;
    }
    let lookups = stats.sample_hits + stats.sample_misses;
    if lookups > 0 {
        let hits = stats.sample_hits as f64;
        put(format!("{}/rate/cache_hit", arch.id()), lookups, hits, 0)?;
    }
    if stats.units > 0 {
        let steals = stats.steals as f64;
        put(format!("{}/rate/steal", arch.id()), stats.units, steals, 0)?;
    }
    for (kind, live) in influence {
        let snap = live.lock().expect("influence tracker poisoned");
        if snap.samples() > 0 {
            for (feature, value) in snap.influence() {
                let slug = feature.name().to_lowercase();
                put(
                    format!("{}/{kind}/{slug}", arch.id()),
                    snap.samples(),
                    value,
                    0,
                )?;
            }
        }
    }
    Ok(points)
}

/// One `collect fast --workers 2 --cache-dir .. --registry ..` pass.
/// Returns the cleaned batches.
fn collect_pass(
    tr: &Tracer,
    spec: &SweepSpec,
    dirs: &Dirs,
    c: &mut Counters,
) -> io::Result<Vec<SettingData>> {
    fs::create_dir_all(&dirs.out)?;
    let cache = SampleCache::new(&dirs.cache);
    let registry = tr.span("sweep.registry.load", || -> io::Result<Registry> {
        let registry = Registry::open(&dirs.registry)?;
        black_box(registry.load().unwrap_or_default());
        Ok(registry)
    })?;
    let influence = Mutex::new(LiveInfluence::new());
    let energy_influence = Mutex::new(LiveInfluence::new());
    let mut manifest = sweep::RunManifest::new(spec);
    let mut core = CollectCore::new(spec);
    let mut tsdb = omptel::Tsdb::open(dirs.out.join("tsdb"), omptel::DEFAULT_CAPACITY)?;
    let mut batches = Vec::new();
    let mut totals = sweep::SweepStats::default();
    let mut latency = omptel::Histogram::new();
    let (mut sweep_wall, mut sweep_cpu, mut elapsed_sum) = (0.0, 0.0, 0.0);
    let cache_before = cache.stats();

    for &arch in Arch::ALL.iter() {
        let meter = omptel::Progress::quiet(arch.id(), sweep::planned_samples(arch, spec));
        let fold_sink: Mutex<Vec<(RunKey, BatchPartial)>> = Mutex::new(Vec::new());
        let observer = |data: &SettingData| {
            observe(&influence, data, false);
            observe(&energy_influence, data, true);
            let partial = BatchPartial::fold(data);
            fold_sink
                .lock()
                .expect("fold sink poisoned")
                .push((data.key.clone(), partial));
        };
        let opts = SweepOptions::new(WORKERS)
            .with_progress(&meter)
            .with_cache(&cache)
            .with_batch_observer(&observer);
        reset_hwm();
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let outcome = tr.span("sweep.schedule", || {
            sweep::sweep_arch_scheduled(arch, spec, &opts)
        });
        let elapsed = t0.elapsed().as_secs_f64();
        sweep_cpu += process_cpu_s() - cpu0;
        sweep_wall += elapsed;
        elapsed_sum += elapsed;
        c.max("sweep.schedule.hwm_mib", hwm_mib());
        latency.merge(&meter.latency_histogram());

        let mut arch_batches = outcome.batches;
        let dropped: usize = tr.span("sweep.dataset.clean", || {
            arch_batches
                .iter_mut()
                .map(|data| sweep::clean(data, spec.reps as usize).dropped.len())
                .sum()
        });
        c.add("sweep.dataset.dropped", dropped as f64);
        let partials = std::mem::take(&mut *fold_sink.lock().expect("fold sink poisoned"));
        tr.span("sweep.registry.core", || {
            if dropped == 0 {
                core.push_arch_partials(arch.id(), &arch_batches, partials, 0);
            } else {
                core.push_arch(arch.id(), &arch_batches, dropped as u64);
            }
        });
        let points = tr.span("omptel.tsdb.append", || {
            append_series(
                &mut tsdb,
                arch,
                &arch_batches,
                &meter,
                &outcome.stats,
                [
                    ("influence", &influence),
                    ("influence-energy", &energy_influence),
                ],
            )
        })?;
        c.add("omptel.tsdb.points", points as f64);
        tr.span("sweep.provenance.manifest", || {
            manifest.push_arch(
                arch,
                &arch_batches,
                dropped,
                elapsed,
                outcome.stats,
                meter.latency_histogram(),
            )
        });
        let s = outcome.stats;
        totals.plan_hits += s.plan_hits;
        totals.plan_misses += s.plan_misses;
        totals.steals += s.steals;
        totals.units += s.units;
        batches.extend(arch_batches);
    }

    let dataset = tr.span("sweep.dataset.build", || Dataset::build(&batches));
    let out = &dirs.out;
    write_file(
        tr,
        "sweep.export.csv",
        "sweep.export.hwm_mib",
        c,
        &out.join("samples.csv"),
        |w| sweep::export::write_csv(&dataset, w),
    )?;
    write_file(
        tr,
        "sweep.export.raw_json",
        "sweep.export.hwm_mib",
        c,
        &out.join("raw_batches.json"),
        |w| sweep::export::write_raw_json(&batches, w),
    )?;
    reset_hwm();
    let provenance = tr.span("sweep.provenance.build", || {
        sweep::provenance_of(&batches, spec)
    });
    c.max("sweep.provenance.hwm_mib", hwm_mib());
    write_file(
        tr,
        "sweep.provenance.write",
        "sweep.provenance.hwm_mib",
        c,
        &out.join("provenance.jsonl"),
        |w| sweep::write_provenance_jsonl(&provenance, w),
    )?;
    let manifest_path = out.join("manifest.json");
    tr.span("sweep.provenance.manifest", || -> io::Result<()> {
        let mut w = BufWriter::new(fs::File::create(&manifest_path)?);
        sweep::write_manifest(&manifest, &mut w)?;
        w.flush()
    })?;
    tr.span("sweep.export.summary", || {
        let mut summary = String::from("samples per architecture (paper Table II)\n");
        for (arch, apps, samples) in dataset.table2() {
            summary.push_str(&format!(
                "{}: {apps} applications, {samples} samples\n",
                arch.id()
            ));
        }
        fs::write(out.join("SUMMARY.txt"), summary)
    })?;

    let (hits, misses) = cache.stats();
    let (hits, misses) = (hits - cache_before.0, misses - cache_before.1);
    tr.span("sweep.registry.append", || -> io::Result<()> {
        let engine = omptel::counters_now();
        let mut counters = vec![
            ("plan_hits".to_string(), totals.plan_hits),
            ("plan_misses".to_string(), totals.plan_misses),
            ("sample_hits".to_string(), hits),
            ("sample_misses".to_string(), misses),
            ("steals".to_string(), totals.steals),
            ("units".to_string(), totals.units),
        ];
        for (name, counter) in [
            ("priced_batches", omptel::Counter::PricedBatches),
            ("pool_hits", omptel::Counter::PoolHits),
            ("pool_misses", omptel::Counter::PoolMisses),
            ("energy_samples", omptel::Counter::EnergySamples),
            ("energy_uj", omptel::Counter::EnergyUj),
        ] {
            counters.push((name.to_string(), engine.get(counter)));
        }
        counters.sort();
        let info = sweep::RunInfo {
            workers: WORKERS as u64,
            elapsed_s: elapsed_sum,
            manifest_digest: fs::read(&manifest_path)
                .map(|b| sweep::registry::fnv_bytes(&b))
                .unwrap_or(0),
            out_dir: out.display().to_string(),
            counters,
        };
        registry.append(
            sweep::RunCore::Collect(core),
            info,
            &sweep::detect_git_rev(Path::new(".")),
            sweep::registry::unix_now(),
        )?;
        Ok(())
    })?;

    let lookups = totals.plan_hits + totals.plan_misses;
    c.set("simrt.plan.builds", totals.plan_misses as f64);
    c.set(
        "simrt.plan.hit_ratio",
        ratio(totals.plan_hits as f64, lookups as f64),
    );
    c.set("sweep.cpu_s", sweep_cpu);
    c.set(
        "sweep.schedule.cpu_util",
        ratio(sweep_cpu, WORKERS as f64 * sweep_wall),
    );
    c.set("sweep.schedule.units", totals.units as f64);
    c.set("sweep.schedule.steals", totals.steals as f64);
    let quantile_us = |q: f64| latency.quantile(q).map_or(0.0, |b| b.mid() as f64 / 1e3);
    c.set("sweep.schedule.sample_p50_us", quantile_us(0.50));
    c.set("sweep.schedule.sample_p99_us", quantile_us(0.99));
    c.set(
        "sweep.cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    c.set("sweep.cache.mib", mib(disk_bytes(&dirs.cache)));
    c.set(
        "sweep.export.csv_mib",
        mib(disk_bytes(&out.join("samples.csv"))),
    );
    c.set(
        "sweep.export.raw_json_mib",
        mib(disk_bytes(&out.join("raw_batches.json"))),
    );
    c.set(
        "sweep.provenance.mib",
        mib(disk_bytes(&out.join("provenance.jsonl"))),
    );
    c.set("sweep.registry.mib", mib(disk_bytes(&dirs.registry)));
    Ok(batches)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `Reproduction::generate` with spans around the layers it calls.
fn generate(tr: &Tracer, spec: &SweepSpec, c: &mut Counters) -> Reproduction {
    let cpu0 = process_cpu_s();
    let mut batches = tr.span("sweep.runner", || sweep::sweep_all(spec));
    c.add("sweep.cpu_s", process_cpu_s() - cpu0);
    let samples: usize = batches.iter().map(|b| b.samples.len()).sum();
    c.add("sweep.runner.samples", samples as f64);
    // The legacy engine plans every configuration afresh, default rows
    // included (`simrt::simulate` = one build + one price).
    c.add("simrt.plan.builds", (samples + batches.len()) as f64);
    let dropped: usize = tr.span("sweep.dataset.clean", || {
        batches
            .iter_mut()
            .map(|b| sweep::clean(b, spec.reps as usize).dropped.len())
            .sum()
    });
    c.add("sweep.dataset.dropped", dropped as f64);
    let dataset = tr.span("sweep.dataset.build", || Dataset::build(&batches));
    Reproduction {
        batches,
        dataset,
        spec: *spec,
    }
}

/// `repro-tables fast` then `repro-figures fast`: returns both stdouts
/// and the figures run's reproduction.
fn repro_pass(tr: &Tracer, spec: &SweepSpec, c: &mut Counters) -> (String, String, Reproduction) {
    let print = |out: &mut String, body: String| {
        out.push_str(&body);
        out.push('\n');
    };
    let r = generate(tr, spec, c);
    let mut tables = String::new();
    print(&mut tables, tr.span("analysis.tables", || r.table1()));
    print(&mut tables, tr.span("analysis.tables", || r.table2()));
    print(&mut tables, tr.span("analysis.wilcoxon", || r.table3()));
    print(&mut tables, tr.span("analysis.tables", || r.table4()));
    print(&mut tables, tr.span("analysis.tables", || r.table5()));
    print(&mut tables, tr.span("analysis.tables", || r.table6()));
    print(&mut tables, tr.span("analysis.tables", || r.table7()));
    print(&mut tables, tr.span("analysis.tables", || r.q1()));
    print(&mut tables, tr.span("analysis.tables", || r.q2("xsbench")));
    print(&mut tables, tr.span("analysis.tables", || r.q4()));
    drop(r);

    let r = generate(tr, spec, c);
    let mut figures = String::new();
    let violin = |app: &str| tr.span("analysis.tables", || r.figure_violin(app));
    let heatmap = |g: GroupBy| tr.span("analysis.influence", || r.figure_heatmap(g));
    print(&mut figures, violin("alignment"));
    print(&mut figures, heatmap(GroupBy::Application));
    print(&mut figures, heatmap(GroupBy::Architecture));
    print(&mut figures, heatmap(GroupBy::ArchApplication));
    print(&mut figures, violin("bt"));
    print(&mut figures, violin("health"));
    print(&mut figures, violin("rsbench"));
    (tables, figures, r)
}

/// Per-call costs of the model, plan, price and energy layers over a
/// fixed probe set: the first app and setting of each architecture.
fn probe_simrt(tr: &Tracer, c: &mut Counters) {
    let seed = SweepSpec::default().seed;
    let (mut model_s, mut build_s, mut seq_s, mut batch_s, mut energy_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut models, mut builds, mut prices, mut energies) = (0usize, 0usize, 0usize, 0usize);
    for arch in Arch::ALL {
        let app = workloads::apps_on(arch)[0];
        let setting = workloads::settings_for(app, arch)[0];

        let t = Instant::now();
        let model = tr.span("probe.workloads.model", || {
            for _ in 1..PROBE_MODELS {
                black_box((app.model)(arch, setting));
            }
            (app.model)(arch, setting)
        });
        model_s += t.elapsed().as_secs_f64();
        models += PROBE_MODELS;

        let strided = sweep::spec::configs_for(arch, setting.num_threads, 0, SCOPE);
        let t = Instant::now();
        tr.span("probe.simrt.plan.build", || {
            for (_, cfg) in strided.iter().take(PROBE_BUILDS) {
                black_box(simrt::RegionPlan::build(
                    arch,
                    cfg.plan_projection(),
                    &model,
                    seed,
                ));
            }
        });
        build_s += t.elapsed().as_secs_f64();
        builds += strided.len().min(PROBE_BUILDS);

        // Contiguous odometer positions: the pricing-only variables
        // change fastest, so runs of configs share one plan, as the
        // scheduler's batched path groups them.
        let space = ConfigSpace::new(arch, setting.num_threads);
        let configs: Vec<TuningConfig> = (0..PROBE_PRICES.min(space.len()))
            .map(|i| space.get(i).expect("index in space"))
            .collect();
        let mut lanes = simrt::PriceScratch::new();
        let mut results = Vec::with_capacity(configs.len());
        for group in configs.chunk_by(|a, b| a.plan_projection() == b.plan_projection()) {
            let plan = simrt::RegionPlan::build(arch, group[0].plan_projection(), &model, seed);
            let t = Instant::now();
            tr.span("probe.simrt.price.seq", || {
                for cfg in group {
                    black_box(plan.price(cfg));
                }
            });
            seq_s += t.elapsed().as_secs_f64();
            results.clear();
            let t = Instant::now();
            tr.span("probe.simrt.price.batch", || {
                plan.price_batch(group, &mut lanes, &mut results)
            });
            batch_s += t.elapsed().as_secs_f64();
            prices += group.len();
            let t = Instant::now();
            tr.span("probe.simrt.energy", || {
                for (cfg, sim) in group.iter().zip(&results) {
                    let bd = sim.breakdown.to_tel().close_to_total(sim.total_ns);
                    black_box(simrt::price_energy(
                        arch,
                        cfg,
                        &bd,
                        sim.total_ns,
                        sim.regions,
                    ));
                }
            });
            energy_s += t.elapsed().as_secs_f64();
            energies += group.len();
        }
    }
    c.set("workloads.model_us", model_s * 1e6 / models as f64);
    c.set("simrt.plan.build_us", build_s * 1e6 / builds as f64);
    c.set("simrt.price.seq_us", seq_s * 1e6 / prices as f64);
    c.set("simrt.price.batch_us", batch_s * 1e6 / prices as f64);
    c.set("simrt.energy.us", energy_s * 1e6 / energies as f64);
    c.set(
        "simrt.plan.est_cpu_share",
        ratio(
            c.get("simrt.plan.builds") * c.get("simrt.plan.build_us") * 1e-6,
            c.get("sweep.cpu_s"),
        ),
    );
}

/// Load and store every batch of the pass through the sample cache.
fn probe_cache(
    tr: &Tracer,
    spec: &SweepSpec,
    cache_dir: &Path,
    probe_dir: &Path,
    batches: &[SettingData],
    c: &mut Counters,
) -> io::Result<()> {
    let cache = SampleCache::new(cache_dir);
    let t = Instant::now();
    tr.span("probe.sweep.cache.load", || {
        for b in batches {
            black_box(cache.load_batch(&b.key, spec));
        }
    });
    c.set("sweep.cache.load_s", t.elapsed().as_secs_f64());
    let store = SampleCache::new(probe_dir);
    let t = Instant::now();
    tr.span("probe.sweep.cache.store", || -> io::Result<()> {
        for b in batches {
            store.store_batch(b, spec)?;
        }
        Ok(())
    })?;
    c.set("sweep.cache.store_s", t.elapsed().as_secs_f64());
    remove_dir(probe_dir)
}

fn write_csv(batches: &[SettingData], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    sweep::export::write_csv(&Dataset::build(batches), &mut w)?;
    w.flush()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let workload = match args.next().as_deref() {
        Some("collect-cold") => Workload::CollectCold,
        Some("collect-warm") => Workload::CollectWarm,
        Some("repro") => Workload::Repro,
        other => return Err(format!("unknown workload: {other:?}")),
    };
    let (mut seed, mut seconds, mut out) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value: {value}");
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--out" => out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown option: {flag}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run(args: &Args) -> io::Result<()> {
    let tr = Tracer::new();
    let spec = SweepSpec {
        scope: SCOPE,
        seed: args.seed,
        ..SweepSpec::default()
    };
    let default_spec = SweepSpec {
        scope: SCOPE,
        ..SweepSpec::default()
    };
    let out = &args.out;
    remove_dir(out)?;
    fs::create_dir_all(out)?;
    let mut files: Vec<(&str, PathBuf)> = Vec::new();

    // Collect-warm replays a cache that this untraced cold pass fills.
    let fill = Dirs::under(&out.join("fill"));
    if args.workload == Workload::CollectWarm {
        collect_pass(&tr, &spec, &fill, &mut Counters::default())?;
        files.push(("check_a", fill.out.join("samples.csv")));
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Counters> = Vec::new();
    let mut last: Option<(PathBuf, Vec<SettingData>)> = None;
    let mut repro_out: Option<(String, String)> = None;
    loop {
        let k = passes.len() as u32;
        let root = out.join(format!("pass{k}"));
        let mut dirs = Dirs::under(&root);
        if args.workload == Workload::CollectWarm {
            dirs.cache = fill.cache.clone();
        }
        let mut c = Counters::default();
        tr.run.set(k);
        tr.on.set(true);
        let batches = tr.span("trace.run", || -> io::Result<Vec<SettingData>> {
            match args.workload {
                Workload::Repro => {
                    let (tables, figures, r) = repro_pass(&tr, &spec, &mut c);
                    repro_out = Some((tables, figures));
                    Ok(r.batches)
                }
                _ => collect_pass(&tr, &spec, &dirs, &mut c),
            }
        })?;
        tr.span("trace.probe", || -> io::Result<()> {
            if args.workload != Workload::Repro {
                probe_cache(
                    &tr,
                    &spec,
                    &dirs.cache,
                    &root.join("probe-cache"),
                    &batches,
                    &mut c,
                )?;
            }
            probe_simrt(&tr, &mut c);
            Ok(())
        })?;
        tr.on.set(false);
        passes.push(c);
        if let Some((previous, _)) = last.replace((root, batches)) {
            remove_dir(&previous)?;
        }
        if passes.len() as u32 >= MIN_PASSES && Instant::now() >= deadline {
            break;
        }
    }
    let (last_root, last_batches) = last.expect("at least one pass ran");

    // Two outputs of seed N that must agree.
    match args.workload {
        Workload::CollectCold => {
            let warm = Dirs {
                cache: last_root.join("cache"),
                ..Dirs::under(&out.join("warm"))
            };
            collect_pass(&tr, &spec, &warm, &mut Counters::default())?;
            files.push(("check_a", last_root.join("out/samples.csv")));
            files.push(("check_b", warm.out.join("samples.csv")));
        }
        Workload::CollectWarm => files.push(("check_b", last_root.join("out/samples.csv"))),
        Workload::Repro => {
            write_csv(&last_batches, &out.join("legacy.csv"))?;
            let opts = SweepOptions::new(WORKERS);
            let mut scheduled = sweep::sweep_all_scheduled(&spec, &opts).batches;
            for b in &mut scheduled {
                sweep::clean(b, spec.reps as usize);
            }
            write_csv(&scheduled, &out.join("scheduled.csv"))?;
            files.push(("check_a", out.join("legacy.csv")));
            files.push(("check_b", out.join("scheduled.csv")));
        }
    }

    // The default spec's outputs, for comparison with the binaries.
    match args.workload {
        Workload::Repro => {
            let (tables, figures) = if spec == default_spec {
                repro_out.expect("a repro pass ran")
            } else {
                let (t, f, _) = repro_pass(&tr, &default_spec, &mut Counters::default());
                (t, f)
            };
            fs::write(out.join("tables.txt"), tables)?;
            fs::write(out.join("figures.txt"), figures)?;
            files.push(("default_repro-tables", out.join("tables.txt")));
            files.push(("default_repro-figures", out.join("figures.txt")));
        }
        _ => {
            let dir = if spec == default_spec {
                last_root.join("out")
            } else {
                let dirs = Dirs::under(&out.join("default"));
                collect_pass(&tr, &default_spec, &dirs, &mut Counters::default())?;
                dirs.out
            };
            files.push(("default_samples.csv", dir.join("samples.csv")));
            files.push(("default_SUMMARY.txt", dir.join("SUMMARY.txt")));
        }
    }

    let mut doc = String::from("{\"passes\":[");
    for (k, c) in passes.iter().enumerate() {
        doc.push_str(if k == 0 { "{" } else { ",{" });
        let fields: Vec<String> =
            c.0.iter()
                .map(|(name, v)| format!("{}:{}", json_str(name), json_num(*v)))
                .collect();
        doc.push_str(&fields.join(","));
        doc.push('}');
    }
    doc.push_str("],\"spans\":[");
    for (i, s) in tr.spans.borrow().iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        doc.push_str(&format!(
            "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.run
        ));
    }
    doc.push_str("],\"files\":{");
    let files: Vec<String> = files
        .iter()
        .map(|(role, path)| {
            format!(
                "{}:{}",
                json_str(role),
                json_str(&path.display().to_string())
            )
        })
        .collect();
    doc.push_str(&files.join(","));
    doc.push_str("}}\n");
    fs::write(out.join("trace.json"), doc)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench-trace: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(1);
    }
}
