#!/usr/bin/env python3
"""Repository benchmark: `collect` cold and warm, and `repro`, end to end
and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release binaries (`collect`, `repro-tables`, `repro-figures`)
and the traced-run package `perfbench/tracer` from source, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` runs the workload's binaries as child processes, one at a
  time, each with at most 2 threads, for S seconds. Every run gets fresh
  output, cache and registry directories. Its outputs are checked
  against `perfbench/reference.json`. Then its files are deleted and
  the disk synced, untimed. Prints the end-to-end metrics.
* `--trace 1` runs the binaries once, untimed, then `perfbench-trace`,
  which repeats the same pipeline in-process with a span around every
  layer call, for S seconds. Prints the per-layer metrics and writes a
  Perfetto trace.

The last line of stdout is one JSON object:
`{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
Full results, with `<metric>_reps` arrays and a host stamp, go to
`.perfbench/results/`. `perfbench/README.md` defines every workload and
metric.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKERS = 2
SCOPE = "fast"
MIN_RUNS = 3
WORKLOADS = ("collect-cold", "collect-warm", "repro")

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("disk_mib", "MiB"),
    ("setup_s", "s"),
]

# Per-layer metric -> the span whose self time it is.
SPAN_METRICS = {
    "sweep.schedule.s": "sweep.schedule",
    "sweep.runner.s": "sweep.runner",
    "sweep.dataset.clean_s": "sweep.dataset.clean",
    "sweep.dataset.build_s": "sweep.dataset.build",
    "sweep.export.csv_s": "sweep.export.csv",
    "sweep.export.raw_json_s": "sweep.export.raw_json",
    "sweep.export.summary_s": "sweep.export.summary",
    "sweep.provenance.build_s": "sweep.provenance.build",
    "sweep.provenance.write_s": "sweep.provenance.write",
    "sweep.provenance.manifest_s": "sweep.provenance.manifest",
    "sweep.registry.load_s": "sweep.registry.load",
    "sweep.registry.core_s": "sweep.registry.core",
    "sweep.registry.append_s": "sweep.registry.append",
    "omptel.tsdb.append_s": "omptel.tsdb.append",
    "analysis.wilcoxon_s": "analysis.wilcoxon",
    "analysis.influence_s": "analysis.influence",
    "analysis.tables_s": "analysis.tables",
}

PER_LAYER = [
    ("simrt.plan.builds", "count"),
    ("simrt.plan.hit_ratio", "ratio"),
    ("simrt.plan.build_us", "us"),
    ("simrt.plan.est_cpu_share", "ratio"),
    ("simrt.price.batch_us", "us"),
    ("simrt.price.seq_us", "us"),
    ("simrt.energy.us", "us"),
    ("workloads.model_us", "us"),
    ("sweep.schedule.s", "s"),
    ("sweep.schedule.cpu_util", "ratio"),
    ("sweep.schedule.units", "count"),
    ("sweep.schedule.steals", "count"),
    ("sweep.schedule.sample_p50_us", "us"),
    ("sweep.schedule.sample_p99_us", "us"),
    ("sweep.schedule.hwm_mib", "MiB"),
    ("sweep.runner.s", "s"),
    ("sweep.runner.samples", "count"),
    ("sweep.cache.hit_ratio", "ratio"),
    ("sweep.cache.load_s", "s"),
    ("sweep.cache.store_s", "s"),
    ("sweep.cache.mib", "MiB"),
    ("sweep.dataset.clean_s", "s"),
    ("sweep.dataset.build_s", "s"),
    ("sweep.dataset.dropped", "count"),
    ("sweep.export.csv_s", "s"),
    ("sweep.export.csv_mib", "MiB"),
    ("sweep.export.raw_json_s", "s"),
    ("sweep.export.raw_json_mib", "MiB"),
    ("sweep.export.summary_s", "s"),
    ("sweep.export.hwm_mib", "MiB"),
    ("sweep.provenance.build_s", "s"),
    ("sweep.provenance.write_s", "s"),
    ("sweep.provenance.mib", "MiB"),
    ("sweep.provenance.hwm_mib", "MiB"),
    ("sweep.provenance.manifest_s", "s"),
    ("sweep.registry.load_s", "s"),
    ("sweep.registry.core_s", "s"),
    ("sweep.registry.append_s", "s"),
    ("sweep.registry.mib", "MiB"),
    ("omptel.tsdb.append_s", "s"),
    ("omptel.tsdb.points", "count"),
    ("analysis.wilcoxon_s", "s"),
    ("analysis.influence_s", "s"),
    ("analysis.tables_s", "s"),
    ("trace.total_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.gap_ratio", "ratio"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    """Stop without a result line: the benchmark itself could not run."""
    log(msg)
    sys.exit(2)


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Build the binaries and the tracer from source (a no-op when fresh)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {HERE.name}/; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "sweep", "-p", "bench-harness",
         "--bin", "collect", "--bin", "repro-tables", "--bin", "repro-figures"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return {name: release / name
            for name in ("collect", "repro-tables", "repro-figures", "perfbench-trace")}


def host_stamp():
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        rev = got.stdout.strip() or rev
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "rustc": rustc,
        "git_rev": rev,
        "loadavg_1m": os.getloadavg()[0],
    }


def sha256(path):
    """Hex digest of a file, or None when the file is missing."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    except FileNotFoundError:
        return None
    return h.hexdigest()


def disk_bytes(*paths):
    total = 0
    for path in paths:
        for dirpath, _, files in os.walk(path):
            total += sum(os.lstat(os.path.join(dirpath, f)).st_size for f in files)
    return total


def mib(n):
    return n / (1024 * 1024)


def median(values):
    return statistics.median(values) if values else 0.0


def run_child(argv, stdout_path, stderr_path):
    """Run one child to completion. Returns (ok, wall_s, cpu_s, rss_mib)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return child.returncode == 0, wall, cpu, usage.ru_maxrss / 1024


def collect_argv(bins, out, cache, registry):
    return [str(bins["collect"]), SCOPE, str(out), "--workers", str(WORKERS),
            "--cache-dir", str(cache), "--registry", str(registry)]


def collect_outputs_ok(out, ref):
    """Do samples.csv and SUMMARY.txt match the reference digests?"""
    return all(sha256(out / name) == ref[f"collect/{name}"]
               for name in ("samples.csv", "SUMMARY.txt"))


def page_in(bins, names):
    """Read the executables so the timed run does not page them in."""
    for name in names:
        with open(bins[name], "rb") as f:
            while f.read(1 << 20):
                pass


def one_run(workload, bins, ref, run_dir):
    """Set up, run and check one workload run. Returns its measurements."""
    t0 = time.perf_counter()
    out, cache, registry = run_dir / "out", run_dir / "cache", run_dir / "registry"
    if workload == "repro":
        run_dir.mkdir(parents=True)
        page_in(bins, ("repro-tables", "repro-figures"))
    else:
        for d in (out, cache, registry):
            d.mkdir(parents=True)
        page_in(bins, ("collect",))
    log_path = run_dir / "stderr.log"
    ok = True
    if workload == "collect-warm":
        # The cold run that fills the cache is this workload's set-up.
        fill_out, fill_reg = run_dir / "fill-out", run_dir / "fill-registry"
        filled, *_ = run_child(collect_argv(bins, fill_out, cache, fill_reg),
                               run_dir / "fill.stdout", log_path)
        ok = filled and collect_outputs_ok(fill_out, ref)
    setup = time.perf_counter() - t0
    if workload == "collect-warm":
        shutil.rmtree(fill_out, ignore_errors=True)
        shutil.rmtree(fill_reg, ignore_errors=True)
        os.sync()

    if workload == "repro":
        wall = cpu = rss = 0.0
        for name in ("repro-tables", "repro-figures"):
            stdout = run_dir / f"{name}.stdout"
            good, w, c, r = run_child([str(bins[name]), SCOPE], stdout, log_path)
            ok = ok and good and sha256(stdout) == ref[name]
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        disk = sum((run_dir / f"{name}.stdout").stat().st_size
                   for name in ("repro-tables", "repro-figures"))
    else:
        good, wall, cpu, rss = run_child(collect_argv(bins, out, cache, registry),
                                         run_dir / "collect.stdout", log_path)
        ok = ok and good and collect_outputs_ok(out, ref)
        disk = disk_bytes(out, cache, registry)
    if not ok:
        tail = log_path.read_text(errors="replace").splitlines()[-5:] if log_path.exists() else []
        log(f"{workload}: run failed its exit-code or output check; stderr ends:\n"
            + "\n".join(tail))
    return {"ok": ok, "setup_s": setup, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mib": rss, "disk_mib": mib(disk)}


def clean_up(run_dir):
    """Delete a run's files and flush the disk (untimed)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.sync()


def end_to_end(workload, bins, ref, seconds, work):
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        run_dir = work / f"run{len(runs)}"
        runs.append(one_run(workload, bins, ref, run_dir))
        clean_up(run_dir)
    failed = sum(not r["ok"] for r in runs)
    good = [r for r in runs if r["ok"]] or runs
    values = {name: [r[name] for r in good] for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        v = values[name]
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        print(f"{workload}  {name:<13} {median(v):12.6f} {unit:<4} "
              f"(median of {len(v)} runs; quartiles {q[0]:.6f} .. {q[2]:.6f})")
    print(f"{workload}  {'failed_ratio':<13} {failed / len(runs):12.6f}      "
          f"({failed} of {len(runs)} runs failed)")
    return len(runs), failed, values


def span_self_times(spans):
    """Self time of every span, checking that spans nest cleanly.

    Returns (self_ns, problems)."""
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            kids[s["parent"]].append(i)
    problems = []
    self_ns = []
    for i, s in enumerate(spans):
        dur = s["end_ns"] - s["start_ns"]
        if dur < 0:
            problems.append(f"{s['name']} ends before it starts")
        p = s["parent"]
        if p is not None:
            parent = spans[p]
            if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
                problems.append(f"{s['name']} lies outside its parent {parent['name']}")
            if s["run"] != parent["run"]:
                problems.append(f"{s['name']} has another run id than its parent")
        covered, cursor = 0, s["start_ns"]
        for k in sorted(kids[i], key=lambda k: spans[k]["start_ns"]):
            lo, hi = max(spans[k]["start_ns"], cursor), min(spans[k]["end_ns"], s["end_ns"])
            if spans[k]["start_ns"] < cursor:
                problems.append(f"children of {s['name']} overlap")
            covered += max(0, hi - lo)
            cursor = max(cursor, hi)
        self_ns.append(dur - covered)
        if dur - covered < 0:
            problems.append(f"{s['name']} has negative self time")
    # Self times of a tree sum to its root's duration, to 1 us per span.
    tree_self = defaultdict(int)
    tree_size = defaultdict(int)
    for i, s in enumerate(spans):
        root = i
        while spans[root]["parent"] is not None:
            root = spans[root]["parent"]
        tree_self[root] += self_ns[i]
        tree_size[root] += 1
    for root, total in tree_self.items():
        dur = spans[root]["end_ns"] - spans[root]["start_ns"]
        if abs(total - dur) > 1000 * tree_size[root]:
            problems.append(f"self times under {spans[root]['name']} sum to {total} ns, "
                            f"not its {dur} ns")
    return self_ns, problems


def perfetto(spans, path, workload):
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": f"perfbench-trace {workload}"}}]
    for s in spans:
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                       "ts": s["start_ns"] / 1e3, "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                       "args": {"parent": parent, "run": s["run"]}})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def traced(workload, bins, ref, seed, seconds, work, results):
    """The per-layer run: one untimed binary run, then the tracer."""
    binary_dir = work / "binary"
    binary = one_run(workload, bins, ref, binary_dir)
    trace_dir = work / "trace"
    argv = [str(bins["perfbench-trace"]), workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(trace_dir)]
    if subprocess.run(argv, cwd=ROOT).returncode != 0:
        log("perfbench-trace failed")
        return 2, 1 + (not binary["ok"]), {name: [0.0] for name, _ in PER_LAYER}
    doc = json.loads((trace_dir / "trace.json").read_text())
    spans, passes, files = doc["spans"], doc["passes"], doc["files"]
    perfetto(spans, results / f"{workload}-seed{seed}.perfetto.json", workload)

    problems = []
    self_ns, span_problems = span_self_times(spans)
    problems += span_problems
    check_a = sha256(files["check_a"])
    if check_a is None or check_a != sha256(files["check_b"]):
        problems.append(f"seed {seed}: {files['check_a']} and {files['check_b']} differ")
    # The tracer's default-spec outputs must equal the binary's.
    if workload == "repro":
        pairs = [(files[f"default_{n}"], binary_dir / f"{n}.stdout", n)
                 for n in ("repro-tables", "repro-figures")]
    else:
        pairs = [(files[f"default_{n}"], binary_dir / "out" / n, f"collect/{n}")
                 for n in ("samples.csv", "SUMMARY.txt")]
    for mine, theirs, key in pairs:
        if sha256(mine) != ref[key] or sha256(theirs) != ref[key]:
            problems.append(f"{key}: traced and binary outputs do not both match the reference")
    for p in problems:
        log(f"trace check: {p}")
    clean_up(binary_dir)

    values = {name: [] for name, _ in PER_LAYER}
    for run, counters in enumerate(passes):
        own = defaultdict(int)
        root = None
        for i, s in enumerate(spans):
            if s["run"] == run:
                own[s["name"]] += self_ns[i]
                if s["name"] == "trace.run":
                    root = i
        total = (spans[root]["end_ns"] - spans[root]["start_ns"]) / 1e9
        derived = {metric: own[span] / 1e9 for metric, span in SPAN_METRICS.items()}
        derived["trace.total_s"] = total
        derived["trace.unattributed_share"] = self_ns[root] / 1e9 / total
        derived["trace.gap_ratio"] = total / binary["wall_s"]
        for name, _ in PER_LAYER:
            values[name].append(derived.get(name, counters.get(name) or 0.0))
    for name, unit in PER_LAYER:
        print(f"{workload}  {name:<30} {median(values[name]):14.6f} {unit:<5} "
              f"(median of {len(passes)} traced passes)")
    attempted = 1 + len(passes)
    failed = (not binary["ok"]) + (len(passes) if problems else 0)
    return attempted, failed, values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="reference digests (the self-test passes a corrupted copy)")
    args = ap.parse_args()

    stamp = host_stamp()
    bins = build()
    ref = json.loads(args.reference.read_text())["sha256"]
    work = WORK / f"{args.workload}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    print("host: " + json.dumps(stamp), flush=True)
    try:
        if args.trace:
            attempted, failed, values = traced(args.workload, bins, ref, args.seed,
                                               args.seconds, work, results)
            metrics = PER_LAYER
        else:
            attempted, failed, values = end_to_end(args.workload, bins, ref,
                                                   args.seconds, work)
            metrics = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "layers" if args.trace else "e2e"
    record = {"bench": f"perfbench-{args.workload}-{kind}",
              "workload": args.workload, "seed": args.seed, "host": stamp,
              "attempted": attempted, "failed": failed}
    for name, _ in metrics:
        record[name] = median(values[name])
        record[f"{name}_reps"] = values[name]
    (results / f"{args.workload}-seed{args.seed}-{kind}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": median(values[name]), "unit": unit}
                    for name, unit in metrics},
    }), flush=True)


if __name__ == "__main__":
    main()
