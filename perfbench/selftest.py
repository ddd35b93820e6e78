#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks, in order:
1. `BENCHMARK.json` names exactly the metrics `run.py` reports.
2. A run against a corrupted copy of `reference.json` counts every run
   as failed (`failed_ratio` 1, `correct` false), in both modes.
3. A traced run at a non-default seed passes all its checks.
4. In a directory that holds only `BENCHMARK.json` and `perfbench/`,
   `run.py` exits nonzero and prints no result.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKDIR = run.WORK / "selftest"
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(root, *args):
    """Run the benchmark under `root`; returns (exit code, result or None)."""
    done = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def main():
    run.build()  # so that no timed child below pays for the first build
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, listed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        check([(m["name"], m["unit"]) for m in spec[key]] == listed,
              f"BENCHMARK.json {key} matches run.py")

    reference = json.loads((HERE / "reference.json").read_text())
    reference["sha256"] = {k: "0" * 64 for k in reference["sha256"]}
    corrupt = WORKDIR / "corrupt-reference.json"
    corrupt.write_text(json.dumps(reference))
    for trace in ("0", "1"):
        code, result = bench(ROOT, "--workload", "collect-cold", "--seed", "1",
                             "--seconds", "1", "--trace", trace, "--reference", str(corrupt))
        check(code == 0 and result is not None and not result["correct"]
              and result["failed"] == result["attempted"],
              f"corrupted reference drives failed_ratio to 1 (--trace {trace})")

    code, result = bench(ROOT, "--workload", "repro", "--seed", "2", "--seconds", "1",
                         "--trace", "1")
    check(code == 0 and result is not None and result["correct"],
          "traced repro run passes its digest, seed-pair and span checks")

    bare = WORKDIR / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env_target = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        code, result = bench(bare, "--workload", "collect-cold", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
    finally:
        if env_target is not None:
            os.environ["CARGO_TARGET_DIR"] = env_target
    check(code != 0 and result is None, "no sources: nonzero exit and no result")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
