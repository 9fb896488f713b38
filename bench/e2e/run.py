#!/usr/bin/env python3
"""Builds, runs, validates and compares the end-to-end benchmark.

Run from anywhere inside a checkout; everything is built and written under
<checkout>/.bench_build.

  python3 bench/e2e/run.py run [--seeds 7] [--workloads a,b] [--out DIR]
      Every workload in a fresh process, untraced then traced; prints each
      metric as `workload metric value unit`. Exits 1 on any invalid run.
  python3 bench/e2e/run.py validate PATH...
      Checks report files (or directories of them) against BENCHMARK.json.
  python3 bench/e2e/run.py compare A_DIR B_DIR
      Per workload and end-to-end metric: each side's median and quartiles,
      a regression flag past the metric's bound, "unresolved" when a side's
      spread exceeds the bound. Exits 1 on a regression.
  python3 bench/e2e/run.py measure --workload W --seed N --seconds S --trace 0|1
      One run; the last stdout line is {"correct", "attempted", "failed",
      "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
      metrics (--trace 1) of BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "bench_e2e"
TMP = BUILD / "tmp"

# Set-up passes per untraced run, each in its own process (the measured
# run's plus SETUPS - 1 set-up-only runs); setup_s is their median.
SETUPS = 3
# A bench_e2e process running longer than this is killed and the run fails;
# together they keep one measure call under 180 s.
RUN_TIMEOUT_S = 110
SETUP_TIMEOUT_S = 25
UNIT_RANGES = {"ratio": (0.0, 1.0)}
# Client-observed latency and capacity. On a shared VM their run-to-run
# spread exceeds the 25% a bound may be, so they are per-layer metrics:
# reported everywhere, gated nowhere.
CLIENT_METRICS = ["client.p50_ms", "client.p99_ms", "client.capacity_qps"]


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH}: {e}")


def build():
    """Configures (once) and builds bench_e2e; a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no chunkcache sources at {ROOT / 'src'}; nothing to build")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = CMAKE_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text():
        shutil.rmtree(CMAKE_DIR)  # configured for another checkout
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed: {' '.join(cmd)} (log: {log_path})")


def run_bench(workload, seed, out, setup_only=False, trace_dir=None):
    """One bench_e2e process. Returns (report or None, error text)."""
    TMP.mkdir(parents=True, exist_ok=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--out={out}"]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_dir}")
    # The persist workload's WAL directory goes under TMPDIR: keep it inside
    # the checkout.
    env = dict(os.environ, TMPDIR=str(TMP))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    timeout = SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{workload} seed {seed}: killed after {timeout} s"
    if proc.returncode not in (0, 1) or not out.is_file():
        return None, f"{workload} seed {seed}: exit {proc.returncode}: {err.strip()}"
    return json.loads(out.read_text()), err.strip()


def run_measured(workload, seed, out, traced=False):
    """A full run; untraced, its setup_s becomes the median over SETUPS
    set-up passes, each in a fresh process."""
    if traced:
        return run_bench(workload, seed, out,
                         trace_dir=out.parent / f"trace-s{seed}")
    report, err = run_bench(workload, seed, out)
    if report is None:
        return report, err
    runs = [report["metrics"]["setup_s"]]
    for _ in range(SETUPS - 1):
        extra, err = run_bench(workload, seed, out.with_suffix(".setup.json"),
                               setup_only=True)
        if extra is None:
            return None, err
        runs.append(extra["metrics"]["setup_s"])
    out.with_suffix(".setup.json").unlink()
    report["setup_runs_s"] = runs
    report["metrics"]["setup_s"] = statistics.median(runs)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return report, err


def problems_of(report, spec, lag=True):
    """Why a report does not meet the benchmark's contract (empty = fine).
    With lag=False, a late load generator is not counted: it skews only the
    client.* timings, not whether the outputs are right."""
    probs = []
    names = {w["name"] for w in spec["workloads"]}
    if report.get("bench") != "e2e":
        return ["not a bench_e2e report"]
    if report.get("workload") not in names:
        probs.append(f"unknown workload {report.get('workload')!r}")
    probs += report.get("problems", ["no problem list in report"])
    want = spec["per_layer"] if report.get("traced") else spec["end_to_end"]
    values = report.get("layers" if report.get("traced") else "metrics", {})
    for m in want:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            probs.append(f"metric {m['name']} missing or not finite")
            continue
        lo, hi = UNIT_RANGES.get(m["unit"], (0.0, math.inf))
        if not lo <= v <= hi:
            probs.append(f"metric {m['name']} = {v} outside [{lo}, {hi}] for "
                         f"unit {m['unit']}")
    hashes = report.get("stream_hash", {})
    if sorted(hashes) != ["closed", "open", "warmup"] or any(
            len(h) != 16 for h in hashes.values()):
        probs.append("stream hashes missing")
    acc = report.get("accounting", {})
    if acc.get("failed", 1) != 0:
        probs.append(f"{acc.get('failed')} of {acc.get('attempted')} queries failed")
    ref = report.get("reference", {})
    if ref.get("checked", 0) == 0 or ref.get("mismatches", 1) != 0:
        probs.append("reference check missing or failed")
    if report.get("open_loop", {}).get("tail_q", 0) < 0.99:
        probs.append("open loop too short for a p99 with 10 samples beyond it")
    gen = report.get("generator_lag_ms", {})
    if lag and not gen.get("p99", math.inf) <= gen.get("max_allowed", 1.0):
        probs.append(f"generator lag p99 {gen.get('p99')} ms")
    return probs


def load_reports(paths):
    reports = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            try:
                r = json.loads(f.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(r, dict) and r.get("bench") == "e2e":
                r["_file"] = str(f)
                reports.append(r)
    return reports


def stream_drift(reports):
    """Reports of one workload and seed that saw different query streams."""
    seen, drift = {}, []
    for r in reports:
        key = (r["workload"], r["seed"])
        h = r.get("stream_hash")
        if key in seen and seen[key] != h:
            drift.append(f"{key[0]} seed {key[1]}: stream hashes differ")
        seen.setdefault(key, h)
    return drift


def cmd_validate(args):
    spec = load_spec()
    reports = load_reports(args.paths)
    if not reports:
        die("no bench_e2e reports found")
    bad = 0
    for r in reports:
        probs = problems_of(r, spec)
        bad += bool(probs)
        print(f"{'OK     ' if not probs else 'INVALID'} {r['_file']}")
        for p in probs:
            print(f"        {p}")
    for d in stream_drift(reports):
        bad += 1
        print(f"INVALID {d}")
    return 1 if bad else 0


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    out = Path(args.out) if args.out else BUILD / "results" / time.strftime(
        "run-%Y%m%d-%H%M%S")
    build()
    unit = units(spec)
    failures = 0
    for seed in seeds:
        for traced in ([False] if args.no_trace else [False, True]):
            for w in names:
                stem = f"{w}-s{seed}" + (".traced" if traced else "")
                report, err = run_measured(w, seed, out / f"{stem}.json", traced)
                if report is None:
                    failures += 1
                    print(f"{w} FAILED {err}", flush=True)
                    continue
                probs = problems_of(report, spec)
                failures += bool(probs)
                # Client latency and capacity come from the untraced run;
                # the traced run adds the other per-layer metrics and its
                # overhead on those two.
                if traced:
                    shown = [m["name"] for m in spec["per_layer"]
                             if m["name"] not in CLIENT_METRICS]
                else:
                    shown = [m["name"] for m in spec["end_to_end"]] + CLIENT_METRICS
                for name in shown:
                    v = report["metrics"].get(name, report["layers"].get(name))
                    print(f"{w} {name} {v} {unit[name]}", flush=True)
                base_path = out / f"{w}-s{seed}.json"
                if traced and base_path.is_file():
                    base = json.loads(base_path.read_text())
                    for name in ("client.p50_ms", "client.capacity_qps"):
                        a, b = base["layers"][name], report["layers"][name]
                        pct = 100.0 * (b - a) / a if a else float("nan")
                        print(f"{w} trace_overhead_{name.split('.')[1]}_pct "
                              f"{pct:.2f} %", flush=True)
                for p in probs:
                    print(f"{w} INVALID {p}", flush=True)
    print(f"reports in {out}")
    return 1 if failures else 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def side_by_side(workload, name, a_vals, b_vals):
    """Both sides' median [q1, q3] and B's change against A."""
    (a1, am, a3), (b1, bm, b3) = quartiles(a_vals), quartiles(b_vals)
    delta = 100 * (bm - am) / am if am else 0.0
    return (f"{workload:16} {name:20} {am:12.5g} [{a1:9.5g}, {a3:9.5g}] "
            f"{bm:12.5g} [{b1:9.5g}, {b3:9.5g}] {delta:7.2f}%")


def cmd_compare(args):
    spec = load_spec()
    sides = []
    for path in (args.a, args.b):
        reps = [r for r in load_reports([path]) if not r.get("traced")]
        if not reps:
            die(f"no untraced reports in {path}")
        sides.append(reps)
    drift = stream_drift(sides[0] + sides[1])
    for d in drift:
        print(f"STREAM DRIFT {d}")
    regressions = 0
    print(f"{'workload':16} {'metric':20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>8}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]] for r in reps if r["workload"] == w]
                    for reps in sides]
            if not vals[0] or not vals[1]:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(vals[0]), quartiles(vals[1])
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (bm - am) / am if am else 0.0
            spread = max((a3 - a1) / am if am else 0, (b3 - b1) / bm if bm else 0)
            b_all_better = all(sign * (b - a) < 0 for a in vals[0] for b in vals[1])
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > m["bound"] and not b_all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{side_by_side(w, m['name'], *vals)}  {verdict} (bound "
                  f"{100 * m['bound']:.0f}%, spread {100 * spread:.1f}%, "
                  f"n={len(vals[0])}/{len(vals[1])})")
    for w in [w["name"] for w in spec["workloads"]]:
        for name in CLIENT_METRICS:
            vals = [[r["layers"][name] for r in reps if r["workload"] == w]
                    for reps in sides]
            if not vals[0] or not vals[1]:
                continue
            print(f"{side_by_side(w, name, *vals)}  (per-layer, no bound)")
    return 1 if regressions or drift else 0


def cmd_measure(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    if args.seconds != spec["run_seconds"]:
        print(f"run.py: phases are counted in queries sized for "
              f"{spec['run_seconds']} s; --seconds {args.seconds} is ignored",
              file=sys.stderr)
    build()
    traced = args.trace == 1
    out = BUILD / "measure" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    report, err = run_measured(args.workload, args.seed, out, traced)
    if report is None:
        die(err)
    probs = problems_of(report, spec, lag=False)
    for p in problems_of(report, spec):
        print(f"run.py: INVALID {p}", file=sys.stderr)
    section, wanted = (("layers", spec["per_layer"]) if traced
                       else ("metrics", spec["end_to_end"]))
    metrics = {m["name"]: {"value": report[section].get(m["name"]),
                           "unit": m["unit"]} for m in wanted}
    acc = report["accounting"]
    print(json.dumps({"correct": not probs, "attempted": acc["attempted"],
                      "failed": acc["failed"], "metrics": metrics}))
    return 0 if not probs else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="7")
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    p.add_argument("--no-trace", action="store_true")
    p = sub.add_parser("validate")
    p.add_argument("paths", nargs="+")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return {"run": cmd_run, "validate": cmd_validate, "compare": cmd_compare,
            "measure": cmd_measure}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
