#!/usr/bin/env python3
"""The benchmark's one command. Builds the harness from this checkout, runs
a workload in its own process, checks its outputs and prints its metrics;
the last line of standard output is the JSON result.

    python3 perfbench/run.py --workload diagnosed_call --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 7          # all three workloads, one process each

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, writes a Chrome trace-event file (open it in Perfetto) and
prints a self-time table per layer. Builds go to .bench_build/perfbench
and result files to .bench_build/perfbench-out. Exit codes: 0 every
check held, 1 an output check failed (the result says so), 2 the build
or the harness could not run (no result).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402

WORKLOADS = ("diagnosed_call", "world_512", "chaos_fleet")
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
HARNESS = BUILD_DIR / "perfbench_harness"
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # a first run builds, then runs: together under 900 s

# Per-layer metrics that summarize a sample series rather than a per-rep value.
SERIES_METRICS = {
    "world.window_ms_p50": ("world.window_ms", 50.0),
    "world.window_ms_p99": ("world.window_ms", 99.0),
    "chaos.run_ms_p50": ("chaos.run_ms", 50.0),
    "chaos.run_ms_p98": ("chaos.run_ms", 98.0),
}
SERIES_MEDIANS = ("chaos.plain_run_ms", "resilience.supervised_run_ms",
                  "resilience.overload_run_ms", "world.stall_s", "world.measured_speedup")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def say(line=""):
    print(line, flush=True)


def run_tool(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout stays ours."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise SetupError(f"{cmd[0]} failed: {e}") from e
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "bench" / "bench_util.hpp").is_file():
        raise SetupError(f"no athena sources in {ROOT}; run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise SetupError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_tool([cmake, "-S", str(HERE), "-B", str(BUILD_DIR), *generator,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_tool([cmake, "--build", str(BUILD_DIR), "--target", "perfbench_harness", "-j", jobs],
             BUILD_TIMEOUT_S)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise SetupError(f"cannot read BENCHMARK.json: {e}") from e


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the harness is built from (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [ROOT / "bench" / "bench_util.hpp"]
    files += [p for p in HERE.iterdir() if p.is_file() and p.suffix in (".cpp", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_harness(workload, seed, seconds, trace):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"raw-{workload}-seed{seed}-trace{trace}.json"
    if out.exists():
        out.unlink()
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise SetupError(f"harness failed: {e}") from e
    if proc.returncode != 0:
        raise SetupError(f"harness exited {proc.returncode} on {workload}")
    return json.loads(out.read_text())


def timed_reps(raw, traced):
    """The reps of one kind, without the warm-up rep."""
    return [r for r in raw["reps"] if not r["warmup"] and bool(r["traced"]) == traced]


def end_to_end(raw):
    reps = timed_reps(raw, traced=False)
    return {
        "session_s_per_s": perfstats.median([r["session_s_per_s"] for r in reps]),
        "explain_pkts_per_s": perfstats.median([r["explain_pkts_per_s"] for r in reps]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": perfstats.median([r["setup_s"] for r in reps]),
    }


def per_layer(raw):
    traced = timed_reps(raw, traced=True)
    untraced = timed_reps(raw, traced=False)
    values = {}
    for key in sorted({k for r in traced for k in r["layer"]}):
        values[key] = perfstats.median([r["layer"][key] for r in traced if key in r["layer"]])
    series = raw["series"]
    for name, (source, p) in SERIES_METRICS.items():
        if series.get(source):
            values[name] = perfstats.percentile_keeping_tail(series[source], p)
    for name in SERIES_MEDIANS:
        if series.get(name):
            values[name] = perfstats.median(series[name])
    wall = lambda reps: perfstats.median([r["wall_s"] for r in reps])  # noqa: E731
    values["trace.overhead_frac"] = wall(traced) / wall(untraced) - 1.0
    without_obs = raw["oracle"].get("app.run_s_without_obs")
    if without_obs:
        with_obs = perfstats.median([r["layer"]["app.run_s"] for r in untraced])
        values["obs.overhead_frac"] = with_obs / without_obs - 1.0
    return values


def write_chrome_trace(raw, path):
    """Spans as Chrome trace-event JSON, one track per layer."""
    tids = {}
    events = []
    aggregates = {}
    for a in raw["aggregates"]:
        name, layer, parent, rep, total_s, calls = a
        aggregates.setdefault(parent, {})[f"{name} s"] = total_s
        aggregates[parent][f"{name} calls"] = calls
    for i, (name, layer, start, end, parent, rep) in enumerate(raw["spans"]):
        tid = tids.setdefault(layer, len(tids) + 1)
        args = {"rep": rep, "parent": parent, **aggregates.get(i, {})}
        events.append({"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                       "ts": start / 1e3, "dur": (end - start) / 1e3, "args": args})
    for layer, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": layer}})
    events.append({"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": f"perfbench {raw['workload']} seed {raw['seed']}"}})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def layer_table(raw):
    spans = [{"name": s[0], "layer": s[1], "start": s[2], "end": s[3], "parent": s[4],
              "rep": s[5]} for s in raw["spans"]]
    aggregates = [{"layer": a[1], "parent": a[2], "total_s": a[4]} for a in raw["aggregates"]]
    table = perfstats.self_time_by_layer(spans, aggregates, keep=lambda s: s["rep"] >= 0)
    traced_reps = len(timed_reps(raw, traced=True))
    return {layer: t / traced_reps for layer, t in table.items()}


def describe(values, unit):
    n = len(values)
    med = perfstats.median(values)
    p = perfstats.tail_percentile(n)
    tail = (f"p{p:g} {perfstats.percentile(values, p):.6g}" if p is not None
            else f"no tail percentile with {perfstats.MIN_BEYOND} samples beyond it")
    return f"{med:.6g} {unit}  (median of {n} reps; {tail})"


def run_workload(spec, workload, seed, seconds, trace):
    raw = run_harness(workload, seed, seconds, trace)
    stamp = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "hardware_concurrency": raw["hardware_concurrency"], "compiler": raw["compiler"],
        "build_type": raw["build_type"], "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    attempted, failed = perfstats.count_operations(raw["operations"])
    frac = perfstats.failed_frac(attempted, failed)
    correct = failed == 0
    untraced = timed_reps(raw, traced=False)
    say(f"== {workload}: seed {seed}, trace {trace}, {len(untraced)} untraced and "
        f"{len(timed_reps(raw, traced=True))} traced reps after a warm-up rep ==")
    say("stamp: " + json.dumps(stamp, sort_keys=True))

    if trace:
        defs = spec["per_layer"]
        values = per_layer(raw)
        unknown = sorted(set(values) - {d["name"] for d in defs})
        if unknown:
            raise SetupError(f"harness reported metrics BENCHMARK.json lacks: {unknown}")
        missing = [d["name"] for d in defs if d["name"] not in values]
        say(f"not reached on {workload} (reported as 0): " + (", ".join(missing) or "none"))
        for d in defs:
            say(f"  {d['name']:<28} {values.get(d['name'], 0.0):.6g} {d['unit']}")
        table = layer_table(raw)
        say("self time per layer, mean per traced rep:")
        for layer, t in sorted(table.items(), key=lambda kv: -kv[1]):
            say(f"  {layer:<12} {t:10.4f} s")
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        write_chrome_trace(raw, trace_path)
        say(f"trace: {trace_path.relative_to(ROOT)}")
    else:
        defs = spec["end_to_end"]
        values = end_to_end(raw)
        units = {d["name"]: d["unit"] for d in defs}
        for name in ("session_s_per_s", "explain_pkts_per_s", "setup_s"):
            say(f"  {name:<18} " + describe([r[name] for r in untraced], units[name]))
        say(f"  {'peak_rss_mb':<18} {values['peak_rss_mb']:.6g} {units['peak_rss_mb']}")
    say(f"  {'failed_frac':<18} {frac:.6g} frac ({failed} of {attempted} operations)")
    for message in raw["failures"]:
        say(f"  CHECK FAILED: {message}")

    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]} for d in defs}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"stamp": stamp, "failures": raw["failures"], **result}, indent=1))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        else:
            results = {w: run_workload(spec, w, args.seed, seconds, args.trace)
                       for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
