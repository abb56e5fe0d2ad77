#!/usr/bin/env python3
"""The repository benchmark: host time the simulator spends producing its
results, end to end and per layer, with a correctness gate.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: serve_poisson, serve_hot_rmw, hier_think, campaign_sweep (see
perfbench/README.md for why each is there).  The script builds
perfbench/ (which compiles ../src) into .bench_build/, then starts fresh
runner processes, one repetition each, until --seconds have been spent.

--trace 0 reports the end-to-end metrics.  The runner times its set-ups in
fixed groups and its measured phase in fixed segments, each doing the same
work in every repetition; host time is the sum of each group's or
segment's fastest repetition.  On a shared host, other tenants slow the
program in bursts of a fraction of a second that only ever add time, so
the per-segment minimum tracks the program and not the neighbours.  Peak
RSS is the median.
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics plus the traced/untraced overhead.  Every metric is
printed by name and unit on its own line; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is nonzero when the correctness gate fails or nothing could be run.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
VALIDATOR = os.path.join(ROOT, "tools", "validate_report.py")

# Default seed per workload (the issue-level definitions).
WORKLOADS = {
    "serve_poisson": 1,
    "serve_hot_rmw": 1,
    "hier_think": 0xBEA7,
    "campaign_sweep": 42,
}

MIN_REPS = 3       # untraced repetitions per run, at least
MIN_PAIRS = 2      # untraced/traced pairs per traced run, at least
PROC_TIMEOUT = 150  # seconds; one repetition takes a few

# The gated metrics, with their units, come from BENCHMARK.json: every
# workload reports all of them.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
    SPEC = json.load(spec)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


class GateError(Exception):
    """A correctness-gate failure: the run is reported as incorrect."""


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        die("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            die("build failed: " + " ".join(cmd))


def binary(traced):
    name = "perfbench_traced" if traced else "perfbench_plain"
    return os.path.join(BUILD_DIR, name)


def run_once(workload, seed, traced, tag):
    """One repetition in a fresh process.  Returns (record, digest, files,
    out), where files maps output name to its parsed JSON and path, and
    out is the output directory for the caller to remove."""
    out = os.path.join(RUNS_DIR, f"{workload}.{tag}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [binary(traced), "--workload", workload, "--seed", str(seed),
           "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROC_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise GateError(f"runner exited {proc.returncode}: "
                        f"{proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = [name for name, ok in rec["checks"].items() if ok is not True]
    if bad:
        raise GateError("runner checks failed: " + ", ".join(bad))
    digest = hashlib.sha256()
    files = {}
    for name in sorted(rec["outputs"]):
        path = os.path.join(out, name)
        with open(path, "rb") as f:
            data = f.read()
        digest.update(name.encode() + b"\0" + data)
        files[name] = (json.loads(data), path)
    return rec, digest.hexdigest(), files, out


def validate_reports(files):
    """Serve and campaign reports must pass tools/validate_report.py."""
    paths = [path for name, (_, path) in files.items()
             if name.startswith(("serve_", "campaign_"))]
    if not paths:
        return
    proc = subprocess.run([sys.executable, VALIDATOR, *paths],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise GateError("validate_report.py: " + proc.stderr.strip())


def simulated(workload, files):
    """Simulated-clock results of one repetition (identical across
    repetitions), plus the request accounting."""
    if workload.startswith("serve_"):
        report = files["serve_report.json"][0]
        m = report["metrics"]
        if m["unfinished"] != 0 or m["failed"] != 0:
            raise GateError(f"serve left {m['unfinished']} unfinished and "
                            f"{m['failed']} failed requests")
        resolved = m["completed"] + m["failed"] + m["rejected"]
        return {
            "requests": resolved,
            "cycles": m["cycles"],
            "attempted": m["offered"],
            "failed": m["failed"] + m["unfinished"],
            "sim_latency_mean_cycles": m["latency_mean"],
            "sim_req_per_kcycle": 1000.0 * m["completed"] / m["cycles"],
            "extra": [
                ("sim_latency_p50_cycles", m["latency_p50"], "cycles"),
                ("sim_latency_p999_cycles", m["latency_p999"], "cycles"),
                ("sim_latency_samples",
                 report["histograms"]["latency"]["total"], "count"),
                ("goodput_attainment", m["goodput_attainment"], "fraction"),
                ("shed_fraction", m["shed_fraction"], "fraction"),
                ("failed_fraction",
                 (m["failed"] + m["unfinished"]) / m["offered"], "fraction"),
            ],
        }
    if workload == "hier_think":
        out = files["hier_output.json"][0]
        if not out["state_coupling"]:
            raise GateError("hier: check_state_coupling() failed")
        return {
            "requests": out["completed"],
            "cycles": out["measured_cycles"],
            "attempted": out["completed"],
            "failed": 0,
            "sim_latency_mean_cycles": out["access_time"]["mean"],
            "sim_req_per_kcycle":
                1000.0 * out["completed"] / out["measured_cycles"],
            "extra": [
                ("failed_fraction", 0.0, "fraction"),
                ("in_flight_at_horizon", out["in_flight_end"], "count"),
            ],
        }
    # campaign_sweep: sums over every point of every family.
    points = failed = requests = cycles = 0
    latency_sum = 0.0
    violations = 0
    for name, (report, _) in files.items():
        violations += report["audit"]["violations"] if "audit" in report else 0
        for point in report["points"]:
            points += 1
            if "error" in point:
                failed += 1
                continue
            m, p = point["metrics"], point["params"]
            if "total_acquisitions" in m:  # lock
                done, lat = m["total_acquisitions"], m["mean_acquire_latency"]
                span = p["cycles"]
            elif "makespan" in m:  # trace_replay
                done, lat, span = m["completed"], m["mean_latency"], m["makespan"]
            else:
                done, lat = m["completed"], m["mean_access_time"]
                span = p["cycles"]
            requests += done
            cycles += span
            latency_sum += lat * done
    if failed or violations:
        raise GateError(f"campaign: {failed} failed points, "
                        f"{violations} audit violations")
    return {
        "requests": requests,
        "cycles": cycles,
        "attempted": points,
        "failed": failed,
        "sim_latency_mean_cycles": latency_sum / requests,
        "sim_req_per_kcycle": 1000.0 * requests / cycles,
        "extra": [
            ("points", points, "count"),
            ("failed_fraction", failed / points, "fraction"),
        ],
    }


def fastest(records, key):
    """Each of the records' timed segments under `key` at its fastest over
    the repetitions, summed."""
    if len({len(r[key]) for r in records}) != 1:
        raise GateError(f"repetitions ran different numbers of {key}")
    return sum(min(seg) for seg in zip(*(r[key] for r in records)))


def run_workload(workload, seed, seconds, trace):
    """Runs repetitions until `seconds` are spent; returns the result
    dict (correct, attempted, failed, metrics, lines, digest)."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    start = time.monotonic()
    plain, traced, digests = [], [], set()
    sim = None
    n = 0
    while True:
        sides = [False, True] if trace else [False]
        for side in sides:
            rec, digest, files, out = run_once(workload, seed, side, n)
            if sim is None:
                validate_reports(files)
                sim = simulated(workload, files)
            shutil.rmtree(out, ignore_errors=True)
            digests.add(digest)
            (traced if side else plain).append(rec)
        n += 1
        if len(digests) != 1:
            raise GateError("simulated outputs differ between repetitions"
                            + (" or between traced and untraced runs"
                               if trace else ""))
        spent = time.monotonic() - start
        enough = n >= (MIN_PAIRS if trace else MIN_REPS)
        per_round = spent / n
        if enough and spent + per_round > seconds:
            break

    wall = fastest(plain, "segments_s")
    result = {"attempted": sim["attempted"] * (len(plain) + len(traced)),
              "failed": sim["failed"] * (len(plain) + len(traced)),
              "digest": digests.pop(), "reps": len(plain),
              "traced_reps": len(traced)}
    e2e = {
        "setup_s": fastest(plain, "setup_groups_s") / plain[0]["setups"],
        "wall_s": wall,
        "req_per_s": sim["requests"] / wall,
        "sim_cycles_per_s": sim["cycles"] / wall,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "sim_latency_mean_cycles": sim["sim_latency_mean_cycles"],
        "sim_req_per_kcycle": sim["sim_req_per_kcycle"],
    }
    lines = [(name, e2e[name], unit) for name, unit in END_TO_END]
    lines += sim["extra"]
    if workload == "campaign_sweep":
        lines.append(("points_per_s", sim["attempted"] / wall, "1/s"))
    result["end_to_end"] = {name: {"value": e2e[name], "unit": unit}
                            for name, unit in END_TO_END}
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            unit = traced[0]["layers"][name]["unit"]
            value = statistics.median(r["layers"][name]["value"]
                                      for r in traced)
            layers[name] = {"value": value, "unit": unit}
        traced_wall = fastest(traced, "segments_s")
        layers["trace.overhead"] = {"value": traced_wall / wall,
                                    "unit": "ratio"}
        missing = [name for name, _ in PER_LAYER if name not in layers]
        if missing:
            raise GateError("traced run lacks " + ", ".join(missing))
        result["per_layer"] = {name: layers[name] for name, _ in PER_LAYER}
        lines = [(name, v["value"], v["unit"])
                 for name, v in sorted(layers.items())]
    result["lines"] = lines
    return result


def report(workload, seed, trace, result):
    side = "traced" if trace else "untraced"
    print(f"# {workload} seed={seed} {side} reps={result['reps']}"
          f"{' traced_reps=' + str(result['traced_reps']) if trace else ''}"
          f" digest=sha256:{result['digest']}")
    for name, value, unit in result["lines"]:
        print(f"{workload}  {name:34s} {value:>16.6g} {unit}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        seed = WORKLOADS[workload] if args.seed is None else args.seed
        try:
            result = run_workload(workload, seed, args.seconds, args.trace)
        except (GateError, subprocess.TimeoutExpired, ValueError,
                KeyError) as e:
            print(f"perfbench: {workload}: correctness gate failed: {e}",
                  file=sys.stderr)
            summary["correct"] = False
            continue
        report(workload, seed, args.trace, result)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        metrics = result["per_layer" if args.trace else "end_to_end"]
        if args.workload == "all":
            summary["metrics"].update(
                {f"{workload}.{k}": v for k, v in metrics.items()})
        else:
            summary["metrics"] = metrics
    shutil.rmtree(RUNS_DIR, ignore_errors=True)
    if summary["attempted"] == 0:
        summary["attempted"] = 1
        summary["failed"] = 1
        summary["correct"] = False
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
