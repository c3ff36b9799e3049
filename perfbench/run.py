#!/usr/bin/env python3
"""The HALOTIS benchmark: build, run one workload, or run them all.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run.  Builds `halotis` and the runner into .bench_build/ (first
      run only), generates W's inputs from the seed, checks every op's output
      and prints every metric by name with its unit.  The last stdout line is
      the JSON result: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --all [--seconds S] [--record FILE]
      Two sets of ten seeded runs of every workload with tracing off (seeds
      1-10 and 11-20), interleaved seed by seed so both sets and each seed's
      cold/daemon pair share the host's phase, plus one traced run per set.
      Prints each metric's median, quartiles, min and max per set, the sets'
      agreement, the paired warm/cold ratio and the host block; writes
      BENCHMARK.json and, with --record, the whole record as JSON to FILE.

  python3 perfbench/run.py --selftest
      The benchmark's own tests (input determinism, .bench round trips, the
      output check catching a corrupted reference).

perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "perfbench_runner"
HALOTIS = BUILD / "halotis" / "src" / "tools" / "halotis"
RUN_SECONDS = 20
REPS = 10  # seeded runs per workload in each set of --all

WORKLOADS = [
    ("cold_requests",
     "2-client closed loop of fresh halotis processes, ~80% sim --hash and ~20% sta on "
     "small designs: exec, flag parsing and .bench parsing dominate"),
    ("daemon_requests",
     "the same op stream as --connect clients of one halotis serve --threads 4: protocol, "
     "elaboration cache hits and pooled simulators"),
    ("large_design",
     "rounds of a DDM sim and a JSON lint on a 100k-gate layered netlist: kernel and "
     "parser on a working set far beyond the CPU cache"),
    ("parallel_jobs",
     "rounds of 4-thread fault, replayed variation and partitioned CDM sim jobs: the only "
     "workload where the worker pool, campaign, replay and partitioned kernel work"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
    ("sim_wall_s", "s", "lower", 0.25),
    ("analysis_wall_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
]

# (name, unit, better)
PER_LAYER = [
    ("tools.process_overhead_ms", "ms", "lower"),
    ("tools.run_cli_ms", "ms", "lower"),
    ("parsers.read_bench_s", "s", "lower"),
    ("parsers.bench_gates_per_s", "1/s", "higher"),
    ("parsers.read_stimulus_s", "s", "lower"),
    ("timing.build_s", "s", "lower"),
    ("core.construct_s", "s", "lower"),
    ("core.apply_stimulus_s", "s", "lower"),
    ("core.run_s", "s", "lower"),
    ("core.kernel_events_per_s", "1/s", "higher"),
    ("core.events_processed", "count", "lower"),
    ("core.events_cancelled", "count", "lower"),
    ("core.events_suppressed", "count", "lower"),
    ("core.events_resurrected", "count", "lower"),
    ("core.annihilations", "count", "lower"),
    ("core.filtered_events", "count", "lower"),
    ("core.gate_evaluations", "count", "lower"),
    ("core.peak_live_transitions", "count", "lower"),
    ("core.arena_bytes", "bytes", "lower"),
    ("partition.run_s", "s", "lower"),
    ("partition.windows", "count", "lower"),
    ("partition.messages", "count", "lower"),
    ("partition.fell_back_serial", "count", "lower"),
    ("partition.critical_path_share", "ratio", "lower"),
    ("replay.hash_s", "s", "lower"),
    ("replay.variation_s", "s", "lower"),
    ("replay.replayed_share", "ratio", "higher"),
    ("fault.campaign_1t_s", "s", "lower"),
    ("fault.campaign_4t_s", "s", "lower"),
    ("fault.scaling_4t", "ratio", "higher"),
    ("sta.analyze_s", "s", "lower"),
    ("lint.run_s", "s", "lower"),
    ("lint.findings", "count", "lower"),
    ("serve.roundtrip_ms", "ms", "lower"),
    ("serve.build_elaboration_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.protocol_errors", "count", "lower"),
    ("waveform.vcd_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def build(targets):
    """Configures once, then builds `targets` incrementally; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no HALOTIS sources next to perfbench/ -- run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def runner_args(workload, seed, seconds, trace, extra=()):
    return [str(RUNNER), "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--halotis", str(HALOTIS),
            "--commit", commit(), *extra]


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns its host block and its result line."""
    proc = subprocess.run(runner_args(workload, seed, seconds, trace, extra), cwd=ROOT,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    host = json.loads(next(l for l in lines if l.startswith("host: "))[len("host: "):])
    result = json.loads(lines[-1])
    # The runner names its metrics; the tables above must say the same.
    table = PER_LAYER if trace else END_TO_END
    if {n: m["unit"] for n, m in result["metrics"].items()} != {t[0]: t[1] for t in table}:
        sys.exit(f"perfbench: the runner's metrics differ from run.py's table for trace {trace}")
    # "  name value unit" lines of the runner's workload-specific block.
    figures, inside = {}, False
    for line in lines:
        if line.endswith(":") and not line.startswith(" "):
            inside = line == "workload-specific figures:"
        elif inside and line.startswith("  "):
            name, value, unit = line.split()[:3]
            figures[name] = (float(value), unit)
    result["figures"] = figures
    return host, result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def new_entry():
    return {"attempted": 0, "failed": 0, "correct": True, "values": {}, "figures": {}}


def add_run(entry, result, trace):
    for key in ("attempted", "failed"):
        entry[key] += result[key]
    entry["correct"] = entry["correct"] and result["correct"]
    if trace:
        entry["per_layer"] = {name: {"unit": unit, "value": result["metrics"][name]["value"]}
                              for name, unit, _ in PER_LAYER}
        return
    for name, metric in result["metrics"].items():
        entry["values"].setdefault(name, []).append(metric["value"])
    for name, (value, unit) in result["figures"].items():
        entry["figures"].setdefault((name, unit), []).append(value)


def finish_entry(entry):
    values, figures = entry.pop("values"), entry.pop("figures")
    entry["end_to_end"] = {name: {"unit": unit, **summary(values[name])}
                           for name, unit, _, _ in END_TO_END}
    entry["figures"] = {name: {"unit": unit, **summary(v)} for (name, unit), v in figures.items()}


def print_entry(label, entry):
    print(f"{label}: {entry['attempted']} ops, {entry['failed']} failed, "
          f"correct {entry['correct']}")
    for name, m in {**entry["end_to_end"], **entry["figures"]}.items():
        spread = (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
        print(f"  {name:32s} median {m['median']:.6g} {m['unit']}  q1 {m['q1']:.6g}  "
              f"q3 {m['q3']:.6g}  min {m['min']:.6g}  max {m['max']:.6g}  n {m['n']}  "
              f"spread {spread:.3f}")
    for name, m in entry["per_layer"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")


def run_all(seconds, record_path):
    """Two sets of REPS seeded runs per workload, interleaved so that both sets
    and the cold/daemon pair of each seed see the same host phase."""
    build(["perfbench_runner", "halotis"])
    sets = [list(range(1 + k * REPS, 1 + (k + 1) * REPS)) for k in range(2)]
    entries = [{w: new_entry() for w, _ in WORKLOADS} for _ in sets]
    latency = {}
    host = None
    for rep in range(REPS):
        for k, seeds in enumerate(sets):
            for workload, _ in WORKLOADS:
                host, result = run_one(workload, seeds[rep], seconds, 0)
                add_run(entries[k][workload], result, False)
                latency[(workload, seeds[rep])] = result["metrics"]["latency_ms"]["value"]
    # The exact counters depend on the seed, so both traced runs use set 1's first.
    for workload, _ in WORKLOADS:
        for k in range(len(sets)):
            _, result = run_one(workload, sets[0][0], seconds, 1)
            add_run(entries[k][workload], result, True)

    record = {"host": host, "seconds": seconds, "sets": []}
    for k, seeds in enumerate(sets):
        for workload, _ in WORKLOADS:
            finish_entry(entries[k][workload])
            print_entry(f"set {k + 1} {workload}", entries[k][workload])
        record["sets"].append({"seeds": seeds, "workloads": entries[k]})

    # Set 2 against set 1: the median's relative change per end-to-end metric.
    agreement, exact = {}, {}
    print("set 2 against set 1 (median change; bound):")
    for workload, _ in WORKLOADS:
        first, second = (entries[k][workload] for k in range(2))
        agreement[workload] = {}
        for name, _, _, bound in END_TO_END:
            a, b = first["end_to_end"][name]["median"], second["end_to_end"][name]["median"]
            change = b / a - 1.0
            agreement[workload][name] = {"change": change, "bound": bound,
                                         "within": abs(change) <= bound}
            print(f"  {workload:16s} {name:20s} {change:+.3f}  {bound}"
                  f"{'' if abs(change) <= bound else '  OUTSIDE'}")
        exact[workload] = [name for name, unit, _ in PER_LAYER
                           if unit in ("count", "bytes") and
                           first["per_layer"][name] != second["per_layer"][name]]
        print(f"  {workload:16s} exact counters that differ between the traced runs: "
              f"{exact[workload] or 'none'}")
    record["agreement"] = agreement
    record["exact_counter_mismatches"] = exact

    # The user-level warm/cold ratio, paired per seed: cold_requests latency
    # over daemon_requests latency of the two adjacent runs of that seed.
    ratios = {seed: latency[("cold_requests", seed)] / latency[("daemon_requests", seed)]
              for seeds in sets for seed in seeds}
    per_set = [statistics.median(ratios[seed] for seed in seeds) for seeds in sets]
    record["warm_cold_ratio"] = {"per_seed": ratios, "set_medians": per_set,
                                 **summary(list(ratios.values()))}
    print(f"host: {json.dumps(host)}")
    print(f"user-level warm/cold ratio (cold_requests latency_ms / daemon_requests latency_ms, "
          f"paired per seed): median {record['warm_cold_ratio']['median']:.3g}x over "
          f"{len(ratios)} seeds, set medians {per_set[0]:.3g}x and {per_set[1]:.3g}x, range "
          f"{min(ratios.values()):.3g}-{max(ratios.values()):.3g}x")

    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    if record_path:
        Path(record_path).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {record_path}")
    ok = all(e["correct"] for entry in entries for e in entry.values())
    return 0 if ok and not any(exact.values()) else 1


def selftest():
    build(["perfbench_runner", "perfbench_selftest", "halotis"])
    rc = subprocess.run([str(BUILD / "perfbench_selftest")], cwd=ROOT).returncode
    if rc != 0:
        return rc
    # End to end: a flipped byte in every reference must fail every op.
    for workload in ("cold_requests", "daemon_requests"):
        _, result = run_one(workload, 1, 1, 0, ["--corrupt-expected"])
        caught = not result["correct"] and result["failed"] == result["attempted"]
        print(f"corrupted reference on {workload}: {result['failed']} of "
              f"{result['attempted']} ops failed -> {'caught' if caught else 'MISSED'}")
        if not caught:
            return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--record")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args.seconds, args.record)
    if not args.workload:
        parser.error("--workload, --all or --selftest is required")
    build(["perfbench_runner", "halotis"])
    proc = subprocess.run(runner_args(args.workload, args.seed, args.seconds, args.trace),
                          cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        sys.exit(f"perfbench: {error}")
