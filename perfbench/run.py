#!/usr/bin/env python3
"""The sweep benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke    # every workload, reduced, both modes
    python3 perfbench/run.py --all      # every workload, full size, both modes

--trace 0 times the untraced sweep and prints the end-to-end metrics;
--trace 1 runs the known-defect probes, re-executes the workload with spans
around every layer call, checks its bytes against an untraced run, writes
.bench_work/<workload>/spans-<workload>.csv and prints the per-layer
metrics. Both modes run the correctness checks. The last line of a single
run is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The build goes to $CARGO_TARGET_DIR (default .bench_build), configured as
Release. Exit status is 0 when every check passed, 1 on an output mismatch
(the result line still prints), and 2 when the build or a run failed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench and the mrca CLI."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Compiler scratch files stay inside the checkout too.
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4",
                      "--target", "perfbench", "mrca_cli"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                raise SystemExit(f"perfbench: build step failed: {' '.join(step)}")
    cache = open(os.path.join(build_dir, "CMakeCache.txt")).read()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise SystemExit(f"perfbench: {build_dir} is not a Release build; remove it")
    return build_dir


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def load_json(*parts):
    with open(os.path.join(*parts)) as handle:
        return json.load(handle)


def run_one(build_dir, name, spec, seed, seconds, trace, smoke, expected):
    """Runs the harness once; returns (exit code, result dict or None)."""
    work = os.path.join(ROOT, ".bench_work", name)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", name, "--seconds", str(seconds),
               "--trace", str(trace), "--work", work,
               "--mrca", os.path.join(build_dir, "mrca")]
    if spec["records"]:
        command.append("--records")
    if spec["shard_check"]:
        command.append("--shard-check")
    command += ["--"] + spec["smoke_args" if smoke else "args"] + ["--seed", str(seed)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} did not finish within {RUN_TIMEOUT_S} s")
        return 2, None
    finally:
        # Keep the span file; drop the bulky sweep outputs.
        if os.path.isdir(work):
            for entry in os.listdir(work):
                if not entry.startswith("spans-"):
                    path = os.path.join(work, entry)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        log(f"perfbench: {name} failed with exit code {done.returncode}")
        return 2, None
    print(f"context commit={commit()}")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    units = {m: v["unit"] for m, v in result["metrics"].items()}
    if units != expected:
        log(f"perfbench: metrics {sorted(units)} do not match BENCHMARK.json")
        return 2, None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()

    bench = load_json(ROOT, "BENCHMARK.json")
    workloads = load_json(BENCH_DIR, "workloads.json")
    spec = workloads["workloads"]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if set(workloads["metrics"]) != set(expected[0]) | set(expected[1]):
        raise SystemExit("perfbench: workloads.json and BENCHMARK.json "
                         "name different metrics")
    build_dir = build()

    if args.smoke or args.all:
        failures = []
        for name in spec:
            for trace in (0, 1):
                seconds = 1 if args.smoke else bench["run_seconds"]
                print(f"=== {name} --trace {trace}", flush=True)
                code, result = run_one(build_dir, name, spec[name], args.seed,
                                       seconds, trace, args.smoke,
                                       expected[trace])
                if result is not None:
                    print(json.dumps(result), flush=True)
                if code != 0 or result is None or result["failed"] != 0:
                    failures.append(f"{name} --trace {trace}")
        print("all checks passed" if not failures
              else "FAILED: " + ", ".join(failures), flush=True)
        return 1 if failures else 0

    if args.workload not in spec:
        parser.error(f"--workload must be one of {', '.join(spec)}")
    code, result = run_one(build_dir, args.workload, spec[args.workload],
                           args.seed, args.seconds, args.trace, False,
                           expected[args.trace])
    if result is None:
        return 2
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
