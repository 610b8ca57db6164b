#!/usr/bin/env python3
"""Host-performance benchmark of ccsim: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the simulator's libraries from src/)
into $CARGO_TARGET_DIR or .bench_build, runs the named workload in its
own process, and passes its output through.  The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}; the
line before it is the recipe (host, build, commit, seed) and the
workload's own named metrics.  Each run's record and the traced run's
spans are written under .bench_results/.  --selftest runs the tests
of the benchmark's own correctness gates.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "large_p", "serve_mix", "tune")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found next to perfbench/ (src/ missing)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return build_dir


def cmake_cache(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def recipe(build_dir, args):
    cxx = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version[0] if version else cxx,
        "commit": commit(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(build_dir, workload, seed, seconds, trace, data_dir,
                 out_dir):
    return subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--data", data_dir, "--out", out_dir],
        stdout=subprocess.PIPE, text=True)


def selftest(build_dir, out_dir):
    """The gate unit tests, then whole workloads run against perturbed
    pinned files: each must report failed operations."""
    failures = subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest")]).returncode != 0
    bad = os.path.join(out_dir, "selftest_data")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "data"), bad)
    with open(os.path.join(bad, "pins.txt")) as f:
        pins = f.read()
    with open(os.path.join(bad, "pins.txt"), "w") as f:
        # One flipped hex digit in one digest.
        key = "large_p.alltoall.p512 "
        at = pins.index(key) + len(key)
        f.write(pins[:at] + ("1" if pins[at] == "0" else "0") +
                pins[at + 1:])
    with open(os.path.join(bad, "tune_sp2.sel"), "a") as f:
        f.write("\n")
    for workload in ("large_p", "tune"):
        run = run_workload(build_dir, workload, 1, 0.1, 0, bad, out_dir)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        ok = (run.returncode == 0 and not result["correct"]
              and result["failed"] > 0)
        print(f"{'ok  ' if ok else 'FAIL'} {workload} against a perturbed "
              f"pin reports failures ({result['failed']} of "
              f"{result['attempted']})")
        failures |= not ok
    shutil.rmtree(bad)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_dir = build()
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        sys.exit(selftest(build_dir, out_dir))

    run = run_workload(build_dir, args.workload, args.seed, args.seconds,
                       args.trace, os.path.join(HERE, "data"), out_dir)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        die(f"workload {args.workload} exited with {run.returncode}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in want if k in got and got[k] != want[k])}")

    record = {"recipe": recipe(build_dir, args), "detail": detail,
              "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"recipe": record["recipe"], **detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
