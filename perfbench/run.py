#!/usr/bin/env python3
"""Seeded benchmark of pnc_analyze and pncd.

    python3 perfbench/run.py --workload cold_cli|warm_dir|tree_10k \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the tools and the pnc_perf load
generator from source into $CARGO_TARGET_DIR (default .bench_build),
generates the workload's inputs from the seed under that directory,
drives the real binaries, checks every output, and prints one summary
line per metric followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  A full result file with the host block goes
to <build dir>/results/.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perfstats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
PR_SET_PDEATHSIG = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def die_with_parent():
    """Child set-up: SIGTERM the child when this process dies, so a killed
    run leaves no load generator (and so no daemon) behind."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(out):
    """Configures (once) and builds pnc_perf, pnc_analyze and pncd."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pnlab sources next to perfbench/; run from a full checkout")
    cmake_dir = os.path.join(out, "cmake")
    log = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "pnc_perf", "pnc_analyze", "pncd"])
    with open(log, "w") as log_file:
        for step in steps:
            if subprocess.call(step, stdout=log_file, stderr=subprocess.STDOUT) != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log)
    return cmake_dir


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Type of the filesystem holding @p path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def compiler(cmake_dir):
    for path in glob.glob(os.path.join(cmake_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        ident, version = "unknown", "unknown"
        with open(path) as f:
            for line in f:
                if line.startswith("set(CMAKE_CXX_COMPILER_ID "):
                    ident = line.split('"')[1]
                elif line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                    version = line.split('"')[1]
        return f"{ident} {version}"
    return "unknown"


def host_block(cmake_dir, tools, work):
    """The machine fields compare.py matches, plus the tools' --version."""
    versions = {}
    for tool in ("pnc_analyze", "pncd"):
        out = subprocess.run([os.path.join(tools, tool), "--version"],
                             capture_output=True, text=True)
        versions[tool] = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "machine": platform.machine(),
        "build_type": BUILD_TYPE,
        "compiler": compiler(cmake_dir),
        "work_filesystem": filesystem_of(work),
        "tool_versions": versions,
    }


def check_bodies(raw):
    """The once-per-kind per-file code checks; returns (checks, problems)."""
    with open(raw["expect"]) as f:
        expect = json.load(f)
    problems = []
    for path, scope, body_format in zip(raw["bodies"], raw["body_scopes"],
                                        raw["body_formats"]):
        with open(path) as f:
            found = perfstats.check_codes(f.read(), body_format, expect, scope)
        problems += [os.path.basename(path) + ": " + p for p in found[:5]]
    return len(raw["bodies"]), problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=perfstats.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out = build_dir()
    cmake_dir = build(out)
    tools = os.path.join(cmake_dir, "pnlab_tools")
    work = os.path.join(out, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Start on a quiet disk: write back whatever earlier work left dirty.
    os.sync()
    raw_path = os.path.join(work, "raw.json")
    started = time.time()
    rc = subprocess.call([os.path.join(cmake_dir, "pnc_perf"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--work", work, "--tools", tools, "--out", raw_path],
                         stdout=sys.stderr, preexec_fn=die_with_parent)
    if rc != 0:
        fail(f"pnc_perf exited with {rc}")
    with open(raw_path) as f:
        raw = json.load(f)

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    problems = list(raw["failures"])
    checks, body_problems = check_bodies(raw)
    attempted += checks
    failed += min(checks, len(body_problems))
    problems += body_problems
    if args.workload != "cold_cli":
        attempted += 1  # the /metrics scrapes around the daemon run
    if not raw["scrape_ok"] or raw["sheds"] != 0 or raw["deadline_rejects"] != 0:
        failed += 1
        problems.append(f"daemon shed {raw['sheds']:g} and deadline-rejected "
                        f"{raw['deadline_rejects']:g} requests "
                        f"(scrape ok: {bool(raw['scrape_ok'])})")

    host = host_block(cmake_dir, tools, work)
    # Inputs and caches are tens of thousands of files; drop them now so
    # their deletion does not land in the next run's measurements.
    for entry in os.listdir(work):
        if entry not in ("raw.json", "spans.jsonl", "bodies", "pncd.log"):
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    os.sync()
    if args.trace:
        metrics = perfstats.layers(raw)
        named = {}
    else:
        try:
            metrics = perfstats.end_to_end(args.workload, raw)
        except perfstats.TailRefused as e:
            fail(f"too few samples for the fixed tail percentile: {e}")
        named = perfstats.aliases(args.workload, metrics, raw)

    for p in problems:
        print("perfbench: FAILED " + p, file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={raw['input_files']:g} files, {raw['input_bytes']:g} bytes, "
          f"digest {raw['input_digest']}; wall {time.time() - started:.1f} s")
    for k, label in perfstats.KINDS[args.workload].items():
        print(f"# op kind {k}: {label}")
    for name, m in sorted(metrics.items()):
        extra = "".join(f" {key}={m[key]}" for key in ("samples", "percentile") if key in m)
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    for name, m in sorted(named.items()):
        extra = "".join(f" {key}={m[key]}" for key in ("samples", "percentile") if key in m)
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra} (= {m['of']})")
    failed_pct = 100.0 * failed / attempted
    print(f"failed_ops_pct = {failed_pct:.6g} % samples={attempted}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": raw["input_digest"],
        "host": host, "metrics": metrics, "named": named,
        "attempted": attempted, "failed": failed, "failed_ops_pct": failed_pct,
        "problems": problems,
    }
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))


if __name__ == "__main__":
    main()
