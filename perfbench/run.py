#!/usr/bin/env python3
"""Build the MPCX benchmark from source and run one workload once.

    python3 perfbench/run.py --workload pingpong_shm --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the benchmark
program in perfbench/src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only re-check the build. Every inherited MPCX_* variable is dropped
so runs are comparable; the binary sets the few it needs and stamps them.

stderr gets the build log, the configuration stamp and a metric table; the last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
The full result (stamp, sample counts, failures) is also saved under
perfbench/out/runs/ for perfbench/compare.py.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pingpong_shm", "threads_tcp", "apps_hyb")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no MPCX sources at {ROOT / 'src'}; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "mpcx_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return build_dir / "mpcx_perfbench"


def source_digest():
    """Hash of the library and benchmark sources: the revision when git is absent."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src", HERE / "CMakeLists.txt"):
        files = sorted(base.rglob("*")) if base.is_dir() else [base]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    out_dir = HERE / "out"
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPCX_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"perfbench: benchmark exited with code {proc.returncode}")
    full = json.loads(proc.stdout.strip().splitlines()[-1])
    full["stamp"]["git_revision"] = git_revision()
    full["stamp"]["source_digest"] = source_digest()

    log("config: " + json.dumps(full["stamp"], sort_keys=True))
    for name, metric in full["metrics"].items():
        log(f"  {name:44s} {metric['value']:16.6g} {metric['unit']}")
    failed_ops = full["failed"] / max(1, full["attempted"])
    log(f"  {'failed_ops':44s} {failed_ops:16.6g} ratio  ({full['failed']} of {full['attempted']})")
    for failure in full["failures"]:
        log("  failure: " + failure)

    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(full, indent=1) + "\n")

    result = {key: full[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
