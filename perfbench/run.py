#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: kvs_pooled_local, kvs_tcp_sizes, lottery_local,
kvs_cluster_reshard (see BENCHMARK.json for why each exists).

The script builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. Build output
goes to standard error; standard output carries the run's record line and,
last, its result line. Exit status is non-zero, with no result line, when
the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def capture(cmd):
    """Standard output of `cmd` (stripped), or None if it cannot run."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    paths = []
    for top in tops:
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(top)
        for base, dirs, files in os.walk(full):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in files:
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    paths.append(os.path.relpath(os.path.join(base, name), ROOT))
    for rel in sorted(paths):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no crates/ next to perfbench/: run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_GIT_REV"] = capture(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    env["PERFBENCH_RUSTC"] = capture(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
