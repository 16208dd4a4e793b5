#!/usr/bin/env python3
"""Builds the benchmark and the rank worker from source, then runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: typecheck, threads_exchange, procs_launch, serve_sessions.
Everything the run writes stays under the current directory: the build
in $CARGO_TARGET_DIR (default .bench_build), traces, sockets and
write-ahead logs under .bench_out. The last line of standard output is
the JSON result; build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Hash of the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src", "perfbench/Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    tmp = os.path.abspath(os.path.join(".bench_out", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    manifest = os.path.join(HERE, "Cargo.toml")
    # The benchmark first, then the rank worker, so the worker is never
    # older than what the benchmark was built against.
    for package, binary in (("bsml-perfbench", "perfbench"), ("bsml-repro", "bsml-rank")):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest, "-p", package, "--bin", binary],
            env=env, stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"perfbench: building {binary} failed", file=sys.stderr)
            return 3
    env["BENCH_COMMIT"] = commit()
    env["BENCH_SOURCE_DIGEST"] = source_digest()
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
