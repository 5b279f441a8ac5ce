#!/usr/bin/env python3
"""Build and run the MAGE benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <rpc_steady|migrate_mix|durable_failover> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build under the
current directory), then runs it with the same arguments. Build output goes
to stderr; the benchmark's report goes to stdout, whose last line is one
JSON object. The exit code is the build's if it failed, else the
benchmark's: non-zero on any failed operation or output check.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
SOURCES = os.path.join(HERE, os.pardir, "crates", "core", "Cargo.toml")


def main() -> int:
    if not os.path.isfile(SOURCES):
        print(
            "perfbench: the MAGE crates are missing (expected crates/ beside perfbench/)",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        return build.returncode
    binary = os.path.join(target, "release", "mage-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
