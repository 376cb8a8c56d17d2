#!/usr/bin/env python3
"""Build the OREO benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <diurnal-paced|scan-cold|tenants-ingest> \
        --seed <n> --seconds <n> --trace <0|1>

The benchmark is the `oreo-perfbench` package next to this file. It is
built in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
offline, and then run with the same arguments. Its standard output is
passed through; the last line is the JSON result. Build output goes to
standard error. The exit code is the benchmark's, or the build's if the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "oreo-perfbench"


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print(f"run.py: building {BINARY} failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", BINARY)
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
