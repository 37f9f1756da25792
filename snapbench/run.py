#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 snapbench/run.py --workload stream|mesh|rack --seed N \
        --seconds S --trace 0|1

The benchmark is an OCaml executable (snapbench/main.ml) linked against
the simulator's libraries.  It is built in release mode into
.bench_build/ and then run with the arguments given here; its last line
of standard output is the JSON result.  Build output goes to standard
error so that line stays last.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./snapbench/main.exe"


def toolchain_path():
    """PATH with the OCaml toolchain on it, or None if it cannot be found.

    A shell that has not loaded the opam environment lacks it, so the
    current opam switch and then the switches under ~/.opam are tried.
    """
    path = os.environ.get("PATH", "")
    if shutil.which("dune", path=path):
        return path
    candidates = []
    if os.environ.get("OPAM_SWITCH_PREFIX"):
        candidates.append(os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin")))
    for bindir in candidates:
        if os.path.isfile(os.path.join(bindir, "dune")):
            return bindir + os.pathsep + path
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "run.py: no dune-project and lib/ here; run it from the root "
            "of a full checkout\n"
        )
        return 2
    path = toolchain_path()
    if path is None:
        sys.stderr.write("run.py: dune not found\n")
        return 2
    env = dict(os.environ, PATH=path, DUNE_CACHE="disabled")
    build = subprocess.run(
        [
            "dune",
            "build",
            "--root",
            ".",
            "--build-dir",
            BUILD_DIR,
            "--profile",
            "release",
            TARGET,
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 1
    exe = os.path.join(BUILD_DIR, "default", "snapbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:])
    return run.returncode if run.returncode > 0 else (1 if run.returncode else 0)


if __name__ == "__main__":
    sys.exit(main())
