#!/usr/bin/env python3
"""Build hetrta and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn. Run it from the root of a
source checkout. Build output goes to $CARGO_TARGET_DIR (default
`.bench_build`), work files to `.bench_work`; the last line of
standard output is the JSON result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(target, args, cwd):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode == 0


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: no hetrta sources beside perfbench/ "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not (build(target, ["-p", "hetrta-cli", "--bin", "hetrta"], ROOT)
            and build(target, ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
                      ROOT)):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *argv,
           "--hetrta", os.path.join(release, "hetrta"),
           "--workdir", os.path.join(ROOT, ".bench_work")]
    # Own process group, so a timeout also stops the daemon and workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
