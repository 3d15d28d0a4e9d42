#!/usr/bin/env python3
"""Builds the campaign server and the benchmark client, then runs one
benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout. Both programs are built
in release mode into $CARGO_TARGET_DIR (default `.bench_build`). The
client prints progress on stderr and, as the last line of stdout, one
JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("fuzz-fresh", "findings-heavy", "campaign-fresh", "cached-repeat")

# A first build in an empty target directory takes about a minute and a
# half on two cores; a run itself ends well inside three minutes.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(command, env):
    """Runs one cargo build, its output on stderr; exits on failure."""
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        sys.exit(f"perfbench: {' '.join(command)}: {error}")
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(command)} failed with code {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "saseval-server"))):
        sys.exit("perfbench: run from the root of a repository checkout "
                 "(Cargo.toml and crates/saseval-server are missing here)")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "saseval-server", "--bin", "saseval-server"], env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(release, "saseval-server"),
        "--span-dir", os.path.join(target, "perfbench-spans"),
    ]
    # The client and the server it spawns share a fresh process group, so
    # a run that overstays its time is stopped as a whole.
    client = subprocess.Popen(command, start_new_session=True)
    try:
        code = client.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(client)
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        stop_group(client)
        raise
    sys.exit(code)


def stop_group(client):
    """Kills the client's process group and waits until it is gone."""
    try:
        os.killpg(client.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    client.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(client.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
