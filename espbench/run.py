#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 espbench/run.py --workload <shelf|fleet|serving|ingest> \
        --seed N --seconds S --trace <0|1>
    python3 espbench/run.py --self-test

The build goes to .bench_build/espbench (Release). Build output goes to
stderr, so the last line of stdout is the run's JSON result. With
--trace 1 the retained spans are written next to the build, under
.bench_build/espbench/spans/. See espbench/README.md.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "espbench")
# A run must end within 180 s; leave the build check and teardown room.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "processor.h")):
        sys.exit("espbench: engine sources not found at " +
                 os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("espbench: build failed: " + " ".join(cmd))


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    build()
    if arg_value(args, "--trace") == "1" and "--spans" not in args:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.jsonl" % (arg_value(args, "--workload"),
                                    arg_value(args, "--seed"))
        args += ["--spans", os.path.join(spans, name)]
    proc = subprocess.Popen([os.path.join(BUILD, "espbench")] + args,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark and its checker process share the session.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("espbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
