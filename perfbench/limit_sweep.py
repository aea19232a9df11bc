"""Run the known over-limit instances under caps and record what happens.

    python3 perfbench/limit_sweep.py

Each case runs in its own child process with an address-space cap of
MEMORY_MB (set by the child before it imports anything) and the library's
own time cap of TIME_CAP_S, the one ``--time-cap`` gives the CLI.  The
parent kills a child that overruns the time cap by more than a grace
period.  Outcomes are ``ok``, ``limit`` (the library raised
LimitExceeded), ``memory`` (MemoryError, or death by signal under the
address-space cap) or ``timeout`` (killed by the parent), each with its
time to outcome.  These cases stay out of the timed workloads: a fix that
turns a fast failure into a slower success would otherwise read as a
regression.  The result is printed and written to ``limit_sweep.json``
next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUTPUT = os.path.join(HERE, "limit_sweep.json")
MEMORY_MB = 1024
TIME_CAP_S = 30.0
GRACE_SECONDS = 10.0

CASES = {
    "gnp45_p009_include": "solve, include model, on gnp n=45 p=0.09 seed 0",
    "gnp60_p005_generate_exclude": (
        "generate in the exclude model (solve, reduce_instance, "
        "has_unique_min_vc) on gnp n=60 p=0.05 seed 0"
    ),
    "gc43_unique_include": (
        "solve, include model, on the build_gc gadget (n=43) of a 6-variable "
        "4-clause formula with exactly one 1-in-3 assignment, so the optimum is 0"
    ),
}


def _unique_formula():
    """The first seeded 6-variable, 4-clause formula with one 1-in-3 assignment."""
    import numpy as np

    from pauvc import Cnf1in3, enumerate_1in3

    rng = np.random.default_rng(0)
    while True:
        clauses = tuple(
            tuple(int(v) * int(s) for v, s in zip(
                rng.choice(6, size=3, replace=False) + 1, rng.choice((-1, 1), size=3)
            ))
            for _ in range(4)
        )
        cnf = Cnf1in3(6, clauses)
        if len(enumerate_1in3(cnf)) == 1:
            return cnf


def _child(name: str) -> None:
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    started = time.perf_counter()
    outcome, detail = "ok", ""
    try:
        sys.path.insert(0, SRC)
        from pauvc import (
            LimitExceeded,
            build_gc,
            gnp_graph,
            has_unique_min_vc,
            reduce_instance,
            solve,
        )

        deadline = time.perf_counter() + TIME_CAP_S
        try:
            if name == "gnp45_p009_include":
                result = solve(gnp_graph(45, 0.09, 0), "include", deadline=deadline)
                detail = f"opt_size {result.opt_size}"
            elif name == "gnp60_p005_generate_exclude":
                g = gnp_graph(60, 0.05, 0)
                result = solve(g, "exclude", deadline=deadline)
                reduced, expected_tau, _ = reduce_instance(g, result.pre)
                unique, solution = has_unique_min_vc(reduced)
                if not unique or solution.tau != expected_tau:
                    raise AssertionError("generated instance failed verification")
                detail = f"opt_size {result.opt_size}, expected_tau {expected_tau}"
            else:
                g, _ = build_gc(_unique_formula())
                result = solve(g, "include", deadline=deadline)
                detail = f"n {g.n}, opt_size {result.opt_size}"
        except LimitExceeded as exc:
            outcome, detail = "limit", str(exc)
    except MemoryError:
        outcome, detail = "memory", "MemoryError"
    print(json.dumps({
        "outcome": outcome,
        "detail": detail,
        "child_seconds": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


def sweep() -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    records = []
    for name, description in CASES.items():
        cmd = [sys.executable, os.path.abspath(__file__), "--child", name]
        started = time.perf_counter()
        record = {"case": name, "description": description}
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=TIME_CAP_S + GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            record.update(outcome="timeout", detail="killed after the grace period")
        else:
            lines = done.stdout.strip().splitlines()
            if done.returncode == 0 and lines:
                record.update(json.loads(lines[-1]))
            elif done.returncode < 0:
                record.update(outcome="memory",
                              detail=f"killed by signal {-done.returncode}")
            else:
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                record.update(outcome="memory" if "MemoryError" in tail[0] else "error",
                              detail=tail[0])
        record["seconds"] = time.perf_counter() - started
        print(f"{name}: {record['outcome']} after {record['seconds']:.1f} s "
              f"({record['detail']})", flush=True)
        records.append(record)
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=sorted(CASES),
                        help="run one case in this process (the sweep's child)")
    args = parser.parse_args()
    if args.child:
        _child(args.child)
        return
    records = sweep()
    report = {
        "memory_mb": MEMORY_MB,
        "time_cap_s": TIME_CAP_S,
        "grace_s": GRACE_SECONDS,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "cases": records,
    }
    with open(OUTPUT, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
