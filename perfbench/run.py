"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gnp_generate --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the library is imported from
the ``src`` directory next to this one, never from an installed copy.  Each
workload is a single-process closed loop: passes over its corpus, one call
at a time, until ``--seconds`` have gone by and at least two passes are
done.  Every output is checked outside the timed region.  The timings are
scaled to a reference machine speed measured by a fixed kernel (see
``Run.timings``); the unscaled values are printed too.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate, the JSON holds the per-layer metrics and the tracing overhead,
and the spans are written to ``perfbench/out/``.  Lines before it give the
same numbers for people, including ``fail_frac`` and the exact counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
MIN_PASSES = 2
# Nominal seconds for the reference kernel; timing metrics are scaled to the
# speed at which it takes this long (see Run.timings).  On the 2-CPU x86-64
# machine the benchmark was defined on, with Python 3.11, it took 2.7 to 4.6 ms.
REFERENCE_KERNEL_S = 0.003
FAILURES = (MemoryError, RecursionError)  # plus pauvc.LimitExceeded

# numpy, the library's one third-party dependency, is imported before the
# clock starts.  Its import is not the library's work, and it is what drifts:
# on a 2-CPU x86-64 machine, the whole import took 0.21 s in one set of runs
# and 0.15 s in the next, while the library's own part stayed at 0.04 s.
_IMPORT_PROBE = (
    "import sys, time\n"
    "import numpy\n"
    "started = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pauvc\n"
    "print(time.perf_counter() - started)\n"
)

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "latency_geomean_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_SECONDS = (
    "random_graphs.gen",
    "graph.parse",
    "reductions.build",
    "graph.classify",
    "vertex_cover.min_vertex_cover",
    "vertex_cover.branch",
    "solvers.fpt_include",
    "solvers.fpt_exclude",
    "uniqueness.is_feasible",
    "uniqueness.reduce_instance",
    "uniqueness.has_unique_min_vc",
    "tree.pau_tree",
    "tree.verify",
)

LAYER_COUNTS = (
    "vertex_cover.min_vertex_cover_nodes",
    "vertex_cover.branch_nodes",
    "vertex_cover.leaves",
    "vertex_cover.max_forced",
    "vertex_cover.max_pairs",
    "solvers.nodes",
    "solvers.probes",
    "uniqueness.is_feasible_nodes",
    "uniqueness.reason.feasible",
    "uniqueness.reason.NotUnique",
    "uniqueness.reason.NotMinimumConsistent",
    "uniqueness.reason.ExcludeNotIndependent",
    "tree.nodes",
    "calls.nodes_explored",
    "calls.uvc_calls",
)


def _import_samples() -> list[tuple[float, float]]:
    """Times to import the library, each in a fresh interpreter with numpy.

    Each comes with the mean reference kernel time around it (see
    ``Run.timings``).
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        before = _reference_kernel()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples.append((seconds, (before + _reference_kernel()) / 2))
    return samples


def _reference_kernel() -> float:
    """Seconds for a fixed piece of generic pure-Python work.

    Tuples as dict keys, a set and a sort with a key function, on a working
    set of a few thousand objects that is freed before it returns: the kind
    of work the library does, on none of its code.  Its time says how fast
    the machine runs such Python at that moment.  A tight integer loop was
    tried first and over-corrected: on a 2-CPU x86-64 machine, over seven
    minutes of calls alternating with kernels, call times grew as the 0.7th
    power of that loop's time, and as the 0.9th power of this kernel's.
    """
    started = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = ((i * 7919) % 3001, i & 31)
        counts[key] = counts.get(key, 0) + 1
    rows = {a for a, _ in counts}
    ordered = sorted(counts.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
    if len(ordered) < len(rows):
        raise AssertionError("reference kernel lost entries")
    return time.perf_counter() - started


class Run:
    """The state of one workload run: its instances, timings and checks."""

    def __init__(self, workload: str, seed: int, corpus: dict, tracer=None) -> None:
        from perfbench.corpus import build_instances

        self.workload = workload
        self.tracer = tracer
        # (seconds, reference kernel seconds around it) per set-up round.
        self.setup_samples: list[tuple[float, float]] = []
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.round = f"setup{k}"
            before = _reference_kernel()
            started = time.perf_counter()
            self.instances = build_instances(workload, seed, corpus, tracer)
            seconds = time.perf_counter() - started
            self.setup_samples.append((seconds, (before + _reference_kernel()) / 2))
        # Per instance, (seconds, reference kernel seconds around the call).
        self.samples: dict[str, list[tuple[float, float]]] = {
            i.ident: [] for i in self.instances
        }
        self.attempted = 0
        self.failed = 0
        self.pass_counters: list[tuple[int, int]] = []
        self.traced_pass_seconds: list[float] = []
        self.untraced_pass_seconds: list[float] = []
        self.kernel_seconds: list[float] = []

    def one_pass(self, traced: bool) -> None:
        from pauvc import LimitExceeded
        from perfbench.calls import UNTRACED, call_traced, check

        fn = UNTRACED[self.workload]
        nodes = uvc = 0
        pass_seconds = 0.0
        for inst in self.instances:
            self.attempted += 1
            before = 0.0 if traced else _reference_kernel()
            started = time.perf_counter()
            try:
                if traced:
                    out, seconds = call_traced(self.tracer, self.workload, inst)
                else:
                    out = fn(inst)
                    seconds = time.perf_counter() - started
            except (LimitExceeded, *FAILURES) as exc:
                # A failed call keeps its time to failure as its latency, so
                # an instance that fails fast still weighs in the timings.
                out, seconds = None, time.perf_counter() - started
                self.failed += 1
                print(f"FAILED {inst.ident}: {type(exc).__name__}: {exc}", file=sys.stderr)
            pass_seconds += seconds
            if not traced:
                after = _reference_kernel()
                self.kernel_seconds += [before, after]
                self.samples[inst.ident].append((seconds, (before + after) / 2))
            if out is None:
                continue
            nodes += out.nodes
            uvc += out.uvc_calls
            problems = check(inst, out)
            if problems:
                self.failed += 1
                print(f"WRONG {inst.ident}: {'; '.join(problems)}", file=sys.stderr)
        if traced:
            self.tracer.add("calls.nodes_explored", nodes)
            self.tracer.add("calls.uvc_calls", uvc)
            self.traced_pass_seconds.append(pass_seconds)
        else:
            self.untraced_pass_seconds.append(pass_seconds)
        self.pass_counters.append((nodes, uvc))

    def loop(self, seconds: float) -> None:
        started = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - started < seconds:
            # The tree solver's memo closures are reference cycles; collect
            # them so the peak memory does not grow with the number of passes.
            gc.collect()
            # With a tracer, untraced and traced passes alternate; the traced
            # ones get their own rounds so counters can be compared.
            traced = self.tracer is not None and passes % 2 == 1
            if traced:
                self.tracer.round = f"pass{passes // 2}"
            self.one_pass(traced)
            passes += 1

    @property
    def steady(self) -> bool:
        return len(set(self.pass_counters)) <= 1

    def timings(
        self, import_samples: list[tuple[float, float]], scaled: bool
    ) -> dict[str, float]:
        """The three timing metrics, scaled to the reference speed or not.

        A shared machine drifts, within a run and between runs, by more than
        any bound worth having.  So the reference kernel runs just before
        and just after every untraced call and set-up round, outside the
        timed region, and the scaled time of each is its time times
        REFERENCE_KERNEL_S over the mean of those two kernel times.  On a
        2-CPU x86-64 machine, over six seeds of gnp_generate, this per-call
        scaling left calls_per_s with a quartile spread of 3.5% of its
        median, against 7% for scaling by the run's median kernel time and
        9% unscaled.
        """

        def median(samples: list[tuple[float, float]]) -> float:
            return statistics.median(
                seconds * REFERENCE_KERNEL_S / kernel if scaled else seconds
                for seconds, kernel in samples
            )

        # Both per-call metrics rest on each instance's median latency over
        # the run's passes, which shrugs off the bursts of a shared machine.
        medians = [median(v) for v in self.samples.values()]
        geomean = math.exp(statistics.fmean(math.log(m) for m in medians))
        return {
            "calls_per_s": len(medians) / sum(medians),
            "latency_geomean_ms": geomean * 1000.0,
            "setup_s": median(import_samples) + median(self.setup_samples),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        tr = self.tracer
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_SECONDS:
            out[name + "_s"] = (tr.median_seconds(name), "s")
        rounds = [r for r in tr.counts if r.startswith("pass")]
        first = tr.counts[rounds[0]] if rounds else {}
        for name in LAYER_COUNTS:
            out[name] = (first.get(name, 0), "count")
        candidates = first.get("vertex_cover.candidates", 0)
        out["vertex_cover.log2_candidates"] = (
            math.log2(candidates) if candidates else 0.0,
            "log2",
        )
        probes = first.get("solvers.probes", 0)
        out["solvers.probe_yield"] = (
            first.get("solvers.feasible_probes", 0) / probes if probes else 0.0,
            "ratio",
        )
        out["trace.overhead_s"] = (
            statistics.median(self.traced_pass_seconds)
            - statistics.median(self.untraced_pass_seconds),
            "s",
        )
        return out

    def layer_counts_steady(self) -> bool:
        rows = [
            tuple(sorted(row.items()))
            for r, row in self.tracer.counts.items()
            if r.startswith("pass")
        ]
        return len(set(rows)) <= 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("gnp_generate", "tree_solve", "dense_check"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus", default=None, help="corpus JSON to use instead of corpus.json"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pauvc", "__init__.py")):
        print(f"error: no pauvc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench.corpus import CORPUS_PATH, load_corpus
    from perfbench.tracing import Tracer

    tracer = Tracer() if args.trace else None
    corpus = load_corpus(args.corpus or CORPUS_PATH)
    run = Run(args.workload, args.seed, corpus, tracer)
    run.loop(args.seconds)
    # Any failed call, whether it raised or gave a wrong answer, makes the
    # run incorrect.
    correct = run.failed == 0 and run.steady
    fail_frac = run.failed / run.attempted

    print(
        f"workload {args.workload} seed {args.seed}: {len(run.pass_counters)} passes, "
        f"{run.attempted} calls, {run.failed} failed"
    )
    nodes, uvc = run.pass_counters[0]
    print(
        f"counters per pass: nodes_explored {nodes}, uvc_calls {uvc} "
        f"({'identical in every pass' if run.steady else 'DIFFER between passes'})"
    )
    print(f"fail_frac {fail_frac:.6g} ratio")
    print(
        f"reference kernel median {statistics.median(run.kernel_seconds) * 1000:.4g} ms "
        f"(nominal {REFERENCE_KERNEL_S * 1000:.4g} ms)"
    )
    if args.trace:
        metrics = run.per_layer()
        if not run.layer_counts_steady():
            print("layer counters DIFFER between traced passes")
            correct = False
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(
            os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
    else:
        import_samples = _import_samples()
        for name, value in run.timings(import_samples, scaled=False).items():
            print(f"unscaled {name} {value:.6g} {END_TO_END_UNITS[name]}")
        values = run.timings(import_samples, scaled=True)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
