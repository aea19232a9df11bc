"""Smoke test of the benchmark runner on a tiny corpus.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric in BENCHMARK.json (and fail_frac) is printed with
its unit, that exact counters repeat between two runs with the same seed,
and that a deliberately wrong reference answer, or a call that raises, is
caught.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER = os.path.join(HERE, "run.py")
# The cheapest base instances of each workload.
TINY = {
    "gnp_generate": ("gnp00", "bip00"),
    "tree_solve": ("tree08", "tree15"),
    "dense_check": ("dense00",),
}
WORKLOADS = tuple(TINY)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def _write_corpus(path: str, corrupt: bool = False) -> str:
    with open(os.path.join(HERE, "corpus.json"), encoding="ascii") as fh:
        corpus = json.load(fh)
    for workload, keep in TINY.items():
        corpus[workload] = [spec for spec in corpus[workload] if spec["id"] in keep]
    if corrupt:
        corpus["gnp_generate"][0]["opt"]["include"] += 1
        check = corpus["dense_check"][0]["checks"][0]
        check["feasible"] = not check["feasible"]
    with open(path, "w", encoding="ascii") as fh:
        json.dump(corpus, fh)
    return path


def _run(workload: str, corpus: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--corpus", corpus],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> str:
    return _write_corpus(str(tmp_path_factory.mktemp("corpus") / "tiny.json"))


def _printed(lines: list[str]) -> dict[str, str]:
    """name -> unit for the 'name value unit' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_counters(tiny, workload):
    spec = _benchmark()
    first, lines = _run(workload, tiny, trace=0)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    printed = _printed(lines)
    assert printed["fail_frac"] == "ratio"
    for metric in spec["end_to_end"]:
        assert printed[metric["name"]] == metric["unit"]
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert first["metrics"][metric["name"]]["value"] > 0
    assert set(first["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    second, again = _run(workload, tiny, trace=0)
    counters = [line for line in lines if line.startswith("counters")]
    assert counters and "identical" in counters[0]
    assert counters == [line for line in again if line.startswith("counters")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(tiny, workload):
    spec = _benchmark()
    result, lines = _run(workload, tiny, trace=1)
    assert result["correct"] and result["failed"] == 0
    printed = _printed(lines)
    for metric in spec["per_layer"]:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    again, _ = _run(workload, tiny, trace=1)
    for metric in spec["per_layer"]:
        if metric["unit"] != "s":
            assert again["metrics"][metric["name"]] == result["metrics"][metric["name"]]


@pytest.mark.parametrize("workload", ("gnp_generate", "dense_check"))
def test_wrong_reference_counts_as_failure(tmp_path, workload):
    corpus = _write_corpus(str(tmp_path / "wrong.json"), corrupt=True)
    result, lines = _run(workload, corpus, trace=0)
    assert not result["correct"]
    assert result["failed"] > 0
    fail_frac = [line.split()[1] for line in lines if line.startswith("fail_frac")]
    assert float(fail_frac[0]) > 0


def test_raising_call_counts_as_failure(tiny, monkeypatch, capsys):
    """A call that hits a library limit is a failure, and the run is incorrect."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(ROOT)
    from pauvc import solve
    from perfbench import calls, run

    def over_limit(inst):
        # Every instance has more than one vertex in a non-tree component,
        # so the fixed-parameter solver raises LimitExceeded.
        solve(inst.graph, inst.model, vertex_limit=1)
        return calls.gnp_generate(inst)

    monkeypatch.setitem(calls.UNTRACED, "gnp_generate", over_limit)
    argv = ["--workload", "gnp_generate", "--seed", "3", "--seconds", "0",
            "--trace", "0", "--corpus", tiny]
    assert run.main(argv) == 0
    out = capsys.readouterr()
    result = json.loads(out.out.strip().splitlines()[-1])
    assert "LimitExceeded" in out.err
    assert result["failed"] > 0
    assert not result["correct"]
