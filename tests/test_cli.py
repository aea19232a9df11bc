import json
import os

import pytest

from pauvc import Graph, gnp_graph, parse_dimacs, render_dimacs
from pauvc import cli
from pauvc.cli import main


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    return write(tmp_path / "k4.col", render_dimacs(g))


@pytest.fixture
def p4_file(tmp_path):
    return write(tmp_path / "p4.col", render_dimacs(Graph(4, [(0, 1), (1, 2), (2, 3)])))


@pytest.fixture
def p3_file(tmp_path):
    return write(tmp_path / "p3.col", render_dimacs(Graph(3, [(0, 1), (1, 2)])))


@pytest.fixture
def k3_file(tmp_path):
    return write(tmp_path / "k3.col", render_dimacs(Graph(3, [(0, 1), (1, 2), (0, 2)])))


@pytest.fixture
def c4_file(tmp_path):
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return write(tmp_path / "c4.col", render_dimacs(c4))


class TestSolve:
    def test_exclude_k4(self, k4_file, capsys):
        assert main(["solve", "--model", "exclude", k4_file]) == 0
        out = capsys.readouterr().out
        assert "opt_size     1" in out

    def test_include_decision_no(self, k4_file):
        # K4 include needs n-1 = 3 vertices, so k=2 is a "no"
        assert main(["solve", "--model", "include", "--k", "2", k4_file]) == 1

    def test_include_decision_yes(self, k4_file):
        assert main(["solve", "--model", "include", "--k", "3", k4_file]) == 0

    def test_json_output(self, p4_file, capsys):
        assert main(["solve", "--model", "include", "--json", p4_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["opt_size"] == 1
        assert data["model"] == "include"
        assert set(data["stats"]) == {"nodes_explored", "uvc_calls", "elapsed"}

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.col", "p edge 2 1\ne 1 5\n")
        assert main(["solve", bad]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.col")]) == 2

    def test_vertex_limit_exit_3(self, c4_file, p4_file):
        assert main(["solve", "--vertex-limit", "2", c4_file]) == 3
        # the cap guards the exponential routes only; trees take the linear one
        assert main(["solve", "--vertex-limit", "2", p4_file]) == 0

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_error_exit_3(self, p4_file, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error()

        monkeypatch.setattr("pauvc.cli.solve", fail)
        assert main(["solve", p4_file]) == 3
        assert f"error: resource limit hit ({error.__name__})" in capsys.readouterr().err

    def test_negative_limit_exit_2(self, p4_file, capsys):
        # A negative cap was taken as a cap every graph exceeds: exit 3.
        for flag in ("--vertex-limit", "--enum-limit"):
            assert main(["solve", p4_file, flag, "-1"]) == 2
            captured = capsys.readouterr()
            assert f"{flag} must not be negative" in captured.err
            assert captured.out == ""

    def test_vertex_limit_env(self, c4_file, monkeypatch):
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "2")
        assert main(["solve", c4_file]) == 3
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "100")
        assert main(["solve", c4_file]) == 0

    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5"])
    def test_malformed_vertex_limit_env_exit_2(
        self, p3_file, k3_file, monkeypatch, capsys, raw
    ):
        # It exited 3, as if a limit were hit, and a tree (P3), which takes
        # no search, never read it.  The flag, when given, overrides it.
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", raw)
        for path in (p3_file, k3_file):
            assert main(["solve", path]) == 2
            captured = capsys.readouterr()
            assert "PAUVC_VERTEX_LIMIT must be a non-negative integer" in captured.err
            assert captured.out == ""
        assert main(["solve", k3_file, "--vertex-limit", "3"]) == 0

    def test_zero_vertex_limit_is_a_cap(self, p3_file, k3_file, monkeypatch):
        assert main(["solve", k3_file, "--vertex-limit", "0"]) == 3
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "0")
        assert main(["solve", k3_file]) == 3
        assert main(["solve", p3_file]) == 0

    def test_algo_selector(self, p4_file, capsys):
        for algo in ("auto", "enum", "fpt", "tree"):
            assert main(["solve", "--algo", algo, "--model", "exclude", p4_file]) == 0
            assert "opt_size     1" in capsys.readouterr().out

    def test_tree_algo_on_a_cycle_exit_2(self, k3_file, capsys):
        assert main(["solve", "--algo", "tree", k3_file]) == 2
        captured = capsys.readouterr()
        assert "component of vertex 0 is not a tree" in captured.err
        assert captured.out == ""


class TestTimeCap:
    def test_nonpositive_cap_exit_2(self, k4_file, capsys):
        # nan passes a plain "<= 0" test and then never fires.
        for cap in ("0", "nan", "inf"):
            assert main(["solve", k4_file, "--time-cap", cap]) == 2
            assert "time cap must be positive" in capsys.readouterr().err

    def test_cap_exit_3(self, tmp_path, capsys):
        # The include-model solve of this graph has not ended after 30 s.
        g = write(tmp_path / "g.col", render_dimacs(gnp_graph(400, 0.0075, 0)))
        rc = main(["solve", g, "--model", "include", "--time-cap", "0.5"])
        assert rc == 3
        assert "time cap exceeded" in capsys.readouterr().err


class TestCheck:
    def test_feasible(self, k4_file, tmp_path, capsys):
        pre = write(
            tmp_path / "pre.json",
            json.dumps({"model": "exclude", "include": [], "exclude": [0]}),
        )
        assert main(["check", k4_file, pre]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_infeasible(self, k4_file, tmp_path, capsys):
        pre = write(
            tmp_path / "pre.json",
            json.dumps({"model": "include", "include": [0, 1], "exclude": []}),
        )
        assert main(["check", k4_file, pre]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_reason_reported(self, tmp_path, capsys):
        tri = write(tmp_path / "k3.col", "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        pre = write(
            tmp_path / "pre.json",
            json.dumps({"model": "exclude", "include": [], "exclude": [0, 1]}),
        )
        assert main(["check", "--json", tri, pre]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["feasible"] is False
        assert data["reason"] == "ExcludeNotIndependent"

    def test_negative_vertex_limit_exit_2(self, k4_file, tmp_path, capsys):
        pre = write(
            tmp_path / "pre.json",
            json.dumps({"model": "exclude", "include": [], "exclude": []}),
        )
        assert main(["check", k4_file, pre, "--vertex-limit", "-1"]) == 2
        assert "--vertex-limit must not be negative" in capsys.readouterr().err

    def test_malformed_pre_exit_2(self, k4_file, tmp_path):
        pre = write(tmp_path / "pre.json", "{not json")
        assert main(["check", k4_file, pre]) == 2
        pre = write(
            tmp_path / "pre2.json",
            json.dumps({"model": "include", "include": [99], "exclude": []}),
        )
        assert main(["check", k4_file, pre]) == 2
        # Vertices are JSON integers only.  On the path P3, [1.5] read as [1]
        # would be feasible, and "12" read as [1, 2] not independent.
        p3 = write(tmp_path / "p3.col", render_dimacs(Graph(3, [(0, 1), (1, 2)])))
        for bad in (
            {"model": "include", "include": [1.5]},
            {"model": "include", "include": [True]},
            {"model": "exclude", "exclude": "12"},
            {"model": "exclude", "exclude": ["0"]},
            {"model": "exclude", "exclude": None},
        ):
            pre = write(tmp_path / "bad.json", json.dumps(bad))
            assert main(["check", p3, pre]) == 2, bad


class TestGenerate:
    def test_from_tree_family(self, tmp_path, capsys):
        out = str(tmp_path / "inst.col")
        rc = main([
            "generate", "--family", "tree", "--n", "12", "--seed", "7",
            "--model", "exclude", "--output", out,
        ])
        assert rc == 0
        emitted = parse_dimacs(open(out).read())
        meta = json.load(open(out + ".json"))
        from pauvc import has_unique_min_vc

        unique, sol = has_unique_min_vc(emitted)
        assert unique and sol.tau == meta["expected_tau"]
        assert meta["source_seed"] == 7
        assert meta["pre_assignment"]["model"] == "exclude"

    def test_large_tree_is_not_vertex_capped(self, tmp_path, capsys):
        # The reduced forest has 706 vertices, over the default cap of 512;
        # its uniqueness check takes the linear count on every tree.
        out = str(tmp_path / "inst.col")
        rc = main([
            "generate", "--family", "tree", "--n", "1000", "--seed", "0",
            "--model", "exclude", "--output", out,
        ])
        assert rc == 0
        assert "n=706" in capsys.readouterr().out

    def test_vertex_limit_reaches_both_checks(self, tmp_path, monkeypatch):
        # --vertex-limit, not the variable, caps the reduction and the
        # uniqueness check as well as the solver
        monkeypatch.setenv("PAUVC_VERTEX_LIMIT", "20")
        graph = write(tmp_path / "g.col", render_dimacs(gnp_graph(30, 0.15, 1)))
        out = str(tmp_path / "inst.col")
        rc = main(["generate", "--input", graph, "--vertex-limit", "100",
                   "--output", out])
        assert rc == 0

    def test_time_cap_reaches_both_checks(self, tmp_path, monkeypatch):
        # One deadline, computed once, bounds the solve and both checks.
        seen = {}

        def spy(name, real):
            def call(*args, **kwargs):
                stats = kwargs.get("stats")
                seen[name] = kwargs["deadline"] if stats is None else stats.deadline
                return real(*args, **kwargs)
            return call

        for name in ("solve", "reduce_instance", "has_unique_min_vc"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        out = str(tmp_path / "inst.col")
        assert main(["generate", "--n", "12", "--time-cap", "30", "--output", out]) == 0
        assert len(seen) == 3
        assert seen["solve"] is not None
        assert seen["reduce_instance"] == seen["has_unique_min_vc"] == seen["solve"]

    def test_negative_limit_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "g.col")
        for flag in ("--vertex-limit", "--enum-limit"):
            assert main(["generate", "--n", "6", "--output", out, flag, "-1"]) == 2
            assert f"{flag} must not be negative" in capsys.readouterr().err
        assert not (tmp_path / "g.col").exists()

    def test_k4_exclude_collapses(self, k4_file, tmp_path):
        out = str(tmp_path / "inst.col")
        rc = main(["generate", "--input", k4_file, "--model", "exclude",
                   "--output", out])
        assert rc == 0
        emitted = parse_dimacs(open(out).read())
        meta = json.load(open(out + ".json"))
        assert emitted.n == 0 and meta["expected_tau"] == 0
        # --seed is unused when the graph is read from --input
        assert meta["source_seed"] is None

    def test_seed_determinism(self, tmp_path):
        a = str(tmp_path / "a.col")
        b = str(tmp_path / "b.col")
        for out in (a, b):
            assert main([
                "generate", "--family", "gnp", "--n", "10", "--p", "0.3",
                "--seed", "123", "--model", "exclude", "--output", out,
            ]) == 0
        assert open(a).read() == open(b).read()
        assert open(a + ".json").read() == open(b + ".json").read()

    def test_different_seeds_differ(self, tmp_path):
        a = str(tmp_path / "a.col")
        b = str(tmp_path / "b.col")
        for seed, out in ((1, a), (2, b)):
            assert main([
                "generate", "--family", "gnp", "--n", "12", "--p", "0.35",
                "--seed", str(seed), "--output", out,
            ]) == 0
        assert open(a).read() != open(b).read()


class TestReduce:
    def test_fcp(self, tmp_path):
        cnf = write(tmp_path / "f.cnf", "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
        out = str(tmp_path / "gc.col")
        assert main(["reduce", "fcp", cnf, "--output", out]) == 0
        g = parse_dimacs(open(out).read())
        assert g.n == 27
        meta = json.load(open(out + ".json"))
        assert set(meta) == {"r", "v", "vp", "u", "clause"}
        assert meta["r"] == 20

    def test_fcp_rejects_wide_clause(self, tmp_path):
        cnf = write(tmp_path / "f.cnf", "p cnf 4 1\n1 2 3 4 0\n")
        out = str(tmp_path / "gc.col")
        assert main(["reduce", "fcp", cnf, "--output", out]) == 2

    def test_ids(self, tmp_path):
        c4 = write(tmp_path / "c4.col", "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
        out = str(tmp_path / "gp.col")
        assert main(["reduce", "ids", c4, "--output", out]) == 0
        g = parse_dimacs(open(out).read())
        assert g.n == 8 and g.m == 8
        meta = json.load(open(out + ".json"))
        assert meta["original_n"] == 4
        assert meta["pendant"]["0"] == 4


class TestBench:
    def test_csv_over_directory(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        write(d / "k3.col", "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        write(d / "p4.col", render_dimacs(Graph(4, [(0, 1), (1, 2), (2, 3)])))
        write(d / "broken.col", "p edge 1 5\n")
        assert main(["bench", str(d), "--model", "exclude"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "instance,n,m,tau,model,algo,opt_size,nodes,elapsed_ms,agrees"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["broken.col"][-1] == "error"
        assert rows["k3.col"][6] == "1"   # opt_size of K3 exclude
        assert rows["k3.col"][-1] == "true"
        assert rows["p4.col"][3] == "2"   # tau of the 4-path
        assert rows["p4.col"][-1] == "true"

    def test_reference_solve_takes_the_enum_limit(self, tmp_path, capsys):
        # A 26-vertex star is over the default enumeration cap of 24; with
        # --enum-limit 30 the enumeration reference must run too.
        d = tmp_path / "suite"
        d.mkdir()
        write(d / "star26.col", render_dimacs(Graph(26, [(0, i) for i in range(1, 26)])))
        assert main(["bench", str(d), "--enum-limit", "30", "--model", "exclude"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.startswith("star26.col,26,25,1,exclude,auto,")
        assert row.endswith(",true")

    def test_empty_directory(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "instance,n,m,tau,model,algo,opt_size,nodes,elapsed_ms,agrees"

    def test_invalid_time_cap_exit_2(self, tmp_path, capsys):
        # Checked per instance, an invalid cap turned each row into
        # "error" and the command still exited 0.
        d = tmp_path / "suite"
        d.mkdir()
        write(d / "p4.col", render_dimacs(Graph(4, [(0, 1), (1, 2), (2, 3)])))
        for cap in ("0", "nan"):
            assert main(["bench", str(d), "--time-cap", cap]) == 2
            captured = capsys.readouterr()
            assert "time cap must be positive" in captured.err
            assert captured.out == ""

    def test_negative_limit_exit_2(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        write(d / "p4.col", render_dimacs(Graph(4, [(0, 1), (1, 2), (2, 3)])))
        for flag in ("--vertex-limit", "--enum-limit"):
            assert main(["bench", str(d), flag, "-1"]) == 2
            captured = capsys.readouterr()
            assert f"{flag} must not be negative" in captured.err
            assert captured.out == ""

    def test_metadata_json_skipped(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        write(d / "k3.col", "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        write(d / "k3.col.json", "{}")
        assert main(["bench", str(d)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
