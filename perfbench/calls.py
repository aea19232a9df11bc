"""What one call of each workload does, with and without spans, and its check.

The untraced functions are what the timed loop measures.  The traced ones
do the same work through the library's public functions one layer at a
time: ``solve_traced`` repeats the ``solve`` dispatcher (classify, then per
connected component the tree route or one fixed-parameter solver), so each
layer gets a span.  Observation calls (``min_vertex_cover`` and
``branch_to_matchings``) only feed layer counters; they run inside the
call's root span and are subtracted from its end-to-end time.
"""

from __future__ import annotations

from dataclasses import dataclass

from pauvc import (
    GraphKind,
    Model,
    PauResult,
    PreAssignment,
    SolveStats,
    VertexSet,
    branch_to_matchings,
    classify,
    delete,
    has_unique_min_vc,
    is_feasible,
    min_vertex_cover,
    pau_tree,
    reduce_instance,
    solve,
    solve_fpt_exclude,
    solve_fpt_include,
)

from .corpus import Instance
from .tracing import Tracer

OBSERVATIONS = ("vertex_cover.min_vertex_cover", "vertex_cover.branch")


@dataclass
class Output:
    """What a call returned, reduced to what the checks and counters need."""

    nodes: int
    uvc_calls: int
    result: PauResult | None = None
    reduced: tuple[bool, int, int] | None = None  # unique, tau, expected_tau
    feasible: bool | None = None
    reason: str | None = None
    witness: VertexSet | None = None


def _generated(result: PauResult, g, *, tr: Tracer | None = None) -> Output:
    st = SolveStats()
    if tr is None:
        reduced, expected_tau, _ = reduce_instance(g, result.pre, stats=st)
        unique, solution = has_unique_min_vc(reduced, stats=st)
    else:
        reduced, expected_tau, _ = tr.call(
            "uniqueness.reduce_instance", reduce_instance, g, result.pre, stats=st
        )
        unique, solution = tr.call(
            "uniqueness.has_unique_min_vc", has_unique_min_vc, reduced, stats=st
        )
    return Output(
        result.stats.nodes_explored + st.nodes_explored,
        result.stats.uvc_calls + st.uvc_calls,
        result=result,
        reduced=(unique, solution.tau, expected_tau),
    )


def _checked(report, st: SolveStats) -> Output:
    return Output(
        st.nodes_explored,
        st.uvc_calls,
        feasible=report.feasible,
        reason=None if report.reason is None else report.reason.value,
        witness=report.witness,
    )


# --- untraced -------------------------------------------------------------


def gnp_generate(inst: Instance) -> Output:
    """What ``pauvc generate`` does after sampling: solve, reduce, verify."""
    return _generated(solve(inst.graph, inst.model), inst.graph)


def tree_solve(inst: Instance) -> Output:
    result = solve(inst.graph, inst.model)
    return Output(result.stats.nodes_explored, result.stats.uvc_calls, result=result)


def dense_check(inst: Instance) -> Output:
    st = SolveStats()
    return _checked(is_feasible(inst.graph, inst.pre, stats=st), st)


UNTRACED = {
    "gnp_generate": gnp_generate,
    "tree_solve": tree_solve,
    "dense_check": dense_check,
}


# --- traced ---------------------------------------------------------------


def candidate_spaces(leaves) -> tuple[int, int]:
    """Sizes of the include and exclude candidate spaces of branching leaves.

    Include: the sum over leaves of 2^(pairs + |forced|); exclude: the sum
    of 2^|forced|.  The corpus bands and ``vertex_cover.log2_candidates``
    both use this.
    """
    include = sum(1 << (len(leaf.matching) + len(leaf.forced)) for leaf in leaves)
    exclude = sum(1 << len(leaf.forced) for leaf in leaves)
    return include, exclude


def _observe_branching(tr: Tracer, g) -> None:
    st = SolveStats()
    leaves = tr.call("vertex_cover.branch", branch_to_matchings, g, stats=st)
    tr.add("vertex_cover.branch_nodes", st.nodes_explored)
    tr.add("vertex_cover.leaves", len(leaves))
    tr.add("vertex_cover.candidates", candidate_spaces(leaves)[0])
    for leaf in leaves:
        tr.maximum("vertex_cover.max_forced", len(leaf.forced))
        tr.maximum("vertex_cover.max_pairs", len(leaf.matching))


def _observe_cover(tr: Tracer, g) -> None:
    st = SolveStats()
    tr.call("vertex_cover.min_vertex_cover", min_vertex_cover, g, stats=st)
    tr.add("vertex_cover.min_vertex_cover_nodes", st.nodes_explored)


def _connected_traced(tr: Tracer, g, model: Model, is_tree: bool) -> PauResult:
    if is_tree:
        st = SolveStats()
        answer = tr.call("tree.pau_tree", pau_tree, g, model, stats=st)
        tr.add("tree.nodes", st.nodes_explored)
        report = tr.call("tree.verify", is_feasible, g, answer.witness, stats=st)
        if not report.feasible:
            raise AssertionError("tree solver produced an infeasible witness")
        return PauResult(model, answer.opt, answer.witness, report.witness, st)
    _observe_branching(tr, g)
    if model is Model.INCLUDE:
        result = tr.call("solvers.fpt_include", solve_fpt_include, g)
    else:
        result = tr.call("solvers.fpt_exclude", solve_fpt_exclude, g)
    tr.add("solvers.nodes", result.stats.nodes_explored)
    tr.add("solvers.probes", result.stats.uvc_calls)
    tr.add("solvers.feasible_probes", 1)
    return result


def solve_traced(tr: Tracer, g, model: str) -> PauResult:
    """``solve(g, model)`` with algo "auto", one public call at a time."""
    model = Model(model)
    if model is Model.MIXED:
        raise ValueError("the corpus has no mixed-model calls")
    parts = tr.call("graph.classify", classify, g)
    if len(parts.components) == 1:
        return _connected_traced(tr, g, model, parts.kind is GraphKind.TREE)
    stats = SolveStats()
    inc_mask = exc_mask = cover_mask = 0
    opt = 0
    for comp in parts.components:
        sub, old_to_new = tr.call("graph.delete", delete, g, comp.complement())
        new_to_old = {i: v for v, i in old_to_new.items()}
        sub_kind = tr.call("graph.classify", classify, sub).kind
        r = _connected_traced(tr, sub, model, sub_kind is GraphKind.TREE)
        opt += r.opt_size
        for v in r.pre.include:
            inc_mask |= 1 << new_to_old[v]
        for v in r.pre.exclude:
            exc_mask |= 1 << new_to_old[v]
        for v in r.unique_cover:
            cover_mask |= 1 << new_to_old[v]
        stats.merge(r.stats)
    pre = PreAssignment(
        model,
        VertexSet.from_mask(g.n, inc_mask),
        VertexSet.from_mask(g.n, exc_mask),
    )
    return PauResult(model, opt, pre, VertexSet.from_mask(g.n, cover_mask), stats)


def gnp_generate_traced(tr: Tracer, inst: Instance) -> Output:
    return _generated(solve_traced(tr, inst.graph, inst.model), inst.graph, tr=tr)


def tree_solve_traced(tr: Tracer, inst: Instance) -> Output:
    result = solve_traced(tr, inst.graph, inst.model)
    return Output(result.stats.nodes_explored, result.stats.uvc_calls, result=result)


def dense_check_traced(tr: Tracer, inst: Instance) -> Output:
    st = SolveStats()
    report = tr.call("uniqueness.is_feasible", is_feasible, inst.graph, inst.pre, stats=st)
    tr.add("uniqueness.is_feasible_nodes", st.nodes_explored)
    tr.add("uniqueness.reason." + (report.reason.value if report.reason else "feasible"), 1)
    return _checked(report, st)


TRACED = {
    "gnp_generate": gnp_generate_traced,
    "tree_solve": tree_solve_traced,
    "dense_check": dense_check_traced,
}


def call_traced(tr: Tracer, workload: str, inst: Instance) -> tuple[Output, float]:
    """Run one traced call; returns its output and end-to-end seconds."""
    with tr.span("call", inst.ident) as root:
        _observe_cover(tr, inst.graph)
        out = TRACED[workload](tr, inst)
    observed = sum(
        sp.seconds
        for sp in tr.spans[root.ident + 1 :]
        if sp.parent == root.ident and sp.name in OBSERVATIONS
    )
    return out, root.seconds - observed


# --- output checks --------------------------------------------------------


def check(inst: Instance, out: Output) -> list[str]:
    """Problems with one call's output; empty when it is correct."""
    g = inst.graph
    if inst.pre is not None:
        problems = []
        want = (inst.ref["feasible"], inst.ref["reason"])
        if (out.feasible, out.reason) != want:
            problems.append(f"verdict {(out.feasible, out.reason)}, reference {want}")
        # The pre-assignment was drawn to agree with this minimum cover, so
        # when it is feasible that cover is the unique one.
        if out.feasible and out.witness != inst.cover:
            problems.append("witness is not the cover the pre-assignment came from")
        return problems
    result = out.result
    problems = []
    want = inst.ref["opt"][inst.model]
    if result.opt_size != want or result.pre.size() != want:
        problems.append(f"opt_size {result.opt_size}, reference {want}")
    if len(result.unique_cover) != inst.ref["tau"]:
        problems.append(f"cover size {len(result.unique_cover)}, tau {inst.ref['tau']}")
    report = is_feasible(g, result.pre)
    if not report.feasible or report.witness != result.unique_cover:
        problems.append("pre-assignment does not pin down unique_cover")
    if out.reduced is not None:
        unique, tau, expected_tau = out.reduced
        if not unique or tau != expected_tau:
            problems.append(
                f"reduced graph: unique={unique} tau={tau} expected_tau={expected_tau}"
            )
    return problems
