"""Resource caps shared by the exponential-time routines.

Every solver that can blow up exponentially refuses graphs above a vertex
limit.  The general default is 512 and can be overridden with the
``PAUVC_VERTEX_LIMIT`` environment variable; the subset-enumeration oracle
and the brute-force helpers carry much smaller defaults of their own.
"""

from __future__ import annotations

import os

from .errors import LimitExceeded

ENV_VERTEX_LIMIT = "PAUVC_VERTEX_LIMIT"

DEFAULT_VERTEX_LIMIT = 512
DEFAULT_ENUM_VERTEX_LIMIT = 24
DEFAULT_RESULT_LIMIT = 1 << 20
DEFAULT_BRUTE_LIMIT = 24


def general_vertex_limit(limit: int | None = None) -> int:
    """The vertex cap for exponential solvers: limit, else the env override, else 512.

    As with ``--vertex-limit``, 0 is a cap, and a negative limit or an
    override that is not a non-negative integer raises ValueError.  Public
    calls that cap components one by one resolve it on entry, so a malformed
    cap is refused before any work, whatever the graph.
    """
    if limit is not None:
        if limit < 0:
            raise ValueError(f"vertex limit must not be negative: {limit}")
        return limit
    raw = os.environ.get(ENV_VERTEX_LIMIT)
    if raw is None:
        return DEFAULT_VERTEX_LIMIT
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{ENV_VERTEX_LIMIT} must be a non-negative integer: {raw!r}")
    return value


def check_vertex_limit(n: int, limit: int | None) -> None:
    """Raise LimitExceeded when a graph with n vertices is over the cap."""
    cap = general_vertex_limit(limit)
    if n > cap:
        raise LimitExceeded(f"graph has {n} vertices, limit is {cap}")
