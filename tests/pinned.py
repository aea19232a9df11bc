"""One searched component's verdict on a pin set, for tests that compare routes.

Composes the library's pin-conflict check, its count of the consistent
minimum covers and the reason each count maps to, all in the component's
labels: the verdict the search gives a component that is not a tree.
"""

from pauvc.uniqueness import _REASON_BY_COUNT, _pin_conflict
from pauvc.vertex_cover import _consistent


def check_pre_assignment(comp, inc, exc, stats):
    """(feasible, the unique cover or None, reason) of label masks on comp."""
    conflict = _pin_conflict(comp.adj, inc, exc)
    if conflict is not None:
        return False, None, conflict
    count, cover = _consistent(comp, inc, exc, stats)
    return count == 1, cover if count == 1 else None, _REASON_BY_COUNT[count]
