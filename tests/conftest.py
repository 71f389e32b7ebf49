import sys

import pytest
from hypothesis import strategies as st

from mkpsim import (
    PROTOCOLS,
    DomainError,
    Instance,
    RunMetrics,
    strict_sequential_greedy,
)
from mkpsim.harness import audit_max_capacity_dispatch


@pytest.fixture
def instance_a() -> Instance:
    """The fixed reference instance: capacities [10, 7]; items
    (8,4), (6,4), (7,7), (3,6); exact optimum 21."""
    return Instance.from_pairs([(8, 4), (6, 4), (7, 7), (3, 6)], [10, 7])


@pytest.fixture
def digit_limit():
    """Restores the interpreter's digit limit after a test changes it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def small_instances(
    max_m: int = 6,
    max_n: int = 3,
    max_cost: int = 20,
    max_weight: int = 12,
    max_cap: int = 30,
):
    """Strategy for desk-scale instances (small enough for brute force)."""
    pair = st.tuples(
        st.integers(min_value=0, max_value=max_cost),
        st.integers(min_value=1, max_value=max_weight),
    )
    return st.builds(
        Instance.from_pairs,
        st.lists(pair, min_size=0, max_size=max_m),
        st.lists(st.integers(min_value=0, max_value=max_cap), min_size=1, max_size=max_n),
    )


def deliveries(trace) -> list[tuple]:
    """A trace expanded to one (phase, sender, recipient, payload) tuple per
    point-to-point delivery: a multicast record, whose ``recipient`` is a
    range, gives one tuple per id in it except its sender, in ascending
    order."""
    out = []
    for d in trace:
        if isinstance(d.recipient, range):
            recipients = [k for k in d.recipient if k != d.sender]
        else:
            recipients = [d.recipient]
        out += [(d.phase, d.sender, k, d.payload) for k in recipients]
    return out


def per_phase_of(trace) -> tuple[tuple[int, int], ...]:
    """(phase, deliveries sent in it) for every phase of a trace with
    traffic, one delivery per recipient of each record."""
    counts: dict[int, int] = {}
    for phase, *_ in deliveries(trace):
        counts[phase] = counts.get(phase, 0) + 1
    return tuple(sorted(counts.items()))


def metrics_of(trace) -> RunMetrics:
    """Recompute metrics from a trace alone: the tests' independent recount
    of what the engine reports, one message per recipient of each record.

    The phase count here is the last phase with traffic; the engine's own
    metric can be higher when the protocol ends on a deliberately silent
    phase.  Message counts always agree.
    """
    counts = per_phase_of(trace)
    return RunMetrics(sum(count for _, count in counts), counts[-1][0] if counts else 0)


def items_by_knapsack(assignment, inst) -> list[list[int]]:
    """Each knapsack's item ids in ascending order."""
    groups: list[list[int]] = [[] for _ in range(inst.n)]
    for item_id, knapsack in sorted(assignment.placement.items()):
        if knapsack is not None:
            if not 0 <= knapsack < inst.n:
                raise DomainError(f"item {item_id} assigned to unknown knapsack {knapsack}")
            groups[knapsack].append(item_id)
    return groups


def audit_trace(inst, trace, name) -> list[str]:
    """:func:`~mkpsim.harness.audit_max_capacity_dispatch` of the named
    one-item-per-round protocol's trace, given the protocol's period and the
    sequential greedy placement, as ``verify_instance`` calls it."""
    sequential = strict_sequential_greedy(inst).assignment.placement
    period = PROTOCOLS[name].period(inst)
    return audit_max_capacity_dispatch(inst, trace, period, sequential)
