"""Ground-truth solvers and bound checkers.

:func:`exact_optimum` certifies every optimum with one solver, a
branch-and-bound search.  It returns a provably maximum-profit assignment,
or an explicit "unavailable" (``None``) rather than a possibly-wrong answer
when, and only when, its node budget runs out.  A pruned exhaustive
enumeration, :func:`brute_force_optimum`, is kept as the tests' independent
reference: the simplest thing that is obviously correct, at tiny sizes.

Also here: centralized, message-free restatements of the two greedy dispatch
semantics (strict one-item-at-a-time and batch rounds), used as independent
cross-checks of the protocol simulations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import Assignment, Instance, objective

BRUTE_FORCE_GUARD = 10**8  # hard cap on (n+1)**m for exhaustive enumeration
DEFAULT_NODE_BUDGET = 5_000_000
CELLS_PER_NODE = 16  # one search node costs about as much as 16 table cells
TABLE_CELL_CAP = 2_000_000  # no suffix table past this many cells
MEMO_STATE_CAP = 500_000  # the memo records no new state past this many


@dataclass(frozen=True)
class OptimalSolution:
    """A maximum-profit feasible assignment plus search effort."""

    assignment: Assignment
    opt: int
    explored: int


@dataclass(frozen=True)
class GreedySolution:
    assignment: Assignment
    profit: int


def brute_force_optimum(inst: Instance) -> OptimalSolution:
    """Exhaustive search over all (n+1)^m placements, with capacity pruning.

    Items are considered in id order; choices are 'unassigned' first, then
    knapsacks 0..n-1, so the first optimum found (kept on ties) is
    deterministic.  Refuses instances whose worst-case tree exceeds
    :data:`BRUTE_FORCE_GUARD`.
    """
    m, n = inst.m, inst.n
    if m * math.log2(n + 1) > math.log2(BRUTE_FORCE_GUARD):
        raise ValueError(
            f"instance too large for exhaustive enumeration: (n+1)^m > {BRUTE_FORCE_GUARD}"
        )

    remaining = list(inst.capacities)
    choice: list[int | None] = [None] * m
    best_profit = -1
    best_choice: list[int | None] = list(choice)
    explored = 0

    def dfs(idx: int, profit: int) -> None:
        nonlocal best_profit, best_choice, explored
        explored += 1
        if idx == m:
            if profit > best_profit:
                best_profit = profit
                best_choice = list(choice)
            return
        item = inst.items[idx]
        choice[idx] = None
        dfs(idx + 1, profit)
        for j in range(n):
            if remaining[j] >= item.weight:
                remaining[j] -= item.weight
                choice[idx] = j
                dfs(idx + 1, profit + item.cost)
                choice[idx] = None
                remaining[j] += item.weight

    dfs(0, 0)
    return OptimalSolution(_build_assignment(inst, best_choice), best_profit, explored)


def _build_assignment(inst: Instance, choice: list[int | None]) -> Assignment:
    assignment = Assignment.empty(inst)
    for item_id, j in enumerate(choice):
        if j is not None:
            assignment.assign(inst, item_id, j)
    return assignment


def _suffix_table(weights: list[int], costs: list[int], capacity: int) -> list[list[int]]:
    """``best[k][c]``: the best profit of a subset of positions ``k..m-1``
    that weighs at most ``c``, for every ``c`` up to ``capacity``.

    Row ``m`` is all zeros; each row is built from the one below it, by
    slices and one comprehension, and a row whose item fits in no capacity
    is the row below it, shared.
    """
    row = [0] * (capacity + 1)
    table = [row]
    for w, p in zip(reversed(weights), reversed(costs)):
        if w <= capacity:
            row = row[:w] + [a if a >= b + p else b + p for a, b in zip(row[w:], row)]
        table.append(row)
    table.reverse()
    return table


def _subset_sums(weights: list[int], capacity: int) -> list[int]:
    """``reach[k]``: a bitmask whose bit ``c`` is set when some subset of
    positions ``k..m-1`` weighs exactly ``c``, for every ``c`` up to
    ``capacity``; bit 0, the empty subset, is always set."""
    mask = (2 << capacity) - 1
    sums = 1
    reach = [sums]
    for w in reversed(weights):
        sums = (sums | sums << w) & mask
        reach.append(sums)
    reach.reverse()
    return reach


def _branch_and_bound(inst: Instance, node_budget: int) -> OptimalSolution | None:
    """Depth-first branch and bound over items in density order.

    Three upper bounds on the profit of the remaining items, each holding
    for every placement below a node, since every MKP placement is also a
    placement into one pooled knapsack:

    - The fractional relaxation (the Dantzig bound) over the pooled
      remaining capacity, compared in exact integer arithmetic.  Each node
      carries its pooled capacity, and prefix sums of weight and cost over
      the density order give the bound in O(log m): one ``bisect_right``
      over the weight prefix finds the critical item, the first that no
      longer fits whole, and one integer comparison settles it.
    - The exact 0-1 knapsack over the pooled capacity (the surrogate bound
      of Martello and Toth), an O(1) lookup in :func:`_suffix_table`.  It
      never exceeds the floor of the Dantzig bound.  The table has
      ``(m + 1) * (C + 1)`` cells for the total capacity ``C``, and a cell
      costs about a sixteenth of a node (:data:`CELLS_PER_NODE`), so it is
      built only once the search has spent as much: at node
      ``cells // CELLS_PER_NODE + 1``, and never past
      :data:`TABLE_CELL_CAP` cells.  From then on it replaces the Dantzig
      test; a short search never builds it.
    - The subset-sum fill bound, ``best[idx][fill]``, tried only at a node
      the pooled table does not prune.  Knapsack ``j`` holds a subset of
      the remaining items weighing at most its remaining capacity ``r_j``,
      so at most ``fill_j``, the largest subset sum of those items that is
      no more than ``r_j``.  Every placement below the node weighs at most
      ``fill``, the sum of the ``fill_j``, and fits the pooled knapsack of
      that size.  The sums come from :func:`_subset_sums`, one bitmask per
      depth, built with the table and only then: the bound needs the table
      for its lookup, and a search short enough to never build the table
      pays for neither.  ``fill`` is at most the pooled capacity, so the
      bound is never looser than the table's, and it is tighter whenever
      some knapsack cannot be filled exactly.

    Two dominance rules keep symmetric instances tractable: knapsacks with
    equal remaining capacity are interchangeable for every future decision,
    so only one representative per distinct capacity is branched on; and a
    state (depth, remaining-capacity multiset) already expanded at no smaller
    profit cannot be improved by revisiting.  The bounds are tested first,
    and the memo records only the states that pass them.  Until the memo is
    full (below), that visits the same nodes as recording every state
    before the bound tests would: every bound depends on the node's profit
    and state alone, for a fixed state it grows with profit, it only
    tightens when the table arrives, and the incumbent never falls, so a
    node whose state was last reached by a bound-pruned node at no smaller
    profit fails the bounds itself.  The memo records no new state once it
    holds :data:`MEMO_STATE_CAP` of them, which bounds a search's memory
    whatever its node budget; it still raises the profit of a state it
    holds.  A state it does not record is only pruned less often, so the
    cap can add nodes but never change the optimum or the placement
    returned.

    The bounds and the memo change how many nodes are visited, not which
    optimum is returned.  The first optimal leaf in the unpruned visit order
    is always reached: a sound bound on a node above it is at least OPT,
    which the incumbent has not reached yet, and a memo hit on such a node
    would put an optimal leaf in an earlier subtree.  Only a strictly better
    leaf replaces the incumbent, so that leaf is the one returned.

    The search runs on an explicit stack, one child generator per open node,
    so its depth is bounded by memory alone.  Returns ``None`` only when the
    node budget runs out.
    """
    order = inst.density_order
    m = inst.m
    weights = [inst.items[i].weight for i in order]  # per density position
    costs = [inst.items[i].cost for i in order]
    wsum = [0, *accumulate(weights)]  # wsum[k]: weight of the first k items
    csum = [0, *accumulate(costs)]
    remaining = list(inst.capacities)
    capacity = sum(remaining)
    cells = (m + 1) * (capacity + 1)
    build_at = cells // CELLS_PER_NODE + 1 if cells <= TABLE_CELL_CAP else -1
    best = reach = None  # the suffix table and subset sums, once built
    placement: list[int | None] = [None] * m  # per density position
    best_profit = -1
    best_placement: list[int | None] = list(placement)
    # per depth; dict(), not {}, so that a test can count the entries
    seen: list[dict[tuple[int, ...], int]] = [dict() for _ in range(m)]
    stored = 0  # states in the memo
    explored = 0

    def children(idx: int, profit: int, pool: int, state: tuple[int, ...]):
        # Place item idx in one knapsack per distinct remaining capacity,
        # largest first (ties: smallest index), then leave it out.  ``state``
        # is the node's capacities in ascending order, so it is read from
        # the end; each placement is undone when the generator resumes after
        # its subtree, so ``remaining`` is the node's own whenever a
        # capacity's smallest index is looked up in it.
        weight, cost = weights[idx], costs[idx]
        last_cap = None
        for cap in reversed(state):
            if cap < weight:
                break  # capacities only fall from here on
            if cap == last_cap:
                continue
            last_cap = cap
            j = remaining.index(cap)
            remaining[j] -= weight
            placement[idx] = j
            yield idx + 1, profit + cost, pool - weight
            placement[idx] = None
            remaining[j] += weight
        yield idx + 1, profit, pool

    stack = [iter([(0, 0, capacity)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        explored += 1
        if explored > node_budget:
            return None
        if explored == build_at:
            best = _suffix_table(weights, costs, capacity)
            reach = _subset_sums(weights, capacity)
        idx, profit, pool = node
        if idx == m:
            if profit > best_profit:
                best_profit = profit
                best_placement = list(placement)
            continue
        if best is not None:
            if profit + best[idx][pool] <= best_profit:
                continue
            sums = reach[idx]
            fill = sum((sums & ((2 << cap) - 1)).bit_length() - 1 for cap in remaining)
            if profit + best[idx][fill] <= best_profit:
                continue
        else:
            # items idx..k-1 fit whole in the pool; item k, if any, is critical
            k = bisect_right(wsum, wsum[idx] + pool, idx + 1) - 1
            bound = profit + csum[k] - csum[idx]
            if k == m:
                if bound <= best_profit:
                    continue
            else:
                weight = weights[k]
                left = pool - (wsum[k] - wsum[idx])
                if bound * weight + left * costs[k] <= best_profit * weight:
                    continue
        state = tuple(sorted(remaining))
        memo = seen[idx]
        known = memo.get(state, -1)  # -1: not in the memo
        if profit <= known:
            continue
        if known >= 0 or stored < MEMO_STATE_CAP:
            stored += known < 0
            memo[state] = profit
        stack.append(children(idx, profit, pool, state))

    by_item: list[int | None] = [None] * m
    for pos, j in enumerate(best_placement):
        by_item[order[pos]] = j
    return OptimalSolution(_build_assignment(inst, by_item), best_profit, explored)


def exact_optimum(
    inst: Instance, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> OptimalSolution | None:
    """The exact optimum from :func:`_branch_and_bound` on every instance,
    however small, or ``None`` when its node budget runs out first."""
    return _branch_and_bound(inst, node_budget)


def strict_sequential_greedy(inst: Instance) -> GreedySolution:
    """Items in density order, each to the largest-remaining knapsack that
    fits (ties: smallest index), or discarded.  Matches the pre-reassignment
    output of the one-item-per-round protocols."""
    assignment = Assignment.empty(inst)
    for item_id in inst.density_order:
        item = inst.items[item_id]
        best_j = None
        for j in range(inst.n):
            if assignment.remaining[j] >= item.weight and (
                best_j is None or assignment.remaining[j] > assignment.remaining[best_j]
            ):
                best_j = j
        if best_j is not None:
            assignment.assign(inst, item_id, best_j)
    return GreedySolution(assignment, objective(assignment, inst))


def batch_round_greedy(inst: Instance) -> GreedySolution:
    """Message-free recomputation of the batch-round dispatch.

    Each round ranks the knapsacks by remaining capacity at round start
    (ties: ascending index) and matches the next n items positionally; the
    cursor advances past every considered item, fit or not.
    """
    assignment = Assignment.empty(inst)
    order = inst.density_order
    cursor = 0
    while cursor < inst.m:
        ranked = sorted(range(inst.n), key=lambda j: (-assignment.remaining[j], j))
        reported = [assignment.remaining[j] for j in ranked]  # round-start values
        for pos, j in enumerate(ranked):
            if cursor >= inst.m:
                break
            item = inst.items[order[cursor]]
            if item.weight <= reported[pos]:
                assignment.assign(inst, item.id, j)
            cursor += 1
    return GreedySolution(assignment, objective(assignment, inst))


def bound_holds(profit: int, opt: OptimalSolution, n: int) -> bool:
    """Exact integer check of profit >= OPT / (n+1)."""
    return profit * (n + 1) >= opt.opt


def approx_ratio(profit: int, opt: OptimalSolution) -> Fraction:
    """profit / OPT as an exact rational; defined as 1 when OPT is 0."""
    if opt.opt == 0:
        return Fraction(1)
    return Fraction(profit, opt.opt)
