"""The four greedy dispatch protocols, written as simnet node programs.

All four share the same skeleton: the source holds every item, sorted by
decreasing cost/weight (ties by ascending item id), and items are handed to
knapsacks greedily, preferring the largest remaining capacity with ties going
to the smallest processor id.  ``dist`` and ``tree`` fold (id, capacity)
pairs by that rule: a pair with a capacity replaces the running best when
there is none, or when its capacity is larger, or equal with a smaller id.

``simple``   batch rounds.  Each round every processor reports its remaining
             capacity; the source ranks the reports (capacity descending, id
             ascending) and matches the next n items positionally against
             that ranking, sending each matched item iff it fits the
             *reported* capacity and an explicit bottom otherwise.  The item
             cursor advances past every considered item, matched or not, so
             an item rejected by its matched knapsack is gone for good even
             if another knapsack could have taken it.

``modified`` the batch rounds above followed by the reassignment pass
             (:func:`final_reassign`), computed at the source and pushed with
             one directive per knapsack that changed, naming the one item
             that replaces its contents.

``dist``     one item per round.  The source broadcasts the item's weight;
             every processor broadcasts (id, capacity-or-bottom) to every
             other processor; all of them compute the same argmax, and the
             unique winner reports to the source and deducts.  If nobody is
             eligible the winner phase stays silent and the source moves on.
             Then the reassignment pass.

``tree``     same greedy rule, but the argmax is computed by bottom-up
             aggregation over the binary tree (root p_1, children 2j/2j+1):
             each node merges its own eligible capacity with its children's
             pairs and forwards the best to its parent; the root reports the
             winner (or bottom) to the source, which then awards the item to
             the winner.  Then the reassignment pass.

Each protocol's round count, phases per round, halting phase and exact
message total are stated once, in its :class:`Protocol` record in
:data:`PROTOCOLS`; :func:`run_algorithm` builds and runs any of them from
that record.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

from .core import Assignment, DomainError, Instance, check_feasible, objective
from .simnet import (
    PEERS,
    SOURCE,
    Bottom,
    CapacityReport,
    ConsensusPair,
    Delivery,
    FinalDirective,
    ItemOffer,
    Node,
    RunMetrics,
    Send,
    SimulationFault,
    SourceNode,
    Trace,
    WeightOffer,
    Winner,
    run_protocol,
    tree_links,
)

__all__ = [
    "ALGORITHMS",
    "PROTOCOLS",
    "Protocol",
    "RunResult",
    "final_reassign",
    "run_algorithm",
]


def final_reassign(
    assignment: Assignment, inst: Instance
) -> tuple[Assignment, tuple[int, ...]]:
    """One reassignment pass over the knapsacks, in ascending index order.

    Each knapsack keeps its current contents unless the most profitable pool
    item that fits its *full* capacity (ties: smallest id) is strictly more
    profitable than everything it holds, in which case the contents are
    swapped for that single item.  The pool starts as the items the
    assignment leaves unassigned; evicted items rejoin it and stay
    available to later knapsacks.

    Returns a new assignment, leaving the given one unchanged, and the tuple
    of changed knapsack indices.
    The total profit never decreases: a swap happens only when the incoming
    item outweighs everything the knapsack held, and no other knapsack is
    touched by it.

    Cost, for m items and a pool of p: one pass over the placement in id
    order (O(m) when it is already in id order) that groups the knapsacks'
    contents and collects the pool, and one sort of the pool by (-cost, id)
    (O(p log p)).  Each knapsack then scans that order up to the first item
    that fits it, which is the head of the order unless the most profitable
    items are too heavy (O(p) at worst).  A swap empties its knapsack in
    place and bisects the evicted items back into the order.
    """
    result = assignment.copy()
    items, n = inst.items, inst.n
    placement, remaining = result.placement, result.remaining
    contents: list[list[int]] = [[] for _ in range(n)]
    pool = []  # as (-cost, id, weight): sorted, most profitable first, ties by id
    for i in sorted(placement):
        knapsack = placement[i]
        if knapsack is None:
            item = inst.item(i)
            pool.append((-item.cost, i, item.weight))
        elif 0 <= knapsack < n:
            contents[knapsack].append(i)
        else:
            raise DomainError(f"item {i} assigned to unknown knapsack {knapsack}")
    pool.sort()
    changed = []
    for j, capacity in enumerate(inst.capacities):
        for pos, (neg_cost, best, weight) in enumerate(pool):
            if weight <= capacity:
                break
        else:
            continue  # nothing in the pool fits this knapsack
        held = contents[j]
        if -neg_cost > sum(items[i].cost for i in held):
            del pool[pos]
            for i in held:  # knapsack j is emptied into the pool
                item = items[i]
                placement[i] = None
                remaining[j] += item.weight
                insort(pool, (-item.cost, i, item.weight))
            result.assign(inst, best, j)
            changed.append(j)
    return result, tuple(changed)


# ---------------------------------------------------------------------------
# Shared processor bookkeeping
# ---------------------------------------------------------------------------

# Payloads are immutable, so a program may send one object for every equal
# payload it sends; the bottom is one shared constant.
_BOTTOM = Bottom()


class ProcessorNode(Node):
    def __init__(self, inst: Instance, j: int):
        self.j = j
        self.capacity = inst.capacities[j - 1]
        self.remaining = self.capacity

    def _take(self, weight: int) -> None:
        if weight > self.remaining:
            raise SimulationFault(
                f"p{self.j} received an item of weight {weight} with only "
                f"{self.remaining} remaining"
            )
        self.remaining -= weight

    def _apply_directive(self, directive: FinalDirective) -> None:
        if directive.weight > self.capacity:
            raise SimulationFault(f"p{self.j} got an overfull reassignment directive")
        self.remaining = self.capacity - directive.weight


class GreedySource(SourceNode):
    """Common source-side state: the items in the instance's
    :attr:`~mkpsim.core.Instance.density_order`, the protocol's ``period``,
    whether it ``reassigns``, and the running record."""

    def __init__(self, inst: Instance, protocol: Protocol):
        self.inst = inst
        self.period = protocol.period(inst)
        self.reassigns = protocol.reassigns
        self.order = [inst.items[i] for i in inst.density_order]
        self.assignment = Assignment.empty(inst)
        self.pre_final_assignment: Assignment | None = None
        self.changed: tuple[int, ...] = ()
        self.rounds_done = 0  # the rounds dispatched so far

    def recorded_assignment(self) -> Assignment:
        return self.assignment

    def _open_round(self) -> list[Send]:
        """Offer the next item's weight to every processor; after round m, finish."""
        if self.rounds_done == self.inst.m:
            return self._finish()
        item = self.order[self.rounds_done]
        self.rounds_done += 1
        return [(PEERS, WeightOffer(item.weight))]

    def _finish(self) -> list[Send]:
        """Run the reassignment pass (if any) and halt; returns one directive
        per changed knapsack, naming the single item the pass put in it."""
        self.halted = True
        # final_reassign returns a new assignment, so the dispatch record
        # itself is the pre-final snapshot
        self.pre_final_assignment = self.assignment
        if not self.reassigns:
            return []
        self.assignment, self.changed = final_reassign(self.assignment, self.inst)
        changed, items = set(self.changed), self.inst.items
        directives = {
            k: FinalDirective(i, items[i].weight)
            for i, k in self.assignment.placement.items()
            if k in changed
        }
        return [(j + 1, directives[j]) for j in self.changed]


# ---------------------------------------------------------------------------
# Batch rounds (simple / modified)
# ---------------------------------------------------------------------------
#
# Phase layout of round r = 0, 1, ...:
#   2r+1  every processor reports its remaining capacity
#   2r+2  the source ranks the reports and dispatches item-or-bottom to each
# Without a reassignment pass the source halts with the last dispatch; with
# one it spends one more phase on the pass and its directives.

class BatchProcessor(ProcessorNode):
    """Reports capacity once per round; the round budget is fixed up front
    so the protocol ends without any extra signalling."""

    def __init__(self, inst: Instance, j: int, protocol: Protocol):
        super().__init__(inst, j)
        self.rounds_total = protocol.rounds(inst)
        self.rounds_sent = 0

    def step(self, inbox: list[Delivery]) -> list[Send]:
        got_dispatch = False
        # payload classes are final, so the exact type decides
        for msg in inbox:
            payload = msg.payload
            if msg.sender != SOURCE:
                raise SimulationFault(f"p{self.j} expected traffic from S only")
            kind = type(payload)
            if kind is ItemOffer:
                self._take(payload.weight)
                got_dispatch = True
            elif kind is Bottom:
                got_dispatch = True
            elif kind is FinalDirective:
                self._apply_directive(payload)
            else:
                raise SimulationFault(f"p{self.j}: unexpected payload {payload!r}")
        # the first report goes out in phase 1, each later one answers a dispatch
        if (self.rounds_sent == 0 or got_dispatch) and self.rounds_sent < self.rounds_total:
            self.rounds_sent += 1
            return [(SOURCE, CapacityReport(self.remaining))]
        return []


class BatchSource(GreedySource):
    def __init__(self, inst: Instance, protocol: Protocol):
        super().__init__(inst, protocol)
        self.rounds_total = protocol.rounds(inst)

    def step(self, inbox: list[Delivery]) -> list[Send]:
        reports: dict[int, int] = {}
        for msg in inbox:
            payload = msg.payload
            if type(payload) is not CapacityReport:
                raise SimulationFault(f"S: unexpected payload {payload!r}")
            reports[msg.sender] = payload.capacity

        if self.rounds_done < self.rounds_total:
            if not reports:
                return []  # odd phase: reports are still in flight
            inst = self.inst
            if len(reports) != inst.n:
                raise SimulationFault("S expected a capacity report from every processor")
            # items go out in rank order, the sends in processor-id order:
            # the ranking holds each id once, so it fills every slot
            out: list[Send] = [None] * len(reports)
            # each earlier round considered n items, so round r starts at r * n
            order, cursor, m = self.order, self.rounds_done * inst.n, inst.m
            assign = self.assignment.assign
            # capacity descending, ties by ascending id: the reports arrive in
            # sender order, and a reverse sort is stable
            for j in sorted(reports, key=reports.__getitem__, reverse=True):
                if cursor < m:
                    item = order[cursor]
                    cursor += 1
                    if item.weight <= reports[j]:
                        out[j - 1] = (j, ItemOffer(item.cost, item.weight))
                        assign(inst, item.id, j - 1)
                        continue
                out[j - 1] = (j, _BOTTOM)
            self.rounds_done += 1
            if self.rounds_done == self.rounds_total and not self.reassigns:
                out += self._finish()  # no reassignment pass: halt right away
            return out

        # all rounds dispatched (or there were none): wrap up
        return self._finish()


# ---------------------------------------------------------------------------
# Full-broadcast consensus (dist)
# ---------------------------------------------------------------------------
#
# Phase layout of round r, which dispatches the r-th item:
#   3r+1  source broadcasts the item weight (and books the previous winner)
#   3r+2  processors broadcast (id, capacity or bottom) to each other
#   3r+3  everyone computes the same argmax; the winner reports and deducts
# One more phase books the last winner, runs the reassignment pass and halts.
# A round whose item fits nowhere simply leaves phase 3r+3 silent.  The
# source books a winner only in phase 3r+4, the next round's first, except
# at n = 1: the lone processor has no pairs to wait for and reports in phase
# 3r+2, so its report lands in 3r+3.
#
# Each processor sends its pair as one PEERS record, which the engine hands
# to the n - 1 others, so a round costs n + 1 records (the offer and n
# pairs) and a winner report if the item is placed.  The n - 1 pairs of
# phase 3r+3 are nearly all of the mail.  A processor reads an inbox in one
# pass: S's records, which come first, then the peers' pairs, each folded
# into the running best, and its own pair last, as a tree node does.  The
# running best capacity starts at minus infinity, which every int exceeds
# (floats compare exactly with ints of any size), so a peer's pair costs one
# comparison, ``>=``, unless it ties or beats the best; only then are the
# ids compared.  Like a tree node, it sends one object for every equal pair:
# its eligible pair is rebuilt only after a win or a directive has changed
# its capacity, and its ineligible pair is built once.

# below every capacity: the running best capacity before any pair carried one
_NO_CAPACITY = float("-inf")


class BroadcastProcessor(ProcessorNode):
    def __init__(self, inst: Instance, j: int, protocol: Protocol):
        super().__init__(inst, j)
        self.n = inst.n
        self.current_weight: int | None = None
        self.my_report: ConsensusPair | None = None  # this round's pair, until it is decided
        self.own_pair = ConsensusPair(j, self.remaining)
        self.no_pair = ConsensusPair(j, None)

    def step(self, inbox: list[Delivery]) -> list[Send]:
        # an inbox is in sender order, so S's records come first
        offers = start = 0
        for msg in inbox:
            if msg.sender != SOURCE:
                break
            start += 1
            payload = msg.payload
            # payload classes are final, so the exact type decides
            kind = type(payload)
            if kind is WeightOffer:
                offers += 1
                weight = payload.weight
            elif kind is FinalDirective:
                self._apply_directive(payload)
            elif kind is ConsensusPair:
                raise SimulationFault(f"p{self.j}: capacity pair from the source")
            else:
                raise SimulationFault(f"p{self.j}: unexpected payload {payload!r}")

        # every later record must be a peer's pair, folded in by the module's rule
        best = None
        best_capacity = _NO_CAPACITY  # best's capacity, once there is a best
        for msg in inbox[start:] if start else inbox:
            pair = msg.payload
            if type(pair) is not ConsensusPair:
                if type(pair) is WeightOffer:
                    raise SimulationFault(f"p{self.j}: weight offer from non-source")
                if type(pair) is FinalDirective:
                    raise SimulationFault(f"p{self.j}: directive from non-source")
                raise SimulationFault(f"p{self.j}: unexpected payload {pair!r}")
            capacity = pair.capacity
            # a tie implies a best: no int equals minus infinity
            if capacity is not None and capacity >= best_capacity:
                if capacity > best_capacity or pair.best < best.best:
                    best, best_capacity = pair, capacity
        count = len(inbox) - start

        if offers:
            if offers != 1 or count:
                raise SimulationFault(f"p{self.j}: malformed round start")
            self.current_weight = weight
            eligible = self.remaining >= weight
            if eligible and self.own_pair.capacity != self.remaining:
                self.own_pair = ConsensusPair(self.j, self.remaining)
            report = self.my_report = self.own_pair if eligible else self.no_pair
            if self.n > 1:
                return [(PEERS, report)]
            # nobody to talk to (n = 1): the exchange of no pairs ends now
        elif not count:
            return []
        report = self.my_report
        if report is None or count != self.n - 1:
            raise SimulationFault(f"p{self.j}: capacity exchange out of step")
        self.my_report = None
        # the own pair goes last, by the same rule; p_j wins iff the best names it
        capacity = report.capacity
        if capacity is not None and (best is None or capacity > best.capacity or (
                capacity == best.capacity and self.j < best.best)):
            best = report
        if best is None or best.best != self.j:
            return []
        self._take(self.current_weight)
        return [(SOURCE, Winner(self.j))]


class BroadcastSource(GreedySource):
    pending: int | None = None  # item id awaiting this round's winner

    def step(self, inbox: list[Delivery]) -> list[Send]:
        winners = []
        for msg in inbox:
            if not isinstance(msg.payload, Winner):
                raise SimulationFault(f"S: unexpected payload {msg.payload!r}")
            winners.append(msg.payload.processor)
        if len(winners) > 1:
            raise SimulationFault(f"two winners in one round: {sorted(winners)}")
        offset = (self.phase - 1) % self.period
        if winners:
            if self.pending is None:
                raise SimulationFault("winner reported outside any round")
            # the next round's first phase, or at n = 1 this round's last
            if offset != (0 if self.inst.n > 1 else self.period - 1):
                raise SimulationFault("S: winner report arrived off schedule")
            self.assignment.assign(self.inst, self.pending, winners[0] - 1)
            self.pending = None

        if offset != 0:
            return []
        # round boundary: an unresolved item fit nowhere and stays unassigned
        out = self._open_round()
        self.pending = None if self.halted else self.order[self.rounds_done - 1].id
        return out


# ---------------------------------------------------------------------------
# Tree consensus (tree)
# ---------------------------------------------------------------------------
#
# P phases per round (the record's period), D = P - 3 tree levels below the
# root.  Round-local offsets:
#   1    source broadcasts the item weight, as in dist (last round's award lands now)
#   2    offer arrives; nodes at depth D send their pair up
#   ...  a node at depth d sends at offset P - 1 - d, by which time both of
#        its children (depth d+1) have been heard
#   P-1  the root merges and reports winner-or-bottom to the source
#   P    the source books the round and awards the item to the winner;
#        after the last round it also runs the reassignment pass and halts,
#        so its directives land at offset 1, in which no node sends.
# The engine steps a processor only on mail or a wake-up, and every node
# reads the phase from it.  The one processor that must send without mail is
# a childless node above the bottom level (depth D-1): it asks for a wake-up
# when the offer arrives.
#
# A node folds each child's pair into the round's running best as it reads
# it, and its own pair last; a child's pair goes up as the object it sent.
# Payloads are immutable, so a node sends the same object whenever it would
# send an equal one: its own pair is built when first needed and rebuilt
# only after an award or a directive has changed its capacity, so it may go
# up in many rounds; a silent subtree's absent pair and the root's bottom
# are shared constants.

_NO_PAIR = ConsensusPair(None, None)


class TreeProcessor(ProcessorNode):
    def __init__(self, inst: Instance, j: int, protocol: Protocol):
        super().__init__(inst, j)
        links = tree_links(j, inst.n)
        self.parent = links.parent
        self.children = (links.left, links.right)
        self.period = protocol.period(inst)
        self.send_offset = self.period - j.bit_length()  # P - 1 - depth of p_j
        # a childless node above the bottom level: no child's pair will
        # arrive to step it when it sends
        self.needs_wake = links.left is None and self.send_offset > 2
        self.current_weight: int | None = None
        self.best: ConsensusPair | None = None  # the round's running best; the offer resets it
        self.own_pair = _NO_PAIR  # p_j's own pair, built anew when its capacity differs

    def step(self, inbox: list[Delivery]) -> list[Send]:
        offset = (self.phase - 1) % self.period + 1
        best = self.best
        # payload classes are final, so the exact type decides; pairs and
        # offers are nearly all of the mail
        for msg in inbox:
            payload = msg.payload
            kind = type(payload)
            if kind is ConsensusPair:
                if msg.sender not in self.children:
                    raise SimulationFault(
                        f"p{self.j}: aggregation pair from non-child p{msg.sender}"
                    )
                capacity = payload.capacity  # folded in by the module's rule
                if capacity is not None and (best is None or capacity > best.capacity or (
                        capacity == best.capacity and payload.best < best.best)):
                    best = payload
            elif kind is WeightOffer:
                if msg.sender != SOURCE:
                    raise SimulationFault(f"p{self.j}: weight offer from non-source")
                if offset == 2:  # the round's offer broadcast
                    self.current_weight = payload.weight
                    best = None
                    if self.needs_wake:
                        self.wake_at = self.phase + self.send_offset - offset
                elif offset == 1:  # the award for the round just decided
                    if payload.weight != self.current_weight:
                        raise SimulationFault(f"p{self.j}: award weight mismatch")
                    self._take(payload.weight)
                else:
                    raise SimulationFault(f"p{self.j}: weight offer off schedule")
            elif kind is FinalDirective:
                if msg.sender != SOURCE:
                    raise SimulationFault(f"p{self.j}: directive from non-source")
                self._apply_directive(payload)
            else:
                raise SimulationFault(f"p{self.j}: unexpected payload {payload!r}")

        self.best = best
        if offset != self.send_offset or self.current_weight is None:
            return []
        remaining = self.remaining
        if remaining >= self.current_weight:
            own = self.own_pair
            if own.capacity != remaining:
                own = self.own_pair = ConsensusPair(self.j, remaining)
            # the own pair goes last, by the same rule
            if best is None or remaining > best.capacity or (
                    remaining == best.capacity and self.j < best.best):
                best = self.best = own
        if self.parent is not None:
            return [(self.parent, best or _NO_PAIR)]
        return [(SOURCE, _BOTTOM if best is None else Winner(best.best))]


class TreeSource(GreedySource):
    def step(self, inbox: list[Delivery]) -> list[Send]:
        offset = (self.phase - 1) % self.period + 1

        if offset != self.period:
            if inbox:
                raise SimulationFault("S: consensus result arrived off schedule")
            # the last round finishes at its verdict, so only m == 0 finishes here
            return self._open_round() if offset == 1 else []

        # offset == period: the root's verdict for this round's item is due
        if len(inbox) != 1 or inbox[0].sender != 1:
            raise SimulationFault("S expected exactly one verdict from the root")
        payload = inbox[0].payload
        item = self.order[self.rounds_done - 1]
        award = None
        if isinstance(payload, Winner):
            self.assignment.assign(self.inst, item.id, payload.processor - 1)
            award = (payload.processor, WeightOffer(item.weight))
        elif not isinstance(payload, Bottom):
            raise SimulationFault(f"S: unexpected verdict {payload!r}")
        out = self._finish() if self.rounds_done == self.inst.m else []
        if award is not None:
            # in recipient order: (j,) sorts before (j, directive), so the
            # award goes before a directive to its winner
            out.insert(bisect_left(out, award[:1]), award)
        return out


# ---------------------------------------------------------------------------
# The protocol registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol:
    """One algorithm: its node programs and its exact accounting.

    The programs are built as ``source(inst, protocol)`` and
    ``processor(inst, j, protocol)`` from the record itself; each reads the
    schedule fields it needs and nothing else.  A run has ``rounds(inst)``
    rounds of ``period(inst)`` phases, and its source halts ``tail`` phases
    after the last one.  ``messages(inst, assigned, changed)`` is the exact
    total of a run that placed ``assigned`` items before the reassignment
    pass and changed ``changed`` knapsacks in it; ``message_bound(inst)`` is
    the paper's bound on it.

    The two flags fix what a run must compute, and so how it is verified.
    A ``one_item_per_round`` protocol dispatches the r-th item in density
    order in round r, each to the largest remaining knapsack that fits it
    (:func:`~mkpsim.oracle.strict_sequential_greedy`); the others dispatch
    in batch rounds (:func:`~mkpsim.oracle.batch_round_greedy`).  A
    protocol that ``reassigns`` ends with :func:`final_reassign` applied to
    that placement, and ``verify`` checks the 1/(n+1) bound on it; one that
    does not reports the dispatch placement as final.  The pass alone does
    not give the bound: the paper claims it for the one-item-per-round
    protocols, and ``modified`` as implemented can miss it.
    """

    source: Callable[[Instance, Protocol], GreedySource]
    processor: Callable[[Instance, int, Protocol], ProcessorNode]
    rounds: Callable[[Instance], int]
    period: Callable[[Instance], int]
    tail: int
    messages: Callable[[Instance, int, int], int]
    message_bound: Callable[[Instance], int]
    one_item_per_round: bool
    reassigns: bool

    def phases(self, inst: Instance) -> int:
        """The phase in which the source halts; phase 1 when there are no rounds."""
        return max(1, self.rounds(inst) * self.period(inst) + self.tail)


def _batch_rounds(inst: Instance) -> int:
    return -(-inst.m // inst.n)  # ceil(m/n)


PROTOCOLS: dict[str, Protocol] = {
    "simple": Protocol(
        source=BatchSource,
        processor=BatchProcessor,
        rounds=_batch_rounds, period=lambda inst: 2, tail=0,
        messages=lambda inst, assigned, changed: 2 * inst.n * _batch_rounds(inst),
        message_bound=lambda inst: 2 * inst.m + 2 * inst.n,
        one_item_per_round=False, reassigns=False,
    ),
    "modified": Protocol(
        source=BatchSource,
        processor=BatchProcessor,
        rounds=_batch_rounds, period=lambda inst: 2, tail=1,
        messages=lambda inst, assigned, changed: 2 * inst.n * _batch_rounds(inst) + changed,
        message_bound=lambda inst: 2 * inst.m + 3 * inst.n,
        one_item_per_round=False, reassigns=True,
    ),
    "dist": Protocol(
        source=BroadcastSource,
        processor=BroadcastProcessor,
        rounds=lambda inst: inst.m, period=lambda inst: 3, tail=1,
        messages=lambda inst, assigned, changed: inst.m * inst.n**2 + assigned + changed,
        message_bound=lambda inst: inst.m * (inst.n + inst.n**2) + inst.n,
        one_item_per_round=True, reassigns=True,
    ),
    "tree": Protocol(
        source=TreeSource,
        processor=TreeProcessor,
        # a round: the weight broadcast, floor(log2 n) tree levels, the
        # root's verdict and the award
        rounds=lambda inst: inst.m, period=lambda inst: inst.n.bit_length() - 1 + 3, tail=0,
        messages=lambda inst, assigned, changed: 2 * inst.m * inst.n + assigned + changed,
        message_bound=lambda inst: 2 * inst.m * inst.n + inst.m + inst.n,
        one_item_per_round=True, reassigns=True,
    ),
}

ALGORITHMS = tuple(PROTOCOLS)


# ---------------------------------------------------------------------------
# Running a protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    """Everything one protocol run produced.

    ``assignment``/``profit`` reflect the run's final output; the pre-final
    fields snapshot the state before the reassignment pass (identical for a
    protocol that has none).  ``rounds`` counts the rounds the source
    dispatched.  ``trace`` is ``None`` for a run that kept none.
    """

    algorithm: str
    assignment: Assignment
    profit: int
    pre_final_assignment: Assignment
    pre_final_profit: int
    changed_knapsacks: tuple[int, ...]
    metrics: RunMetrics
    trace: Trace | None
    rounds: int

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def phases(self) -> int:
        return self.metrics.phases


def _check_run(inst: Instance, assignment: Assignment, processors: dict[int, ProcessorNode]):
    violation = check_feasible(assignment, inst)
    if violation is not None:
        raise SimulationFault(f"protocol produced an infeasible assignment: {violation}")
    # check_feasible has proved ``remaining`` equal to a recount of the loads
    for j, proc in processors.items():
        if proc.remaining != assignment.remaining[j - 1]:
            raise SimulationFault(
                f"p{j} remaining capacity {proc.remaining} disagrees with the "
                f"source's record"
            )


def run_algorithm(name: str, inst: Instance, *, keep_trace: bool = True) -> RunResult:
    """Build the named protocol's node programs from its record and run them.

    With ``keep_trace`` false the run keeps no trace (see
    :func:`~mkpsim.simnet.run_protocol`) and its ``trace`` is ``None``;
    everything else about it is the same.
    """
    try:
        protocol = PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}") from None
    source = protocol.source(inst, protocol)
    processors = {j: protocol.processor(inst, j, protocol) for j in range(1, inst.n + 1)}
    # The run's own phase bound, not the engine's fixed default: one phase
    # past the source's halt delivers the last sends, and then it must end.
    assignment, metrics, trace = run_protocol(
        source, processors, max_phases=protocol.phases(inst) + 1, keep_trace=keep_trace
    )
    _check_run(inst, assignment, processors)
    pre = source.pre_final_assignment
    profit = objective(assignment, inst)
    return RunResult(
        algorithm=name,
        assignment=assignment,
        profit=profit,
        pre_final_assignment=pre,
        # one object when nothing ran after the dispatch (``simple``)
        pre_final_profit=profit if pre is assignment else objective(pre, inst),
        changed_knapsacks=source.changed,
        metrics=metrics,
        trace=trace,
        rounds=source.rounds_done,
    )
