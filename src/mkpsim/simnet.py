"""Deterministic synchronous round-based message-passing engine.

Topology: one distinguished source node ``S`` (id 0) connected to every
processor, plus a complete graph over the processors p_1..p_n; n is the
number of processor programs a run is given.  Protocols that aggregate over
a binary tree use :func:`tree_links`: p_1 is the root, the children of p_j
are p_2j and p_2j+1, the parent is p_floor(j/2).

Execution model: the run proceeds in *phases*.  A node that steps in phase
t consumes the messages sent to it during phase t-1 and may emit new ones;
nothing sent in a phase is readable before the next.  Every node steps in
phase 1, and the source steps in every phase until it halts.  After phase 1
a processor steps only in a phase where its inbox is non-empty or that it
asked to be woken in (see :class:`Node`): in the synchronous model a node
with no mail and nothing scheduled does nothing in a phase, so leaving it
unstepped changes no trace.  The model is failure free: every sent message
is delivered exactly once, one phase later.

Accounting: every point-to-point delivery counts as one message, so a
broadcast to k recipients counts k.  The phase counter reported in
:class:`RunMetrics` is the phase in which the source program declared itself
finished; trailing phases that only drain in-flight messages (final
bookkeeping at the processors) are not counted as communication phases.
Phases in which nobody speaks still count if the source is still running --
a silent phase is meaningful in a synchronous protocol.

Deliveries: each send becomes exactly one :class:`Delivery` record (phase,
sender, recipient, payload).  The engine appends it to the trace and to the
recipient's inbox for the next phase, so programs read the same records the
trace keeps.  The per-phase counts in :class:`RunMetrics` are taken as each
phase closes.

Determinism: within a phase, deliveries are ordered by (sender, recipient).
The engine gets that order without sorting a whole phase: nodes step in
ascending id order, so sender order holds by construction, and each node's
own sends are stably sorted by recipient when it sent more than one, so two
sends to the same recipient keep the order the node emitted them in.
Programs are required to be deterministic, so identical inputs produce
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter

from .core import Assignment

SOURCE = 0  # node id of the source/dispatcher; processors are 1..n


class SimulationFault(RuntimeError):
    """A protocol or engine invariant was violated during a run."""


# ---------------------------------------------------------------------------
# Message payloads
# ---------------------------------------------------------------------------
#
# The payload classes are final by contract -- nothing subclasses them -- so
# a node program may dispatch on a payload's exact type.

@dataclass(frozen=True)
class CapacityReport:
    """Processor -> source: current remaining capacity."""
    capacity: int


@dataclass(frozen=True)
class ItemOffer:
    """Source -> processor: a dispatched item as a (cost, weight) pair."""
    cost: int
    weight: int


@dataclass(frozen=True)
class WeightOffer:
    """Source -> processors: an item's weight only (costs stay at the source)."""
    weight: int


@dataclass(frozen=True)
class Bottom:
    """The explicit 'nothing for you' message."""


@dataclass(frozen=True)
class ConsensusPair:
    """A (processor id, capacity) candidate; either side may be absent."""
    best: int | None
    capacity: int | None


@dataclass(frozen=True)
class Winner:
    """The processor id that takes the current item."""
    processor: int


@dataclass(frozen=True)
class FinalDirective:
    """Source -> processor: replacement contents as (item id, weight) pairs."""
    contents: tuple[tuple[int, int], ...]


Payload = (
    CapacityReport | ItemOffer | WeightOffer | Bottom | ConsensusPair | Winner | FinalDirective
)


class Delivery:
    """One delivered message, stamped with the phase in which it was sent.

    The engine builds exactly one record per point-to-point delivery: the
    recipient finds it in its inbox one phase later and the trace keeps the
    same object.  Records are immutable by contract -- neither the engine
    nor any node program assigns to a field -- and use ``__slots__`` rather
    than a frozen dataclass or a named tuple, because both of those make
    building a record or reading its fields several times slower, and the
    engine builds one per delivery while the programs read them all.
    """

    __slots__ = ("phase", "sender", "recipient", "payload")

    def __init__(self, phase: int, sender: int, recipient: int, payload: Payload):
        self.phase = phase
        self.sender = sender
        self.recipient = recipient
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"Delivery(phase={self.phase!r}, sender={self.sender!r}, "
            f"recipient={self.recipient!r}, payload={self.payload!r})"
        )


# (recipient, payload); the engine stamps the sender.
Send = tuple[int, Payload]


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeLinks:
    parent: int | None
    left: int | None
    right: int | None


def tree_links(j: int, n: int) -> TreeLinks:
    """Tree neighbours of processor j in the rooted binary tree over 1..n.

    Parent is floor(j/2) (absent for the root p_1); children are 2j and 2j+1
    when they exist.
    """
    if not 1 <= j <= n:
        raise ValueError(f"processor id {j} out of range 1..{n}")
    parent = j // 2 if j > 1 else None
    left = 2 * j if 2 * j <= n else None
    right = 2 * j + 1 if 2 * j + 1 <= n else None
    return TreeLinks(parent, left, right)


# ---------------------------------------------------------------------------
# Node programs
# ---------------------------------------------------------------------------

class Node:
    """A deterministic step function: inbox -> outbox, state held on self.

    The engine steps a processor in phase 1 and afterwards only in phases
    where it has mail, so a processor that must act in a phase without mail
    asks for a wake-up: it sets ``wake_at`` to that phase during a step.
    The engine takes the request when the step returns and clears the
    attribute; the node is then stepped once in that phase, with whatever
    mail arrives there (possibly none).  The phase must be later than the
    current one.  A pending wake-up does not keep a finished run alive.  The
    source steps in every phase until it halts and may not ask for one.
    """

    wake_at: int | None = None

    def step(self, inbox: list[Delivery]) -> list[Send]:
        raise NotImplementedError


class SourceNode(Node):
    """A node program for S; sets ``halted`` when the protocol is finished."""

    halted: bool = False

    def recorded_assignment(self) -> Assignment:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Trace and metrics
# ---------------------------------------------------------------------------

Trace = tuple[Delivery, ...]


@dataclass(frozen=True)
class RunMetrics:
    """Message/phase accounting for one protocol run.

    ``per_phase`` lists (phase, deliveries sent in that phase) for every
    phase with traffic; it always sums to ``messages``.
    """

    messages: int
    phases: int
    per_phase: tuple[tuple[int, int], ...]


def node_name(node_id: int) -> str:
    return "S" if node_id == SOURCE else f"p{node_id}"


def render_payload(payload: Payload) -> str:
    if isinstance(payload, CapacityReport):
        return f"capacity {payload.capacity}"
    if isinstance(payload, ItemOffer):
        return f"item {payload.cost} {payload.weight}"
    if isinstance(payload, WeightOffer):
        return f"weight {payload.weight}"
    if isinstance(payload, Bottom):
        return "bottom"
    if isinstance(payload, ConsensusPair):
        best = "-" if payload.best is None else str(payload.best)
        cap = "-" if payload.capacity is None else str(payload.capacity)
        return f"pair {best} {cap}"
    if isinstance(payload, Winner):
        return f"winner {payload.processor}"
    if isinstance(payload, FinalDirective):
        parts = " ".join(f"{i}:{w}" for i, w in payload.contents)
        return f"final {parts}".rstrip()
    raise TypeError(f"unknown payload {payload!r}")


class _Memo(dict):
    """A dict that fills a missing key with ``render(key)`` on first use."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        value = self[key] = self.render(key)
        return value


def render_trace(trace: Trace) -> str:
    """Line-oriented dump, one delivery per line: ``phase from to payload``.

    The dump is built one run at a time: a run is a stretch of consecutive
    deliveries with the same phase, sender and payload *object*, such as one
    broadcast.  A run's first line is rendered whole; each later line adds
    only the run's separator -- the payload text that ends the line before,
    then ``"{phase} {sender} "`` -- rendered once per run, and its own
    recipient's name.  This is byte-identical to rendering line by line:
    runs are split wherever the phase, the sender or the payload's identity
    changes, so every line gets its own phase, sender and payload text, and
    every line keeps its own recipient, in trace order.  Node names are
    rendered once each, and payloads once per object (a tree node forwards
    the pair it received), memoised by identity, which is sound because the
    trace keeps every payload alive while the dump is built.
    """
    names = _Memo(node_name)
    texts: dict[int, str] = {}
    parts: list[str] = []
    append = parts.append
    payload = sender = phase = separator = None
    text = ""  # the payload text that ends the line before: " {payload}\n"
    for d in trace:
        if d.payload is not payload or d.sender != sender or d.phase != phase:
            payload, sender, phase = d.payload, d.sender, d.phase
            append(f"{text}{phase} {names[sender]} {names[d.recipient]}")
            text = texts.get(id(payload))
            if text is None:
                text = texts[id(payload)] = f" {render_payload(payload)}\n"
            separator = None
        else:
            if separator is None:
                separator = f"{text}{phase} {names[sender]} "
            append(separator)
            append(names[d.recipient])
    append(text)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

DEFAULT_MAX_PHASES = 1_000_000

_by_recipient = attrgetter("recipient")


def run_protocol(
    source: SourceNode,
    processors: dict[int, Node],
    *,
    max_phases: int = DEFAULT_MAX_PHASES,
) -> tuple[Assignment, RunMetrics, Trace]:
    """Run source/processor programs to completion.

    ``processors`` maps ids 1..n to their programs, n >= 1.  The run ends
    when the source has halted and no messages remain in flight; processors
    are reactive and never halt on their own.  Returns the assignment the
    source recorded, the metrics, and the full delivery trace.

    A phase costs one step per node that has mail or a wake-up in it, plus
    the source's.

    Faults (raised as :class:`SimulationFault`, never silently dropped):
    a processor map that is empty or does not cover 1..n exactly,
    a message addressed to a nonexistent node or to the node itself, a
    message sent after the source halted, a message delivered to the
    already-halted source, a wake-up asked by the source or for a phase
    that is not after the current one, and a run that needs more than
    ``max_phases`` phases.  Each send is checked in the order its node
    emitted it.
    """
    n = len(processors)
    if n < 1:
        raise SimulationFault("a run needs at least one processor program")
    if sorted(processors) != list(range(1, n + 1)):
        raise SimulationFault("processor programs must cover ids 1..n exactly")
    nodes = [source] + [processors[j] for j in range(1, n + 1)]
    steps = [node.step for node in nodes]

    log: list[Delivery] = []
    per_phase: list[tuple[int, int]] = []
    # One list per node id in each of two buffers: the mail read in this
    # phase and the mail sent in it.  A stepped node keeps its list and gets
    # a fresh one, so only the nodes that step cost an allocation.
    ids = range(n + 1)
    inboxes: list[list[Delivery]] = [[] for _ in ids]
    sent_now: list[list[Delivery]] = [[] for _ in ids]
    wakeups: dict[int, list[int]] = {1: list(range(1, n + 1))}  # phase -> ids
    phase = 0
    halt_phase: int | None = None

    while True:
        phase += 1
        if phase > max_phases:
            raise SimulationFault(f"protocol did not terminate within {max_phases} phases")

        was_halted = source.halted
        if was_halted and inboxes[SOURCE]:
            raise SimulationFault("message delivered to the halted source")
        ready = list(compress(ids, inboxes))  # the ids with mail, ascending
        woken = wakeups.pop(phase, None)
        if woken:
            ready = sorted(set(ready).union(woken))
        if not was_halted and (not ready or ready[0] != SOURCE):
            ready.insert(0, SOURCE)

        phase_start = len(log)
        for node_id in ready:
            inbox = inboxes[node_id]
            inboxes[node_id] = []
            node_start = len(log)
            for recipient, payload in steps[node_id](inbox):
                if not 0 <= recipient <= n:
                    raise SimulationFault(
                        f"{node_name(node_id)} sent to nonexistent node {recipient}"
                    )
                if recipient == node_id:
                    raise SimulationFault(f"{node_name(node_id)} sent to itself")
                if was_halted:
                    raise SimulationFault(
                        f"{node_name(node_id)} sent a message after the source halted"
                    )
                delivery = Delivery(phase, node_id, recipient, payload)
                log.append(delivery)
                sent_now[recipient].append(delivery)
            # Nodes step in id order, so the log is already in sender order;
            # a stable sort of this node's own sends puts it in (sender,
            # recipient) order.  Each inbox is filled in sender order and,
            # per sender, in emission order -- what that sort leaves it.
            if len(log) - node_start > 1:
                log[node_start:] = sorted(log[node_start:], key=_by_recipient)
            wake = nodes[node_id].wake_at
            if wake is not None:
                nodes[node_id].wake_at = None
                if node_id == SOURCE:
                    raise SimulationFault("S asked for a wake-up; it steps in every phase")
                if wake <= phase:
                    raise SimulationFault(
                        f"{node_name(node_id)} asked to wake in phase {wake} during phase {phase}"
                    )
                wakeups.setdefault(wake, []).append(node_id)
        inboxes, sent_now = sent_now, inboxes

        sent = len(log) - phase_start
        if sent:
            per_phase.append((phase, sent))
        if source.halted:
            if halt_phase is None:
                halt_phase = phase
            if not sent:
                break

    metrics = RunMetrics(len(log), halt_phase, tuple(per_phase))
    return source.recorded_assignment(), metrics, tuple(log)
