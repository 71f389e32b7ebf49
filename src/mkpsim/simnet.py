"""Deterministic synchronous round-based message-passing engine.

Topology: one distinguished source node ``S`` (id 0) connected to every
processor, plus a complete graph over the processors p_1..p_n; n is the
number of processor programs a run is given.  Protocols that aggregate over
a binary tree use :func:`tree_links`: p_1 is the root, the children of p_j
are p_2j and p_2j+1, the parent is p_floor(j/2).

Execution model: the run proceeds in *phases*, counted by the engine alone:
before each step it sets the node's ``phase`` to the current one (see
:class:`Node`).  A node that steps in phase t consumes the messages sent to
it during phase t-1 and may emit new ones; nothing sent in a phase is
readable before the next.  Every node steps in phase 1, and the source
steps in every phase until it halts.  After phase 1 a processor steps only
in a phase where its inbox is non-empty or that it asked to be woken in: in
the synchronous model a node with no mail and nothing scheduled does
nothing in a phase, so leaving it unstepped changes no trace.  The engine
finds the processors with mail from the unicasts of the phase before, so a
phase costs no scan of all n inboxes unless a ``PEERS`` send was made in
the phase before.  The model is failure free: every sent message is
delivered exactly once, one phase later.

Accounting: every point-to-point delivery counts as one message, so a
broadcast to k recipients counts k.  The phase counter reported in
:class:`RunMetrics` is the phase in which the source program declared itself
finished; trailing phases that only drain in-flight messages (final
bookkeeping at the processors) are not counted as communication phases.
Phases in which nobody speaks still count if the source is still running --
a silent phase is meaningful in a synchronous protocol.

Deliveries: a send names one recipient, an ``int`` node id, or, as the one
*multicast*, :data:`PEERS`: from S all n processors, from a processor the
other n - 1.  Either becomes exactly one :class:`Delivery` record (phase,
sender, recipient, payload); a ``PEERS`` record's recipient is the range
1..n, and it reaches every id in it but its sender.  The engine appends the record to
the trace, when the caller keeps one, and to the inbox of each recipient
for the next phase, so programs read the same records the trace keeps.  A
``PEERS`` send to k recipients still counts k messages, one per
point-to-point delivery; it is a cheaper way to write k sends of one
payload, not a different network.

Determinism: within a phase, deliveries are ordered by (sender, recipient).
Nodes step in ascending id order, and each node returns its sends in
ascending recipient order (see :class:`Node`), which the engine checks and
never fixes: a node's records go into the trace, and into each inbox, in the
order it emitted them.  Programs are required to be deterministic, so
identical inputs produce byte-identical traces.
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
# a node program may dispatch on a payload's exact type.  They are immutable
# by contract, as records are, but not frozen: a frozen dataclass sets each
# field through ``object.__setattr__`` and builds about twice as slowly.
# Equal payloads hash alike.  They have no ``__slots__``: a test takes weak
# references to payloads, and Python 3.10 has no ``weakref_slot``.

@dataclass(unsafe_hash=True)
class CapacityReport:
    """Processor -> source: current remaining capacity."""
    capacity: int


@dataclass(unsafe_hash=True)
class ItemOffer:
    """Source -> processor: a dispatched item as a (cost, weight) pair."""
    cost: int
    weight: int


@dataclass(unsafe_hash=True)
class WeightOffer:
    """Source -> processors: an item's weight only (costs stay at the source)."""
    weight: int


@dataclass(unsafe_hash=True)
class Bottom:
    """The explicit 'nothing for you' message."""


@dataclass(unsafe_hash=True)
class ConsensusPair:
    """A (processor id, capacity) candidate; either side may be absent."""
    best: int | None
    capacity: int | None


@dataclass(unsafe_hash=True)
class Winner:
    """The processor id that takes the current item."""
    processor: int


@dataclass(unsafe_hash=True)
class FinalDirective:
    """Source -> processor: the one item that replaces the knapsack's contents."""
    item: int
    weight: int


Payload = (
    CapacityReport | ItemOffer | WeightOffer | Bottom | ConsensusPair | Winner | FinalDirective
)


class Delivery:
    """One sent message, stamped with the phase in which it was sent.

    The engine builds exactly one record per send.  ``recipient`` is a node
    id, or for a :data:`PEERS` send the run's ``range`` 1..n: the send went
    to each of them except the sender.  Each recipient finds this one object
    in its inbox one phase later, and the trace keeps the same object, so a
    record stands for one delivery per recipient.  Records are
    immutable by contract -- neither the engine nor any node program
    assigns to a field -- and use ``__slots__`` rather than a frozen
    dataclass or a named tuple, because both of those make building a
    record or reading its fields several times slower, and the engine
    builds one per send while the programs read them all.  The engine fills
    the slots itself, after ``object.__new__``, to save a call per send;
    other callers use ``__init__``.
    """

    __slots__ = ("phase", "sender", "recipient", "payload")

    def __init__(self, phase: int, sender: int, recipient: int | range, payload: Payload):
        self.phase = phase
        self.sender = sender
        self.recipient = recipient
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"Delivery(phase={self.phase!r}, sender={self.sender!r}, "
            f"recipient={self.recipient!r}, payload={self.payload!r})"
        )


class _Peers:
    __slots__ = ()

    def __repr__(self) -> str:
        return "PEERS"


# The recipient of a send to every processor but the sender: from S all n of
# them, from a processor the other n - 1.  Its one record's ``recipient`` is
# the run's range 1..n.
PEERS = _Peers()

# (recipient id, payload) or (PEERS, payload); the engine stamps the sender.
Send = tuple[int | _Peers, Payload]


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

    Before each step the engine sets ``phase`` to the phase the node steps
    in, so a program reads its phase there, whatever its mail.  The engine
    steps a processor in phase 1 and afterwards only in phases where it has
    mail, so a processor that must act in a phase without mail asks for a
    wake-up: it sets ``wake_at``, an instance attribute of every node from
    the run's start, to that phase during a step.  The engine takes the
    request when the step returns and clears the attribute; the node is
    then stepped once in that phase, with whatever mail arrives there
    (possibly none).  The phase must be later than the current one.
    A pending wake-up does not keep a finished run alive.  The source steps
    in every phase until it halts and may not ask for one.

    ``step`` returns the node's sends for this phase (see :data:`Send`) in
    ascending recipient order; two unicasts may go to one recipient, in the
    order they are returned.  A :data:`PEERS` send counts as a send to 1..n
    here, so of a node's other sends in that phase only those to S, before
    it, pass.  Sends of one payload to every processor (from S) or every
    other processor are best written as one ``PEERS`` send: the engine then
    builds, checks and keeps one record for all of them.
    """

    phase: int
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
    """Message/phase accounting for one protocol run: the point-to-point
    deliveries sent, and the phase in which the source halted."""

    messages: int
    phases: int


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
        return f"final {payload.item}:{payload.weight}"
    raise TypeError(f"unknown payload {payload!r}")


def render_trace(trace: Trace) -> str:
    """Line-oriented dump, one delivery per line: ``phase from to payload``.

    A record whose recipient is a range (a ``PEERS`` record's 1..n) expands
    to one line per id in it, in ascending order, leaving out the sender
    when the range holds it.  Its lines share everything but the
    recipient's name, so they are built with one join over the list of the
    recipients' names, kept as three parts so that the long middle one is
    not copied again: the record's ``"{phase} {sender} "`` head, then the
    names joined by the payload text plus the head, then the payload text.
    The list depends only on the range's bounds and the sender, so it is
    built once per (start, stop, sender), from a slice of the name table
    (two slices around the sender), and reused by every later record of
    that sender to that range: a ``dist`` trace builds one list per
    processor and one for S, not one per record.  The name table is a list
    indexed by node id, grown with :func:`node_name` when a record names an
    id past its end, so every name is rendered once; node ids are
    non-negative, as in every trace the engine returns.  Payloads are
    rendered once per object (a tree node forwards the pair it received,
    and a ``tree`` or ``dist`` processor resends its own pair in every round
    its capacity has not changed), memoised by identity, which is sound
    because payloads are immutable and the trace keeps every one alive
    while the dump is built.
    """
    names: list[str] = []
    texts: dict[int, str] = {}
    # (start, stop, sender) -> the names of the sender's recipients in the
    # range start..stop-1
    recipient_names: dict[tuple[int, int, int], list[str]] = {}
    parts: list[str] = []
    append = parts.append
    for d in trace:
        payload = d.payload
        text = texts.get(id(payload))  # " {payload}\n", the end of each line
        if text is None:
            text = texts[id(payload)] = f" {render_payload(payload)}\n"
        sender, recipient = d.sender, d.recipient
        if type(recipient) is range:
            start, stop = recipient.start, recipient.stop
            recipients = recipient_names.get((start, stop, sender))
            if recipients is None:
                if stop > len(names) or sender >= len(names):
                    names.extend(map(node_name, range(len(names), max(stop, sender + 1))))
                if start <= sender < stop:
                    recipients = names[start:sender] + names[sender + 1:stop]
                else:
                    recipients = names[start:stop]
                recipient_names[start, stop, sender] = recipients
            head = f"{d.phase} {names[sender]} "
            append(head)
            append((text + head).join(recipients))
            append(text)
        else:
            try:
                append(f"{d.phase} {names[sender]} {names[recipient]}{text}")
            except IndexError:
                names.extend(map(node_name, range(len(names), max(recipient, sender) + 1)))
                append(f"{d.phase} {names[sender]} {names[recipient]}{text}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

DEFAULT_MAX_PHASES = 1_000_000


def _check_send_order(records: list[Delivery], sender: int) -> None:
    """Check one node's records of a phase, more than one, in one pass.

    A unicast's recipient must not be below the one before it; two unicasts
    to one recipient keep the order they were emitted in.  A ``PEERS``
    record counts as reaching 1..n, so only a unicast to S may come before
    it and nothing after it.  A fault names the lowest recipient that a
    ``PEERS`` record shares with the record next to it, other than its
    sender; a unicast below the one before it, or to S after a ``PEERS``
    record, is out of order and names the last recipient before it.
    """
    before: int | range = -1  # the recipient of the record before
    for d in records:
        recipient = d.recipient
        # shared: the lowest recipient the two records share, or S (which no
        # PEERS record reaches) when they share none
        if type(before) is range:  # nothing passes after a PEERS record
            shared = 1 if type(recipient) is range else recipient
            reach = before.stop - 1
            reach -= reach == sender
        elif type(recipient) is range:  # only a unicast to S passes before one
            if before <= SOURCE:
                before = recipient
                continue
            shared = before
        elif recipient >= before:
            before = recipient
            continue
        else:
            shared, reach = SOURCE, before
        if shared != SOURCE:
            raise SimulationFault(
                f"{node_name(sender)} sent to {node_name(shared + (shared == sender))} by a "
                f"multicast and another send in one phase"
            )
        raise SimulationFault(
            f"{node_name(sender)} sent to {node_name(recipient)} after a send to "
            f"{node_name(reach)}: a node's sends must come in ascending recipient order"
        )


_sender = attrgetter("sender")


def _deliver_broadcasts(broadcasts: list[Delivery], inboxes: list[list[Delivery]]) -> None:
    """Hand one phase's :data:`PEERS` records, at most one per sender and in
    sender order, to processors 1..n: each inbox gets all of them but its
    own record.

    A processor's part costs one list copy and at most one ``del``.  It is
    the whole inbox when the processor has no direct mail, as in a ``dist``
    round; otherwise a stable sort by sender merges the two, keeping each
    sender's records as emitted.
    """
    own = 0  # the index of the next processor's record
    count = len(broadcasts)
    for j in range(1, len(inboxes)):
        part = broadcasts[:]
        if own < count and broadcasts[own].sender == j:
            del part[own]
            own += 1
            if not part:
                continue
        box = inboxes[j]
        if not box:
            inboxes[j] = part
        else:
            box += part
            box.sort(key=_sender)


def run_protocol(
    source: SourceNode,
    processors: dict[int, Node],
    *,
    max_phases: int = DEFAULT_MAX_PHASES,
    keep_trace: bool = True,
) -> tuple[Assignment, RunMetrics, Trace | None]:
    """Run source/processor programs to completion.

    ``processors`` maps ids 1..n to their programs, n >= 1.  The run ends
    when the source has halted and no messages remain in flight; processors
    are reactive and never halt on their own.  Returns the assignment the
    source recorded, the metrics, and the trace: every record the run sent,
    a ``PEERS`` send as the one record its recipients read.  With
    ``keep_trace`` false the trace is ``None``: the run checks and counts
    every send as a traced run does, but lets go of each phase's records
    once they are delivered, so its memory does not grow with the message
    count.

    A phase costs one step per node that has mail or a wake-up in it, plus
    the source's, and one store of ``phase`` on the node before each step.
    A ``PEERS`` send costs one record and one set of checks, however many
    recipients it has, and counts one message per recipient.
    S's record is appended to every processor's next-phase inbox.  A
    processor's is kept in the phase's list of broadcasts, which the next
    phase hands to the other processors' inboxes before any node steps (see
    :func:`_deliver_broadcasts`), so no inbox gets it by an append of its
    own.  The next phase's ready list is the sorted ids whose inbox a
    unicast made non-empty, with the wake-ups merged in; only after a phase
    with a ``PEERS`` send does the engine scan all n+1 inboxes for it.

    Faults (raised as :class:`SimulationFault`, never silently dropped):
    a processor map that is empty or does not cover 1..n exactly, a
    message addressed to a nonexistent node (a recipient that is neither
    ``PEERS`` nor an ``int`` node id, such as a ``range``, or a ``bool`` or
    ``float`` equal to an id) or to the node itself, a ``PEERS`` send from
    the one processor of a run, a message sent after the source halted, a
    message delivered to the already-halted source, a wake-up asked by the
    source or for a phase that is not after the current one, and a run that
    needs more than ``max_phases`` phases.  Each send is checked in the
    order its node emitted it, against those rules in that order.  Once a
    node's sends have passed, sends out of ascending recipient order are a
    fault too (see :func:`_check_send_order`), and a ``PEERS`` send counts
    there as a send to 1..n.
    """
    n = len(processors)
    if n < 1:
        raise SimulationFault("a run needs at least one processor program")
    if sorted(processors) != list(range(1, n + 1)):
        raise SimulationFault("processor programs must cover ids 1..n exactly")
    nodes = [source] + [processors[j] for j in range(1, n + 1)]
    for node in nodes:  # a plain store: reading __dict__ would slow the node's attribute loads
        node.wake_at = node.wake_at
    steps = [node.step for node in nodes]

    log: list[Delivery] = []
    messages = 0
    # One list per node id in each of two buffers: the mail read in this
    # phase and the mail sent in it.  A stepped node keeps its list and gets
    # a fresh one, so only the nodes that step cost an allocation.
    ids = range(n + 1)
    # a set test costs a unicast no more than a bounds check, and it is false
    # for PEERS, so a broadcast costs the unicasts nothing; it passes any
    # value equal to an id, so a unicast's type is checked after it
    node_ids = frozenset(ids)
    inboxes: list[list[Delivery]] = [[] for _ in ids]
    sent_now: list[list[Delivery]] = [[] for _ in ids]
    wakeups: dict[int, list[int]] = {1: list(range(1, n + 1))}  # phase -> ids
    # the ids whose next-phase inbox a unicast made non-empty, and whether a
    # PEERS send filled inboxes too (then the next phase scans them all)
    filled: list[int] = []
    multicast = False
    # this phase's PEERS records, in sender order; a new list only after a
    # phase that sent one
    broadcasts: list[Delivery] = []
    everyone = range(1, n + 1)
    new = object.__new__
    phase = 0
    halt_phase: int | None = None

    while True:
        phase += 1
        if phase > max_phases:
            raise SimulationFault(f"protocol did not terminate within {max_phases} phases")

        was_halted = source.halted
        if was_halted and inboxes[SOURCE]:
            raise SimulationFault("message delivered to the halted source")
        # the ids with mail, ascending
        if multicast:
            if broadcasts:
                _deliver_broadcasts(broadcasts, inboxes)
                broadcasts = []
            ready = list(compress(ids, inboxes))
        else:
            ready = sorted(filled)
        filled = []
        multicast = False
        woken = wakeups.pop(phase, None)
        if woken:
            ready = sorted(set(ready).union(woken))
        if not was_halted and (not ready or ready[0] != SOURCE):
            ready.insert(0, SOURCE)

        phase_start = len(log)
        fanned = 0  # deliveries beyond one per record, from this phase's multicasts
        for node_id in ready:
            node = nodes[node_id]
            node.phase = phase
            inbox = inboxes[node_id]
            inboxes[node_id] = []
            sends = steps[node_id](inbox)
            if sends:
                for recipient, payload in sends:
                    # the one place records are built; a fault drops this one
                    delivery = new(Delivery)
                    delivery.phase = phase
                    delivery.sender = node_id
                    delivery.recipient = recipient
                    delivery.payload = payload
                    if recipient in node_ids and type(recipient) is int:
                        if recipient == node_id:
                            raise SimulationFault(f"{node_name(node_id)} sent to itself")
                        if was_halted:
                            raise SimulationFault(
                                f"{node_name(node_id)} sent a message after the source halted"
                            )
                        log.append(delivery)
                        box = sent_now[recipient]
                        if not box:
                            filled.append(recipient)
                        box.append(delivery)
                    elif recipient is PEERS:
                        if n == 1 and node_id != SOURCE:
                            raise SimulationFault(
                                f"{node_name(node_id)} sent to its peers, but it has none"
                            )
                        if was_halted:
                            raise SimulationFault(
                                f"{node_name(node_id)} sent a message after the source halted"
                            )
                        delivery.recipient = everyone
                        log.append(delivery)
                        if node_id == SOURCE:  # no sender to skip: one append per box
                            for box in sent_now[1:]:
                                box.append(delivery)
                            fanned += n - 1
                        else:
                            broadcasts.append(delivery)
                            fanned += n - 2
                        multicast = True
                    else:
                        raise SimulationFault(
                            f"{node_name(node_id)} sent to nonexistent node {recipient}"
                        )
                # The node's records end the log, one per send.  Nodes step in
                # id order and each emits in recipient order, so once this
                # passes the log and each inbox are in (sender, recipient) order.
                if len(sends) > 1:
                    _check_send_order(log[-len(sends):], node_id)
            wake = node.wake_at
            if wake is not None:
                node.wake_at = None
                if node_id == SOURCE:
                    raise SimulationFault("S asked for a wake-up; it steps in every phase")
                if wake <= phase:
                    raise SimulationFault(
                        f"{node_name(node_id)} asked to wake in phase {wake} during phase {phase}"
                    )
                wakeups.setdefault(wake, []).append(node_id)
        inboxes, sent_now = sent_now, inboxes

        sent = len(log) - phase_start + fanned
        messages += sent
        if not keep_trace:
            log.clear()  # the inboxes hold this phase's records until delivery
        if source.halted:
            if halt_phase is None:
                halt_phase = phase
            if not sent:
                break

    metrics = RunMetrics(messages, halt_phase)
    return source.recorded_assignment(), metrics, tuple(log) if keep_trace else None
