#!/usr/bin/env python3
"""Host-time benchmark for mkpsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through mkpsim's public API the way the ``run``,
``compare`` and ``verify --sweep`` commands do, checks every output against
recomputations written here, and prints human-readable lines followed by
one JSON result line (the last line of stdout).

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` each op is run twice, untraced and then under a span recorder
that wraps mkpsim's module-level functions and node ``step`` methods from
the outside; the result carries the per-layer metrics.  No file under
``src/`` is edited.

The program is imported from ``src/`` next to this directory and nowhere
else: without it the benchmark exits with status 2 and prints no result.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MODULES = ("core", "simnet", "algorithms", "oracle", "harness", "cli")
SETUP_REPEATS = 7  # fresh set-up processes per run; setup_s is their median
SETUP_TIMEOUT_S = 60
ALLOC_SAMPLE = 8  # pool entries re-run under tracemalloc in a traced run
# The reference kernel's time on an uncontended core of the machine the
# baseline was taken on (Xeon, 2 vCPUs under KVM, CPython 3.11).  Host times
# are reported at this speed; see SpeedGauge.
REFERENCE_MS = 6.5
# A bare interpreter start (``python3 -c "print('ready')"``) on that core.
# Set-up times are reported at this speed; see timed_setups.
REFERENCE_START_MS = 42.0
SAMPLE_EVERY_S = 0.2
WINDOW_S = 0.6


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def derive_seed(*parts) -> int:
    """A 63-bit seed mixed from the workload seed and a position."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def import_mkpsim():
    """Import mkpsim afresh from ``src/``; earlier imports are discarded."""
    if not (SRC / "mkpsim" / "__init__.py").is_file():
        raise SetupError(f"no mkpsim package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "mkpsim" or k.startswith("mkpsim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mk = importlib.import_module("mkpsim")
    if not Path(mk.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"mkpsim was imported from {mk.__file__}, not from {SRC}")
    for sub in MODULES:
        importlib.import_module(f"mkpsim.{sub}")
    return mk


def mkpsim_modules(mk) -> list:
    return [mk] + [getattr(mk, name) for name in MODULES]


def patch_everywhere(modules, attr, fn, replacement, patches) -> None:
    """Rebind ``attr`` to ``replacement`` in every module that binds ``fn``
    under that name (``from .core import sort_by_density`` copies the
    binding), recording each change in ``patches`` for ``restore``."""
    for module in modules:
        if getattr(module, attr, None) is fn:
            patches.append((module, attr, fn))
            setattr(module, attr, replacement)


def restore(patches) -> None:
    while patches:
        target, attr, original = patches.pop()
        setattr(target, attr, original)


# ---------------------------------------------------------------------------
# Recomputations used by the output checks.  They restate the README's
# closed forms and the reassignment rule without calling into mkpsim.
# ---------------------------------------------------------------------------

def expected_accounting(alg: str, m: int, n: int, assigned: int, changed: int):
    """(messages, phases, rounds) of one run, for m >= 1."""
    rounds = -(-m // n)
    if alg == "simple":
        return 2 * n * rounds, 2 * rounds, rounds
    if alg == "modified":
        return 2 * n * rounds + changed, 2 * rounds + 1, rounds
    if alg == "dist":
        return m * n * n + assigned + changed, 3 * m + 1, m
    if alg == "tree":
        depth = n.bit_length() - 1
        return 2 * m * n + assigned + changed, m * (depth + 3), m
    raise ValueError(alg)


def loads_fit(inst, placement) -> bool:
    loads = [0] * len(inst.capacities)
    for i, k in placement.items():
        if k is not None:
            loads[k] += inst.items[i].weight
    return all(load <= cap for load, cap in zip(loads, inst.capacities))


def profit_of(inst, placement) -> int:
    return sum(inst.items[i].cost for i, k in placement.items() if k is not None)


def reassigned(inst, placement):
    """The reassignment pass: knapsacks in index order; each swaps its
    contents for the most profitable pool item (ties: smallest id) that fits
    its full capacity when that item beats everything it holds."""
    placement = dict(placement)
    pool = {i for i, k in placement.items() if k is None}
    changed = []
    for j, cap in enumerate(inst.capacities):
        best = None
        for i in pool:
            item = inst.items[i]
            if item.weight <= cap and (
                best is None or (item.cost, -item.id) > (best.cost, -best.id)
            ):
                best = item
        if best is None:
            continue
        held = [i for i, k in placement.items() if k == j]
        if best.cost > sum(inst.items[i].cost for i in held):
            for i in held:
                placement[i] = None
                pool.add(i)
            placement[best.id] = j
            pool.discard(best.id)
            changed.append(j)
    return placement, changed


def canonical_digest(inst) -> str:
    doc = {
        "items": [{"id": it.id, "cost": it.cost, "weight": it.weight} for it in inst.items],
        "capacities": list(inst.capacities),
    }
    return hashlib.sha256((json.dumps(doc) + "\n").encode()).hexdigest()


def check_report(problems, label, inst, alg, report, placement, assigned, changed):
    """Compare one report (RunReport or its parsed JSON) with the expected
    placement and the closed-form accounting."""
    get = report.get if isinstance(report, dict) else lambda key: getattr(report, key)
    got_placement = {int(i): k for i, k in get("placement").items()}
    messages, phases, rounds = expected_accounting(alg, inst.m, inst.n, assigned, changed)
    expected = {
        "algorithm": alg,
        "m": inst.m,
        "n": inst.n,
        "profit": profit_of(inst, placement),
        "messages": messages,
        "phases": phases,
        "rounds": rounds,
    }
    for key, want in expected.items():
        if get(key) != want:
            problems.append(f"{label}: {key} {get(key)!r} != expected {want!r}")
    if got_placement != placement:
        problems.append(f"{label}: placement differs from the recomputation")
    if not loads_fit(inst, got_placement):
        problems.append(f"{label}: placement overfills a knapsack")
    if get("instance") != canonical_digest(inst):
        problems.append(f"{label}: instance digest differs")


def check_csv(problems, label, text, reports):
    rows = [line.split(",") for line in text.splitlines()]
    want = [["algorithm", "m", "n", "profit", "opt", "ratio_num", "ratio_den",
             "messages", "phases", "rounds"]]
    for r in reports:
        want.append([r.algorithm, str(r.m), str(r.n), str(r.profit), "", "", "",
                     str(r.messages), str(r.phases), str(r.rounds)])
    if rows != want:
        problems.append(f"{label}: CSV does not match the reports")


def placement_key(placement) -> tuple:
    return tuple(sorted(placement.items()))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One pool entry: an instance and, for file-based flows, its paths."""

    index: int
    inst: Any
    paths: tuple[Path, ...] = ()


@dataclass(frozen=True)
class Workload:
    """How a workload makes its pool, the timed op, and the checks on the op's output.

    ``op`` is the only timed code.  ``output`` turns what it returned into
    the deterministic bytes that are digested; ``check`` returns the list of
    problems found by the recomputations (run once per pool entry, on the
    first pass).  ``tail_pct`` is fixed per workload, so that a faster
    program, which gets more samples in a run, is compared at the same
    percentile; it leaves at least five samples (``dist-trace``, whose ops
    are longest), and elsewhere at least twelve, beyond it when the machine
    runs at its slowest.
    """

    name: str
    sizes: dict
    tail_pct: float
    build: Callable
    op: Callable
    output: Callable
    check: Callable


# --- dist-trace: `mkpsim run --alg dist --instance F --report R --trace T`.
# All-to-all traffic, n^2 deliveries per round: the engine's per-delivery
# path and the trace's memory dominate, and only this flow renders the trace.

def build_dist(mk, seed, sizes, workdir):
    cases = []
    for i in range(sizes["pool"]):
        inst = mk.gen_random(mk.GenParams(sizes["m"], sizes["n"], 50, 50, 1, 100,
                                          seed=derive_seed(seed, "dist-trace", i)))
        inst_path = workdir / f"dist-{i}.json"
        mk.save_instance(inst, inst_path)
        cases.append(Case(i, inst, (inst_path, workdir / f"dist-{i}.report.json",
                                    workdir / f"dist-{i}.trace")))
    return cases


def op_dist(mk, case):
    inst_path, report_path, trace_path = case.paths
    inst = mk.load_instance(inst_path)
    result = mk.run_algorithm("dist", inst)
    report = mk.harness.make_report(inst, result, None, "none")
    report_path.write_text(mk.report_to_json(report), encoding="utf-8")
    trace_path.write_text(mk.render_trace(result.trace), encoding="utf-8")
    return case


def output_dist(case, _returned) -> bytes:
    _, report_path, trace_path = case.paths
    return report_path.read_bytes() + b"\0" + trace_path.read_bytes()


def check_one_item_rounds(problems, mk, inst, alg, report) -> int:
    """dist/tree: the pre-reassignment placement of a direct run equals
    ``strict_sequential_greedy``, and the report equals that placement after
    the reassignment pass.  Returns the number of items assigned before it."""
    sequential = mk.strict_sequential_greedy(inst).assignment.placement
    if mk.run_algorithm(alg, inst).pre_final_assignment.placement != sequential:
        problems.append(f"{alg}: pre-reassignment placement != strict_sequential_greedy")
    final, changed = reassigned(inst, sequential)
    assigned = sum(k is not None for k in sequential.values())
    check_report(problems, f"{alg} report", inst, alg, report, final, assigned, len(changed))
    return assigned


def check_dist(mk, case, _returned):
    _, report_path, trace_path = case.paths
    problems = []
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assigned = check_one_item_rounds(problems, mk, case.inst, "dist", report)
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != report["messages"]:
        problems.append(f"dist trace: {len(lines)} lines for {report['messages']} messages")
    winners = sum(1 for line in lines if line.split()[2:4] == ["S", "winner"])
    if winners != assigned:
        problems.append(f"dist trace: {winners} winner reports, {assigned} items assigned")
    phases = [int(line.split(" ", 1)[0]) for line in lines]
    if phases != sorted(phases) or (phases and phases[-1] > report["phases"]):
        problems.append("dist trace: phases out of order or past the last phase")
    return problems


# --- tree-deep: `mkpsim compare --algs tree`.  n=100 gives a
# non-power-of-two tree of depth 6; most processors have an empty inbox in
# most of the D+3 phases of a round, so phase-loop and idle steps dominate.

def build_tree(mk, seed, sizes, _workdir):
    return [
        Case(i, mk.gen_random(mk.GenParams(sizes["m"], sizes["n"], 50, 50, 1, 100,
                                           seed=derive_seed(seed, "tree-deep", i))))
        for i in range(sizes["pool"])
    ]


def op_compare(algorithms):
    def op(mk, case):
        reports = mk.run_experiment(case.inst, algorithms)
        return reports, mk.reports_to_csv(reports)
    return op


def output_compare(_case, returned) -> bytes:
    reports, text = returned
    return repr((text, [placement_key(r.placement) for r in reports])).encode()


def check_tree(mk, case, returned):
    (report,), text = returned
    problems = []
    check_one_item_rounds(problems, mk, case.inst, "tree", report)
    check_csv(problems, "tree", text, [report])
    return problems


# --- batch-wide: `mkpsim compare --algs simple modified`.  About two
# deliveries per item, so the engine is a small share; the density sort,
# the reassignment pass and core's O(n*m) scans take the time.

def build_batch(mk, seed, sizes, _workdir):
    n, W = sizes["n"], sizes["W"]
    cases = []
    for i in range(sizes["pool"]):
        rng = random.Random(derive_seed(seed, "batch-wide", i))
        pairs = [(it.cost, it.weight) for it in mk.gen_adversarial(n, W).items]
        # density <= 3/5 < 1: fillers sort after both adversarial blocks
        pairs += [(rng.randint(1, 3), rng.randint(5, 50)) for _ in range(sizes["fillers"])]
        rng.shuffle(pairs)
        cases.append(Case(i, mk.Instance.from_pairs(pairs, [W] * n)))
    return cases


def check_batch(mk, case, returned):
    inst = case.inst
    (simple, modified), text = returned
    problems = []
    batch = mk.batch_round_greedy(inst).assignment.placement
    check_report(problems, "simple report", inst, "simple", simple, batch, 0, 0)
    final, changed = reassigned(inst, batch)
    check_report(problems, "modified report", inst, "modified", modified, final, 0, len(changed))
    n, W = inst.n, inst.capacities[0]
    if len(changed) != n or modified.profit != n * W:
        problems.append(
            f"modified: {len(changed)} knapsacks swapped and profit {modified.profit}, "
            f"expected all {n} and {n * W}"
        )
    check_csv(problems, "batch", text, [simple, modified])
    return problems


# --- verify-sweep: `mkpsim verify --sweep m=1..10 n=1..4 --seeds 25`.  The
# only flow that calls the oracle and the harness cross-checks; fixed
# per-run costs on tiny instances dominate.

def build_sweep(mk, seed, sizes, _workdir):
    cases = []
    for m in range(1, sizes["m_max"] + 1):
        for n in range(1, sizes["n_max"] + 1):
            for s in range(sizes["seeds"]):
                params = mk.GenParams(m, n, 50, 50, 1, 100,
                                      seed=derive_seed(seed, "verify-sweep", m, n, s))
                cases.append(Case(len(cases), mk.gen_random(params)))
    return cases


def op_verify(mk, case):
    return mk.verify_instance(case.inst, with_oracle=True)


def output_verify(_case, verdict) -> bytes:
    opt = verdict.opt
    runs = [
        (name, r.profit, r.pre_final_profit, r.messages, r.phases, r.rounds,
         r.changed_knapsacks, placement_key(r.assignment.placement))
        for name, r in sorted(verdict.results.items())
    ]
    head = None if opt is None else (opt.opt, opt.explored)
    return repr((head, verdict.violations, runs)).encode()


def check_verify(mk, case, verdict):
    inst = case.inst
    problems = [f"violation: {v}" for v in verdict.violations]
    opt = verdict.opt
    if opt is None:
        problems.append("oracle returned None")
    sequential = mk.strict_sequential_greedy(inst).assignment.placement
    batch = mk.batch_round_greedy(inst).assignment.placement
    pre = {"simple": batch, "modified": batch, "dist": sequential, "tree": sequential}
    for alg, res in verdict.results.items():
        if res.pre_final_assignment.placement != pre[alg]:
            problems.append(f"{alg}: pre-reassignment placement differs from the recomputation")
        if alg == "simple":
            final, changed = pre[alg], []
        else:
            final, changed = reassigned(inst, pre[alg])
        assigned = sum(k is not None for k in pre[alg].values())
        want = expected_accounting(alg, inst.m, inst.n, assigned, len(changed))
        got = (res.messages, res.phases, res.rounds)
        if got != want:
            problems.append(f"{alg}: (messages, phases, rounds) {got} != {want}")
        if res.assignment.placement != final or res.profit != profit_of(inst, final):
            problems.append(f"{alg}: final placement or profit differs from the recomputation")
        if opt is not None and res.profit > opt.opt:
            problems.append(f"{alg}: profit {res.profit} exceeds OPT {opt.opt}")
    if opt is not None:
        placement = opt.assignment.placement
        if not loads_fit(inst, placement) or profit_of(inst, placement) != opt.opt:
            problems.append("oracle: returned assignment is infeasible or misvalued")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dist-trace",
            {"n": 64, "m": 30, "pool": 4},
            75.0,
            build_dist, op_dist, output_dist, check_dist,
        ),
        Workload(
            "tree-deep",
            {"n": 100, "m": 50, "pool": 16},
            80.0,
            build_tree, op_compare(["tree"]), output_compare, check_tree,
        ),
        Workload(
            "batch-wide",
            {"n": 64, "W": 1000, "fillers": 2500, "pool": 4},
            80.0,
            build_batch, op_compare(("simple", "modified")), output_compare, check_batch,
        ),
        Workload(
            "verify-sweep",
            {"m_max": 10, "n_max": 4, "seeds": 50},
            95.0,
            build_sweep, op_verify, output_verify, check_verify,
        ),
    )
}


# ---------------------------------------------------------------------------
# Span recorder
# ---------------------------------------------------------------------------

# (module, attribute) pairs wrapped in a traced run.  Every mkpsim module that
# binds the same function object under that name is patched too, since
# ``from .core import sort_by_density`` copies the binding.
TRACED_FUNCTIONS = (
    ("simnet", "run_protocol"),
    ("simnet", "render_trace"),
    ("algorithms", "run_algorithm"),
    ("algorithms", "final_reassign"),
    ("algorithms", "_check_run"),
    ("core", "sort_by_density"),
    ("core", "check_feasible"),
    ("core", "objective"),
    ("core", "load_instance"),
    ("oracle", "exact_optimum"),
    ("oracle", "brute_force_optimum"),
    ("oracle", "_branch_and_bound"),
    ("oracle", "strict_sequential_greedy"),
    ("oracle", "batch_round_greedy"),
    ("harness", "verify_instance"),
    ("harness", "audit_max_capacity_dispatch"),
    ("harness", "gen_random"),
    ("harness", "gen_adversarial"),
    ("harness", "make_report"),
    ("harness", "report_to_json"),
    ("harness", "reports_to_csv"),
    ("harness", "run_experiment"),
)
LAYERS = ("bench",) + tuple(dict.fromkeys(module for module, _ in TRACED_FUNCTIONS))


def _span_of(frame) -> int:
    """The span id of a frame, or of its nearest recorded ancestor."""
    return frame[1] if frame[1] >= 0 else frame[2]


class SpanRecorder:
    """Wraps mkpsim's layer boundaries at run time and records spans.

    Each wrapped call pushes a frame; on return its duration is added to the
    parent frame's covered time, so self time is the span minus its
    children.  Node ``step`` calls are aggregated per class instead of being
    kept as spans.  ``install``/``uninstall`` patch and restore the modules.
    """

    def __init__(self, mk):
        self.modules = mkpsim_modules(mk)
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.op = -1
        self.reset()
        self.patches: list[tuple] = []
        self.wrappers: list[tuple] = []
        for module_name, attr in TRACED_FUNCTIONS:
            fn = getattr(getattr(mk, module_name), attr)
            wrapped = self.wrap(f"{module_name}.{attr}", module_name, fn)
            self.wrappers.append((fn, attr, wrapped))
        self.steps = []
        sources = []
        for cls in vars(mk.algorithms).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, mk.simnet.Node)
                and cls.__module__ == mk.algorithms.__name__
                and "step" in vars(cls)
            ):
                self.steps.append((cls, vars(cls)["step"], self.wrap_step(cls)))
                if issubclass(cls, mk.simnet.SourceNode):
                    sources.append(cls.__name__)
        self.source_steps = tuple(f"algorithms.step.{name}" for name in sources)

    def reset(self) -> None:
        """Zero the aggregates; recorded spans are kept."""
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, key, layer, frame, t0, t1):
        dur = t1 - t0
        own = dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        self.calls[key] = self.calls.get(key, 0) + 1
        self.total[key] = self.total.get(key, 0.0) + dur
        self.self_time[key] = self.self_time.get(key, 0.0) + own
        self.layer_self[layer] += own
        if frame[1] >= 0:
            self.spans[frame[1]] = (self.op, key, t0, t1, frame[2])

    def wrap(self, key: str, layer: str, fn):
        on_result = RESULT_COUNTERS.get(key)
        stack, spans, perf = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, len(spans), _span_of(stack[-1]) if stack else -1]
            spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self._close(key, layer, frame, t0, t1)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def wrap_step(self, cls):
        key = f"algorithms.step.{cls.__name__}"
        idle_key = f"{key}.idle"
        step, stack, perf = vars(cls)["step"], self.stack, time.perf_counter

        def wrapper(node, inbox):
            frame = [0.0, -1, _span_of(stack[-1]) if stack else -1]
            stack.append(frame)
            t0 = perf()
            try:
                sends = step(node, inbox)
            finally:
                t1 = perf()
                stack.pop()
                self._close(key, "algorithms", frame, t0, t1)
            if not inbox and not sends:
                self.count(idle_key)
            return sends

        return wrapper

    def install(self) -> None:
        for fn, attr, wrapped in self.wrappers:
            patch_everywhere(self.modules, attr, fn, wrapped, self.patches)
        for cls, step, wrapped in self.steps:
            self.patches.append((cls, "step", step))
            setattr(cls, "step", wrapped)

    def uninstall(self) -> None:
        restore(self.patches)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, key, t0, t1, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": key, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def _count_protocol(rec, result):
    _, metrics, _ = result
    rec.count("deliveries", metrics.messages)
    rec.count("phases", metrics.phases)


def _count_reassign(rec, result):
    rec.count("reassign_changed", len(result[1]))


def _count_oracle(rec, result):
    if result is None:
        rec.count("oracle_none")
    else:
        rec.count("explored", result.explored)


def _count_verify(rec, result):
    rec.count("violations", len(result.violations))


RESULT_COUNTERS = {
    "simnet.run_protocol": _count_protocol,
    "algorithms.final_reassign": _count_reassign,
    "oracle.exact_optimum": _count_oracle,
    "harness.verify_instance": _count_verify,
}


def alloc_peak_mb(mk, workload, cases) -> float:
    """Largest tracemalloc peak inside ``run_protocol`` over a spread-out
    sample of the pool; tracing runs only while the engine does."""
    run_protocol = mk.simnet.run_protocol
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return run_protocol(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    patches: list[tuple] = []
    patch_everywhere(mkpsim_modules(mk), "run_protocol", run_protocol, measured, patches)
    try:
        step = max(1, len(cases) // ALLOC_SAMPLE)
        for case in cases[::step][:ALLOC_SAMPLE]:
            workload.op(mk, case)
    finally:
        restore(patches)
    return max(peaks) / 2**20 if peaks else 0.0


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_kernel() -> int:
    """Fixed pure-Python work (dict updates, small objects, formatting, a
    keyed sort) that slows down with the machine as mkpsim's code does."""
    table: dict[int, int] = {}
    acc = 0
    pairs = []
    for i in range(6000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        pair = _Pair(i, key)
        pairs.append(pair)
        acc += pair.a - pair.b + len(f"{i} {key}")
    pairs.sort(key=lambda p: (p.b, -p.a))
    return acc + len(pairs)


class SpeedGauge:
    """Tracks how fast the machine runs Python, to report host times at a
    fixed reference speed.

    On a shared host the same op takes up to ~1.8x longer while other
    tenants load the machine, in regimes that last minutes, so raw wall
    times of two runs of one commit differ by more than any useful bound.
    The gauge times one call of ``reference_kernel`` (collector off, so the
    program's heap cannot slow it) every ``SAMPLE_EVERY_S`` while the run
    measures.  A host time of ``wall`` seconds around instant ``t`` is
    reported as ``wall * REFERENCE_MS / k``, where ``k`` is the median
    kernel time of the samples within ``WINDOW_S`` of ``t``.  On the
    baseline machine the ratio of an op's time to the kernel's stayed within
    a few percent across such regimes while the raw time moved by 75 %.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append(t1 - t0)

    def refresh(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def at_reference_speed(self, t0: float, wall: float) -> float:
        mid = t0 + wall / 2
        lo = bisect.bisect_left(self.times, mid - WINDOW_S)
        hi = bisect.bisect_right(self.times, mid + WINDOW_S)
        # an empty window falls back to the nearest sample on each side
        kernel = statistics.median(self.kernel_s[lo:hi] or self.kernel_s[max(0, lo - 1):hi + 1])
        return wall * REFERENCE_MS / 1e3 / kernel


def tail(samples, pct):
    """(value, samples beyond it) at percentile ``pct``, by nearest rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    """Counters of one benchmark process."""

    def __init__(self, workload, mk, cases):
        self.workload, self.mk = workload, mk
        self.attempted = 0
        self.failed = 0
        self.reference: list[str | None] = [None] * len(cases)
        self.errors: list[str] = []

    def fail(self, case, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"op {case.index}: {message}")

    def timed(self, case, op=None):
        """Run and check one op; returns (start, wall seconds), or None if it
        raised.

        An op whose output fails a check is counted as failed but keeps its
        time: it did the work."""
        op = op or self.workload.op
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            returned = op(self.mk, case)
            wall = time.perf_counter() - t0
            digest = hashlib.sha256(self.workload.output(case, returned)).hexdigest()
            if self.reference[case.index] is None:
                problems = self.workload.check(self.mk, case, returned)
                if problems:
                    self.fail(case, "; ".join(problems[:3]))
                else:
                    self.reference[case.index] = digest
            elif digest != self.reference[case.index]:
                self.fail(case, "output differs from the checked first run")
        except Exception as exc:  # a failing op is counted, never fatal
            self.fail(case, f"{type(exc).__name__}: {exc}")
            return None
        return t0, wall

    def digest(self) -> str:
        joined = "".join(d or "-" for d in self.reference)
        return hashlib.sha256(joined.encode()).hexdigest()


def setup(workload, seed, sizes, workdir):
    mk = import_mkpsim()
    return mk, workload.build(mk, seed, sizes, workdir)


def time_to_ready(cmd) -> float:
    """Wall seconds from starting ``cmd`` until it prints ``ready``; the
    process is then waited for."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            wall = time.perf_counter() - t0
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}: {err.strip()[-500:]}")
    return wall


def timed_setups(workload, seed, sizes, workdir):
    """(bare, setup) wall seconds, ``SETUP_REPEATS`` times.

    ``setup`` is one set-up in a fresh process, timed from starting the
    interpreter until it could begin its first op, so the interpreter's
    start-up and every import are in it.  ``bare`` is a bare interpreter
    start just before it.  Like the ops (see SpeedGauge), set-ups slow down
    with the shared host, and the gauge's kernel, sampled between
    processes, tracks a process start badly; a bare start is the same kind
    of work, so a set-up is reported as ``setup * REFERENCE_START_MS /
    bare``.  Over six blocks of seven pairs on the baseline machine the
    block medians of the raw set-up spread by 0.12-0.15, those of the
    ratio by 0.04-0.06.  The bare start runs no benchmark or mkpsim code,
    so no program change moves it."""
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                 "--seed", str(seed), "--seconds", "0", "--setup-only",
                 "--sizes", json.dumps(sizes), "--workdir", str(workdir)]
    bare_cmd = [sys.executable, "-c", "print('ready')"]
    return [(time_to_ready(bare_cmd), time_to_ready(setup_cmd)) for _ in range(SETUP_REPEATS)]


def run_untraced(workload, seed, seconds, sizes, workdir):
    # this process's own set-up also writes the bytecode caches the timed
    # set-ups read, so a fresh checkout's compile is in none of them
    mk, cases = setup(workload, seed, sizes, workdir)
    raw_setups = timed_setups(workload, seed, sizes, workdir / "setup")
    gauge = SpeedGauge()
    run = Run(workload, mk, cases)
    for case in cases:  # first pass: full checks, not sampled
        run.timed(case)
    raw = []
    deadline = time.perf_counter() + seconds
    while True:
        for case in cases:
            gauge.refresh()
            timing = run.timed(case)
            if timing is not None:
                raw.append(timing)
        if time.perf_counter() >= deadline:
            break
    gauge.sample()
    if not raw:
        raise RuntimeError("every op raised")
    setups = [wall * REFERENCE_START_MS / 1e3 / bare for bare, wall in raw_setups]
    samples = [gauge.at_reference_speed(t0, wall) for t0, wall in raw]
    walls = [wall for _, wall in raw]
    tail_s, beyond = tail(samples, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    kernel_ms = sorted(k * 1e3 for k in gauge.kernel_s)
    notes = [
        f"samples {len(samples)} (pool {len(cases)}, first pass unsampled)",
        f"op_ms_tail is p{workload.tail_pct:g}: {beyond} of {len(samples)} samples beyond it; "
        f"p99 {tail(samples, 99.0)[0] * 1e3:.6g} ms",
        f"setup_s is the median of {SETUP_REPEATS} set-ups, each in a fresh process, at "
        f"reference speed ({REFERENCE_START_MS} ms bare start); bare starts took "
        f"{min(b for b, _ in raw_setups) * 1e3:.1f}..{max(b for b, _ in raw_setups) * 1e3:.1f} ms",
        f"host times at reference speed ({REFERENCE_MS} ms kernel); kernel sampled "
        f"{len(kernel_ms)} times, {kernel_ms[0]:.3f}..{kernel_ms[-1]:.3f} ms, "
        f"median {statistics.median(kernel_ms):.3f} ms",
        f"raw wall: setup_s {statistics.median(w for _, w in raw_setups):.6g} s, "
        f"ops_per_s {len(walls) / sum(walls):.6g} 1/s, "
        f"op_ms_p50 {statistics.median(walls) * 1e3:.6g} ms, "
        f"op_ms_tail {tail(walls, workload.tail_pct)[0] * 1e3:.6g} ms",
    ]
    return run, metrics, notes


def run_traced(workload, seed, seconds, sizes, workdir):
    mk = import_mkpsim()
    rec = SpanRecorder(mk)
    rec.install()
    try:
        cases = rec.wrap("bench.setup", "bench", workload.build)(mk, seed, sizes, workdir)
    finally:
        rec.uninstall()
    gen_s = rec.total.get("harness.gen_random", 0.0) + rec.total.get("harness.gen_adversarial", 0.0)
    run = Run(workload, mk, cases)
    for case in cases:
        run.timed(case)
    rec.reset()  # the per-op figures cover the measured ops only
    traced_op = rec.wrap("bench.op", "bench", workload.op)
    plain = traced = 0.0
    ops = 0
    deadline = time.perf_counter() + seconds
    while True:
        for case in cases:
            timing = run.timed(case)
            rec.op = ops
            rec.install()
            try:
                traced_timing = run.timed(case, traced_op)
            finally:
                rec.uninstall()
            if timing is not None and traced_timing is not None:
                plain += timing[1]
                traced += traced_timing[1]
                ops += 1
        if time.perf_counter() >= deadline:
            break
    if not ops:
        raise RuntimeError("every op raised")
    peak = alloc_peak_mb(mk, workload, cases)
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
    rec.write_spans(spans_path)
    metrics = layer_metrics(rec, ops, gen_s, peak, traced, plain)
    notes = [
        f"traced ops {ops} (pool {len(cases)}); spans in {spans_path.relative_to(ROOT)}",
        f"layer self times sum to {sum(rec.layer_self.values()) / ops:.6g} s per op; "
        f"traced op wall {metrics['trace.wall_s'][0]:.6g} s, untraced {plain / ops:.6g} s",
    ]
    return run, metrics, notes


def layer_metrics(rec, ops, gen_s, peak_mb, traced, plain):
    def per_op(table, *keys):
        return sum(table.get(k, 0.0) for k in keys) / ops

    steps = [k for k in rec.calls if k.startswith("algorithms.step.")]
    step_calls = sum(rec.calls[k] for k in steps)
    idle = sum(rec.counts.get(f"{k}.idle", 0) for k in steps)
    deliveries = rec.counts.get("deliveries", 0)
    explored = rec.counts.get("explored", 0)
    exact_calls = rec.calls.get("oracle.exact_optimum", 0)
    simnet_self = rec.self_time.get("simnet.run_protocol", 0.0)
    exact_total = rec.total.get("oracle.exact_optimum", 0.0)
    s, c, r = "s", "count", "ratio"
    metrics = {
        "simnet.self_s": (simnet_self / ops, s),
        "simnet.us_per_delivery": (simnet_self / deliveries * 1e6 if deliveries else 0.0, "us"),
        "simnet.deliveries": (deliveries / ops, c),
        "simnet.phases": (rec.counts.get("phases", 0) / ops, c),
        "simnet.step_calls": (step_calls / ops, c),
        "simnet.idle_step_ratio": (idle / step_calls if step_calls else 0.0, r),
        "simnet.alloc_peak_mb": (peak_mb, "MB"),
        "simnet.render_s": (per_op(rec.total, "simnet.render_trace"), s),
        "algorithms.step_s": (per_op(rec.self_time, *steps), s),
        "algorithms.source_step_s": (per_op(rec.self_time, *rec.source_steps), s),
        "algorithms.reassign_s": (per_op(rec.total, "algorithms.final_reassign"), s),
        "algorithms.reassign_changed": (rec.counts.get("reassign_changed", 0) / ops, c),
        "algorithms.check_run_s": (per_op(rec.self_time, "algorithms._check_run"), s),
        "core.sort_s": (per_op(rec.total, "core.sort_by_density"), s),
        "core.sort_calls": (per_op(rec.calls, "core.sort_by_density"), c),
        "core.check_feasible_s": (per_op(rec.total, "core.check_feasible"), s),
        "core.check_feasible_calls": (per_op(rec.calls, "core.check_feasible"), c),
        "core.objective_s": (per_op(rec.total, "core.objective"), s),
        "core.load_s": (per_op(rec.total, "core.load_instance"), s),
        "oracle.exact_s": (exact_total / ops, s),
        "oracle.explored": (explored / ops, c),
        "oracle.us_per_node": (exact_total / explored * 1e6 if explored else 0.0, "us"),
        "oracle.bnb_calls": (per_op(rec.calls, "oracle._branch_and_bound"), c),
        "oracle.brute_calls": (per_op(rec.calls, "oracle.brute_force_optimum"), c),
        "oracle.unavailable": (
            rec.counts.get("oracle_none", 0) / exact_calls if exact_calls else 0.0, r),
        "oracle.recompute_s": (
            per_op(rec.total, "oracle.strict_sequential_greedy", "oracle.batch_round_greedy"), s),
        "harness.verify_self_s": (per_op(rec.self_time, "harness.verify_instance"), s),
        "harness.audit_s": (per_op(rec.total, "harness.audit_max_capacity_dispatch"), s),
        "harness.gen_s": (gen_s, s),
        "harness.report_s": (
            per_op(rec.total, "harness.make_report", "harness.report_to_json",
                   "harness.reports_to_csv"), s),
        "harness.violations": (rec.counts.get("violations", 0) / ops, c),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = (rec.layer_self[layer] / ops, s)
    metrics["trace.wall_s"] = (rec.total.get("bench.op", 0.0) / ops, s)
    metrics["trace.overhead_ratio"] = (traced / plain, r)
    return metrics


def run_workload(name, seed, seconds, trace, sizes=None):
    """One benchmark run; returns (result dict, human-readable lines)."""
    workload = WORKLOADS[name]
    sizes = dict(workload.sizes, **(sizes or {}))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if trace else run_untraced
        run, metrics, notes = runner(workload, seed, seconds, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"workload {name} seed {seed} sizes {json.dumps(sizes, sort_keys=True)}"]
    lines += notes
    lines.append(f"failed_ratio {run.failed / run.attempted:.6g} "
                 f"(failed {run.failed} of {run.attempted} ops)")
    lines += [f"error: {e}" for e in run.errors]
    lines.append(f"digest {run.digest()}")
    lines += [f"{key} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a timed set-up process (see timed_setup); prints "ready" and exits
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", default="{}", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        setup(workload, args.seed, dict(workload.sizes, **json.loads(args.sizes)), workdir)
        print("ready", flush=True)
        return 0
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
