"""Command-line interface.

Machine-readable output (instances, reports, tables, traces) goes to stdout
or the requested file; diagnostics go to stderr.  Exit codes: 0 success,
1 a verified invariant failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack

from .algorithms import ALGORITHMS, run_algorithm
from .core import InstanceFormatError, _shown, instance_to_json, load_instance
from .harness import (
    GenParams,
    SweepParams,
    gen_adversarial,
    gen_random,
    make_report,
    report_to_json,
    reports_to_csv,
    run_experiment,
    verify_instance,
    verify_sweep,
)
from .oracle import exact_optimum
from .simnet import SimulationFault, render_trace

USAGE_ERROR = 2
INVARIANT_ERROR = 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``mkpsim: error:`` line of bounded
    length, as every other input error is, not as the usage text and
    argparse's own message: the message's control and non-ASCII characters
    are escaped, and it is cut to 160 characters."""

    def error(self, message):
        text = message.encode("unicode_escape").decode("ascii")
        if len(text) > 160:
            text = text[:160] + "..."
        self.exit(USAGE_ERROR, f"mkpsim: error: {text}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mkpsim",
        description="Deterministic simulator for distributed greedy "
        "multiple-knapsack dispatch protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-random", help="generate a uniform random instance")
    p.add_argument("--m", type=int, required=True, help="number of items")
    p.add_argument("--n", type=int, required=True, help="number of knapsacks")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("gen-adversarial", help="generate a worst-case family instance")
    p.add_argument("--n", type=int, required=True, help="number of knapsacks")
    p.add_argument("--W", type=int, required=True, help="common capacity (>= 3)")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("run", help="run one algorithm on an instance")
    p.add_argument("--alg", choices=ALGORITHMS, required=True)
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--report", help="report path (default: stdout)")
    p.add_argument("--oracle", action="store_true", help="attach exact-optimum comparison")
    p.add_argument("--trace", help="write the message trace to this path")

    p = sub.add_parser("compare", help="run several algorithms, print a table")
    p.add_argument("--instance", required=True)
    p.add_argument("--algs", nargs="+", choices=ALGORITHMS, default=list(ALGORITHMS))
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser(
        "verify",
        help="check feasibility, equivalence, accounting and bound invariants",
    )
    p.add_argument("--instance", help="verify a single instance file")
    p.add_argument(
        "--sweep",
        nargs=2,
        metavar=("m=LO..HI", "n=LO..HI"),
        help="verify a grid of random instances",
    )
    p.add_argument("--seeds", type=int, default=100, help="seeds per sweep grid point")

    # the generator's ranges: gen-random's, and verify's for a sweep
    for p in (sub.choices["gen-random"], sub.choices["verify"]):
        p.add_argument("--cost-max", type=int, default=50, help="costs drawn from [1, COST_MAX]")
        p.add_argument(
            "--weight-max", type=int, default=50, help="weights drawn from [1, WEIGHT_MAX]"
        )
        p.add_argument("--cap-min", type=int, default=1, help="capacity range lower bound")
        p.add_argument("--cap-max", type=int, default=100, help="capacity range upper bound")
    return parser


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each ``(text, path)`` pair, to stdout where ``path`` is None,
    opening every file, in order, before emptying or writing any: a path
    that cannot be opened leaves stdout empty and every named file as it
    was, and removes the files opened before it that did not exist."""
    with ExitStack() as stack, ExitStack() as made:
        files = []
        for _, path in outputs:
            if path is None:
                files.append(sys.stdout)
                continue
            new = not os.path.exists(path)
            files.append(stack.enter_context(open(path, "a", encoding="utf-8")))
            if new:
                made.callback(os.remove, path)  # unless every open succeeds
        made.pop_all()
        for (text, path), fh in zip(outputs, files):
            if path is not None and os.path.isfile(path):
                fh.truncate(0)  # a device or a pipe is written as it is
            fh.write(text)


def _parse_range(token: str, key: str) -> tuple[int, int]:
    prefix = key + "="
    if token.startswith(prefix) and ".." in token:
        lo_text, hi_text = token[len(prefix):].split("..", 1)
        try:
            return int(lo_text), int(hi_text)
        except ValueError:
            pass  # int()'s own message quotes the whole text, however long
    raise ValueError(f"expected {key}=LO..HI, got {_shown(token)}")


def _cmd_gen_random(args) -> int:
    params = GenParams(
        args.m, args.n, args.cost_max, args.weight_max, args.cap_min, args.cap_max, args.seed
    )
    inst = gen_random(params)
    _write((instance_to_json(inst), args.out))
    return 0


def _cmd_gen_adversarial(args) -> int:
    _write((instance_to_json(gen_adversarial(args.n, args.W)), args.out))
    return 0


def _cmd_run(args) -> int:
    if args.report and args.trace:
        if os.path.realpath(args.report) == os.path.realpath(args.trace):
            raise ValueError("--report and --trace name the same file")
    inst = load_instance(args.instance)
    result = run_algorithm(args.alg, inst, keep_trace=bool(args.trace))
    opt = None
    oracle = "none"
    if args.oracle:
        opt = exact_optimum(inst)
        oracle = "ok" if opt is not None else "unavailable"
    trace = [(render_trace(result.trace), args.trace)] if args.trace else []
    _write(*trace, (report_to_json(make_report(inst, result, opt, oracle)), args.report))
    return 0


def _cmd_compare(args) -> int:
    inst = load_instance(args.instance)
    reports = run_experiment(inst, algorithms=args.algs, with_oracle=args.oracle)
    sys.stdout.write(reports_to_csv(reports))
    return 0


def _cmd_verify(args) -> int:
    if bool(args.instance) == bool(args.sweep):
        raise ValueError("verify needs exactly one of --instance or --sweep")
    if args.instance:
        verdict = verify_instance(load_instance(args.instance))
        if verdict.ok:
            sys.stdout.write("verified 1 instance: OK\n")
            return 0
        for violation in verdict.violations:
            print(f"violation: {violation}", file=sys.stderr)
        sys.stdout.write(
            f"verified 1 instance: {len(verdict.violations)} violation(s)\n"
        )
        return INVARIANT_ERROR

    m_lo, m_hi = _parse_range(args.sweep[0], "m")
    n_lo, n_hi = _parse_range(args.sweep[1], "n")
    params = SweepParams(
        m_lo,
        m_hi,
        n_lo,
        n_hi,
        args.seeds,
        cost_max=args.cost_max,
        weight_max=args.weight_max,
        cap_min=args.cap_min,
        cap_max=args.cap_max,
    )
    summary = verify_sweep(params)
    if summary.ok:
        sys.stdout.write(f"verified {summary.instances} instances: OK\n")
        return 0
    for gp, violations in summary.failures:
        for violation in violations:
            print(
                f"violation (m={gp.m} n={gp.n} seed={gp.seed}): {violation}",
                file=sys.stderr,
            )
    sys.stdout.write(
        f"verified {summary.instances} instances: "
        f"{len(summary.failures)} with violations\n"
    )
    return INVARIANT_ERROR


_COMMANDS = {
    "gen-random": _cmd_gen_random,
    "gen-adversarial": _cmd_gen_adversarial,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"mkpsim: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SimulationFault as exc:
        print(f"mkpsim: invariant violated: {exc}", file=sys.stderr)
        return INVARIANT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
