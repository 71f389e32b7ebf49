import copy
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mkpsim import PROTOCOLS, Instance, instance_to_json, save_instance
from mkpsim.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the commands that read an instance file, each given one with --instance
INSTANCE_COMMANDS = [("run", "--alg", "tree"), ("compare",), ("verify",)]
INSTANCE_COMMAND_IDS = ["run", "compare", "verify"]


class TestGeneration:
    def test_gen_adversarial_then_run_with_oracle(self, capsys, tmp_path):
        fam = tmp_path / "family.json"
        code, out, err = run_cli(
            capsys, "gen-adversarial", "--n", "2", "--W", "10", "--out", str(fam)
        )
        assert code == 0
        code, out, err = run_cli(
            capsys, "run", "--alg", "simple", "--instance", str(fam), "--oracle"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["profit"] == 4
        assert doc["opt"] == 20
        assert doc["ratio"] == "1/5"
        assert doc["bound_ok"] is False

    def test_gen_random_to_stdout_is_deterministic(self, capsys):
        argv = ["gen-random", "--m", "6", "--n", "2", "--seed", "9"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert len(doc["items"]) == 6 and len(doc["capacities"]) == 2

    def test_gen_adversarial_rejects_small_w(self, capsys):
        code, out, err = run_cli(capsys, "gen-adversarial", "--n", "2", "--W", "2")
        assert code == 2
        assert "W must be >= 3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-random", "--m", "1", "--n", "1", "--seed", "1"],
            ["verify", "--sweep", "m=0..0", "n=1..1"],
        ],
        ids=["gen-random", "verify"],
    )
    def test_generator_ranges_and_their_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert (args.cost_max, args.weight_max, args.cap_min, args.cap_max) == (50, 50, 1, 100)
        ranges = ["--cost-max", "7", "--weight-max", "8", "--cap-min", "2", "--cap-max", "9"]
        args = build_parser().parse_args(argv + ranges)
        assert (args.cost_max, args.weight_max, args.cap_min, args.cap_max) == (7, 8, 2, 9)


class TestRun:
    def test_empty_instance_runs_clean(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"items": [], "capacities": [5]}')
        code, out, err = run_cli(capsys, "run", "--alg", "tree", "--instance", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["profit"] == 0 and doc["messages"] == 0

    def test_report_and_trace_files(self, capsys, tmp_path, instance_a):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        report = tmp_path / "report.json"
        trace = tmp_path / "run.trace"
        code, out, err = run_cli(
            capsys,
            "run",
            "--alg",
            "dist",
            "--instance",
            str(inst),
            "--report",
            str(report),
            "--trace",
            str(trace),
        )
        assert code == 0 and out == ""
        assert json.loads(report.read_text())["profit"] == 18
        first_line = trace.read_text().splitlines()[0]
        assert first_line == "1 S p1 weight 4"

    def test_report_and_trace_naming_one_file_exit_2(self, capsys, tmp_path, instance_a):
        # the trace would be written over the report
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
        same = str(tmp_path / "same.out")
        for trace in [same, str(tmp_path / "sub" / ".." / "link.out")]:
            code, out, err = run_cli(
                capsys, "run", "--alg", "tree", "--instance", str(inst),
                "--report", same, "--trace", trace,
            )
            assert code == 2 and out == ""
            assert err == "mkpsim: error: --report and --trace name the same file\n"
            assert not (tmp_path / "same.out").exists()

    @pytest.mark.parametrize("with_report", [False, True], ids=["stdout", "report file"])
    def test_unwritable_trace_exit_2_writes_no_report(self, capsys, tmp_path, instance_a, with_report):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        report = tmp_path / "report.json"
        argv = ["run", "--alg", "dist", "--instance", str(inst), "--trace", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv, *(["--report", str(report)] if with_report else []))
        assert code == 2 and out == ""
        assert err.startswith("mkpsim: error: [Errno 21] Is a directory")
        assert not report.exists()

    @pytest.mark.parametrize("old", [None, b"an earlier trace\n"], ids=["new trace", "old trace"])
    def test_unwritable_report_leaves_the_trace_as_it_was(self, capsys, tmp_path, instance_a, old):
        # the trace is opened first; the report's open fails after it
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        trace = tmp_path / "run.trace"
        if old is not None:
            trace.write_bytes(old)
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(
            capsys, "run", "--alg", "dist", "--instance", str(inst),
            "--report", str(tmp_path), "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err.startswith("mkpsim: error: [Errno 21] Is a directory")
        assert sorted(tmp_path.iterdir()) == before
        if old is not None:
            assert trace.read_bytes() == old

    def test_files_are_written_over_in_full(self, capsys, tmp_path, instance_a):
        # a longer earlier report and trace leave no tail behind
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        report, trace = tmp_path / "report.json", tmp_path / "run.trace"
        argv = ["run", "--alg", "tree", "--instance", str(inst),
                "--report", str(report), "--trace", str(trace)]
        assert run_cli(capsys, *argv)[0] == 0
        fresh = report.read_bytes(), trace.read_bytes()
        report.write_bytes(fresh[0] * 3)
        trace.write_bytes(fresh[1] * 3)
        assert run_cli(capsys, *argv) == (0, "", "")
        assert (report.read_bytes(), trace.read_bytes()) == fresh

    def test_trace_to_a_device(self, capsys, tmp_path, instance_a):
        # a file that cannot be truncated is written as it is
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, out, err = run_cli(
            capsys, "run", "--alg", "tree", "--instance", str(inst), "--trace", os.devnull
        )
        assert code == 0 and err == ""
        assert json.loads(out)["profit"] == 18

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path, instance_a):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        argv = ["run", "--alg", "tree", "--instance", str(inst), "--oracle"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"items": [], "capacities": [5], "spurious": 1}')
        code, out, err = run_cli(capsys, "run", "--alg", "simple", "--instance", str(path))
        assert code == 2
        assert "error" in err

    def test_deeply_nested_instance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(capsys, "run", "--alg", "simple", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == "mkpsim: error: JSON nested too deeply to parse\n"

    def test_number_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text(
            '{"items": [{"id": 0, "cost": %s, "weight": 1}], "capacities": [5]}' % ("9" * 5000)
        )
        code, out, err = run_cli(capsys, "run", "--alg", "simple", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == "mkpsim: error: a number has too many digits to parse\n"

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"items": [], "capacities": [1], "capacities": [2]}', "capacities"),
            ('{"items": [{"id": 0, "cost": 1, "cost": 2, "weight": 1}], "capacities": [5]}', "cost"),
        ],
        ids=["top-level", "item"],
    )
    def test_duplicate_field_exits_2(self, capsys, tmp_path, doc, field):
        path = tmp_path / "dup.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "run", "--alg", "simple", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == f"mkpsim: error: duplicate field '{field}'\n"

    @pytest.mark.parametrize(
        "doc",
        [
            # an item id nested 900 arrays deep, a 5,000-character capacity
            # and a negative 4,000-digit one
            '{"items": [{"id": %s, "cost": 1, "weight": 1}], "capacities": [5]}'
            % ("[" * 900 + "]" * 900),
            json.dumps({"items": [], "capacities": ["x" * 5000]}),
            '{"items": [], "capacities": [-%s]}' % ("9" * 4000),
        ],
        ids=["nested-id", "long-capacity", "huge-negative-capacity"],
    )
    def test_rejected_value_gives_one_short_error_line(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "run", "--alg", "simple", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("mkpsim: error: ") and err.endswith("...\n")
        assert err.count("\n") == 1
        assert len(err.encode()) < 200
        assert "Traceback" not in err

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no digit limit"
    )
    @pytest.mark.parametrize("argv", INSTANCE_COMMANDS, ids=INSTANCE_COMMAND_IDS)
    def test_total_cost_past_the_digit_limit_exits_2(self, capsys, tmp_path, digit_limit, argv):
        # each cost has 4,300 digits and prints; their sum, the profit of
        # filling the one knapsack, has 4,301 and does not
        digit_limit(4300)
        cost = "1" + "0" * 4299
        items = ", ".join('{"id": %d, "cost": %s, "weight": 1}' % (i, cost) for i in range(10))
        path = tmp_path / "total.json"
        path.write_text('{"items": [%s], "capacities": [10]}' % items)
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert (code, out) == (2, "")
        assert err == "mkpsim: error: total cost has more than 4300 decimal digits\n"

    def test_oracle_certifies_a_1500_item_instance(self, capsys, tmp_path):
        # the branch and bound goes one level deeper per item: m=1500 is far
        # past any call-stack depth, and OPT must still be certified
        path = tmp_path / "big.json"
        argv = ("gen-random", "--m", "1500", "--n", "2", "--seed", "1", "--out", str(path))
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(
            capsys, "run", "--alg", "simple", "--instance", str(path), "--oracle"
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["opt"] == 2640

    def test_missing_instance_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--alg", "simple", "--instance", str(tmp_path / "nope.json")
        )
        assert code == 2

    def test_unknown_algorithm_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--alg", "sorta", "--instance", "x.json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["run", "--alg"],
            ["run", "--alg", "sorta" * 100, "--instance", "x.json"],
            ["verify", "--sweep", "-1..2", "n=1..2"],
            ["verify", "--instance", "x.json", "-\n" + "\u00e9" * 300],
        ],
        ids=["no-command", "missing-value", "long-choice", "dash-spec", "unknown-word"],
    )
    def test_usage_error_is_one_short_line(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.startswith("mkpsim: error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert len(captured.err.encode()) < 200

    def test_help_is_the_usage_text(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mkpsim verify [-h]")


class TestCompare:
    def test_table_output(self, capsys, tmp_path, instance_a):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, out, err = run_cli(
            capsys, "compare", "--instance", str(inst), "--oracle"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("algorithm,m,n,profit,opt")
        assert [line.split(",")[0] for line in lines[1:]] == [
            "simple",
            "modified",
            "dist",
            "tree",
        ]

    def test_algorithm_subset(self, capsys, tmp_path, instance_a):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, out, _ = run_cli(
            capsys, "compare", "--instance", str(inst), "--algs", "dist", "tree"
        )
        assert code == 0
        assert len(out.splitlines()) == 3


class TestSimulationFaults:
    @pytest.mark.parametrize(
        "argv", [("run", "--alg", "tree"), ("compare",)], ids=["run", "compare"]
    )
    def test_fault_is_one_line_with_exit_1(self, capsys, tmp_path, instance_a, monkeypatch, argv):
        import mkpsim.algorithms as algorithms

        # a phase bound below every protocol's real need makes the engine fault
        monkeypatch.setattr(algorithms.Protocol, "phases", lambda self, inst: 1)
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, out, err = run_cli(capsys, *argv, "--instance", str(inst))
        assert code == 1
        assert out == ""
        assert err == "mkpsim: invariant violated: protocol did not terminate within 2 phases\n"


class TestVerify:
    def test_single_instance_ok(self, capsys, tmp_path, instance_a):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, out, err = run_cli(capsys, "verify", "--instance", str(inst))
        assert code == 0
        assert out == "verified 1 instance: OK\n"
        assert err == ""

    def test_small_sweep_ok(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--sweep", "m=1..3", "n=1..2", "--seeds", "2"
        )
        assert code == 0
        assert out == "verified 12 instances: OK\n"

    def test_requires_exactly_one_mode(self, capsys, tmp_path, instance_a):
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        code, _, err = run_cli(
            capsys, "verify", "--instance", str(inst), "--sweep", "m=1..2", "n=1..1"
        )
        assert code == 2

    def test_bad_sweep_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--sweep", "m=1..3", "k=1..2")
        assert code == 2
        assert "expected n=LO..HI" in err

    def test_violation_exits_1_with_diagnostics(self, capsys, tmp_path, instance_a, monkeypatch):
        import mkpsim.harness as harness

        monkeypatch.setattr(harness, "exact_optimum", lambda inst, **kw: None)
        inst = tmp_path / "a.json"
        save_instance(instance_a, inst)
        code, out, err = run_cli(capsys, "verify", "--instance", str(inst))
        assert code == 1
        assert "violation" in err
        assert "1 violation(s)" in out

    def test_sweep_with_violations_exits_1_with_one_line_each(self, capsys, monkeypatch):
        # a bound of 0 messages: every run with m >= 1 breaks it, an empty
        # one does not
        zero_bound = replace(PROTOCOLS["simple"], message_bound=lambda inst: 0)
        monkeypatch.setitem(PROTOCOLS, "simple", zero_bound)
        code, out, err = run_cli(capsys, "verify", "--sweep", "m=0..1", "n=1..2", "--seeds", "2")
        assert code == 1
        # grid order: m, then n, then seed = m * 1_000_003 + n * 10_007 + s
        assert err == (
            "violation (m=1 n=1 seed=1010010): simple: messages 2 > bound 0\n"
            "violation (m=1 n=1 seed=1010011): simple: messages 2 > bound 0\n"
            "violation (m=1 n=2 seed=1020017): simple: messages 4 > bound 0\n"
            "violation (m=1 n=2 seed=1020018): simple: messages 4 > bound 0\n"
        )
        assert out == "verified 8 instances: 4 with violations\n"


# ---------------------------------------------------------------------------
# Malformed instance documents
# ---------------------------------------------------------------------------


class Raw(str):
    """JSON text put into a document as it is: numbers ``json`` would not write."""


class Obj(list):
    """A JSON object as a list of [key, value] pairs, so that a key may repeat."""


def _render(node) -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_render, node)) + "]"
    return json.dumps(node)  # NaN and Infinity included


def _containers(node):
    """Every object and array in a document, the document itself first."""
    if isinstance(node, list):
        yield node
        for member in node:
            yield from _containers(member[1] if isinstance(node, Obj) else member)


CANONICAL = json.loads(
    instance_to_json(Instance.from_pairs([(8, 4), (6, 4), (7, 7)], [10, 7])),
    object_pairs_hook=lambda pairs: Obj(map(list, pairs)),
)

wrong_values = st.one_of(
    st.sampled_from([None, True, False, "8", 0.5, 4.0, -0.0]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.builds(list),
    st.builds(Obj),
    # past the digit limit, exactly at it, and a float past the float range
    st.sampled_from([Raw("9" * 5000), Raw("-" + "9" * 5000), Raw("1" + "0" * 4299), Raw("1e400")]),
    st.integers(-3, 12),
    st.integers(-(10**30), 10**30),
)
keys = st.sampled_from(["", "ID", "Cost", "item", "id", "cost", "items", "capacities", "x" * 500])


@st.composite
def malformed_documents(draw) -> bytes:
    """The canonical document with one to three changes, each to an object
    or array in it: a member dropped, repeated, added, renamed or given a
    value of the wrong type; then, sometimes, bytes that are not UTF-8 and
    bytes after the document."""
    doc = copy.deepcopy(CANONICAL)
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, list) or draw(st.integers(0, 9)) == 0:
            doc = draw(wrong_values)  # a top level of the wrong type
            continue
        node = draw(st.sampled_from(list(_containers(doc))))
        op = draw(st.sampled_from(["value", "drop", "repeat", "rename", "add"]))
        if op == "add" or not node:
            value = draw(wrong_values)
            node.append([draw(keys), value] if isinstance(node, Obj) else value)
            continue
        i = draw(st.integers(0, len(node) - 1))
        if op == "drop":
            del node[i]
        elif op == "repeat":
            node.insert(i, copy.deepcopy(node[i]))
        elif op == "rename" and isinstance(node, Obj):
            node[i][0] = draw(keys)
        elif isinstance(node, Obj):
            node[i][1] = draw(wrong_values)
        else:
            node[i] = draw(wrong_values)
    data = _render(doc).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    if draw(st.integers(0, 4)) == 0:
        data += draw(st.sampled_from([b"\n", b" x", b"{}", b"]", b"\x00"]))
    return data


class TestMalformedInstance:
    @settings(max_examples=80, deadline=None)
    @given(malformed_documents())
    @example(b'{"items": [], "capacities": [1], "%s": 1}' % (b"x" * 5000))  # a long field name
    def test_every_command_exits_cleanly(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("malformed") / "instance.json"
        path.write_bytes(data)
        for argv in INSTANCE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "--instance", str(path)])  # no exception escapes
            err = err.getvalue()
            assert code in (0, 1, 2)
            if code == 0:
                assert err == ""
            else:  # one line, of bounded length
                assert err.count("\n") == 1 and err.endswith("\n")
                assert len(err.encode()) < 200


# pieces of a malformed `verify --sweep` word: every number that parses is
# at most 10, so a word pair that parses is a grid of at most 110 small
# instances; "9" * 5000 is past the interpreter's digit limit
spec_garbage = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
    st.sampled_from(["x" * 500, "\n", "\x00", "..", "=", "m=", "n="]),
)
spec_numbers = st.sampled_from(["0", "1", "2", "3", "10", "-1", "+1", " 2 ", "1_0", "٣"])
wrong_numbers = st.sampled_from(["", "1.5", "0x3", "1e1", "9" * 5000])


@st.composite
def sweep_words(draw, key: str) -> str:
    """One `--sweep` word meant as ``KEY=LO..HI``, each part of it wrong one
    time in eight: another or no key, another separator, no number, another
    range mark, or text that is no part of a spec at all."""
    wrong_key = st.sampled_from(["m" if key == "n" else "n", "M", "", f" {key}", "x" * 300])
    parts = [
        (st.just(key), wrong_key),
        (st.just("="), st.sampled_from(["", "==", ":", " = "])),
        (spec_numbers, wrong_numbers),
        (st.just(".."), st.sampled_from(["...", ".", "", ". ."])),
        (spec_numbers, wrong_numbers),
    ]
    word = ""
    for right, wrong in parts:
        if draw(st.integers(0, 7)) < 7:
            word += draw(right)
        else:
            word += draw(st.one_of(wrong, spec_garbage))
    return word


class TestMalformedSweepSpec:
    @settings(max_examples=150, deadline=None)
    @given(sweep_words("m"), sweep_words("n"))
    @example("m=1.." + "x" * 500, "n=1..1")  # a long bound
    @example("x" * 500, "n=1..1")  # a long word
    @example("m=" + "9" * 5000 + "..1", "n=1..1")  # past the digit limit
    @example("-1..2", "n=1..2")  # read by argparse as an option, not a spec
    def test_verify_sweep_exits_cleanly(self, m_word, n_word):
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--sweep", m_word, n_word, "--seeds", "1"]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)  # no other exception escapes
            except SystemExit as exc:  # how argparse ends on a usage error
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert err == "" and out.getvalue().startswith("verified ")
        else:  # one line, of bounded length
            assert err.count("\n") == 1 and err.endswith("\n")
            assert len(err.encode()) < 200
