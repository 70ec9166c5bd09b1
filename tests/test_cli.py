"""Command-line interface: dispatch, exit codes, report documents."""

import argparse
import dataclasses
import math
import os
import re
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpc import attacks, blackbox, cli, discrim, funcspec
from tpc.cli import (
    EXIT_INPUT,
    EXIT_NOT_OPTIMAL,
    EXIT_OK,
    EXIT_SCOPE,
    EXIT_VERIFY,
    main,
    parse_povm_file,
    parse_report_document,
    render_report_document,
)

from oracles import exact_prob

DATA = Path(__file__).parent / "data"


def render_povm(povm):
    """A POVM file as ``tpc certify --povm`` reads it, every entry to 17 digits."""
    lines = [f"dim: {povm.dim}"]
    for idx, e in enumerate(povm.elements):
        lines.append(f"# element {idx}")
        lines += [" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in e]
    return "\n".join(lines) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def ot_report(q0=0.5):
    """``@ot``'s report: the one-sided attack on the table seen from the
    receiver, by default at the balanced prior."""
    return attacks.attack_nondet_one_sided(funcspec.transpose(funcspec.builtin("ot")), q0)


class TestAnalyze:
    @pytest.mark.parametrize("name", ["@ot", "@counterexample"])
    def test_optimize_is_a_no_op_on_two_state_attacks(self, name, capsys):
        assert main(["analyze", name]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(["analyze", name, "--optimize"]) == EXIT_OK
        assert capsys.readouterr().out == plain
        assert "fixed-point" not in plain

    def test_ot_builtin(self, tmp_path, capsys):
        out = str(tmp_path / "ot.txt")
        assert main(["analyze", "@ot", "--out", out]) == EXIT_OK
        doc = parse_report_document((tmp_path / "ot.txt").read_text())
        report = doc.reports[0]
        assert report.p_honest == 0.75
        assert report.p_attack == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-10)
        stdout = capsys.readouterr().out
        assert "p_honest: 0.75" in stdout

    def test_counterexample_at_balanced_prior(self, tmp_path):
        out = str(tmp_path / "cx.txt")
        assert main(["analyze", "@counterexample", "--q0", "0.5", "--out", out]) == EXIT_OK
        report = parse_report_document((tmp_path / "cx.txt").read_text()).reports[0]
        assert report.scenario == "counterexample"
        assert report.advantage <= 1e-9

    def test_counterexample_default_sweep_finds_skewed_prior_attack(self, capsys):
        assert main(["analyze", "@counterexample"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "nondet-two-sided" in stdout

    def test_counterexample_file_at_balanced_prior(self, tmp_path, capsys):
        path = write(tmp_path, "cx.fn", funcspec._BUILTIN_TEXT["counterexample"])
        assert main(["analyze", path, "--q0", "0.5"]) == EXIT_OK
        assert "counterexample" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "options",
        [["--superposition", "0.6,0.8"], ["--q0-sweep", "0.9,0.99"]],
    )
    def test_counterexample_honours_caller_input(self, options, capsys):
        assert main(["analyze", "@counterexample", "--q0", "0.5"] + options) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "(nondet-two-sided)" in stdout
        if options[0] == "--superposition":
            assert "input: amps:0.59999999999999998+0j,0.80000000000000004+0j" in stdout
        else:
            assert "q0=0.98999999999999999 advantage=" in stdout

    def test_counterexample_rejects_malformed_superposition(self, capsys):
        argv = ["analyze", "@counterexample", "--q0", "0.5", "--superposition", "0.6,0.8,0"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error: expected 2 amplitudes, got 3\n"

    @pytest.mark.parametrize(
        "function, value, norm",
        [("@neq3", "1e308,1e308,0", "1.41421356237e+308"), ("@counterexample", "1e-170,1e-170", "1.41421356237e-170")],
        ids=["overflow", "underflow"],
    )
    def test_superposition_norm_at_the_float_range_ends(self, function, value, norm, capsys):
        # the norm neither overflows nor underflows, and no numpy warning is raised
        assert main(["analyze", function, "--superposition", value]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: input superposition norm {norm} is not 1\n")

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (["analyze", "@neq3", "--superposition", "0.6,0.8,0"], 1),
            (["analyze", "@counterexample", "--superposition", "0.6,0.8j"], 1),
            (["analyze", "two1.fn", "--superposition", "0.6,0.8j", "--q0-sweep", "0.3,0.7"], 1),
            (["analyze", "@neq3"], 0),
            (["analyze", "two2.fn"], 0),
            (["analyze", "@counterexample", "--q0", "0.5"], 0),
        ],
    )
    def test_amplitudes_are_checked_once_where_they_enter(self, argv, checks, monkeypatch, capsys):
        # a caller's --superposition is checked once; the built-in uniform and |0> inputs are not
        calls, check = [], blackbox.amplitude_vector

        def counted(amplitudes, n):
            calls.append(n)
            return check(amplitudes, n)

        monkeypatch.setattr(blackbox, "amplitude_vector", counted)
        argv = [str(DATA / "two_state" / a) if a.endswith(".fn") else a for a in argv]
        assert main(argv) == EXIT_OK
        assert len(calls) == checks

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "two2.fn"], ["analyze", "one0.fn", "--q0", "0.3"], ["analyze", "@counterexample", "--q0", "0.5"]],
    )
    def test_priors_the_attacks_build_are_not_rechecked(self, argv, monkeypatch, capsys):
        # the two-state attacks build their (q0, 1 - q0) rows after a range check
        def rejected(weights, n):
            raise AssertionError(f"prior {weights!r} checked again")

        monkeypatch.setattr(funcspec, "validate_prior", rejected)
        monkeypatch.setattr(discrim, "validate_prior", rejected)
        argv = [str(DATA / "two_state" / a) if a.endswith(".fn") else a for a in argv]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize(
        "option, value",
        [("--prior", "0.2,0.8"), ("--q0", "0.3"), ("--q0-sweep", "0.3"),
         ("--superposition", "1,2,3")],
    )
    def test_ot_rejects_options_it_cannot_honour(self, option, value, capsys):
        # @ot is a one-sided table: it honours a prior weight, from --q0 or
        # --prior, and rejects the options no one-sided table honours
        code = main(["analyze", "@ot", option, value])
        captured = capsys.readouterr()
        if option in ("--q0-sweep", "--superposition"):
            assert code == EXIT_INPUT
            assert captured.err.startswith(f"error: {option} does not apply to one-sided tables")
            return
        assert (code, captured.err) == (EXIT_OK, "")
        q0 = float(value.split(",")[0])
        assert captured.out == "\n".join(cli._report_lines(ot_report(q0))) + "\n"
        assert f"prior: {q0:.17g}, {1 - q0:.17g}\n" in captured.out
        if option == "--q0":
            assert "p_attack: 0.94440972086577935\n" in captured.out

    @pytest.mark.parametrize("option, value", [("--q0", "0.3"), ("--q0-sweep", "0.3,0.4")])
    def test_3x3_rejects_prior_weights_it_cannot_honour(self, option, value, capsys):
        assert main(["analyze", "@neq3", option, value]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {option} does not apply to 3x3 deterministic tables:"
            " their attack takes a prior over three inputs from --prior\n"
        )

    @pytest.mark.parametrize(
        "option, value", [("--superposition", "0.6,0.8"), ("--q0-sweep", "0.3,0.4")]
    )
    def test_one_sided_rejects_options_it_cannot_honour(self, option, value, tmp_path, capsys):
        path = write(tmp_path, "one.fn", TWO_STATE_TABLES["one-sided"])
        assert main(["analyze", path, "--q0", "0.3", option, value]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {option} does not apply to one-sided tables: the receiver measures"
            " after each honest input, under one prior weight from --q0 or --prior\n"
        )
        # the options the one-sided path honours still run
        assert main(["analyze", path, "--q0", "0.3"]) == EXIT_OK

    def test_ot_file_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "ot.fn", funcspec._BUILTIN_TEXT["ot"])
        assert main(["analyze", path]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "two_state" / "ot.stdout").read_text()

    @pytest.mark.parametrize("role", ["alice", "bob"])
    @pytest.mark.parametrize("source", ["builtin", "stored-text", "transposed"])
    def test_ot_is_routed_by_shape_in_either_orientation(self, source, role, tmp_path, capsys):
        # a one-sided table whose Bob has one input is attacked from Bob's
        # side, after --role: @ot, its stored text and its transpose print one stdout
        ref = {
            "builtin": "@ot",
            "stored-text": write(tmp_path, "ot.fn", funcspec._BUILTIN_TEXT["ot"]),
            "transposed": str(DATA / "two_state" / "ot_transposed.fn"),
        }[source]
        assert main(["analyze", ref, "--role", role]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "two_state" / "ot.stdout").read_text()

    def test_certify_routes_ot_by_shape(self, capsys):
        povm = str(DATA / "certify" / "ot.povm")
        for ref in ("@ot", str(DATA / "two_state" / "ot_transposed.fn")):
            assert main(["certify", ref, "--povm", povm]) == EXIT_OK
            assert capsys.readouterr().out == (DATA / "certify" / "ot.stdout").read_text()

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_one_sided_table_without_a_guess_is_out_of_scope(self, role, tmp_path, capsys):
        # both parties have one input: either side has nothing to guess
        text = "type: probabilistic\nsided: one\ninputs: 1 1\noutcomes: 2\nk: 0\n1/3\n"
        assert main(["analyze", write(tmp_path, "one.fn", text), "--role", role]) == EXIT_SCOPE
        assert capsys.readouterr() == (
            "", "out of scope: only one-sided tables with two partner inputs are implemented\n"
        )

    def test_larger_deterministic_alphabet_is_out_of_scope(self, tmp_path, capsys):
        text = (
            "type: deterministic\nsided: two\ninputs: 4 4\noutcomes: 2\n"
            "0 0 1 1\n0 1 1 0\n1 1 0 0\n1 0 0 1\n"
        )
        path = write(tmp_path, "f4.fn", text)
        assert main(["analyze", path]) == EXIT_SCOPE
        assert "conjectured insecure, not verified" in capsys.readouterr().err

    def test_degenerate_function_is_out_of_scope(self, tmp_path, capsys):
        text = "type: deterministic\nsided: two\ninputs: 3 3\noutcomes: 2\n0 0 1\n0 0 1\n1 1 0\n"
        path = write(tmp_path, "deg.fn", text)
        assert main(["analyze", path]) == EXIT_SCOPE
        assert "non_degenerate=False" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, flags",
        [
            ("0 0 1\n0 0 1\n1 1 0\n", "potentially_concealing=True, non_degenerate=False"),
            ("0 1 2\n1 2 0\n2 0 1\n", "potentially_concealing=False, non_degenerate=True"),
            ("0 1 2\n0 1 2\n1 2 0\n", "potentially_concealing=False, non_degenerate=False"),
        ],
        ids=["degenerate", "non-concealing", "neither"],
    )
    @pytest.mark.parametrize("options", [[], ["--optimize", "--prior", "0.5,0.5,0.5"]])
    def test_invalid_3x3_scope_message_is_exact(self, tmp_path, capsys, rows, flags, options):
        outcomes = len(set(rows.split()))
        text = f"type: deterministic\nsided: two\ninputs: 3 3\noutcomes: {outcomes}\n{rows}"
        assert main(["analyze", write(tmp_path, "bad.fn", text)] + options) == EXIT_SCOPE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"out of scope: function is outside the attack's scope: {flags}\n"

    def test_3x3_conditions_are_checked_once(self, monkeypatch, capsys):
        # one scalar canonical form, which checks the conditions; the class
        # enumeration, which generates only valid tables, is not run
        calls, canonical_form = [], funcspec._canonical_form

        def counted(labels):
            calls.append(labels)
            return canonical_form(labels)

        def enumeration():
            raise AssertionError("the analyze path enumerates no classes")

        monkeypatch.setattr(funcspec, "_canonical_form", counted)
        monkeypatch.setattr(funcspec, "_class_tables", enumeration)
        assert main(["analyze", "@neq3", "--optimize"]) == EXIT_OK
        assert calls == [sum(funcspec.builtin("neq3").det_table, ())]

    def test_parse_error_exits_one_with_line(self, tmp_path, capsys):
        path = write(tmp_path, "bad.fn", "type: deterministic\nsided: two\ninputs: x y\n")
        assert main(["analyze", path]) == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, line",
        [
            ("inputs: \u00b3 3\noutcomes: 2\n", "line 3"),
            ("inputs: 3 3\noutcomes: \u00b2\n", "line 4"),
            ("inputs: 3 3\noutcomes: 2\nk: \u00b9\n", "line 5"),
        ],
    )
    def test_non_decimal_digits_exit_one_with_line(self, tmp_path, capsys, header, line):
        text = "type: probabilistic\nsided: two\n" + header + "1 1 1\n1 1 1\n1 1 1\n"
        path = write(tmp_path, "bad.fn", text)
        assert main(["analyze", path]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {line}: ")

    @pytest.mark.parametrize("prior", ["nan,0.5,0.5", "inf,0.5,0.5"])
    def test_non_finite_prior_exits_one(self, capsys, prior):
        assert main(["analyze", "@neq3", "--prior", prior]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "prior" in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["analyze", "/nonexistent/path.fn"]) == EXIT_INPUT
        assert "no such function file" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_files_read_as_lf(self, tmp_path, newline):
        lf = (DATA / "two_state" / "two0.fn").read_bytes()
        path = tmp_path / "two0.fn"
        path.write_bytes(lf.replace(b"\n", newline.encode()))
        assert b"\n" in lf and cli._load_spec(str(path)) == funcspec.parse_function_file(lf.decode())

    def test_directory_is_no_function_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: line 1: no such function file: {tmp_path}\n")

    def test_fifo_is_no_function_file_and_is_not_waited_on(self, tmp_path):
        # the read opens the FIFO without waiting for a writer; a call that
        # waited would run into the timeout
        fifo = tmp_path / "table.fn"
        os.mkfifo(fifo)
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "tpc.cli", "analyze", str(fifo)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stdout) == (EXIT_INPUT, "")
        assert run.stderr == f"error: line 1: no such function file: {fifo}\n"

    def test_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.fn"
        path.write_bytes(b"type: deterministic\nsided: two\n\xff\n")
        assert main(["analyze", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_unknown_builtin_exits_one(self, capsys):
        assert main(["analyze", "@missing"]) == EXIT_INPUT

    def test_one_sided_analysis(self, tmp_path, capsys):
        text = "type: probabilistic\nsided: one\ninputs: 2 2\noutcomes: 2\nk: 0\n0.6 0.6\n0.4 0.4\n"
        path = write(tmp_path, "coin.fn", text)
        assert main(["analyze", path, "--q0", "0.3"]) == EXIT_OK
        assert "nondet-one-sided" in capsys.readouterr().out

    def test_role_bob_transposes(self, tmp_path, capsys):
        # one-sided with alice (receiver) arity 2 transposed via role flag
        text = "type: probabilistic\nsided: one\ninputs: 2 2\noutcomes: 2\nk: 0\n0.6 0.4\n0.6 0.4\n"
        path = write(tmp_path, "coin_t.fn", text)
        assert main(["analyze", path, "--role", "bob", "--q0", "0.3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nondet-one-sided" in out

    def test_unknown_role_is_an_input_error_without_a_line(self, capsys):
        # no file line is involved, so the message names none
        assert main(["analyze", "@neq3", "--role", "carol"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: role must be alice or bob, got 'carol'\n")

    def test_three_outcome_probabilistic_is_out_of_scope(self, tmp_path, capsys):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 3\n"
            "k: 0\n1/3 1/3\n1/3 1/3\nk: 1\n1/3 1/3\n1/3 1/3\n"
        )
        path = write(tmp_path, "three.fn", text)
        assert main(["analyze", path]) == EXIT_SCOPE
        assert "conjecture" in capsys.readouterr().err

    def test_superposition_flag(self, capsys):
        assert main(["analyze", "@neq3", "--superposition", "0.8,0.6,0"]) == EXIT_OK
        assert "amps:0.8" in capsys.readouterr().out


class TestNegativeFirstValue:
    """A value that starts with ``-`` and a digit, ``.``, ``inf`` or ``nan``
    (in any case) is read as the value of ``--prior``, ``--superposition``,
    ``--q0-sweep`` or ``--q0``, not as an option."""

    @pytest.mark.parametrize("value", ["-0.6,0.8,0", "-.6,.8,0"])
    def test_superposition_prints_as_the_joined_form(self, value, capsys, monkeypatch):
        assert main(["analyze", "@neq3", f"--superposition={value}"]) == EXIT_OK
        joined = capsys.readouterr()
        assert main(["analyze", "@neq3", "--superposition", value]) == EXIT_OK
        assert capsys.readouterr() == joined
        # the console script's path: arguments from sys.argv
        monkeypatch.setattr(sys, "argv", ["tpc", "analyze", "@neq3", "--superposition", value])
        assert main() == EXIT_OK
        assert capsys.readouterr() == joined

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--q0-sweep", "-0.5,0.3", "sweep weight q0=-0.5 outside [0, 1]"),
            ("--prior", "-0.5,1.5", "prior weights must be nonnegative"),
            ("--q0", "-0.5", "sweep weight q0=-0.5 outside [0, 1]"),
            ("--q0", "-inf", "sweep weight q0=-inf outside [0, 1]"),
            ("--q0-sweep", "-inf,0.3", "sweep weight q0=-inf outside [0, 1]"),
            ("--prior", "-nan,0.5", "prior weights sum to nan, expected 1"),
        ],
    )
    def test_out_of_range_values_exit_one(self, option, value, message, capsys):
        assert main(["analyze", "@counterexample", option, value]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_a_missing_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "@counterexample", "--prior", "--optimize"])
        assert exc.value.code == 2
        assert "argument --prior: expected one argument" in capsys.readouterr().err


TWO_STATE_TABLES = {
    "two-sided": "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\nk: 0\n1/3 1/5\n2/7 3/4\n",
    "one-sided": "type: probabilistic\nsided: one\ninputs: 2 2\noutcomes: 2\nk: 0\n1/3 1/5\n2/7 3/4\n",
}


@pytest.mark.parametrize("sided", sorted(TWO_STATE_TABLES))
class TestTwoStatePrior:
    """A two-state table takes the weight on input 0 from ``--q0`` or a
    two-entry ``--prior``: an invalid prior, or a ``--q0`` that disagrees with
    it, exits 1 with :func:`funcspec.validate_prior`'s message."""

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--prior", "0.3,0.3"], "prior weights sum to 0.6, expected 1"),
            (["--prior", "0.9,0.9"], "prior weights sum to 1.8, expected 1"),
            (["--prior=-0.5,1.5"], "prior weights must be nonnegative"),
            (["--prior", "0.2,0.3,0.5"], "prior must have 2 entries, got (3,)"),
            (["--q0", "0.4", "--prior", "0.3,0.7"], "--q0 0.4 disagrees with --prior 0.3,0.7"),
        ],
        ids=["sum-below-1", "sum-above-1", "negative", "three-entries", "q0-disagrees"],
    )
    def test_bad_prior_exits_one(self, tmp_path, capsys, sided, options, message):
        path = write(tmp_path, "t.fn", TWO_STATE_TABLES[sided])
        assert main(["analyze", path] + options) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "options", [["--prior", "0.3,0.7"], ["--q0", "0.3", "--prior", "0.3,0.7"]]
    )
    def test_valid_prior_equals_q0(self, tmp_path, capsys, sided, options):
        path = write(tmp_path, "t.fn", TWO_STATE_TABLES[sided])
        assert main(["analyze", path, "--q0", "0.3"]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["analyze", path] + options) == EXIT_OK
        assert capsys.readouterr().out == expected
        assert "prior: 0.29999999999999999, 0.69999999999999996" in expected


class TestReadmeExceptions:
    """The two tables the README names where no gain exists, each with the
    verdict ``tpc analyze`` prints for it."""

    def test_one_sided_table_whose_basis_reading_is_optimal(self, tmp_path, capsys):
        text = "type: probabilistic\nsided: one\ninputs: 2 2\noutcomes: 2\nk: 0\n1/4 1/4\n3/4 3/4\n"
        assert main(["analyze", write(tmp_path, "t.fn", text), "--q0", "0.5"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "function: nondet1sided:1/4,1/4,3/4,3/4 (nondet-one-sided)\n"
            "prior: 0.5, 0.5\n"
            "input: honest:0\n"
            "p_honest: 0.75\n"
            "p_attack: 0.75\n"
            "advantage: 0\n"
            "certified optimal: True (pairwise=0, min_eig=0, anti_herm=0)\n"
            "notes: i=0 basis_rate=0.75 optimal=0.75 basis_measurement_optimal=True;"
            " i=1 basis_rate=0.75 optimal=0.75 basis_measurement_optimal=True\n"
        )

    def test_two_sided_table_whose_honest_input_reveals_the_partner(self, tmp_path, capsys):
        # honest input 1 reads p(0|1,0) = 0 and p(0|1,1) = 1: p_honest is 1 at every prior
        text = "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\nk: 0\n0 0\n0 1\n"
        assert main(["analyze", write(tmp_path, "t.fn", text)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "function: nondet2x2:0,0,0,1 (nondet-two-sided)\n"
            "prior: 0.99990000000000001, 9.9999999999988987e-05\n"
            "input: amps:0.70710678118654746+0j,0.70710678118654746+0j\n"
            "p_honest: 1\n"
            "p_attack: 0.99997500062506239\n"
            "advantage: -2.4999374937606511e-05\n"
            "certified optimal: True (pairwise=7.39e-17, min_eig=0, anti_herm=5.55e-17)\n"
            "notes: q0=0.98999999999999999 advantage=-0.0024936869089446922;"
            " q0=0.999 advantage=-0.00024993743744150532;"
            " q0=0.99990000000000001 advantage=-2.4999374937606511e-05\n"
        )


class TestSweepCommand:
    def test_exit_zero_and_summary(self, capsys):
        assert main(["sweep3x3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"functions={funcspec.VALID_3X3_CLASS_COUNT}" in out
        assert "min_adv=" in out and "median_adv=" in out and "max_adv=" in out

    def test_stdout_and_document_pinned_byte_for_byte(self, tmp_path, capsys):
        # pinned output of the headline sweep: a changed digit must be deliberate
        out = tmp_path / "sweep.txt"
        assert main(["sweep3x3", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert len(stdout.splitlines()) == 19
        assert stdout == (DATA / "sweep3x3.stdout").read_text()
        assert out.read_text() == (DATA / "sweep3x3.report").read_text()

    def test_document_has_expected_count(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.txt")
        assert main(["sweep3x3", "--out", out]) == EXIT_OK
        capsys.readouterr()
        doc = parse_report_document((tmp_path / "sweep.txt").read_text())
        assert len(doc.reports) == funcspec.VALID_3X3_CLASS_COUNT


@pytest.mark.parametrize("argv", [["analyze", "@neq3"], ["sweep3x3"], ["ot-demo"]])
def test_out_into_a_missing_directory_exits_one(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "missing" / "r.txt")]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["analyze", "@neq3"], ["sweep3x3"], ["ot-demo"]])
def test_out_to_the_empty_path_exits_one(argv, capsys):
    # the empty path is a path that cannot be written, not a missing --out
    assert main(argv + ["--out", ""]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def _sweep_failure() -> str:
    """The stderr of a sweep whose every class falls short: each pinned
    class and advantage, at 17 digits."""
    pinned = (DATA / "sweep3x3.stdout").read_text().splitlines()[:-1]
    return "sweep found no advantage above 1 in 18 of 18 classes:" + "".join(
        "\n  " + line.rsplit(" ", 1)[0] for line in pinned
    )


def _counterexample_failure() -> str:
    pinned = (DATA / "two_state" / "counterexample.stdout").read_text()
    advantage = float(re.search(r"^advantage: (\S+)$", pinned, re.MULTILINE)[1])
    return f"counterexample admits advantage {advantage:.3g} at input |0>"


def _shifted_closed_form(monkeypatch):
    real = discrim._weighted_difference

    def shifted(p, q0):
        ev = real(p, q0)
        return ev._replace(lam_plus=ev.lam_plus + 0.5)

    monkeypatch.setattr(discrim, "_weighted_difference", shifted)


@pytest.mark.parametrize(
    "argv, patch, message",
    [
        (["sweep3x3"], lambda mp: mp.setattr(attacks, "ADV_MIN", 1.0), _sweep_failure()),
        (["analyze", "@counterexample", "--q0", "0.5"], lambda mp: mp.setattr(attacks, "ADV_MIN", -1.0),
         _counterexample_failure()),
        (["analyze", str(DATA / "two_state" / "two2.fn")], _shifted_closed_form,
         "closed-form and spectral success disagree by 0.25 at q0=0.99"),
    ],
    ids=["sweep", "counterexample", "two-sided-closed-form"],
)
def test_a_failing_self_check_exits_three(argv, patch, message, tmp_path, monkeypatch, capsys):
    # a check on the program's own result that fails is reported by main,
    # with its own exit code, before anything is printed or written
    patch(monkeypatch)
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"verification failed: {message}\n")
    assert not out.exists()


# The two-state attacks' pinned outputs: tests/data/two_state/<case>.stdout
# and .report, from these calls on the tables stored there.
TWO_STATE_PINS = {
    "counterexample": ["analyze", "@counterexample", "--q0", "0.5"],
    "ot_demo": ["ot-demo"],
    "ot": ["analyze", "@ot"],
    "two0": ["analyze", "two0.fn"],
    "two1_superposition": ["analyze", "two1.fn", "--superposition", "0.6,0.8j"],
    "two2_q0_sweep": ["analyze", "two2.fn", "--q0-sweep", "0.25,0.5,0.9"],
    "one0": ["analyze", "one0.fn", "--q0", "0.15"],
    "one1": ["analyze", "one1.fn", "--q0", "0.5"],
    "one2": ["analyze", "one2.fn", "--q0", "0.8"],
    # only Bob's input matters: the report has no residuals ("residuals: -")
    "one_input": ["analyze", "one_input.fn"],
}


class TestTwoStatePins:
    @pytest.mark.parametrize("case", sorted(TWO_STATE_PINS))
    def test_stdout_and_document_pinned_byte_for_byte(self, case, tmp_path, capsys):
        pins = DATA / "two_state"
        argv = [str(pins / a) if a.endswith(".fn") else a for a in TWO_STATE_PINS[case]]
        out = tmp_path / "report.txt"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (pins / f"{case}.stdout").read_text()
        assert out.read_text() == (pins / f"{case}.report").read_text()


# ``tpc analyze --optimize``'s pinned stdout: tests/data/optimize3x3/<case>.stdout,
# from these calls: the 18 canonical classes stored there, and @neq3 under a
# complex superposition and under a non-uniform prior.
OPTIMIZE_PINS = {
    **{f"class{n:02d}": [f"class{n:02d}.fn"] for n in range(funcspec.VALID_3X3_CLASS_COUNT)},
    "neq3_superposition": ["@neq3", "--superposition", "0.6,0.8j,0"],
    "neq3_prior": ["@neq3", "--prior", "0.2,0.3,0.5"],
}


class TestOptimizePins:
    @pytest.mark.parametrize("case", sorted(OPTIMIZE_PINS))
    def test_stdout_pinned_byte_for_byte(self, case, capsys):
        pins = DATA / "optimize3x3"
        argv = [str(pins / a) if a.endswith(".fn") else a for a in OPTIMIZE_PINS[case]]
        assert main(["analyze"] + argv + ["--optimize"]) == EXIT_OK
        assert capsys.readouterr().out == (pins / f"{case}.stdout").read_text()

    def test_search_fields_printed_as_pinned(self, capsys):
        # each class's note prints the fields search.txt pins for its search
        pins = DATA / "optimize3x3"
        for line in (pins / "search.txt").read_text().splitlines():
            case, iterations, stop, p, p_upper = line.split()
            assert main(["analyze", str(pins / f"{case}.fn"), "--optimize"]) == EXIT_OK
            printed = re.search(
                r"fixed-point optimum p=(\S+) certified=True iterations=(\d+) stop=(\w+)"
                r" p_upper=(\S+)$",
                capsys.readouterr().out,
                re.M,
            )
            assert printed is not None, case
            fields = printed.groups()
            assert fields[1:3] == (iterations, stop)
            assert (float(fields[0]), float(fields[3])) == (float(p), float(p_upper))

    @pytest.mark.parametrize("n", range(funcspec.VALID_3X3_CLASS_COUNT))
    def test_labels_the_table_never_uses_get_no_outcome_block(self, n, tmp_path, capsys):
        # declaring nine outcomes used to add an all-zero block per unused label
        # to the search's dual-bound dimension, which moved every class's
        # p_upper and some classes' sweep counts
        pins = DATA / "optimize3x3"
        text = (pins / f"class{n:02d}.fn").read_text()
        wide = re.sub(r"(?m)^outcomes: \d+$", "outcomes: 9", text)
        assert wide != text
        assert main(["analyze", write(tmp_path, "wide.fn", wide), "--optimize"]) == EXIT_OK
        assert capsys.readouterr().out == (pins / f"class{n:02d}.stdout").read_text()

    def test_spread_labels_in_the_same_order_print_the_pin(self, tmp_path, capsys):
        # the blocks follow the labels' order, not their values
        pins = DATA / "optimize3x3"
        lines = (pins / "class03.fn").read_text().splitlines()
        body = [" ".join(str(10**9 * int(x) + 7) for x in row.split()) for row in lines[4:]]
        text = "\n".join(lines[:3] + ["outcomes: 4000000000"] + body) + "\n"
        assert main(["analyze", write(tmp_path, "spread.fn", text), "--optimize"]) == EXIT_OK
        assert capsys.readouterr().out == (pins / "class03.stdout").read_text()

    def test_a_huge_declared_outcome_count_sizes_no_array(self, tmp_path, capsys):
        text = (DATA / "certify" / "neq3.fn").read_text()
        assert main(["analyze", write(tmp_path, "neq3.fn", text), "--optimize"]) == EXIT_OK
        expected = capsys.readouterr().out
        huge = write(tmp_path, "huge.fn", text.replace("outcomes: 2", "outcomes: 200000"))
        tracemalloc.start()
        try:
            code = main(["analyze", huge, "--optimize"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and capsys.readouterr().out == expected
        # one block per declared label took about 584 MB
        assert peak < 2**24, peak


# ``tpc certify``'s pinned outputs: tests/data/certify/<case>.stdout, .stderr
# and .exit, from these calls on the function and POVM files stored there.
CERTIFY_PINS = {
    "ot": ["@ot", "ot.povm"],
    "counterexample": ["@counterexample", "counterexample.povm"],
    "neq3": ["neq3.fn", "neq3.povm"],
    "one_sided_prior": ["one_sided.fn", "one_sided.povm", "--prior", "0.3,0.7"],
    "dimension_mismatch": ["@ot", "small.povm"],
}


class TestCertifyPins:
    @pytest.mark.parametrize("case", sorted(CERTIFY_PINS))
    def test_output_and_exit_code_pinned_byte_for_byte(self, case, capsys):
        pins = DATA / "certify"
        function, povm, *options = CERTIFY_PINS[case]
        if function.endswith(".fn"):
            function = str(pins / function)
        code = main(["certify", function, "--povm", str(pins / povm)] + options)
        captured = capsys.readouterr()
        assert f"{code}\n" == (pins / f"{case}.exit").read_text()
        assert captured.out == (pins / f"{case}.stdout").read_text()
        assert captured.err == (pins / f"{case}.stderr").read_text()


@pytest.mark.parametrize("setting", ["FOO=1", "CERT_TOL=1"])
def test_tolerances_ignore_the_environment(setting, tmp_path):
    # the tolerances are fixed: no environment variable moves a verdict or a document
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "TPC_TOL_OVERRIDE": setting}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "report.txt"
    run = subprocess.run(
        [sys.executable, "-m", "tpc.cli", "ot-demo", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    pins = DATA / "two_state"
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    assert run.stdout == (pins / "ot_demo.stdout").read_text()
    assert out.read_text() == (pins / "ot_demo.report").read_text()


class TestOtDemo:
    def test_values_and_matrix_printed(self, capsys):
        assert main(["ot-demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "p_honest: 0.75" in out
        assert "0.93301270189221" in out
        assert "closed-form receiver measurement" in out
        assert "closed-form measurement success=0.93301270189221941 certified=True" in out

    def test_a_wrong_closed_form_fails_loudly(self, monkeypatch, capsys):
        # the demo cross-checks its closed form against the attack's optimum
        basis = discrim.Povm((np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])), (0, 1))
        monkeypatch.setattr(attacks, "ot_explicit_povm", lambda: basis)
        assert main(["ot-demo"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "verification failed: closed-form measurement success 0.75000000000000022"
            " (certified=False) does not confirm the spectral optimum 0.93301270189221941\n"
        )

    def test_explicit_matrix_matches_spectral_value(self):
        report = ot_report()
        family = blackbox.output_family(funcspec.builtin("ot"), 0, role="bob")
        explicit = discrim.povm_success(family, (0.5, 0.5), attacks.ot_explicit_povm())
        assert abs(explicit - report.p_attack) <= 1e-10


class TestCertify:
    def test_optimal_povm_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "ot_povm.txt", render_povm(attacks.ot_explicit_povm()))
        assert main(["certify", "@ot", "--povm", path]) == EXIT_OK
        assert "certified optimal: True" in capsys.readouterr().out

    def test_helstrom_povm_for_counterexample_exits_zero(self, tmp_path, capsys):
        f = funcspec.builtin("counterexample")
        family = blackbox.output_family(f, blackbox.uniform_superposition(2))
        result = discrim.helstrom(family.states[0], family.states[1], 0.5)
        path = write(tmp_path, "cx_povm.txt", render_povm(result.povm))
        assert main(["certify", "@counterexample", "--povm", path]) == EXIT_OK

    def test_honest_basis_povm_exits_four(self, tmp_path, capsys):
        # outcome-basis projectors grouped by best guess: valid but not optimal
        canon = funcspec.canonicalize_3x3(funcspec.builtin("neq3"))
        base = canon.base
        kdim = base.outcome_count
        prior = funcspec.uniform_prior(3)
        elements = [np.zeros((3 * kdim, 3 * kdim), dtype=complex) for _ in range(3)]
        for i in range(3):
            for k in range(kdim):
                weights = [float(exact_prob(base, k, i, j)) * prior[j] for j in range(3)]
                guess = int(np.argmax(weights))
                elements[guess][i * kdim + k, i * kdim + k] = 1.0
        povm = discrim.Povm(tuple(elements), (0, 1, 2))
        base_text = (
            "type: deterministic\nsided: two\ninputs: 3 3\noutcomes: "
            f"{kdim}\n" + "\n".join(" ".join(str(x) for x in row) for row in base.det_table)
        )
        fn_path = write(tmp_path, "canon.fn", base_text)
        povm_path = write(tmp_path, "honest.txt", render_povm(povm))
        assert main(["certify", fn_path, "--povm", povm_path]) == EXIT_NOT_OPTIMAL
        assert "certified optimal: False" in capsys.readouterr().out

    def test_incomplete_povm_exits_one(self, tmp_path, capsys):
        text = "dim: 2\n0.5+0i 0+0i\n0+0i 0.5+0i\n"
        path = write(tmp_path, "bad_povm.txt", text)
        assert main(["certify", "@counterexample", "--povm", path]) == EXIT_INPUT
        assert "identity" in capsys.readouterr().err

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        text = "dim: 2\n1+0i 0+0i\n0+0i 1+0i\n"
        path = write(tmp_path, "small.txt", text)
        assert main(["certify", "@ot", "--povm", path]) == EXIT_INPUT

    def test_a_huge_declared_outcome_count_is_a_dimension_mismatch(self, tmp_path, capsys):
        # the dense family of 200000 declared outcomes would need 7.86 TiB: the
        # dimensions are compared before it is built
        text = (DATA / "certify" / "neq3.fn").read_text().replace("outcomes: 2", "outcomes: 200000")
        argv = ["certify", write(tmp_path, "huge.fn", text), "--povm", str(DATA / "certify" / "neq3.povm")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: POVM and family dimensions differ\n")
        # a bad prior is still reported first
        assert main(argv + ["--prior", "0.5,0.5"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: prior must have 3 entries, got (2,)\n")

    def test_missing_povm_file_exits_one(self, capsys):
        assert main(["certify", "@ot", "--povm", "/nonexistent.txt"]) == EXIT_INPUT

    def test_directory_is_no_povm_file(self, tmp_path, capsys):
        assert main(["certify", "@ot", "--povm", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: line 1: no such POVM file: {tmp_path}\n")

    def test_crlf_povm_file_reads_as_lf(self, tmp_path, capsys):
        lf = (DATA / "certify" / "ot.povm").read_bytes()
        results = []
        for newline in (b"\n", b"\r\n"):
            path = tmp_path / "ot.povm"
            path.write_bytes(lf.replace(b"\n", newline))
            results.append((main(["certify", "@ot", "--povm", str(path)]), capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == EXIT_OK and results[0][1].out == (DATA / "certify" / "ot.stdout").read_text()

    def test_zero_dimension_povm_exits_one_with_line(self, tmp_path, capsys):
        path = write(tmp_path, "dim0.txt", "dim: 0\n1+0i\n")
        assert main(["certify", "@ot", "--povm", path]) == EXIT_INPUT
        assert "error: line 1: " in capsys.readouterr().err

    def test_dimension_beyond_int_digits_exits_one_with_line(self, tmp_path, capsys):
        # a dim: header longer than int(str) reads is a typed error on its own
        # line, not Python's bare digit-limit text; one at the bound is read,
        # and the file then fails on its row count
        digits = funcspec._MAX_DECIMAL_POWER  # also Python's default limit on int(str)
        path = write(tmp_path, "long.txt", f"dim: {'9' * (digits + 1)}\n1+0i\n")
        assert main(["certify", "@ot", "--povm", path]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: line 1: dim has more than {digits} digits\n")
        nines = "9" * digits
        path = write(tmp_path, "long.txt", f"# bound\ndim: {nines}\n1+0i\n")
        assert main(["certify", "@ot", "--povm", path]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: line 3: expected a multiple of {nines} matrix rows, got 1\n")


class TestReportDocument:
    def test_round_trip_is_lossless(self):
        reports = [
            ot_report(),
            attacks.attack_deterministic_3x3(funcspec.builtin("neq3")),
            attacks.attack_nondet_two_sided(
                funcspec.two_sided_binary([["1/4", "1/4"], ["3/4", "3/4"]])
            ),
        ]
        doc = parse_report_document(render_report_document(reports))
        assert doc.schema_version == 1
        assert "CERT_TOL=" in doc.environment
        assert list(doc.reports) == reports

    def test_report_of_the_old_ot_scenario_round_trips(self):
        # a schema-1 document written while @ot ran an attack of its own,
        # under the scenario "oblivious-transfer", reads and writes back byte for byte
        text = (DATA / "two_state" / "ot_legacy_scenario.report").read_text()
        reports = parse_report_document(text).reports
        assert [(r.function_id, r.scenario) for r in reports] == [("ot", "oblivious-transfer")]
        assert render_report_document(reports) == text

    def test_notes_with_newlines_survive(self):
        report = attacks.AttackReport(
            function_id="nondet1sided:1/2,0",
            scenario="nondet-one-sided",
            prior=(0.5, 0.5),
            input_used=None,
            p_honest=0.5,
            p_attack=0.75,
            advantage=0.25,
            certified=False,
            residuals=None,
            notes="line one\nline two \\ backslash",
        )
        doc = parse_report_document(render_report_document([report]))
        assert doc.reports[0].notes == report.notes

    # backslashes, the other characters str.splitlines() breaks a line at,
    # and the spaces at a note's ends all survive on the note's one line
    @pytest.mark.parametrize(
        "notes",
        ["C:\\new", "trailing backslash \\", "literal \\\\n", "\\\n\\n\n",
         "a\rb", "x\u2028y", "p\x0bq", " padded "],
        ids=["backslash-n", "trailing-backslash", "two-backslashes-n", "mixed",
             "carriage-return", "line-separator", "vertical-tab", "padded"],
    )
    def test_notes_with_backslashes_survive(self, notes):
        report = dataclasses.replace(ot_report(), notes=notes)
        text = render_report_document([report])
        assert len(text.splitlines()) == 14
        assert parse_report_document(text).reports[0].notes == notes

    @pytest.mark.parametrize(
        "value, escape", [("C:\\q", "\\q"), ("ends \\", "\\"), ("tab\\t", "\\t")]
    )
    def test_unknown_notes_escape_names_the_line(self, value, escape):
        text = render_report_document([ot_report()])
        text = re.sub(r"^notes: .*$", lambda _: f"notes: {value}", text, count=1, flags=re.M)
        with pytest.raises(funcspec.FunctionFileError) as info:
            parse_report_document(text)
        assert info.value.line_no == 14
        assert str(info.value) == f"line 14: bad notes field: unknown escape {escape!r}"

    def test_truncated_document_names_the_line(self, tmp_path, capsys):
        out = tmp_path / "ot.txt"
        assert main(["ot-demo", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 14
        for cut in range(len(lines)):
            with pytest.raises(funcspec.FunctionFileError) as info:
                parse_report_document("\n".join(lines[:cut]))
            assert info.value.line_no == cut + 1
        with pytest.raises(funcspec.FunctionFileError) as info:
            parse_report_document("\n".join(lines + ["---"]))
        assert info.value.line_no == 15

    @pytest.mark.parametrize(
        "key, value, line_no",
        [("schema_version", "9", 1), ("schema_version", "-1", 1), ("report_count", "-3", 3),
         # a NaN advantage fails the report's own check, named at the
         # report's separator line; a prior is checked as one on its line
         ("advantage", "nan", 4), ("prior", "nan,7", 7), ("prior", "0.5,0.6", 7),
         # residuals and amplitudes must be finite, each on its own line
         ("residuals", "nan,nan,nan", 13), ("residuals", "inf,-inf,0", 13),
         ("input_used", "amps:nan+0j,1+0j", 8)],
    )
    def test_bad_header_value_names_the_line(self, key, value, line_no):
        text = render_report_document([ot_report()])
        text = re.sub(rf"^{key}: .*$", f"{key}: {value}", text, count=1, flags=re.M)
        with pytest.raises(funcspec.FunctionFileError) as info:
            parse_report_document(text)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize(
        "field, line, message",
        [
            ("function_id", "scenario: x", "line 5: expected 'function_id:' line, got 'scenario: x'"),
            ("---", "--", "line 4: expected report separator, got '--'"),
            (
                "input_used",
                "input_used: ampz:1+0j",
                "line 8: bad input_used field: cannot parse input_used field 'ampz:1+0j'",
            ),
        ],
    )
    def test_malformed_line_message_is_exact(self, field, line, message):
        text = render_report_document([ot_report()])
        text = re.sub(rf"^{field}(: .*)?$", lambda _: line, text, count=1, flags=re.M)
        with pytest.raises(funcspec.FunctionFileError) as info:
            parse_report_document(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", ["banana", "True"])
    def test_certified_is_true_or_false(self, value):
        text = render_report_document([ot_report()])
        assert "\ncertified: true\n" in text
        with pytest.raises(funcspec.FunctionFileError, match="bad certified field") as info:
            parse_report_document(text.replace("\ncertified: true\n", f"\ncertified: {value}\n"))
        assert info.value.line_no == 12

    def test_povm_file_round_trip(self):
        povm = attacks.ot_explicit_povm()
        parsed = parse_povm_file(render_povm(povm))
        assert parsed.labels == povm.labels
        for a, b in zip(parsed.elements, povm.elements):
            np.testing.assert_allclose(a, b, atol=0)

    def test_povm_parse_errors(self):
        with pytest.raises(funcspec.FunctionFileError):
            parse_povm_file("dim: 2\n1+0i\n")
        with pytest.raises(funcspec.FunctionFileError):
            parse_povm_file("size: 2\n")
        with pytest.raises(funcspec.FunctionFileError, match="^line 1: empty POVM file$"):
            parse_povm_file("# comment only\n")

    @pytest.mark.parametrize("token", ["nan", "1e999", "-1e999+0i", "0+nani", "1e999i"])
    def test_non_finite_povm_entry_names_its_line(self, token):
        # read as a complex, it is rejected on its own line before the Povm
        # sees the matrix
        with pytest.raises(funcspec.FunctionFileError) as err:
            parse_povm_file(f"dim: 2\n1+0i 0+0i\n\n0+0i {token}\n")
        assert (err.value.line_no, str(err.value)) == (4, f"line 4: complex entry {token!r} is not finite")


class TestUsageText:
    @pytest.mark.parametrize("source", ["module docstring", "README"])
    def test_usage_lists_exactly_the_parser_options(self, source):
        if source == "README":
            readme = (Path(__file__).parents[1] / "README.md").read_text()
            text = readme.split("## Command line")[1].split("```")[1]
        else:
            text = cli.__doc__.split("Exit codes")[0]
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        accepted = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        # options shown for each subcommand in its ``tpc <command> ...`` block
        blocks = re.split(r"^\s*tpc ", text, flags=re.M)[1:]
        documented = {b.split()[0]: set(re.findall(r"--[a-z0-9-]+", b)) for b in blocks}
        assert documented == accepted


def fresh_main(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def run_entry(entry, argv, out, capsys):
    """Exit code, stdout, stderr and ``--out`` document of one call."""
    try:
        rc = entry(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    captured = capsys.readouterr()
    document = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return rc, captured.out, captured.err, document


# argvs that the full parser words (no command, help, usage errors, tokens
# left over, an option before the command) and that a command's parser reads
PARSE_CASES = {
    "empty": [],
    "help": ["--help"],
    "analyze-help": ["analyze", "--help"],
    "unknown-command": ["bogus"],
    "no-function": ["analyze"],
    "extra-positional": ["analyze", "@neq3", "extra"],
    "unknown-option": ["analyze", "@neq3", "--no-such-option"],
    "bad-float": ["analyze", "@neq3", "--q0", "x"],
    "abbreviation": ["analyze", "@neq3", "--optim"],
    "double-dash": ["analyze", "--", "@neq3"],
    "certify-without-povm": ["certify", "@ot"],
    "option-before-command": ["--optimize", "analyze", "@neq3"],
    "out-before-command": ["--out", "OUT", "ot-demo"],
    "out-after-command": ["ot-demo", "--out", "OUT"],
}


class TestParserReuse:
    def test_mixed_sequence_matches_fresh_parsers(self, tmp_path, capsys):
        out = tmp_path / "ot.txt"
        sequence = (
            ["analyze", "@neq3", "--optimize"],
            ["analyze", "@neq3"],
            ["sweep3x3"],
            ["ot-demo", "--out", str(out)],
            ["analyze", "@neq3", "--no-such-option"],
            ["analyze", "@neq3", "--optimize"],
        )
        reused = [run_entry(main, argv, out, capsys) for argv in sequence]
        assert cli._parser() is cli._parser()
        assert [rc for rc, *_ in reused] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, 2, EXIT_OK]
        assert reused == [run_entry(fresh_main, argv, out, capsys) for argv in sequence]

    @pytest.mark.parametrize("case", PARSE_CASES)
    def test_argv_matches_a_fresh_full_parse(self, case, tmp_path, capsys):
        out = tmp_path / "r.txt"
        argv = [str(out) if a == "OUT" else a for a in PARSE_CASES[case]]
        assert run_entry(main, argv, out, capsys) == run_entry(fresh_main, argv, out, capsys)

    def test_a_valid_call_parses_once_with_its_command_parser(self, monkeypatch, capsys):
        parsed = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            parsed.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        certify = ["certify", "@ot", "--povm", str(DATA / "certify" / "ot.povm")]
        for argv in (["analyze", "@neq3"], ["sweep3x3"], ["ot-demo"], certify):
            parsed.clear()
            assert main(argv) == EXIT_OK
            assert parsed == [f"tpc {argv[0]}"]
        capsys.readouterr()

    def test_commands_are_looked_up_when_they_run(self, monkeypatch, capsys):
        # tracing and tests rebind module functions after the parser is built
        assert main(["ot-demo"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_ot_demo", lambda args: 7)
        assert main(["ot-demo"]) == 7


# short text over the characters the POVM format gives meaning to,
# non-ASCII digits and line breaks that str.splitlines() honours
POVM_TEXT = st.text("0123456789 \t:+-.#eijnadm\u00b2\u0663\r\u2028", max_size=8)

POVM_FILES = st.builds(
    lambda head, body: "\n".join((head,) + tuple(body)),
    st.sampled_from(["dim: 1", "dim: 2", "dim: \u00b2"]),
    st.lists(
        st.one_of(
            st.sampled_from(["1", "0.5", "1 0", "0 1", "0.5 0", "0 0.5", "1+1i 0", "nan 0"]),
            POVM_TEXT,
        ),
        max_size=6,
    ),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(POVM_FILES)
def test_povm_parser_fails_only_with_value_errors(text):
    """Malformed text raises FunctionFileError; well-formed matrices that
    are not a POVM fail the Povm's own checks with ValueError, which
    ``tpc certify`` reports the same way."""
    try:
        parse_povm_file(text)
    except funcspec.FunctionFileError:
        pass
    except ValueError as exc:
        frames = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
        assert "__post_init__" in frames, repr(exc)
