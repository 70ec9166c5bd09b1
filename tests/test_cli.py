"""Command-line interface: dispatch, exit codes, report documents."""

import argparse
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tpc import attacks, blackbox, cli, discrim, funcspec
from tpc.cli import (
    EXIT_INPUT,
    EXIT_NOT_OPTIMAL,
    EXIT_OK,
    EXIT_SCOPE,
    main,
    parse_povm_file,
    parse_report_document,
    render_povm,
    render_report_document,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestAnalyze:
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
        path = write(tmp_path, "cx.fn", funcspec.builtin_text("counterexample"))
        assert main(["analyze", path, "--q0", "0.5"]) == EXIT_OK
        assert "counterexample" in capsys.readouterr().out

    def test_ot_file_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "ot.fn", funcspec.builtin_text("ot"))
        assert main(["analyze", path]) == EXIT_OK
        assert "oblivious-transfer" in capsys.readouterr().out

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

    def test_parse_error_exits_one_with_line(self, tmp_path, capsys):
        path = write(tmp_path, "bad.fn", "type: deterministic\nsided: two\ninputs: x y\n")
        assert main(["analyze", path]) == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["analyze", "/nonexistent/path.fn"]) == EXIT_INPUT
        assert "no such function file" in capsys.readouterr().err

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


class TestSweepCommand:
    def test_exit_zero_and_summary(self, capsys):
        assert main(["sweep3x3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"functions={funcspec.VALID_3X3_CLASS_COUNT}" in out
        assert "min_adv=" in out and "median_adv=" in out and "max_adv=" in out

    def test_worker_counts_produce_identical_documents(self, tmp_path, capsys):
        out1 = str(tmp_path / "w1.txt")
        out8 = str(tmp_path / "w8.txt")
        assert main(["sweep3x3", "--workers", "1", "--out", out1]) == EXIT_OK
        assert main(["sweep3x3", "--workers", "8", "--out", out8]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "w1.txt").read_text() == (tmp_path / "w8.txt").read_text()

    def test_document_has_expected_count(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.txt")
        assert main(["sweep3x3", "--out", out]) == EXIT_OK
        capsys.readouterr()
        doc = parse_report_document((tmp_path / "sweep.txt").read_text())
        assert len(doc.reports) == funcspec.VALID_3X3_CLASS_COUNT


class TestOtDemo:
    def test_values_and_matrix_printed(self, capsys):
        assert main(["ot-demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "p_honest: 0.75" in out
        assert "0.93301270189221" in out
        assert "closed-form receiver measurement" in out

    def test_explicit_matrix_matches_spectral_value(self):
        report = attacks.attack_oblivious_transfer()
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
                weights = [float(base.prob(k, i, j)) * prior[j] for j in range(3)]
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

    def test_missing_povm_file_exits_one(self, capsys):
        assert main(["certify", "@ot", "--povm", "/nonexistent.txt"]) == EXIT_INPUT

    def test_zero_dimension_povm_exits_one_with_line(self, tmp_path, capsys):
        path = write(tmp_path, "dim0.txt", "dim: 0\n1+0i\n")
        assert main(["certify", "@ot", "--povm", path]) == EXIT_INPUT
        assert "error: line 1: " in capsys.readouterr().err


class TestReportDocument:
    def test_round_trip_is_lossless(self):
        reports = [
            attacks.attack_oblivious_transfer(),
            attacks.attack_deterministic_3x3(funcspec.builtin("neq3")),
            attacks.attack_nondet_two_sided(
                funcspec.two_sided_binary([["1/4", "1/4"], ["3/4", "3/4"]])
            ),
        ]
        doc = parse_report_document(render_report_document(reports))
        assert doc.schema_version == 1
        assert "CERT_TOL=" in doc.environment
        assert list(doc.reports) == reports

    def test_notes_with_newlines_survive(self):
        report = attacks.AttackReport(
            function_id="ot",
            scenario="oblivious-transfer",
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
        if source == "README":
            # the README explains --workers in prose under the block
            documented["sweep3x3"].add("--workers")
        assert documented == accepted


class TestToleranceOverride:
    def test_override_parsing(self):
        from tpc.tolerances import parse_overrides

        values = parse_overrides("TOL_PSD=1e-8, CERT_TOL=2e-7")
        assert values == {"psd": 1e-8, "cert": 2e-7}
        with pytest.raises(ValueError):
            parse_overrides("NOT_A_NAME=1")

    def test_environment_recorded_in_documents(self, monkeypatch):
        from tpc import tolerances

        monkeypatch.setenv("TPC_TOL_OVERRIDE", "CERT_TOL=5e-7")
        fresh = tolerances.from_env()
        assert fresh.cert == 5e-7
        assert "CERT_TOL=4.9999999999999998e-07" in tolerances.environment_summary(fresh)
