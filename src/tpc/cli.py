"""Command-line front end.

Subcommands::

    tpc analyze <file|@name> [--prior q0,q1,...] [--superposition a0,a1,...]
                [--q0-sweep v1,v2,...] [--q0 v] [--role alice|bob]
                [--optimize] [--out <path>]
    tpc sweep3x3 [--out <path>]
    tpc ot-demo [--out <path>]
    tpc certify <file|@name> --povm <path> [--prior q0,q1,...]

Exit codes, which :func:`main` alone maps from exceptions: 0 success, 1 input
error, 2 function outside implemented scope, 3 verification failure (the sweep
finds no strict gain, or a cross-check or certificate check on the program's
own result fails), 4 certification negative.

``--optimize`` acts on the 3x3 attacks only.  The two-state attacks (one-sided
tables such as ``@ot``, ``@counterexample``, 2x2 tables) already use the
optimal Helstrom measurement, so there it is a silent no-op.

Tables are routed by shape, not identity: ``analyze`` (after ``--role``)
and ``certify`` attack a one-sided table whose Bob has one input from Bob's
side, so ``@ot`` runs the one-sided attack like any one-sided table.

Options an attack cannot honour exit 1, naming the option: a 3x3 table
rejects ``--q0`` and ``--q0-sweep``, a one-sided table ``--superposition``
and ``--q0-sweep``.  The two-state tables (2x2 two-sided, one-sided) take
the weight on input 0 from ``--q0`` or from a two-entry ``--prior``; an
invalid ``--prior``, or a ``--q0`` that disagrees with it, exits 1.
``@counterexample`` is certified exactly only at the balanced prior with
neither ``--superposition`` nor ``--q0-sweep``.  ``ot-demo`` prints the
closed-form receiver measurement of ``@ot``, its success and certificate,
and exits 3 unless they confirm the attack's optimum.

Machine-readable output (``--out``) is a line-delimited text document with a
``schema_version: 1`` header; field names match the attack-report fields and
every number is written with 17 significant digits so the document
round-trips losslessly.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import functools
import os
import re
import stat
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import attacks, blackbox, discrim, funcspec
from .attacks import AttackReport
from .discrim import CertificateResiduals
from .funcspec import FunctionFileError, FunctionSpec
from .tolerances import environment_summary

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCOPE = 2
EXIT_VERIFY = 3
EXIT_NOT_OPTIMAL = 4


class ScopeError(Exception):
    """Function outside the implemented scope (exit code 2)."""


# --- report document --------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _fmt_input(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return f"honest:{value}"
    return "amps:" + ",".join(_fmt_complex(complex(z)) for z in value)


def _parse_floats(text: str, convert=float) -> tuple:
    """A comma list, each value read by ``convert``."""
    return tuple(convert(t) for t in text.split(","))


def _parse_finite(text: str, convert=float) -> tuple:
    values = _parse_floats(text, convert)
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"non-finite value in {text!r}")
    return values


def _parse_prior(text: str) -> tuple[float, ...]:
    prior = _parse_floats(text)
    funcspec.validate_prior(prior, len(prior))
    return prior


def _parse_input(text: str):
    if text == "-":
        return None
    if text.startswith("honest:"):
        return int(text.split(":", 1)[1])
    if text.startswith("amps:"):
        return _parse_finite(text.split(":", 1)[1], complex)
    raise ValueError(f"cannot parse input_used field {text!r}")


def _parse_certified(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    return text == "true"


# the backslash and every character str.splitlines() breaks a line at, each
# with its Python escape, so that a note stays on its one line
_NOTE_ESCAPES = str.maketrans(
    {c: c.encode("unicode_escape").decode() for c in "\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)
_NOTE_CHARS = {escape: chr(code) for code, escape in _NOTE_ESCAPES.items()}
_NOTE_ESCAPE = re.compile("|".join(map(re.escape, _NOTE_CHARS)) + r"|\\.?", re.DOTALL)


def _parse_notes(text: str) -> str:
    """The notes writer's escapes read in one left-to-right pass; any other
    escape, a lone trailing backslash included, is an error."""

    def unescape(match: re.Match) -> str:
        if match[0] not in _NOTE_CHARS:
            raise ValueError(f"unknown escape {match[0]!r}")
        return _NOTE_CHARS[match[0]]

    return _NOTE_ESCAPE.sub(unescape, text)


@dataclass(frozen=True)
class ReportDocument:
    schema_version: int
    environment: str
    reports: tuple[AttackReport, ...]


# a report's lines in order, each (key, render, parse), numbers with 17 significant digits
_REPORT_FIELDS = (
    ("function_id", str, str),
    ("scenario", str, str),
    ("prior", lambda prior: ",".join(map(_fmt, prior)), _parse_prior),
    ("input_used", _fmt_input, _parse_input),
    ("p_honest", _fmt, float),
    ("p_attack", _fmt, float),
    ("advantage", _fmt, float),
    ("certified", lambda certified: "true" if certified else "false", _parse_certified),
    # pairwise_max, min_eigenvalue, anti_hermitian_max, in field order
    ("residuals", lambda r: "-" if r is None else ",".join(map(_fmt, r)),
     lambda t: None if t == "-" else CertificateResiduals(*_parse_finite(t))),
    ("notes", lambda t: t.translate(_NOTE_ESCAPES), _parse_notes),
)


def render_report_document(reports: Sequence[AttackReport]) -> str:
    lines = [
        f"schema_version: {SCHEMA_VERSION}",
        f"environment: {environment_summary()}",
        f"report_count: {len(reports)}",
    ]
    for r in reports:
        lines.append("---")
        lines += [f"{key}: {render(getattr(r, key))}" for key, render, _ in _REPORT_FIELDS]
    return "\n".join(lines) + "\n"


def parse_report_document(text: str) -> ReportDocument:
    """Inverse of :func:`render_report_document`.  A malformed or truncated
    document raises :class:`FunctionFileError` naming the offending line."""
    lines = text.splitlines()
    pos = 0

    def take(what: str) -> str:
        nonlocal pos
        pos += 1
        if pos > len(lines):
            raise FunctionFileError(pos, f"document ends before the {what} line")
        return lines[pos - 1]

    def field(key: str, convert=str):
        line = take(f"'{key}:'")
        name, sep, value = line.partition(":")
        if not sep or name.strip() != key:
            raise FunctionFileError(pos, f"expected '{key}:' line, got {line!r}")
        try:  # a note keeps its own leading and trailing spaces
            return convert(value.removeprefix(" ") if key == "notes" else value.strip())
        except (TypeError, ValueError) as exc:
            raise FunctionFileError(pos, f"bad {key} field: {exc}") from None

    version = field("schema_version", int)
    if version != SCHEMA_VERSION:
        raise FunctionFileError(pos, f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")
    environment = field("environment")
    count = field("report_count", int)
    if count < 0:
        raise FunctionFileError(pos, f"report_count must not be negative, got {count}")
    reports = []
    for _ in range(count):
        line = take("report separator")
        if line != "---":
            raise FunctionFileError(pos, f"expected report separator, got {line!r}")
        start = pos
        values = {key: field(key, parse) for key, _, parse in _REPORT_FIELDS}
        try:
            reports.append(AttackReport(**values))
        except ValueError as exc:
            raise FunctionFileError(start, f"invalid report: {exc}") from None
    if pos < len(lines):
        raise FunctionFileError(pos + 1, f"content after the last of {count} reports")
    return ReportDocument(version, environment, tuple(reports))


# --- POVM files -------------------------------------------------------------

def parse_povm_file(text: str) -> discrim.Povm:
    """POVM file: ``dim: <d>`` header, then one block per element holding d
    rows of d complex entries (``a+bi``, ``a``, or ``bi``); '#' comments."""
    rows = funcspec.content_lines(text)
    if not rows:
        raise FunctionFileError(1, "empty POVM file")
    ln, s = rows[0]
    name, sep, value = s.partition(":")
    if not sep or name.strip() != "dim":
        raise FunctionFileError(ln, f"expected 'dim: <d>' header, got {s!r}")
    dim = funcspec._decimal(ln, "dim", value.strip())
    if dim is None or dim < 1:
        raise FunctionFileError(ln, f"dimension must be a positive integer, got {value!r}")
    body = rows[1:]
    if not body or len(body) % dim != 0:
        raise FunctionFileError(
            rows[-1][0], f"expected a multiple of {dim} matrix rows, got {len(body)}"
        )
    entries = np.array([funcspec._row(ln, s, dim, _parse_entry) for ln, s in body], dtype=complex)
    count = len(entries) // dim
    return discrim.Povm(entries.reshape(count, dim, dim), range(count))


def _parse_entry(ln: int, token: str) -> complex:
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:
        raise FunctionFileError(ln, f"cannot parse complex entry {token!r}") from None
    if not cmath.isfinite(value):
        raise FunctionFileError(ln, f"complex entry {token!r} is not finite")
    return value


# --- shared helpers ---------------------------------------------------------

def _read_input(path: str, what: str) -> str:
    """The text of the regular file at ``path``, decoded as UTF-8, from one
    open: a missing path, a directory or any other file that is not regular
    is an input error naming ``what``.  The open does not wait for a FIFO's
    writer, and any other failure to open or read propagates."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):  # a path naming no file
            raise
    else:
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                chunks = []  # until a read sees the end; a /proc file reports size 0
                while chunk := os.read(fd, max(info.st_size, 4096) + 1):
                    chunks.append(chunk)
                return b"".join(chunks).decode()
        finally:
            os.close(fd)
    raise FunctionFileError(1, f"no such {what}: {path}")


def _load_spec(ref: str) -> FunctionSpec:
    if ref.startswith("@"):
        try:
            return funcspec.builtin(ref)
        except KeyError as exc:
            raise FunctionFileError(1, str(exc)) from None
    return funcspec.parse_function_file(_read_input(ref, "function file"))


def _print_lines(lines: Sequence[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")  # each command writes its stdout once


def _report_lines(report: AttackReport) -> list[str]:
    lines = [
        f"function: {report.function_id} ({report.scenario})",
        "prior: " + ", ".join(_fmt(p) for p in report.prior),
        f"input: {_fmt_input(report.input_used)}",
        f"p_honest: {_fmt(report.p_honest)}",
        f"p_attack: {_fmt(report.p_attack)}",
        f"advantage: {_fmt(report.advantage)}",
    ]
    if report.residuals is None:
        lines.append(f"certified optimal: {report.certified}")
    else:
        lines.append(
            f"certified optimal: {report.certified} "
            f"(pairwise={report.residuals.pairwise_max:.3g}, "
            f"min_eig={report.residuals.min_eigenvalue:.3g}, "
            f"anti_herm={report.residuals.anti_hermitian_max:.3g})"
        )
    if report.notes:
        lines.append(f"notes: {report.notes}")
    return lines


def _write_out(path: str | None, reports: Sequence[AttackReport]) -> None:
    """Write the report document to ``--out``, as UTF-8, from one open; a
    path that cannot be written, the empty one included, raises OSError."""
    if path is None:
        return
    data = memoryview(render_report_document(reports).encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:  # a short write leaves the rest for the next
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


# --- subcommands ------------------------------------------------------------

def _dispatch_analyze(f: FunctionSpec, args) -> AttackReport:
    if args.role not in ("alice", "bob"):
        raise ValueError(f"role must be alice or bob, got {args.role!r}")
    if args.role == "bob":
        f = funcspec.transpose(f)
    f = _guessing_bob(f)
    superposition = _parse_floats(args.superposition, complex) if args.superposition else None
    prior = _parse_floats(args.prior) if args.prior else None

    if f.kind == "deterministic":
        if (f.alice_arity, f.bob_arity) != (3, 3):
            raise ScopeError(
                "only 3x3 deterministic functions are implemented; larger alphabets: "
                "conjectured insecure, not verified"
            )
        _reject(args, ("q0", "q0_sweep"), "3x3 deterministic tables: their attack takes"
                " a prior over three inputs from --prior")
        try:
            return attacks.attack_deterministic_3x3(
                f, superposition=superposition, prior=prior, optimize=args.optimize
            )
        except funcspec.ConditionError as exc:  # the canonicalizer checks the conditions
            raise ScopeError(
                "function is outside the attack's scope: "
                f"potentially_concealing={exc.check.potentially_concealing}, "
                f"non_degenerate={exc.check.non_degenerate}"
            ) from None

    if f.sided == "two" and (f.alice_arity, f.bob_arity, f.outcome_count) != (2, 2, 2):
        raise ScopeError(
            "only 2x2 binary two-sided tables are implemented; larger alphabets"
            " and more outcomes: conjectured insecure, not verified"
        )
    if f.sided == "one":
        if f.bob_arity != 2:
            raise ScopeError("only one-sided tables with two partner inputs are implemented")
        _reject(args, ("q0_sweep", "superposition"), "one-sided tables: the receiver measures"
                " after each honest input, under one prior weight from --q0 or --prior")
    q0 = _two_state_q0(args.q0, prior)
    if f.sided == "one":
        return attacks.attack_nondet_one_sided(f, 0.5 if q0 is None else q0)
    sweep = _parse_floats(args.q0_sweep) if args.q0_sweep else None
    if f == funcspec.builtin("counterexample") and q0 == 0.5 and not (superposition or sweep):
        return attacks.verify_counterexample()
    if q0 is not None:
        sweep = (q0,) + tuple(sweep or ())
    return attacks.attack_nondet_two_sided(f, q0_sweep=sweep, superposition=superposition)


def _guessing_bob(f: FunctionSpec) -> FunctionSpec:
    """``f``, or its transpose if it is one-sided and its Bob has a single
    input, which leaves Alice nothing to guess."""
    return funcspec.transpose(f) if f.sided == "one" and f.bob_arity == 1 else f


def _reject(args, options: Sequence[str], reason: str) -> None:
    """Refuse the first given option of ``options``: the path cannot honour it."""
    for option in options:
        if getattr(args, option) is not None:
            raise ValueError(f"--{option.replace('_', '-')} does not apply to {reason}")


def _two_state_q0(q0: float | None, prior: tuple[float, ...] | None) -> float | None:
    """The weight on input 0 for a guessed party with two inputs, from ``--q0``
    or a valid two-entry ``--prior``; given both, they must agree."""
    if prior is None:
        return q0
    weights = funcspec.validate_prior(prior, 2)
    if q0 is not None and q0 != weights[0]:
        raise ValueError(f"--q0 {q0!r} disagrees with --prior {','.join(map(repr, prior))}")
    return float(weights[0])


def cmd_analyze(args) -> int:
    report = _dispatch_analyze(_load_spec(args.function), args)
    _print_lines(_report_lines(report))
    _write_out(args.out, [report])
    return EXIT_OK


def cmd_sweep3x3(args) -> int:
    reports = attacks.sweep_all_3x3()
    advantages = sorted(r.advantage for r in reports)
    lines = [f"{r.function_id} advantage={_fmt(r.advantage)} p_attack={_fmt(r.p_attack)}" for r in reports]
    lines.append(
        f"functions={len(advantages)} min_adv={_fmt(advantages[0])}"
        f" median_adv={_fmt(statistics.median(advantages))} max_adv={_fmt(advantages[-1])}"
    )
    _print_lines(lines)
    _write_out(args.out, reports)
    return EXIT_OK


def cmd_ot_demo(args) -> int:
    f = funcspec.transpose(funcspec.builtin("ot"))  # the receiver guesses the sender's bit
    report = attacks.attack_nondet_one_sided(f, 0.5)
    povm = attacks.ot_explicit_povm()
    family = blackbox.output_family(f, 0)
    success = discrim.povm_success(family, report.prior, povm)
    ok, residuals = discrim.certify_optimal(family, report.prior, povm)
    if not (ok and abs(success - report.p_attack) <= 1e-10):
        raise ArithmeticError(
            f"closed-form measurement success {success:.17g} (certified={ok})"
            f" does not confirm the spectral optimum {report.p_attack:.17g}"
        )
    _print_lines([
        "oblivious transfer demo",
        "closed-form receiver measurement, first element (basis |0>, |1>, |?>):",
        *("  " + "  ".join(f"{z.real:+.12f}" for z in row) for row in povm.elements[0]),
        f"closed-form measurement success={_fmt(success)} certified={ok}"
        f" residuals=({residuals.pairwise_max:.3g}, {residuals.min_eigenvalue:.3g},"
        f" {residuals.anti_hermitian_max:.3g})",
        *_report_lines(report),
    ])
    _write_out(args.out, [report])
    return EXIT_OK


def cmd_certify(args) -> int:
    f = _guessing_bob(_load_spec(args.function))
    povm = parse_povm_file(_read_input(args.povm, "POVM file"))
    # the family: one state per input of the guessed party, from the
    # uniform superposition (two-sided) or honest input 0 (one-sided)
    two_sided = f.sided == "two"
    prior = (
        funcspec.validate_prior(_parse_floats(args.prior), f.bob_arity)
        if args.prior
        else funcspec.uniform_prior(f.bob_arity)
    )
    # the table fixes the states' dimension; compared before they are
    # built, as a table can declare more outcomes than fit in memory
    if povm.dim != (f.alice_arity if two_sided else 1) * f.outcome_count:
        raise ValueError("POVM and family dimensions differ")
    probe = blackbox.uniform_superposition(f.alice_arity) if two_sided else 0
    family = blackbox.output_family(f, probe)
    ok, residuals = discrim.certify_optimal(family, prior, povm)
    success = discrim.povm_success(family, prior, povm)
    _print_lines([
        f"success_probability: {_fmt(success)}",
        f"residuals: pairwise={_fmt(residuals.pairwise_max)}"
        f" min_eig={_fmt(residuals.min_eigenvalue)}"
        f" anti_herm={_fmt(residuals.anti_hermitian_max)}",
        f"certified optimal: {ok}",
    ])
    return EXIT_OK if ok else EXIT_NOT_OPTIMAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpc",
        description="Verify superposition-input attacks on ideal two-party computation boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="attack one function file or built-in table")
    p.add_argument("function", help="function file path or built-in name (@ot, @counterexample, @neq3)")
    p.add_argument("--prior", help="comma-separated prior weights over the guessed inputs")
    p.add_argument("--superposition", help="comma-separated input amplitudes")
    p.add_argument("--q0-sweep", dest="q0_sweep", help="comma-separated prior weights to sweep")
    p.add_argument("--q0", type=float, help="single prior weight on input 0")
    p.add_argument("--role", default="alice", help="which party cheats (alice|bob)")
    p.add_argument("--optimize", action="store_true", help="also run the fixed-point POVM search (3x3 only; a no-op on two-state attacks)")
    p.add_argument("--out", help="write a machine-readable report document")
    p.set_defaults(func=lambda args: cmd_analyze(args))

    p = sub.add_parser("sweep3x3", help="attack every valid 3x3 deterministic function")
    p.add_argument("--out", help="write a machine-readable report document")
    p.set_defaults(func=lambda args: cmd_sweep3x3(args))

    p = sub.add_parser("ot-demo", help="built-in oblivious transfer analysis")
    p.add_argument("--out", help="write a machine-readable report document")
    p.set_defaults(func=lambda args: cmd_ot_demo(args))

    p = sub.add_parser("certify", help="check a POVM file against the optimality conditions")
    p.add_argument("function", help="function file path or built-in name")
    p.add_argument("--povm", required=True, help="POVM file path")
    p.add_argument("--prior", help="comma-separated prior weights")
    p.set_defaults(func=lambda args: cmd_certify(args))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses; parsing does not change it, and its
    commands are looked up by name when they run."""
    return build_parser()


_NEGATIVE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)


def main(argv: Sequence[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    for n in range(len(tokens) - 1, 0, -1):
        # join a value such as -0.6,0.8 or -inf to its option, or argparse reads it as one
        negative = _NEGATIVE.match(tokens[n])
        if tokens[n - 1] in ("--prior", "--superposition", "--q0-sweep", "--q0") and negative:
            tokens[n - 1 : n + 1] = [f"{tokens[n - 1]}={tokens[n]}"]
    # the named command's parser reads the rest in one pass; the full parser
    # runs only when no command is named or tokens are left over, and words
    # the usage and error text
    parser = _parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = subparsers.choices.get(tokens[0]) if tokens else None
    args, extra = command.parse_known_args(tokens[1:]) if command else (None, None)
    if args is None or extra:
        args = parser.parse_args(tokens)
    try:
        return args.func(args)
    except ScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except ArithmeticError as exc:  # a check on the program's own result failed
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, ValueError) as exc:  # a file, an option or an --out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
