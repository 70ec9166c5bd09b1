"""Seeded inputs, operation streams and output checks for the benchmark.

Each workload is a fixed cycle of operations, every one a single call of the
public entry point ``tpc.cli.main``.  The cycle is built from the seed before
timing starts; the program only ever sees the generated files.  Cycles hold a
fixed mix of operation kinds, so that changing the seed changes the tables
but not how much of each kind of work a run does.

This module uses only the standard library.  Input generation and output
checks deliberately do not call into the package under test, so a change to
the package can change neither the inputs nor the verdict on its outputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import ModuleType

WORKLOADS = ("sweep3x3", "optimize3x3", "counterexample", "tables2x2")

# The 18 classes of potentially concealing, non-degenerate 3x3 outcome
# matrices, as the row-major canonical base tables ``tpc sweep3x3`` lists.
CLASSES_3X3 = (
    "000010110", "000010112", "000011110", "001010110", "001011112",
    "001020121", "001022121", "001022122", "002020122", "002022121",
    "002022122", "002033133", "010000100", "010001100", "010002100",
    "011001101", "020000100", "020003100",
)

ADV_MIN = 1e-9                      # the package's default minimum gain
SWEEP_MIN_ADV = 0.024086806367572544
OT_P_ATTACK = 0.5 + math.sqrt(3.0) / 4.0

# Operations per tables2x2 cycle, by kind.
TWO_SIDED_PER_CYCLE = 24
ONE_SIDED_PER_CYCLE = 14
OT_PER_CYCLE = 2

# Mirror of discrim.basis_measurement_optimal's default tolerance.
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One CLI call; ``kind`` selects the output check, ``report`` is the
    ``--out`` document the call writes, if any."""

    kind: str
    argv: tuple[str, ...]
    report: str | None = None


# --- table generation -------------------------------------------------------

def _interior_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(2, 24)
    return Fraction(rng.randint(1, den - 1), den)


def random_binary_table(rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """p(0|i,j) for a 2x2 table, rows indexed by j and columns by i, with
    every entry strictly inside (0, 1): a randomized, non-deterministic box."""
    return tuple(tuple(_interior_fraction(rng) for _ in range(2)) for _ in range(2))


def independent_of_alice(p0) -> bool:
    return all(row[0] == row[1] for row in p0)


def independent_of_bob(p0) -> bool:
    return all(p0[0][i] == p0[1][i] for i in range(2))


def basis_measurement_stationary(p0, i: int, q0: float) -> bool:
    """Whether reading the outcome register is already optimal for honest
    input ``i`` of a binary one-sided table (pairwise optimality condition)."""
    p_i0, p_i1 = float(p0[0][i]), float(p0[1][i])
    lhs = q0 * math.sqrt(p_i0 * (1.0 - p_i0))
    rhs = (1.0 - q0) * math.sqrt(p_i1 * (1.0 - p_i1))
    return abs(lhs - rhs) <= STATIONARY_TOL


def in_two_sided_claim(p0) -> bool:
    """Both parties' inputs matter (exact rational check)."""
    return not (independent_of_alice(p0) or independent_of_bob(p0))


def in_one_sided_claim(p0, q0: float) -> bool:
    """The guessed party's input matters and, for every honest input, the
    outcome-basis measurement is not already optimal."""
    if independent_of_bob(p0):
        return False
    return not any(basis_measurement_stationary(p0, i, q0) for i in range(2))


def binary_table_text(p0, sided: str) -> str:
    rows = "\n".join(" ".join(str(x) for x in row) for row in p0)
    return (
        f"type: probabilistic\nsided: {sided}\ninputs: 2 2\noutcomes: 2\n"
        f"k: 0\n{rows}\n"
    )


def relabeled_3x3_text(digits: str, rng: random.Random) -> str:
    """A seeded row, column and outcome relabeling of a 3x3 class table."""
    table = [[int(digits[3 * j + i]) for i in range(3)] for j in range(3)]
    labels = sorted({x for row in table for x in row})
    rows = rng.sample(range(3), 3)
    cols = rng.sample(range(3), 3)
    relabel = dict(zip(labels, rng.sample(labels, len(labels))))
    body = "\n".join(
        " ".join(str(relabel[table[rows[j]][cols[i]]]) for i in range(3))
        for j in range(3)
    )
    return (
        "type: deterministic\nsided: two\ninputs: 3 3\n"
        f"outcomes: {len(labels)}\n{body}\n"
    )


def build_cycle(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files into ``workdir`` and return one
    cycle of operations.  The same seed gives the same files and cycle."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep3x3":
        return [Op("sweep3x3", ("sweep3x3",))]
    if workload == "counterexample":
        return [Op("counterexample", ("analyze", "@counterexample", "--q0", "0.5"))]
    if workload == "optimize3x3":
        ops = []
        for n, digits in enumerate(rng.sample(CLASSES_3X3, len(CLASSES_3X3))):
            path = workdir / f"class{n:02d}.fn"
            path.write_text(relabeled_3x3_text(digits, rng))
            ops.append(Op("optimize3x3", ("analyze", str(path), "--optimize")))
        return ops
    if workload == "tables2x2":
        report = str(workdir / "report.txt")
        ops = []
        while len(ops) < TWO_SIDED_PER_CYCLE:
            p0 = random_binary_table(rng)
            if not in_two_sided_claim(p0):
                continue
            path = workdir / f"two{len(ops):02d}.fn"
            path.write_text(binary_table_text(p0, "two"))
            ops.append(Op("two-sided", ("analyze", str(path), "--out", report), report))
        one_sided = []
        while len(one_sided) < ONE_SIDED_PER_CYCLE:
            p0 = random_binary_table(rng)
            q0 = rng.randint(1, 19) / 20
            if not in_one_sided_claim(p0, q0):
                continue
            path = workdir / f"one{len(one_sided):02d}.fn"
            path.write_text(binary_table_text(p0, "one"))
            one_sided.append(
                Op("one-sided", ("analyze", str(path), "--q0", repr(q0), "--out", report), report)
            )
        ops += one_sided
        ops += [Op("ot", ("ot-demo", "--out", report), report)] * OT_PER_CYCLE
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


# --- running and checking ---------------------------------------------------

def run_op(cli: ModuleType, op: Op) -> tuple[int, str]:
    """Call ``cli.main`` in this process and return its exit code and stdout.

    ``main`` is looked up on each call, so a traced run sees the wrapper.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _field(text: str, key: str) -> str:
    m = re.search(rf"^{re.escape(key)}: (\S+)", text, re.MULTILINE)
    if m is None:
        raise ValueError(f"output has no '{key}:' line")
    return m.group(1)


def _check_sweep(out: str) -> None:
    rows = re.findall(r"^(\S+) advantage=(\S+) p_attack=", out, re.MULTILINE)
    if len({function_id for function_id, _ in rows}) != len(rows) or len(rows) != 18:
        raise ValueError(f"expected 18 distinct classes, got {len(rows)} rows")
    advantages = [float(a) for _, a in rows]
    if min(advantages) <= ADV_MIN:
        raise ValueError(f"advantage {min(advantages)!r} not above {ADV_MIN}")
    if abs(min(advantages) - SWEEP_MIN_ADV) > 1e-12:
        raise ValueError(f"min advantage {min(advantages)!r} != {SWEEP_MIN_ADV!r}")
    m = re.search(r"^functions=(\d+) min_adv=(\S+)", out, re.MULTILINE)
    if m is None or int(m.group(1)) != 18 or float(m.group(2)) != min(advantages):
        raise ValueError("summary line missing or inconsistent with the rows")


def _check_optimize(out: str) -> None:
    pretty_good = float(_field(out, "p_attack"))
    m = re.search(r"fixed-point optimum p=(\S+) certified=(\w+)", out)
    if m is None:
        raise ValueError("no fixed-point result in the notes")
    if float(m.group(1)) < pretty_good - 1e-12:
        raise ValueError(f"fixed point {m.group(1)} below pretty-good {pretty_good!r}")
    if m.group(2) != "True":
        raise ValueError("fixed-point optimum not certified")


def _check_counterexample(out: str) -> None:
    advantage = float(_field(out, "advantage"))
    if advantage > 1e-9:
        raise ValueError(f"counterexample advantage {advantage!r} > 1e-9")
    if _field(out, "certified optimal") != "True":
        raise ValueError("counterexample measurement not certified")


def _check_gain(doc: str) -> None:
    advantage = float(_field(doc, "advantage"))
    if not advantage > 1e-10:
        raise ValueError(f"advantage {advantage!r} not above 1e-10")


def _check_ot(doc: str) -> None:
    _check_gain(doc)
    p_attack = float(_field(doc, "p_attack"))
    if abs(p_attack - OT_P_ATTACK) > 1e-10:
        raise ValueError(f"OT p_attack {p_attack!r} != 1/2 + sqrt(3)/4")


_CHECKS = {
    "sweep3x3": _check_sweep,
    "optimize3x3": _check_optimize,
    "counterexample": _check_counterexample,
    "two-sided": _check_gain,
    "one-sided": _check_gain,
    "ot": _check_ot,
}


def check(op: Op, rc: int, out: str) -> str | None:
    """None when the call's output is correct, else the reason it is not.

    Calls that write a report document are checked on that document, which
    is then removed so that a later call cannot pass on a stale one.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        if op.report:
            path = Path(op.report)
            text = path.read_text()
            path.unlink()
        else:
            text = out
        _CHECKS[op.kind](text)
    except (OSError, ValueError) as exc:
        return str(exc)
    return None
