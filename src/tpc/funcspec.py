"""Two-party function tables: data model, validation, canonical forms, parsing.

A function is specified by an outcome matrix (deterministic case) or by
outcome probabilities p(k|i,j) (probabilistic case), where ``i`` indexes
Alice's input (column) and ``j`` Bob's input (row).  Probabilities are kept
as exact rationals until states are built, so that parse-time rounding can
never masquerade as an attack advantage.

The 3x3 classes are enumerated through the reference layout, which every
valid table can be relabeled into (see :func:`enumerate_valid_3x3`): a
walk that prunes each line as soon as it breaks a condition generates only
the 44 valid tables in that layout, and one orbit gather with base-4 keys
sorts them into classes; the full walk over all 11,051 normalized tables
and the batch condition check are kept as test oracles.  One table is
canonicalized by one scalar pass over its 36 input permutations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .tolerances import TOL_TRACE

_PERMS3 = tuple(itertools.permutations(range(3)))

# Stacks of row-major 3x3 tables are held cells first, C-contiguous (9, n), so
# that array ops run along the stack; tables[_GATHER] is (9, 36, n), each table
# under the 36 input permutations, row permutation major, identity first.
_GATHER = np.array(
    [[3 * r + c for r in rp for c in cp] for rp, cp in itertools.product(_PERMS3, repeat=2)]
).T

# The same 36 transforms as tuples, one per input permutation: the original
# cell each cell of the transformed table reads.
_PERMUTED_CELLS = tuple(map(tuple, _GATHER.T.tolist()))

# Place values that read a table with labels 0-3 as one base-4 key, in tuple
# order; int32 holds every key and halves the temporaries of the key sums.
_KEY = np.array([4**p for p in range(8, -1, -1)], dtype=np.int32)

# Number of inequivalent 3x3 deterministic functions that are potentially
# concealing and non-degenerate (frozen regression value; re-checked in the
# test suite by the full walk over all normalized tables and by an
# independent naive counter).
VALID_3X3_CLASS_COUNT = 18


class FunctionFileError(ValueError):
    """Parse failure carrying the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class FunctionSpec:
    """A two-party function.

    ``det_table`` is indexed ``[j][i]`` (row = Bob's input, column = Alice's
    input).  ``prob_table`` is indexed ``[k][j][i]`` with exact
    :class:`~fractions.Fraction` entries.
    """

    kind: str                      # "deterministic" | "probabilistic"
    sided: str                     # "one" | "two"
    alice_arity: int
    bob_arity: int
    outcome_count: int
    det_table: tuple[tuple[int, ...], ...] | None = None
    prob_table: tuple[tuple[tuple[Fraction, ...], ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "probabilistic"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.sided not in ("one", "two"):
            raise ValueError(f"unknown sidedness {self.sided!r}")
        if min(self.alice_arity, self.bob_arity, self.outcome_count) < 1:
            raise ValueError("arities and outcome count must be positive")
        if self.kind == "deterministic":
            if self.det_table is None or self.prob_table is not None:
                raise ValueError("deterministic spec requires det_table only")
            t = tuple(tuple(int(x) for x in row) for row in self.det_table)
            if len(t) != self.bob_arity or any(len(r) != self.alice_arity for r in t):
                raise ValueError("outcome matrix shape does not match arities")
            for row in t:
                for x in row:
                    if not 0 <= x < self.outcome_count:
                        raise ValueError(f"outcome label {x} out of range")
            object.__setattr__(self, "det_table", t)
        else:
            if self.prob_table is None or self.det_table is not None:
                raise ValueError("probabilistic spec requires prob_table only")
            p = tuple(
                tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in block)
                for block in self.prob_table
            )
            if len(p) != self.outcome_count:
                raise ValueError("probability table must have one block per outcome")
            for block in p:
                if len(block) != self.bob_arity or any(
                    len(r) != self.alice_arity for r in block
                ):
                    raise ValueError("probability block shape does not match arities")
            # range and sum on each cell's integer numerators over their common denominator
            for j in range(self.bob_arity):
                for i in range(self.alice_arity):
                    den, col = _numerators([b[j][i] for b in p])
                    if any(x < 0 or x > den for x in col):
                        raise ValueError(f"probability out of [0,1] at (i={i}, j={j})")
                    if sum(col) != den:
                        raise ValueError(
                            f"probabilities at (i={i}, j={j}) sum to"
                            f" {Fraction(sum(col), den)}, expected 1"
                        )
            object.__setattr__(self, "prob_table", p)

    def probabilities(self) -> np.ndarray:
        """Every ``p(k|i,j)`` as one float array indexed ``[k][j][i]``."""
        if self.det_table is None:
            return np.array(self.prob_table, dtype=float)
        return (np.arange(self.outcome_count)[:, None, None] == np.array(self.det_table)) * 1.0


def deterministic(table: Sequence[Sequence[int]], sided: str = "two") -> FunctionSpec:
    rows = tuple(tuple(int(x) for x in row) for row in table)
    count = max(x for row in rows for x in row) + 1
    return FunctionSpec(
        kind="deterministic",
        sided=sided,
        alice_arity=len(rows[0]),
        bob_arity=len(rows),
        outcome_count=count,
        det_table=rows,
    )


def two_sided_binary(zero_rows: Sequence[Sequence]) -> FunctionSpec:
    """Binary-output two-sided function from the displayed table of
    p(0|i,j) values, rows indexed by j and columns by i."""
    return _binary(zero_rows, "two")


def one_sided_binary(zero_rows: Sequence[Sequence]) -> FunctionSpec:
    """Binary-output one-sided function (the output register goes to Alice)."""
    return _binary(zero_rows, "one")


def _binary(zero_rows: Sequence[Sequence], sided: str) -> FunctionSpec:
    p0 = tuple(tuple(Fraction(x) for x in row) for row in zero_rows)
    p1 = tuple(tuple(1 - x for x in row) for row in p0)
    return FunctionSpec(
        kind="probabilistic",
        sided=sided,
        alice_arity=len(p0[0]),
        bob_arity=len(p0),
        outcome_count=2,
        prob_table=(p0, p1),
    )


def transpose(f: FunctionSpec) -> FunctionSpec:
    """Swap the two parties' roles."""
    if f.kind == "deterministic":
        table = {"det_table": tuple(zip(*f.det_table))}
    else:
        table = {"prob_table": tuple(tuple(zip(*block)) for block in f.prob_table)}
    return replace(f, alice_arity=f.bob_arity, bob_arity=f.alice_arity, **table)


def _numerators(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The fractions ``xs`` over their least common denominator: ``(den, numerators)``."""
    den = math.lcm(*[x.denominator for x in xs])
    return den, [x.numerator * (den // x.denominator) for x in xs]


def validate_prior(weights: Sequence[float], n: int) -> np.ndarray:
    """Probability vector over one party's inputs."""
    q = np.asarray([float(w) for w in weights], dtype=float)
    if q.shape != (n,):
        raise ValueError(f"prior must have {n} entries, got {q.shape}")
    if q.min() < 0:
        raise ValueError("prior weights must be nonnegative")
    total = q.sum()
    if not abs(total - 1.0) <= TOL_TRACE:  # written so that a NaN sum fails too
        raise ValueError(f"prior weights sum to {total:.12g}, expected 1")
    return q


def uniform_prior(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


@dataclass(frozen=True)
class ConditionCheck:
    potentially_concealing: bool
    non_degenerate: bool


class ConditionError(ValueError):
    """A table that is not both potentially concealing and non-degenerate."""

    def __init__(self, check: ConditionCheck):
        super().__init__(f"function must be potentially concealing and non-degenerate; got {check}")
        self.check = check


@dataclass(frozen=True)
class CanonicalForm3x3:
    """A 3x3 outcome matrix in the reference layout.

    The base table has first column (0,0,1) and second column (a,b,b) with
    ``a != b`` and ``a == 0 or b == 0 or b == 1``.  ``outcome_relabel`` maps
    original labels to base labels as (old, new) pairs, and
    ``base[j][i] == relabel[original[row_perm[j]][col_perm[i]]]``.
    """

    base: FunctionSpec
    a: int
    b: int
    row_perm: tuple[int, int, int]
    col_perm: tuple[int, int, int]
    outcome_relabel: tuple[tuple[int, int], ...]


def _keys(t: np.ndarray, place: np.ndarray) -> np.ndarray:
    """``place @ labels`` for every column of ``t`` ``(cells, ...)``, its
    labels renumbered 0, 1, 2, ... in order of first appearance down the
    cells.  Labels are small non-negative integers: the work grows with the
    largest.  They are compared in their own dtype, so int8 tables stay int8."""
    flat = t.reshape(len(t), 1, -1)
    hits = flat == np.arange(t.max() + 1, dtype=t.dtype)[:, None]
    # how early each label first appears: the last cell scores 1, absence 0
    early = (hits * np.arange(len(t), 0, -1, dtype=np.int8)[:, None, None]).max(axis=0)
    rank = (early[:, None] > early).sum(axis=0, dtype=np.int8)
    return (place @ (hits * rank).sum(axis=1, dtype=np.int8)).reshape(t.shape[1:])


def canonicalize_3x3(f: FunctionSpec) -> CanonicalForm3x3:
    """Reduce a valid 3x3 deterministic function to the reference layout.

    Row/column permutations relabel inputs and a bijection relabels
    outcomes.  Several combinations reach the reference layout; the
    lexicographically smallest base table (row-major) is chosen so that all
    members of an equivalence class map to the identical canonical form.
    The layout fixes the labels of cells (0,0) and (2,0), so for each of
    the 36 input permutations only the outcome bijection that numbers the
    rest in first-appearance order is tried.  The identity permutations
    come first, so a table already in canonical form is returned unchanged.
    :func:`_canonical_form` finds the base table and the permutations.
    """
    flat = _labels_3x3(f)
    t, k = _canonical_form(flat)
    return CanonicalForm3x3(
        base=deterministic((t[0:3], t[3:6], t[6:9]), sided=f.sided),
        a=t[1],
        b=t[4],
        row_perm=_PERMS3[k // 6],
        col_perm=_PERMS3[k % 6],
        # each base cell reads the original cell the transform puts there
        outcome_relabel=tuple(sorted({(flat[c], x) for c, x in zip(_PERMUTED_CELLS[k], t)})),
    )


def _labels_3x3(f: FunctionSpec) -> tuple[int, ...]:
    """The row-major outcome labels of a 3x3 deterministic function."""
    if f.kind != "deterministic" or (f.alice_arity, f.bob_arity) != (3, 3):
        raise ValueError("canonicalization requires a 3x3 deterministic function")
    return sum(f.det_table, ())


def _canonical_form(labels: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """:func:`canonicalize_3x3` of one row-major label table, with its checks,
    in one pass over the 36 input permutations: the base table (cells 1 and
    4 are ``a`` and ``b``) and the index in ``_PERMUTED_CELLS`` of the
    permutation reaching it.

    A permuted table is in the reference layout when its first column is
    (x, x, y) and its second (a, b, b), with x != y, a != b, and a == x or
    b == x or b == y.  Its base table labels x 0, y 1 and the rest in order
    of first appearance, row by row; the smallest base table wins, the
    first permutation on a tie; every valid table has one (a valid table
    uses at most four labels, and the test suite checks every table of
    labels 0-3).  Labels are only compared, so any integers do."""
    rows = labels[0:3], labels[3:6], labels[6:9]
    cols = labels[0::3], labels[1::3], labels[2::3]
    # potentially concealing: every row and column repeats an element;
    # non-degenerate: no two rows and no two columns are equal
    concealing = all(len(set(line)) < 3 for line in rows + cols)
    non_degenerate = len(set(rows)) == len(set(cols)) == 3
    if not (concealing and non_degenerate):
        raise ConditionError(ConditionCheck(concealing, non_degenerate))
    best = None
    for k, cells in enumerate(_PERMUTED_CELLS):
        c0, c1, _, c3, c4, _, c6, c7, _ = cells
        x, a, b, y = labels[c0], labels[c1], labels[c4], labels[c6]
        if labels[c3] == x != y and labels[c7] == b != a and (a == x or b == x or b == y):
            names = {x: 0, y: 1}
            base = tuple([names.setdefault(labels[c], len(names)) for c in cells])
            if best is None or base < best[0]:
                best = base, k
    return best


def enumerate_valid_3x3() -> list[FunctionSpec]:
    """All potentially concealing, non-degenerate 3x3 deterministic functions,
    one per equivalence class, with outcome labels in first-appearance order:
    :func:`_class_tables` as function specs."""
    return [deterministic((r[0:3], r[3:6], r[6:9])) for r in _class_tables()[0].T.tolist()]


def _class_tables() -> tuple[np.ndarray, np.ndarray]:
    """:func:`enumerate_valid_3x3` as row-major tables of labels ``(9, 18)``,
    and from the same pass each class's base table ``(18, 9)`` as
    :func:`canonicalize_3x3` names it.

    Every valid table has a relabeling in the reference layout and its
    labels (:func:`canonicalize_3x3` relies on this too, and the test suite
    checks it against the full walk), so the classes are the orbits of the
    44 tables :func:`_layout_tables` generates.  These are gathered under
    all 36 input permutations at once, each keyed by the smallest base-4
    key of its first-appearance forms; the 18 distinct keys, sorted, are
    the classes, each its orbit's smallest table.  A class's base table is
    its smallest member, each member's key read off its labels as they
    stand.
    """
    tables = _layout_tables()
    orbits = _keys(tables[_GATHER], _KEY).min(axis=0).tolist()
    bases = {}
    # each table is in reference labels already, so its key is its labels in cell order
    for orbit, own in zip(orbits, (_KEY @ tables).tolist()):
        bases[orbit] = min(bases.get(orbit, own), own)
    # a dict and sorted(), not np.unique: numpy's first sort loads its sort kernels, ~1 MB resident
    classes = sorted(bases)
    return (
        np.array(classes) // _KEY[:, None] % 4,
        np.array([bases[c] for c in classes])[:, None] // _KEY % 4,
    )


def _layout_tables() -> np.ndarray:
    """The 44 valid tables in the reference layout and its labels, row-major,
    as int8 cells first ``(9, 44)``, in increasing order of their free cells
    a, (0,2), b, (1,2), (2,2).

    The layout fixes column 0 to (0, 0, 1) and column 1 to (a, b, b), with
    a != b and a == 0 or b < 2; its labels number the outcomes in order of
    first appearance in that cell order, after column 0's 0 and 1, so each
    free cell is at most one above every label before it.  The layout
    itself makes columns 0 and 1 repeat an element and differ, and the rows
    differ (rows 0 and 1 at a != b, row 2 in its 1).  So the walk prunes a
    cell as soon as the line it completes breaks the rest of the conditions:
    each row repeats an element, and column 2 repeats one and equals
    neither column 0 nor column 1.  No label exceeds 3, as the base-4 keys
    need: each row repeats an element, so a fifth outcome would force some
    column to hold three distinct entries.
    """
    found = []
    for a in range(3):
        for c02 in range(3) if a == 0 else (0, a):  # row 0 (0, a, c02) repeats
            top = max(a, c02, 1)  # the largest label so far
            for b in range(a) if a else range(1, top + 2):  # b != a, and b < 2 unless a == 0
                for c12 in (0, b) if b else range(top + 2):  # row 1 (0, b, c12) repeats
                    # row 2 (1, b, c22) repeats
                    for c22 in range(max(top, c12) + 2) if b == 1 else (1, b) if b else (0, 1):
                        column = c02, c12, c22
                        if (c12 == c22 or c02 in (c12, c22)) and column not in ((0, 0, 1), (a, b, b)):
                            found += 0, a, c02, 0, b, c12, 1, b, c22
    return np.array(found, dtype=np.int8).reshape(-1, 9).T.copy()


# --- function-spec file format -------------------------------------------

def content_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines with ``#`` comments stripped, as (line number, text)."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if s:
            rows.append((ln, s))
    return rows


def _header(lines: list[tuple[int, str]], pos: int, key: str) -> tuple[int, str]:
    if pos >= len(lines):
        raise FunctionFileError(lines[-1][0] if lines else 1, f"missing '{key}:' header")
    ln, s = lines[pos]
    name, sep, value = s.partition(":")
    if not sep or name.strip() != key:
        raise FunctionFileError(ln, f"expected '{key}: ...', got {s!r}")
    return ln, value.strip()


# Fraction expands a decimal exactly, building 10**places and 10**|exponent|;
# 4300 is Python's default cap on the digits of int(str), as in num/den tokens.
_MAX_DECIMAL_POWER = 4300


def _parse_fraction(ln: int, token: str) -> Fraction:
    """One probability entry, exact.  An ASCII-digit ``n`` or ``n/d`` is read
    as two integers, its range checked on them; any other token goes through
    ``Fraction(token)``, which also reads signs, underscores, other scripts'
    digits, decimals and exponents."""
    num, slash, den = token.partition("/")
    try:
        if token.isascii() and num.isdigit() and (den.isdigit() or not slash):
            n, d = int(num), int(den) if slash else 1
            value, in_range = Fraction(n, d), n <= d
        else:
            mantissa, _, exponent = token.lower().partition("e")
            power = max(len(mantissa.partition(".")[2]), abs(int(exponent or 0)))
            value = Fraction(token) if power <= _MAX_DECIMAL_POWER else None
            in_range = value is not None and 0 <= value <= 1
    except (ValueError, ZeroDivisionError):
        raise FunctionFileError(ln, f"cannot parse probability {token!r}") from None
    if value is None:
        raise FunctionFileError(ln, f"decimal places or exponent beyond {_MAX_DECIMAL_POWER}")
    if not in_range:
        raise FunctionFileError(ln, f"probability {token} outside [0, 1]")
    return value


def _decimal(ln: int, key: str, token: str) -> int | None:
    """A header's nonnegative decimal integer, or None if ``token`` is not
    one; like an entry's, it may not have more digits than ``int`` reads."""
    if not token.isdecimal():
        return None
    if len(token) > _MAX_DECIMAL_POWER:
        raise FunctionFileError(ln, f"{key} has more than {_MAX_DECIMAL_POWER} digits")
    return int(token)


def _row(ln: int, text: str, n: int, parse: Callable[[int, str], object]) -> tuple:
    """One body row of a function or POVM file: ``n`` whitespace-separated
    entries, each read by ``parse(ln, token)``."""
    tokens = text.split()
    if len(tokens) != n:
        raise FunctionFileError(ln, f"expected {n} entries, got {len(tokens)}")
    return tuple(parse(ln, token) for token in tokens)


def parse_function_file(text: str) -> FunctionSpec:
    """Parse the line-oriented function-spec format.

    Header lines ``type:``, ``sided:``, ``inputs: <alice> <bob>`` and
    ``outcomes: <n>`` are followed by the body: for deterministic functions
    ``bob_arity`` rows of ``alice_arity`` outcome labels; for probabilistic
    functions one ``k: <label>`` block per outcome, each holding
    ``bob_arity`` rows of ``alice_arity`` rationals (``num/den`` or decimal,
    both parsed exactly).  The final outcome block may be omitted and is
    inferred by complement.  ``#`` starts a comment.
    """
    lines = content_lines(text)
    if not lines:
        raise FunctionFileError(1, "empty function file")

    ln, kind = _header(lines, 0, "type")
    if kind not in ("deterministic", "probabilistic"):
        raise FunctionFileError(ln, f"type must be deterministic or probabilistic, got {kind!r}")
    ln, sided = _header(lines, 1, "sided")
    if sided not in ("one", "two"):
        raise FunctionFileError(ln, f"sided must be one or two, got {sided!r}")
    ln, inputs = _header(lines, 2, "inputs")
    arities = [_decimal(ln, "inputs", part) for part in inputs.split()]
    if len(arities) != 2 or None in arities:
        raise FunctionFileError(ln, f"inputs must be two integers, got {inputs!r}")
    alice_arity, bob_arity = arities
    if alice_arity < 1 or bob_arity < 1:
        raise FunctionFileError(ln, "arities must be positive")
    ln, outcomes = _header(lines, 3, "outcomes")
    outcome_count = _decimal(ln, "outcomes", outcomes)
    if outcome_count is None or outcome_count < 1:
        raise FunctionFileError(ln, f"outcomes must be a positive integer, got {outcomes!r}")

    body = lines[4:]
    if kind == "deterministic":
        if len(body) != bob_arity:
            at = body[-1][0] if body else lines[3][0]
            raise FunctionFileError(at, f"expected {bob_arity} outcome rows, got {len(body)}")

        def read_label(ln: int, token: str) -> int:
            try:
                x = int(token)
            except ValueError:
                raise FunctionFileError(ln, f"cannot parse outcome label {token!r}") from None
            if not 0 <= x < outcome_count:
                raise FunctionFileError(ln, f"outcome label {x} out of range [0, {outcome_count})")
            return x

        table = tuple(_row(ln, s, alice_arity, read_label) for ln, s in body)
        return FunctionSpec(kind, sided, alice_arity, bob_arity, outcome_count, det_table=table)

    blocks: dict[int, list[tuple[Fraction, ...]]] = {}
    pos = 0
    last_ln = lines[3][0]
    while pos < len(body):
        ln, s = body[pos]
        name, sep, value = s.partition(":")
        if not sep or name.strip() != "k":
            raise FunctionFileError(ln, f"expected 'k: <label>' block header, got {s!r}")
        value = value.strip()
        label = _decimal(ln, "outcome label", value)
        if label is None or label >= outcome_count:
            raise FunctionFileError(ln, f"outcome label {value!r} out of range [0, {outcome_count})")
        if label in blocks:
            raise FunctionFileError(ln, f"duplicate block for outcome {label}")
        pos += 1
        rows = []
        for _ in range(bob_arity):
            if pos >= len(body):
                raise FunctionFileError(ln, f"block for outcome {label} is missing rows")
            last_ln, row = body[pos]
            rows.append(_row(last_ln, row, alice_arity, _parse_fraction))
            pos += 1
        blocks[label] = rows

    absent = outcome_count - len(blocks)
    if absent > 8:  # list labels only when few; the header can claim 10**12
        raise FunctionFileError(
            last_ln, f"only the final outcome block may be omitted; {absent} blocks are missing"
        )
    missing = sorted(set(range(outcome_count)) - set(blocks))
    if len(missing) > 1 or (missing and missing[0] != outcome_count - 1):
        raise FunctionFileError(
            last_ln, f"only the final outcome block may be omitted; missing {missing}"
        )
    if missing:
        # each cell's complement 1 - x - y - ... on integers over the cell's
        # common denominator: (d - n)/d when one block is given
        rest = []
        for j in range(bob_arity):
            row = []
            for i in range(alice_arity):
                den, nums = _numerators([block[j][i] for block in blocks.values()])
                if sum(nums) > den:
                    raise FunctionFileError(last_ln, f"probabilities at (i={i}, j={j}) exceed 1")
                row.append(Fraction(den - sum(nums), den))
            rest.append(tuple(row))
        blocks[missing[0]] = rest
    table = tuple(tuple(blocks[k]) for k in range(outcome_count))
    try:  # the constructor checks that every cell sums to 1
        return FunctionSpec(kind, sided, alice_arity, bob_arity, outcome_count, prob_table=table)
    except ValueError as exc:
        raise FunctionFileError(last_ln, str(exc)) from None


# --- built-in tables -------------------------------------------------------

_BUILTIN_TEXT = {
    # Oblivious transfer: the receiver learns the sender's bit with
    # probability 1/2 and an erasure symbol otherwise.
    "ot": """\
type: probabilistic
sided: one
inputs: 2 1
outcomes: 3
k: 0
1/2 0
k: 1
0 1/2
# erasure block inferred by complement: 1/2 1/2
""",
    # Binary two-sided table with a uniform prior on the guessed party's
    # input for which no superposed input improves on honest play.
    "counterexample": """\
type: probabilistic
sided: two
inputs: 2 2
outcomes: 2
k: 0
47/150 103/150
8/9 5/9
""",
    # f(i,j) = 1 - delta_ij, the standard 3x3 example.
    "neq3": """\
type: deterministic
sided: two
inputs: 3 3
outcomes: 2
0 1 1
1 0 1
1 1 0
""",
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_TEXT))


@functools.cache
def builtin(name: str) -> FunctionSpec:
    """Embedded tables addressable as ``@ot``, ``@counterexample``, ``@neq3``.

    Parsed once per name; sharing the result is safe because
    :class:`FunctionSpec` is frozen."""
    key = name.lstrip("@")
    if key not in _BUILTIN_TEXT:
        raise KeyError(f"unknown built-in function {name!r}; have {builtin_names()}")
    return parse_function_file(_BUILTIN_TEXT[key])
