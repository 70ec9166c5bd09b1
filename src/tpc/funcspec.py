"""Two-party function tables: data model, validation, canonical forms, parsing.

A function is specified by an outcome matrix (deterministic case) or by
outcome probabilities p(k|i,j) (probabilistic case), where ``i`` indexes
Alice's input (column) and ``j`` Bob's input (row).  Probabilities are kept
as exact rationals until states are built, so that parse-time rounding can
never masquerade as an attack advantage.

The 3x3 classes are enumerated through the reference layout, which every
valid table can be relabeled into (see :func:`enumerate_valid_3x3`), on
arrays of tables with one orbit gather and base-4 keys; the full walk over
all 11,051 normalized tables is kept as a test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .tolerances import active

_PERMS3 = tuple(itertools.permutations(range(3)))

# Stacks of row-major 3x3 tables are held cells first, C-contiguous (9, n), so
# that array ops run along the stack; tables[_GATHER] is (9, 36, n), each table
# under the 36 input permutations, row permutation major, identity first.
_GATHER = np.array(
    [[3 * r + c for r in rp for c in cp] for rp, cp in itertools.product(_PERMS3, repeat=2)]
).T

# Place values that read a table with labels 0-3 as one base-4 key, in tuple
# order; int32 holds every key and halves the temporaries of the key sums.
_KEY = np.array([4**p for p in range(8, -1, -1)], dtype=np.int32)

# First appearance in this cell order gives the reference labels (0,0) -> 0, (2,0) -> 1.
_REFERENCE_ORDER = [0, 6, 1, 2, 3, 4, 5, 7, 8]
_REFERENCE_GATHER, _REFERENCE_KEY = _GATHER[_REFERENCE_ORDER], _KEY[_REFERENCE_ORDER]

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
            # range and sum on integer numerators over one common denominator
            den = math.lcm(*(x.denominator for block in p for row in block for x in row))
            for j in range(self.bob_arity):
                for i in range(self.alice_arity):
                    col = [x.numerator * (den // x.denominator) for x in (b[j][i] for b in p)]
                    if any(x < 0 or x > den for x in col):
                        raise ValueError(f"probability out of [0,1] at (i={i}, j={j})")
                    if sum(col) != den:
                        raise ValueError(
                            f"probabilities at (i={i}, j={j}) sum to"
                            f" {Fraction(sum(col), den)}, expected 1"
                        )
            object.__setattr__(self, "prob_table", p)

    def prob(self, k: int, i: int, j: int) -> Fraction:
        """Exact probability p(k|i,j); deterministic tables give 0/1."""
        if self.det_table is not None:
            return Fraction(1) if self.det_table[j][i] == k else Fraction(0)
        return self.prob_table[k][j][i]

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


def validate_prior(weights: Sequence[float], n: int) -> np.ndarray:
    """Probability vector over one party's inputs."""
    q = np.asarray([float(w) for w in weights], dtype=float)
    if q.shape != (n,):
        raise ValueError(f"prior must have {n} entries, got {q.shape}")
    if q.min() < 0:
        raise ValueError("prior weights must be nonnegative")
    # written so that a NaN sum fails too
    if not abs(q.sum() - 1.0) <= active().trace:
        raise ValueError(f"prior weights sum to {q.sum():.12g}, expected 1")
    return q


def uniform_prior(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


@dataclass(frozen=True)
class ConditionCheck:
    potentially_concealing: bool
    non_degenerate: bool

    def __bool__(self) -> bool:
        return self.potentially_concealing and self.non_degenerate


class ConditionError(ValueError):
    """A table that is not both potentially concealing and non-degenerate."""

    def __init__(self, check: ConditionCheck):
        super().__init__(f"function must be potentially concealing and non-degenerate; got {check}")
        self.check = check


def _conditions(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concealment and degeneracy checks for deterministic outcome matrices
    ``(rows, cols, ...)``, as two masks.

    Potentially concealing: every row and every column contains a repeated
    element (no input pins down the other party's input with certainty).
    Non-degenerate: no two rows and no two columns are equal.
    """
    rows, cols = t.shape[:2]
    same = t[:, :, None, None] == t[None, None]  # cell (r, c) against cell (r', c')
    in_row = np.diagonal(same, axis1=0, axis2=2)  # (c, c', ..., r)
    in_col = np.diagonal(same, axis1=1, axis2=3)  # (r, r', ..., c)
    # a line repeats an element when some cell matches another cell, not only itself
    concealing = (in_row.sum(axis=(0, 1)) > cols).all(axis=-1)
    concealing &= (in_col.sum(axis=(0, 1)) > rows).all(axis=-1)
    # two rows are equal when they match in every column; only a row equals itself
    non_degenerate = in_col.all(axis=-1).sum(axis=(0, 1)) == rows
    non_degenerate &= in_row.all(axis=-1).sum(axis=(0, 1)) == cols
    return concealing, non_degenerate


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


def _in_reference_layout(t: np.ndarray) -> np.ndarray:
    """Which row-major 3x3 tables ``(9, ...)`` have first column (x, x, y)
    and second column (a, b, b) with x != y, a != b, and a == x or b == x or
    b == y; with x, y labelled 0, 1 this is the layout of
    :class:`CanonicalForm3x3`."""
    x, a, b, y = t[0], t[1], t[4], t[6]
    return (t[3] == x) & (x != y) & (t[7] == b) & (a != b) & ((a == x) | (b == x) | (b == y))


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
    This is the one-table case of :func:`_canonical_forms`.
    """
    flat = _labels_3x3(f)
    bases, best = _canonical_forms(np.array(flat)[:, None])
    t, k = bases[0].tolist(), int(best[0])
    return CanonicalForm3x3(
        base=deterministic((t[0:3], t[3:6], t[6:9]), sided=f.sided),
        a=t[1],
        b=t[4],
        row_perm=_PERMS3[k // 6],
        col_perm=_PERMS3[k % 6],
        # each base cell reads the original cell the transform puts there
        outcome_relabel=tuple(sorted({(flat[c], x) for c, x in zip(_GATHER[:, k].tolist(), t)})),
    )


def _labels_3x3(f: FunctionSpec) -> tuple[int, ...]:
    """The row-major outcome labels of a 3x3 deterministic function."""
    if f.kind != "deterministic" or (f.alice_arity, f.bob_arity) != (3, 3):
        raise ValueError("canonicalization requires a 3x3 deterministic function")
    return sum(f.det_table, ())


def _canonical_forms(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`canonicalize_3x3` of row-major label tables ``(9, n)``, with its
    checks, on one gather ``(9, 36, n)``: the base tables ``(n, 9)`` (cells 1
    and 4 are ``a`` and ``b``) and the index of the input permutation reaching
    each.  Each candidate base table is read as a base-4 key, so the smallest
    is one ``argmin``, the first transform on a tie."""
    # each cell labelled by the first cell holding its outcome, so labels stay below 9
    tables = (tables[:, None] == tables).argmax(axis=0)
    concealing, non_degenerate = _conditions(tables.reshape(3, 3, -1))
    failed = np.flatnonzero(~(concealing & non_degenerate))
    if failed.size:
        n = failed[0]
        raise ConditionError(ConditionCheck(bool(concealing[n]), bool(non_degenerate[n])))
    # cell (0,0) is labelled 0 and cell (2,0) 1, the rest in first-appearance order;
    # transforms out of the layout get a key above every table's
    keys = _keys(tables[_REFERENCE_GATHER], _REFERENCE_KEY)
    keys[~_in_reference_layout(tables[_GATHER])] = 4 * _KEY[0]
    best, smallest = keys.argmin(axis=0), keys.min(axis=0)
    if smallest.max() == 4 * _KEY[0]:
        raise ValueError("function admits no canonical form; conditions violated")
    return smallest[:, None] // _KEY % 4, best


def enumerate_valid_3x3() -> list[FunctionSpec]:
    """All potentially concealing, non-degenerate 3x3 deterministic functions,
    one per equivalence class, with outcome labels in first-appearance order:
    :func:`_class_tables` as function specs."""
    return [deterministic((r[0:3], r[3:6], r[6:9])) for r in _class_tables()[0].T.tolist()]


def _class_tables() -> tuple[np.ndarray, np.ndarray]:
    """:func:`enumerate_valid_3x3` as row-major tables of labels ``(9, 18)``,
    and from the same pass each class's base table ``(18, 9)`` as
    :func:`_canonical_forms` names it.

    Only the 512 tables already in the reference layout are checked.  Every
    valid table has a relabeling in that layout (:func:`canonicalize_3x3`
    relies on this too, and the test suite checks it against the full
    walk), with the first column's labels set to 0 and 1.  A valid table
    has at most 4 distinct outcomes: each row repeats an element, and a
    fifth value would force some column to hold three distinct entries.
    So labels 0-3 in the five free cells reach every class, and every
    member of a class in the reference layout, relabeled as the layout
    fixes, is among them.  The 76 valid tables are gathered under all 36
    input permutations at once, each keyed by the smallest base-4 key of
    its first-appearance forms; the 18 distinct keys, sorted, are the
    classes, each its orbit's smallest table.  A class's base table is the
    smallest reference-labelled key among its members.
    """
    a, c02, b, c12, c22 = np.indices((4,) * 5, dtype=np.int8).reshape(5, -1)
    zero = np.zeros_like(a)
    tables = np.stack([zero, a, c02, zero, b, c12, zero + 1, b, c22])
    tables = np.compress(_in_reference_layout(tables), tables, axis=1)
    tables = np.compress(np.logical_and(*_conditions(tables.reshape(3, 3, -1))), tables, axis=1)
    orbits = _keys(tables[_GATHER], _KEY).min(axis=0).tolist()
    bases = {}
    for orbit, own in zip(orbits, _keys(tables[_REFERENCE_ORDER], _REFERENCE_KEY).tolist()):
        bases[orbit] = min(bases.get(orbit, own), own)
    # a dict and sorted(), not np.unique: numpy's first sort loads its sort kernels, ~1 MB resident
    classes = sorted(bases)
    return (
        np.array(classes) // _KEY[:, None] % 4,
        np.array([bases[c] for c in classes])[:, None] // _KEY % 4,
    )


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
    mantissa, _, exponent = token.lower().partition("e")
    try:
        power = max(len(mantissa.partition(".")[2]), abs(int(exponent or 0)))
        value = Fraction(token) if power <= _MAX_DECIMAL_POWER else None
    except (ValueError, ZeroDivisionError):
        raise FunctionFileError(ln, f"cannot parse probability {token!r}") from None
    if value is None:
        raise FunctionFileError(ln, f"decimal places or exponent beyond {_MAX_DECIMAL_POWER}")
    if value < 0 or value > 1:
        raise FunctionFileError(ln, f"probability {token} outside [0, 1]")
    return value


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
    parts = inputs.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise FunctionFileError(ln, f"inputs must be two integers, got {inputs!r}")
    alice_arity, bob_arity = int(parts[0]), int(parts[1])
    if alice_arity < 1 or bob_arity < 1:
        raise FunctionFileError(ln, "arities must be positive")
    ln, outcomes = _header(lines, 3, "outcomes")
    if not outcomes.isdecimal() or int(outcomes) < 1:
        raise FunctionFileError(ln, f"outcomes must be a positive integer, got {outcomes!r}")
    outcome_count = int(outcomes)

    body = lines[4:]
    if kind == "deterministic":
        if len(body) != bob_arity:
            at = body[-1][0] if body else lines[3][0]
            raise FunctionFileError(at, f"expected {bob_arity} outcome rows, got {len(body)}")
        table = []
        for ln, s in body:
            toks = s.split()
            if len(toks) != alice_arity:
                raise FunctionFileError(ln, f"expected {alice_arity} entries, got {len(toks)}")
            row = []
            for t in toks:
                try:
                    x = int(t)
                except ValueError:
                    raise FunctionFileError(ln, f"cannot parse outcome label {t!r}") from None
                if not 0 <= x < outcome_count:
                    raise FunctionFileError(ln, f"outcome label {x} out of range [0, {outcome_count})")
                row.append(x)
            table.append(tuple(row))
        return FunctionSpec(kind, sided, alice_arity, bob_arity, outcome_count, det_table=tuple(table))

    blocks: dict[int, list[tuple[Fraction, ...]]] = {}
    pos = 0
    last_ln = lines[3][0]
    while pos < len(body):
        ln, s = body[pos]
        name, sep, value = s.partition(":")
        if not sep or name.strip() != "k":
            raise FunctionFileError(ln, f"expected 'k: <label>' block header, got {s!r}")
        value = value.strip()
        if not value.isdecimal() or not 0 <= int(value) < outcome_count:
            raise FunctionFileError(ln, f"outcome label {value!r} out of range [0, {outcome_count})")
        label = int(value)
        if label in blocks:
            raise FunctionFileError(ln, f"duplicate block for outcome {label}")
        pos += 1
        rows = []
        for _ in range(bob_arity):
            if pos >= len(body):
                raise FunctionFileError(ln, f"block for outcome {label} is missing rows")
            rln, rs = body[pos]
            toks = rs.split()
            if len(toks) != alice_arity:
                raise FunctionFileError(rln, f"expected {alice_arity} entries, got {len(toks)}")
            rows.append(tuple(_parse_fraction(rln, t) for t in toks))
            last_ln = rln
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
        rest = [[1 - sum(b[j][i] for b in blocks.values()) for i in range(alice_arity)]
                for j in range(bob_arity)]
        for j, i in itertools.product(range(bob_arity), range(alice_arity)):
            if rest[j][i] < 0:
                raise FunctionFileError(last_ln, f"probabilities at (i={i}, j={j}) exceed 1")
        blocks[missing[0]] = [tuple(row) for row in rest]
    prob = tuple(tuple(blocks[k]) for k in range(outcome_count))
    try:  # the constructor checks that every cell sums to 1
        return FunctionSpec(kind, sided, alice_arity, bob_arity, outcome_count, prob_table=prob)
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
