"""Two-party function tables: data model, validation, canonical forms, parsing.

A function is specified by an outcome matrix (deterministic case) or by
outcome probabilities p(k|i,j) (probabilistic case), where ``i`` indexes
Alice's input (column) and ``j`` Bob's input (row).  Probabilities are kept
as exact rationals until states are built, so that parse-time rounding can
never masquerade as an attack advantage.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .tolerances import active

_PERMS3 = tuple(itertools.permutations(range(3)))

# Number of inequivalent 3x3 deterministic functions that are potentially
# concealing and non-degenerate (frozen regression value; derived once by
# exhaustive generation and re-checked by an independent naive counter in
# the test suite).
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
                tuple(tuple(Fraction(x) for x in row) for row in block)
                for block in self.prob_table
            )
            if len(p) != self.outcome_count:
                raise ValueError("probability table must have one block per outcome")
            for block in p:
                if len(block) != self.bob_arity or any(
                    len(r) != self.alice_arity for r in block
                ):
                    raise ValueError("probability block shape does not match arities")
            for j in range(self.bob_arity):
                for i in range(self.alice_arity):
                    col = [p[k][j][i] for k in range(self.outcome_count)]
                    if any(x < 0 or x > 1 for x in col):
                        raise ValueError(f"probability out of [0,1] at (i={i}, j={j})")
                    if sum(col) != 1:
                        raise ValueError(
                            f"probabilities at (i={i}, j={j}) sum to {sum(col)}, expected 1"
                        )
            object.__setattr__(self, "prob_table", p)

    def outcome(self, i: int, j: int) -> int:
        """Deterministic outcome f(i, j)."""
        if self.det_table is None:
            raise ValueError("outcome() is only defined for deterministic functions")
        return self.det_table[j][i]

    def prob(self, k: int, i: int, j: int) -> Fraction:
        """Exact probability p(k|i,j); deterministic tables give 0/1."""
        if self.det_table is not None:
            return Fraction(1) if self.det_table[j][i] == k else Fraction(0)
        return self.prob_table[k][j][i]


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
    p0 = tuple(tuple(Fraction(x) for x in row) for row in zero_rows)
    p1 = tuple(tuple(1 - x for x in row) for row in p0)
    return FunctionSpec(
        kind="probabilistic",
        sided="two",
        alice_arity=len(p0[0]),
        bob_arity=len(p0),
        outcome_count=2,
        prob_table=(p0, p1),
    )


def one_sided_binary(zero_rows: Sequence[Sequence]) -> FunctionSpec:
    """Binary-output one-sided function (the output register goes to Alice)."""
    p0 = tuple(tuple(Fraction(x) for x in row) for row in zero_rows)
    p1 = tuple(tuple(1 - x for x in row) for row in p0)
    return FunctionSpec(
        kind="probabilistic",
        sided="one",
        alice_arity=len(p0[0]),
        bob_arity=len(p0),
        outcome_count=2,
        prob_table=(p0, p1),
    )


def transpose(f: FunctionSpec) -> FunctionSpec:
    """Swap the two parties' roles."""
    if f.kind == "deterministic":
        t = tuple(
            tuple(f.det_table[i][j] for i in range(f.bob_arity))
            for j in range(f.alice_arity)
        )
        return FunctionSpec(
            kind=f.kind,
            sided=f.sided,
            alice_arity=f.bob_arity,
            bob_arity=f.alice_arity,
            outcome_count=f.outcome_count,
            det_table=t,
        )
    p = tuple(
        tuple(
            tuple(f.prob_table[k][i][j] for i in range(f.bob_arity))
            for j in range(f.alice_arity)
        )
        for k in range(f.outcome_count)
    )
    return FunctionSpec(
        kind=f.kind,
        sided=f.sided,
        alice_arity=f.bob_arity,
        bob_arity=f.alice_arity,
        outcome_count=f.outcome_count,
        prob_table=p,
    )


def validate_prior(weights: Sequence[float], n: int) -> np.ndarray:
    """Probability vector over one party's inputs."""
    q = np.asarray([float(w) for w in weights], dtype=float)
    if q.shape != (n,):
        raise ValueError(f"prior must have {n} entries, got {q.shape}")
    if q.min() < 0:
        raise ValueError("prior weights must be nonnegative")
    if abs(q.sum() - 1.0) > active().trace:
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


def validate_conditions(f: FunctionSpec) -> ConditionCheck:
    """Concealment and degeneracy checks for deterministic outcome matrices.

    Potentially concealing: every row and every column contains a repeated
    element (no input pins down the other party's input with certainty).
    Non-degenerate: no two rows and no two columns are equal.
    """
    if f.kind != "deterministic":
        raise ValueError("conditions are defined for deterministic functions only")
    rows = f.det_table
    cols = tuple(tuple(rows[j][i] for j in range(f.bob_arity)) for i in range(f.alice_arity))
    concealing = all(len(set(line)) < len(line) for line in rows + cols)
    non_degenerate = len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    return ConditionCheck(concealing, non_degenerate)


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


def apply_table_transform(
    table: Sequence[Sequence[int]],
    row_perm: Sequence[int],
    col_perm: Sequence[int],
    relabel: dict[int, int],
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(relabel[table[row_perm[j]][col_perm[i]]] for i in range(3))
        for j in range(3)
    )


def invert_table_transform(
    base: Sequence[Sequence[int]],
    row_perm: Sequence[int],
    col_perm: Sequence[int],
    relabel: dict[int, int],
) -> tuple[tuple[int, ...], ...]:
    """Undo :func:`apply_table_transform`."""
    inv = {new: old for old, new in relabel.items()}
    row_inv = [0] * 3
    col_inv = [0] * 3
    for j, rj in enumerate(row_perm):
        row_inv[rj] = j
    for i, ci in enumerate(col_perm):
        col_inv[ci] = i
    return tuple(
        tuple(inv[base[row_inv[j]][col_inv[i]]] for i in range(3)) for j in range(3)
    )


def canonicalize_3x3(f: FunctionSpec) -> CanonicalForm3x3:
    """Reduce a valid 3x3 deterministic function to the reference layout.

    Row/column permutations relabel inputs and a bijection relabels
    outcomes.  Several combinations reach the reference layout; the
    lexicographically smallest base table (row-major) is chosen so that all
    members of an equivalence class map to the identical canonical form.
    The search order puts the identity transformations first, so a table
    already in canonical form is returned unchanged.
    """
    if f.kind != "deterministic" or (f.alice_arity, f.bob_arity) != (3, 3):
        raise ValueError("canonicalization requires a 3x3 deterministic function")
    check = validate_conditions(f)
    if not check:
        raise ValueError(
            "function must be potentially concealing and non-degenerate; got "
            f"{check}"
        )
    table = f.det_table
    used = sorted({x for row in table for x in row})
    m = len(used)
    best_table = None
    best_meta = None
    for row_perm in _PERMS3:
        for col_perm in _PERMS3:
            for assign in itertools.permutations(range(m)):
                relabel = {lab: assign[t] for t, lab in enumerate(used)}
                cand = apply_table_transform(table, row_perm, col_perm, relabel)
                if (cand[0][0], cand[1][0], cand[2][0]) != (0, 0, 1):
                    continue
                a, b = cand[0][1], cand[1][1]
                if cand[2][1] != b or a == b:
                    continue
                if not (a == 0 or b == 0 or b == 1):
                    continue
                if best_table is None or cand < best_table:
                    best_table = cand
                    best_meta = (a, b, row_perm, col_perm, relabel)
    if best_table is None:
        raise ValueError("function admits no canonical form; conditions violated")
    a, b, row_perm, col_perm, relabel = best_meta
    return CanonicalForm3x3(
        base=deterministic(best_table, sided=f.sided),
        a=a,
        b=b,
        row_perm=row_perm,
        col_perm=col_perm,
        outcome_relabel=tuple(sorted(relabel.items())),
    )


def _first_appearance(flat: Sequence[int]) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    out = []
    for x in flat:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


def _conditions_ok_flat(flat: Sequence[int]) -> bool:
    rows = (flat[0:3], flat[3:6], flat[6:9])
    cols = (flat[0::3], flat[1::3], flat[2::3])
    for line in rows + cols:
        if len(set(line)) == 3:
            return False
    return len(set(rows)) == 3 and len(set(cols)) == 3


def class_representative(flat: Sequence[int]) -> tuple[int, ...]:
    """Smallest first-appearance-normalized table over all row/column
    permutations; a complete invariant of the equivalence class."""
    rows = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
    best = None
    for rp in _PERMS3:
        for cp in _PERMS3:
            cand = _first_appearance(
                tuple(rows[rp[j]][cp[i]] for j in range(3) for i in range(3))
            )
            if best is None or cand < best:
                best = cand
    return best


def _normalized_flat_tables():
    """All 9-cell tables with labels in first-appearance order.

    A valid table has at most 4 distinct outcomes: each row repeats an
    element (so carries at most 2 distinct values) and a fifth value would
    force some column to hold three distinct entries.
    """
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], hi: int):
        if len(prefix) == 9:
            out.append(tuple(prefix))
            return
        for v in range(min(hi + 2, 4)):
            prefix.append(v)
            extend(prefix, max(hi, v))
            prefix.pop()

    extend([], -1)
    return out


def enumerate_valid_3x3() -> list[FunctionSpec]:
    """All potentially concealing, non-degenerate 3x3 deterministic
    functions, one representative per equivalence class, with outcome
    labels normalized to first-appearance order."""
    reps = set()
    for flat in _normalized_flat_tables():
        if _conditions_ok_flat(flat):
            reps.add(class_representative(flat))
    return [deterministic((r[0:3], r[3:6], r[6:9])) for r in sorted(reps)]


# --- function-spec file format -------------------------------------------

def _content_lines(text: str) -> list[tuple[int, str]]:
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


def _parse_fraction(ln: int, token: str) -> Fraction:
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FunctionFileError(ln, f"cannot parse probability {token!r}") from None
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
    lines = _content_lines(text)
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
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise FunctionFileError(ln, f"inputs must be two integers, got {inputs!r}")
    alice_arity, bob_arity = int(parts[0]), int(parts[1])
    ln, outcomes = _header(lines, 3, "outcomes")
    if not outcomes.isdigit() or int(outcomes) < 1:
        raise FunctionFileError(ln, f"outcomes must be a positive integer, got {outcomes!r}")
    outcome_count = int(outcomes)
    if alice_arity < 1 or bob_arity < 1:
        raise FunctionFileError(ln, "arities must be positive")

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
        return FunctionSpec(
            kind=kind,
            sided=sided,
            alice_arity=alice_arity,
            bob_arity=bob_arity,
            outcome_count=outcome_count,
            det_table=tuple(table),
        )

    blocks: dict[int, list[tuple[Fraction, ...]]] = {}
    pos = 0
    last_ln = lines[3][0]
    while pos < len(body):
        ln, s = body[pos]
        name, sep, value = s.partition(":")
        if not sep or name.strip() != "k":
            raise FunctionFileError(ln, f"expected 'k: <label>' block header, got {s!r}")
        value = value.strip()
        if not value.isdigit() or not 0 <= int(value) < outcome_count:
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

    missing = sorted(set(range(outcome_count)) - set(blocks))
    if len(missing) > 1 or (missing and missing[0] != outcome_count - 1):
        raise FunctionFileError(
            last_ln, f"only the final outcome block may be omitted; missing {missing}"
        )
    if missing:
        label = missing[0]
        rows = []
        for j in range(bob_arity):
            row = []
            for i in range(alice_arity):
                rem = 1 - sum(blocks[k][j][i] for k in blocks)
                if rem < 0:
                    raise FunctionFileError(
                        last_ln, f"probabilities at (i={i}, j={j}) exceed 1"
                    )
                row.append(rem)
            rows.append(tuple(row))
        blocks[label] = rows
    for j in range(bob_arity):
        for i in range(alice_arity):
            total = sum(blocks[k][j][i] for k in range(outcome_count))
            if total != 1:
                raise FunctionFileError(
                    last_ln, f"probabilities at (i={i}, j={j}) sum to {total}, expected 1"
                )
    prob = tuple(tuple(blocks[k]) for k in range(outcome_count))
    return FunctionSpec(
        kind=kind,
        sided=sided,
        alice_arity=alice_arity,
        bob_arity=bob_arity,
        outcome_count=outcome_count,
        prob_table=prob,
    )


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


def builtin_text(name: str) -> str:
    return _BUILTIN_TEXT[name.lstrip("@")]
