"""Function tables: conditions, canonical forms, enumeration, parsing."""

import gc
import itertools
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpc import funcspec
from tpc.funcspec import (
    FunctionFileError,
    FunctionSpec,
    builtin,
    canonicalize_3x3,
    deterministic,
    enumerate_valid_3x3,
    parse_function_file,
    transpose,
    two_sided_binary,
    validate_prior,
)

SEED_PROBABILITIES = 5150

SEED_TABLES = [
    ((0, 1, 1), (1, 0, 1), (1, 1, 0)),  # 1 - delta_ij
]


def neq3():
    return deterministic(((0, 1, 1), (1, 0, 1), (1, 1, 0)))


PERMS3 = tuple(itertools.permutations(range(3)))


def apply_table_transform(table, row_perm, col_perm, relabel):
    """``out[j][i] = relabel[table[row_perm[j]][col_perm[i]]]``, the
    convention of :class:`funcspec.CanonicalForm3x3`."""
    return tuple(
        tuple(relabel[table[row_perm[j]][col_perm[i]]] for i in range(3))
        for j in range(3)
    )


def brute_force_canonical_form(f):
    """Independent oracle: apply every row, column and outcome relabeling,
    in the order row permutation, column permutation, outcome bijection,
    and keep the smallest row-major table in the reference layout, the
    first one on a tie."""
    table = np.array(f.det_table)
    used = sorted({int(x) for x in table.flat})
    assigns = np.array(list(itertools.permutations(range(len(used)))))
    lookup = np.zeros((len(assigns), table.max() + 1), dtype=int)
    lookup[:, used] = assigns
    perms = np.array(PERMS3)
    permuted = table[perms[:, None, :, None], perms[None, :, None, :]]
    # cands[rp, cp, k] is the table relabeled by row permutation rp, column
    # permutation cp and outcome bijection k
    cands = lookup[np.arange(len(assigns))[:, None, None, None, None], permuted[None]]
    cands = cands.transpose(1, 2, 0, 3, 4).reshape(-1, 9)
    c = cands.T
    a, b = c[1], c[4]
    layout = (c[0] == 0) & (c[3] == 0) & (c[6] == 1) & (c[7] == b) & (a != b)
    layout &= (a == 0) | (b == 0) | (b == 1)
    if not layout.any():
        raise ValueError("no relabeling reaches the reference layout")
    codes = cands @ (4 ** np.arange(8, -1, -1))
    best = int(np.flatnonzero(layout & (codes == codes[layout].min()))[0])
    rp, rest = divmod(best, 6 * len(assigns))
    cp, k = divmod(rest, len(assigns))
    flat = [int(x) for x in cands[best]]
    return funcspec.CanonicalForm3x3(
        base=deterministic((flat[0:3], flat[3:6], flat[6:9]), sided=f.sided),
        a=flat[1],
        b=flat[4],
        row_perm=PERMS3[rp],
        col_perm=PERMS3[cp],
        outcome_relabel=tuple((old, int(new)) for old, new in zip(used, assigns[k])),
    )


def all_class_relabelings():
    """Every row, column and outcome relabeling of the 18 classes."""
    for f in enumerate_valid_3x3():
        labels = range(f.outcome_count)
        for rp in PERMS3:
            for cp in PERMS3:
                for assign in itertools.permutations(labels):
                    relabel = dict(zip(labels, assign))
                    yield deterministic(apply_table_transform(f.det_table, rp, cp, relabel))


def conditions(f):
    """``funcspec._conditions`` of one deterministic table, as a ConditionCheck."""
    concealing, non_degenerate = funcspec._conditions(np.array(f.det_table))
    return funcspec.ConditionCheck(bool(concealing), bool(non_degenerate))


class TestConditions:
    def test_neq3_satisfies_both(self):
        check = conditions(neq3())
        assert check.potentially_concealing and check.non_degenerate

    def test_identity_columns_not_concealing(self):
        # f(i,j) = i: columns are constant but every row is (0,1,2)
        f = deterministic(((0, 1, 2), (0, 1, 2), (0, 1, 2)))
        assert not conditions(f).potentially_concealing

    def test_two_equal_rows_degenerate(self):
        f = deterministic(((0, 0, 1), (0, 0, 1), (1, 1, 0)))
        assert not conditions(f).non_degenerate

    def test_probabilistic_rejected(self):
        # the conditions are defined on outcome matrices: the canonicalizer,
        # which checks them, refuses a probabilistic table first
        with pytest.raises(ValueError, match="requires a 3x3 deterministic function"):
            canonicalize_3x3(builtin("counterexample"))

    def test_matches_set_oracle_on_random_shapes(self):
        # the masks of _conditions against sets of rows and columns
        rng = np.random.default_rng(SEED_PROBABILITIES + 1)
        for _ in range(2000):
            rows, cols, count = (int(x) for x in rng.integers(1, 5, size=3))
            table = rng.integers(count, size=(rows, cols)).tolist()
            f = FunctionSpec("deterministic", "two", cols, rows, count, det_table=table)
            lines_r, lines_c = [tuple(r) for r in table], list(zip(*table))
            concealing = all(len(set(line)) < len(line) for line in lines_r + lines_c)
            non_degenerate = len(set(lines_r)) == rows and len(set(lines_c)) == cols
            assert conditions(f) == funcspec.ConditionCheck(concealing, non_degenerate)

    def test_invariant_under_relabelings(self):
        f = neq3()
        base = conditions(f)
        for rp in itertools.permutations(range(3)):
            for cp in itertools.permutations(range(3)):
                table = apply_table_transform(f.det_table, rp, cp, {0: 1, 1: 0})
                assert conditions(deterministic(table)) == base


class TestCanonicalize:
    def test_neq3_canonical_labels(self):
        canon = canonicalize_3x3(neq3())
        assert (canon.a, canon.b) == (1, 0)
        assert canon.base.det_table == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_layout_invariants(self):
        for f in enumerate_valid_3x3():
            canon = canonicalize_3x3(f)
            t = canon.base.det_table
            assert (t[0][0], t[1][0], t[2][0]) == (0, 0, 1)
            assert t[1][1] == t[2][1]
            a, b = t[0][1], t[1][1]
            assert a != b
            assert a == 0 or b == 0 or b == 1
            assert (canon.a, canon.b) == (a, b)

    def test_already_canonical_gives_identity_transforms(self):
        canon = canonicalize_3x3(neq3())
        again = canonicalize_3x3(canon.base)
        assert again.base.det_table == canon.base.det_table
        assert again.row_perm == (0, 1, 2)
        assert again.col_perm == (0, 1, 2)
        assert all(old == new for old, new in again.outcome_relabel)

    def test_transform_roundtrip(self):
        for f in enumerate_valid_3x3():
            canon = canonicalize_3x3(f)
            relabel = dict(canon.outcome_relabel)
            forward = apply_table_transform(
                f.det_table, canon.row_perm, canon.col_perm, relabel
            )
            assert forward == canon.base.det_table
            # the inverse permutations and relabeling lead back to the table
            back = apply_table_transform(
                canon.base.det_table,
                np.argsort(canon.row_perm),
                np.argsort(canon.col_perm),
                {new: old for old, new in relabel.items()},
            )
            assert back == f.det_table

    def test_class_members_share_canonical_form(self):
        import random

        rng = random.Random(99)
        for f in enumerate_valid_3x3():
            reference = canonicalize_3x3(f).base.det_table
            labels = list(range(f.outcome_count))
            for _ in range(5):
                rp = tuple(rng.sample(range(3), 3))
                cp = tuple(rng.sample(range(3), 3))
                shuffled = rng.sample(labels, len(labels))
                relabel = dict(zip(labels, shuffled))
                member = deterministic(
                    apply_table_transform(f.det_table, rp, cp, relabel)
                )
                assert canonicalize_3x3(member).base.det_table == reference

    def test_rejects_invalid_function(self):
        degenerate = deterministic(((0, 0, 1), (0, 0, 1), (1, 1, 0)))
        with pytest.raises(ValueError):
            canonicalize_3x3(degenerate)

    def test_matches_brute_force_on_every_relabeling(self):
        members = list(all_class_relabelings())
        assert len(members) == 4320
        for member in members:
            assert canonicalize_3x3(member) == brute_force_canonical_form(member)

    def test_batch_equals_one_table_and_brute_force_on_the_full_walk(self):
        valid = [
            deterministic((t[0:3], t[3:6], t[6:9]))
            for t in normalized_flat_tables()
            if conditions_ok_flat(t)
        ]
        assert len(valid) == 456
        bases, best = funcspec._canonical_forms(label_array(valid))
        assert bases.shape == (len(valid), 9) and best.shape == (len(valid),)
        for f, base, k in zip(valid, bases.tolist(), best.tolist()):
            canon = canonicalize_3x3(f)
            assert canon == brute_force_canonical_form(f)
            assert tuple(base) == sum(canon.base.det_table, ())
            assert (base[1], base[4]) == (canon.a, canon.b)
            assert (PERMS3[k // 6], PERMS3[k % 6]) == (canon.row_perm, canon.col_perm)

    @pytest.mark.parametrize(
        "table, message",
        [
            (
                ((0, 0, 1), (0, 0, 1), (1, 1, 0)),
                "function must be potentially concealing and non-degenerate; got "
                "ConditionCheck(potentially_concealing=True, non_degenerate=False)",
            ),
            (
                ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
                "function must be potentially concealing and non-degenerate; got "
                "ConditionCheck(potentially_concealing=False, non_degenerate=True)",
            ),
            (
                ((0, 1, 2), (0, 1, 2), (1, 2, 0)),
                "function must be potentially concealing and non-degenerate; got "
                "ConditionCheck(potentially_concealing=False, non_degenerate=False)",
            ),
            (((0, 1), (1, 0)), "canonicalization requires a 3x3 deterministic function"),
        ],
        ids=["degenerate", "non-concealing", "neither", "not-3x3"],
    )
    def test_invalid_table_raises_alone_and_inside_a_batch(self, table, message):
        bad = deterministic(table)
        pattern = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=pattern):
            canonicalize_3x3(bad)
        classes = enumerate_valid_3x3()
        with pytest.raises(ValueError, match=pattern):
            funcspec._canonical_forms(label_array(classes[:5] + [bad] + classes[5:]))

    def test_batch_reports_its_first_invalid_table(self):
        degenerate = deterministic(((0, 0, 1), (0, 0, 1), (1, 1, 0)))
        latin = deterministic(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        classes = enumerate_valid_3x3()
        for first, second in ((degenerate, latin), (latin, degenerate)):
            with pytest.raises(ValueError) as err:
                funcspec._canonical_forms(
                    label_array(classes[:3] + [first] + classes[3:9] + [second])
                )
            assert str(err.value).endswith(f"got {conditions(first)}")


def label_array(fs):
    """Row-major outcome labels ``(9, n)`` of 3x3 deterministic specs, as
    the attacks hand them to ``funcspec._canonical_forms``."""
    return np.array([funcspec._labels_3x3(f) for f in fs]).T


def first_appearance(flat):
    """Relabel outcomes 0, 1, 2, ... in order of first appearance."""
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in flat)


def conditions_ok_flat(flat):
    """Potentially concealing and non-degenerate, on a row-major 9-tuple."""
    rows = (flat[0:3], flat[3:6], flat[6:9])
    cols = (flat[0::3], flat[1::3], flat[2::3])
    if any(len(set(line)) == 3 for line in rows + cols):
        return False
    return len(set(rows)) == 3 and len(set(cols)) == 3


def permuted_tables(flat):
    """The table under every row and column permutation, first-appearance
    normalized."""
    rows = (flat[0:3], flat[3:6], flat[6:9])
    for rp in PERMS3:
        for cp in PERMS3:
            yield first_appearance(tuple(rows[rp[j]][cp[i]] for j in range(3) for i in range(3)))


def class_representative(flat):
    """Smallest permuted form: a complete invariant of the class."""
    return min(permuted_tables(flat))


def normalized_flat_tables():
    """All 9-cell tables with labels in first-appearance order and at most
    4 distinct outcomes, built one cell per pass."""
    out = [()]
    for _ in range(9):
        out = [t + (v,) for t in out for v in range(min(max(t, default=-1) + 2, 4))]
    return out


def full_walk_classes():
    """Oracle for :func:`enumerate_valid_3x3`: walk every normalized table
    and keep the smallest permuted form of each valid one."""
    tables = normalized_flat_tables()
    assert len(tables) == 11051
    reps = {min(permuted_tables(t)) for t in tables if conditions_ok_flat(t)}
    return [deterministic((r[0:3], r[3:6], r[6:9])) for r in sorted(reps)]


def naive_class_count():
    """Independent equivalence-class counter: collect every valid table in
    first-appearance form, then repeatedly pop one and delete its whole
    orbit under row/column permutations."""
    valid = set()
    for flat in itertools.product(range(4), repeat=9):
        if first_appearance(flat) == flat and conditions_ok_flat(flat):
            valid.add(flat)
    count = 0
    while valid:
        valid -= set(permuted_tables(next(iter(valid))))
        count += 1
    return count


class TestEnumeration:
    def test_count_matches_frozen_regression_value(self):
        assert len(enumerate_valid_3x3()) == funcspec.VALID_3X3_CLASS_COUNT == 18

    def test_count_matches_naive_double_enumeration(self):
        assert naive_class_count() == funcspec.VALID_3X3_CLASS_COUNT

    def test_layout_walk_matches_full_walk(self):
        assert enumerate_valid_3x3() == full_walk_classes()

    def test_class_representative_matches_oracle(self):
        # enumerate_valid_3x3 keys each valid table by the smallest key of
        # this set, on int8 labels; the canonicalizer's labels are int64
        for flat in normalized_flat_tables():
            if conditions_ok_flat(flat):
                for dtype in (np.int64, np.int8):
                    keys = funcspec._keys(np.array(flat, dtype=dtype)[funcspec._GATHER], funcspec._KEY)
                    orbit = {tuple(int(x) for x in key // funcspec._KEY % 4) for key in keys}
                    assert orbit == set(permuted_tables(flat))
                    assert min(orbit) == class_representative(flat)

    @pytest.mark.parametrize("top", [3, 8])
    def test_int8_and_int64_labels_give_equal_keys(self, top):
        rng = np.random.default_rng(top)
        for shape in ((9, 200), (9, 36, 40)):
            labels = rng.integers(0, top + 1, size=shape)
            wide = funcspec._keys(labels.astype(np.int64), funcspec._KEY)
            narrow = funcspec._keys(labels.astype(np.int8), funcspec._KEY)
            assert wide.shape == shape[1:]
            assert narrow.dtype == wide.dtype and np.array_equal(narrow, wide)

    def test_contains_neq3_class_exactly_once(self):
        target = class_representative(sum(neq3().det_table, ()))
        hits = [
            f
            for f in enumerate_valid_3x3()
            if class_representative(sum(f.det_table, ())) == target
        ]
        assert len(hits) == 1

    def test_all_listed_functions_are_valid(self):
        for f in enumerate_valid_3x3():
            assert bool(conditions(f))

    def test_pairwise_inequivalent(self):
        canons = [canonicalize_3x3(f).base.det_table for f in enumerate_valid_3x3()]
        assert len(set(canons)) == len(canons)

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            enumerate_valid_3x3()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_labels_in_first_appearance_order(self):
        for f in enumerate_valid_3x3():
            flat = sum(f.det_table, ())
            assert first_appearance(flat) == flat


class TestParser:
    def test_ot_builtin_matches_table(self):
        f = builtin("ot")
        assert (f.kind, f.sided) == ("probabilistic", "one")
        assert (f.alice_arity, f.bob_arity, f.outcome_count) == (2, 1, 3)
        assert f.prob(0, 0, 0) == Fraction(1, 2)
        assert f.prob(1, 0, 0) == 0
        assert f.prob(2, 0, 0) == Fraction(1, 2)
        assert f.prob(0, 1, 0) == 0
        assert f.prob(1, 1, 0) == Fraction(1, 2)
        assert f.prob(2, 1, 0) == Fraction(1, 2)

    def test_neq3_builtin(self):
        f = builtin("neq3")
        assert f.det_table == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_counterexample_exact_rationals(self):
        f = builtin("counterexample")
        assert f.prob(0, 0, 0) == Fraction(47, 150)
        assert f.prob(0, 1, 0) == Fraction(103, 150)
        assert f.prob(0, 0, 1) == Fraction(8, 9)
        assert f.prob(0, 1, 1) == Fraction(5, 9)
        assert f.prob(1, 0, 0) == Fraction(103, 150)

    def test_decimals_parse_exactly(self):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\n"
            "k: 0\n0.25 0.5\n0.1 1\n"
        )
        f = parse_function_file(text)
        assert f.prob(0, 0, 0) == Fraction(1, 4)
        assert f.prob(0, 0, 1) == Fraction(1, 10)
        assert f.prob(1, 0, 1) == Fraction(9, 10)

    def test_comments_and_blanks_ignored(self):
        f = parse_function_file("# c\n\n" + funcspec._BUILTIN_TEXT["neq3"] + "\n# trailing\n")
        assert f == builtin("neq3")

    def test_malformed_header_reports_line(self):
        with pytest.raises(FunctionFileError) as err:
            parse_function_file("kind: deterministic\n")
        assert err.value.line_no == 1

    def test_ragged_row_reports_line(self):
        text = "type: deterministic\nsided: two\ninputs: 3 3\noutcomes: 2\n0 1 1\n1 0\n1 1 0\n"
        with pytest.raises(FunctionFileError) as err:
            parse_function_file(text)
        assert err.value.line_no == 6

    def test_outcome_label_out_of_range(self):
        text = "type: deterministic\nsided: two\ninputs: 3 3\noutcomes: 2\n0 1 2\n1 0 1\n1 1 0\n"
        with pytest.raises(FunctionFileError) as err:
            parse_function_file(text)
        assert err.value.line_no == 5

    def test_probabilities_not_summing_to_one(self):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\n"
            "k: 0\n0.5 0.5\n0.5 0.5\nk: 1\n0.6 0.5\n0.5 0.5\n"
        )
        with pytest.raises(FunctionFileError):
            parse_function_file(text)

    def test_only_final_block_may_be_omitted(self):
        text = (
            "type: probabilistic\nsided: one\ninputs: 2 1\noutcomes: 3\n"
            "k: 0\n1/2 0\nk: 2\n1/2 1/2\n"
        )
        with pytest.raises(FunctionFileError):
            parse_function_file(text)

    @pytest.mark.parametrize(
        "header, line_no",
        [
            ("inputs: 0 3\noutcomes: 2\n", 3),
            ("inputs: \u00b3 3\noutcomes: 2\n", 3),
            ("inputs: 3 3\noutcomes: \u00b2\n", 4),
            ("inputs: 3 3\noutcomes: 2\nk: \u00b9\n", 5),
        ],
    )
    def test_bad_header_number_reports_line(self, header, line_no):
        text = "type: probabilistic\nsided: two\n" + header + "1 1 1\n1 1 1\n1 1 1\n"
        with pytest.raises(FunctionFileError) as err:
            parse_function_file(text)
        assert err.value.line_no == line_no

    def test_huge_outcome_count_rejected_fast(self):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 1000000000000\n"
            "k: 0\n1/2 1/2\n1/2 1/2\n"
        )
        start = time.perf_counter()
        with pytest.raises(FunctionFileError, match="blocks are missing") as err:
            parse_function_file(text)
        assert time.perf_counter() - start < 0.1
        assert err.value.line_no == 7
        assert len(str(err.value)) < 200

    def test_few_missing_blocks_are_listed(self):
        text = (
            "type: probabilistic\nsided: one\ninputs: 2 1\noutcomes: 4\n"
            "k: 0\n1/2 0\n"
        )
        with pytest.raises(FunctionFileError, match=r"missing \[1, 2, 3\]"):
            parse_function_file(text)

    @pytest.mark.parametrize(
        "token, value",
        [
            ("0.125", Fraction(1, 8)),
            ("47/150", Fraction(47, 150)),
            ("1e-3", Fraction(1, 1000)),
            ("0.5E+0", Fraction(1, 2)),
            ("0.00001e5", Fraction(1)),
            (f"1e-{funcspec._MAX_DECIMAL_POWER}", Fraction(1, 10**funcspec._MAX_DECIMAL_POWER)),
            ("0." + "0" * (funcspec._MAX_DECIMAL_POWER - 1) + "1",
             Fraction(1, 10**funcspec._MAX_DECIMAL_POWER)),
        ],
    )
    def test_decimal_within_bound_parses_exactly(self, token, value):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 1\noutcomes: 2\n"
            f"k: 0\n{token} 1/2\n"
        )
        assert parse_function_file(text).prob(0, 0, 0) == value

    @pytest.mark.parametrize(
        "token",
        [
            f"1e-{funcspec._MAX_DECIMAL_POWER + 1}",
            "1e-10000000",
            "0.00001e10000000",
            "0." + "0" * funcspec._MAX_DECIMAL_POWER + "1",
        ],
    )
    def test_decimal_beyond_bound_rejected_fast(self, token):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\n"
            f"k: 0\n1/2 1/2\n# the bad row is on line 9\n\n{token} 1/2\n"
        )
        start = time.perf_counter()
        with pytest.raises(FunctionFileError, match="decimal places") as err:
            parse_function_file(text)
        assert time.perf_counter() - start < 0.1
        assert err.value.line_no == 9

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\nk: 0\n1/2 1/2\n"
                "1/4 3/4\n# block 1\nk: 1\n1/2 3/4\n3/4 1/4\n\n",
                "line 11: probabilities at (i=1, j=0) sum to 5/4, expected 1",
            ),
            (
                "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 3\nk: 0\n1/2 1/2\n"
                "1/4 1/4\n# block 1\nk: 1\n1/2 3/4\n3/4 1/4\n# block 2 inferred\n",
                "line 11: probabilities at (i=1, j=0) exceed 1",
            ),
        ],
        ids=["every-block-given", "final-block-omitted"],
    )
    def test_cell_summing_to_five_quarters_reports_last_row(self, text, message):
        # one check per cell: the parser bounds each token, the constructor
        # the sums, and its message comes back with the last row's line
        with pytest.raises(FunctionFileError) as err:
            parse_function_file(text)
        assert (err.value.line_no, str(err.value)) == (11, message)

    def test_constructor_checks_sums_on_integer_numerators(self):
        blocks = ((("1/2", "1/3"),), (("1/2", "2/3"),))
        f = funcspec.FunctionSpec("probabilistic", "two", 2, 1, 2, prob_table=blocks)
        assert f.prob_table == (((Fraction(1, 2), Fraction(1, 3)),), ((Fraction(1, 2), Fraction(2, 3)),))
        # entries that are already Fractions are kept, not re-wrapped
        g = funcspec.FunctionSpec("probabilistic", "two", 2, 1, 2, prob_table=f.prob_table)
        assert all(x is y for a, b in zip(f.prob_table, g.prob_table) for x, y in zip(a[0], b[0]))
        bad = ((("1/2", "1/3"),), (("1/2", "3/4"),))
        with pytest.raises(ValueError, match=r"^probabilities at \(i=1, j=0\) sum to 13/12, expected 1$"):
            funcspec.FunctionSpec("probabilistic", "two", 2, 1, 2, prob_table=bad)
        with pytest.raises(ValueError, match=r"^probability out of \[0,1\] at \(i=0, j=0\)$"):
            funcspec.FunctionSpec("probabilistic", "two", 1, 1, 2, prob_table=((("3/2",),), (("-1/2",),)))

    def test_complement_must_be_nonnegative(self):
        text = (
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\n"
            "k: 0\n0.5 0.5\n0.5 1.5\n"
        )
        with pytest.raises(FunctionFileError):
            parse_function_file(text)


class TestSpecHelpers:
    def test_transpose_is_involution(self):
        for f in (builtin("counterexample"), builtin("neq3"), builtin("ot")):
            assert transpose(transpose(f)) == f

    def test_transpose_swaps_indices(self):
        f = two_sided_binary([["1/3", "2/3"], ["1/5", "4/5"]])
        t = transpose(f)
        for i in range(2):
            for j in range(2):
                assert t.prob(0, i, j) == f.prob(0, j, i)

    def test_prior_validation(self):
        validate_prior((0.5, 0.5), 2)
        with pytest.raises(ValueError):
            validate_prior((0.5, 0.6), 2)
        with pytest.raises(ValueError):
            validate_prior((0.5, 0.5, 0.0), 2)
        with pytest.raises(ValueError):
            validate_prior((1.5, -0.5), 2)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="prior"):
                validate_prior((bad, 0.5, 0.5), 3)

    def test_deterministic_prob_view(self):
        f = neq3()
        assert f.prob(0, 0, 0) == 1
        assert f.prob(1, 0, 0) == 0
        assert f.det_table[2][1] == 1

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin("@nope")

    def test_probabilities_match_prob_on_every_cell(self):
        rng = np.random.default_rng(SEED_PROBABILITIES)
        tables = [builtin(name) for name in funcspec.builtin_names()] + enumerate_valid_3x3()
        tables += [transpose(f) for f in tables]
        tables += [two_sided_binary(rng.uniform(0, 1, size=(2, 3))) for _ in range(20)]
        for f in tables:
            p = f.probabilities()
            assert p.dtype == float
            assert p.shape == (f.outcome_count, f.bob_arity, f.alice_arity)
            for k, j, i in itertools.product(*map(range, p.shape)):
                assert p[k, j, i] == float(f.prob(k, i, j))


# characters the format gives meaning to, non-ASCII digits, and line breaks
# that str.splitlines() honours
FUZZ_TEXT = st.text("0123456789 \t:/.-+#ekinptxyz\u00b2\u00b3\u0663\r\u2028", max_size=8)


def header(key, values):
    """``key: value`` with a value from the list or fuzz text."""
    return st.builds(f"{key}: {{}}".format, st.one_of(st.sampled_from(values), FUZZ_TEXT))


FUNCTION_FILES = st.builds(
    lambda head, body: "\n".join(head + tuple(body)),
    st.tuples(
        st.sampled_from(["type: deterministic", "type: probabilistic"]),
        st.sampled_from(["sided: one", "sided: two"]),
        st.sampled_from(["inputs: 2 2", "inputs: 3 3", "inputs: 2 1", "inputs: 0 3", "inputs: \u00b3 3"]),
        st.sampled_from(["outcomes: 2", "outcomes: 3", "outcomes: 0", "outcomes: \u00b2"]),
    ),
    st.lists(
        st.one_of(
            header("k", ["0", "1", "2", "\u00b9"]),
            st.sampled_from(["0 1 1", "1 0", "1/2 1/2", "0.5 1.5", "2 x", "# c"]),
            FUZZ_TEXT,
        ),
        max_size=8,
    ),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(FUNCTION_FILES)
def test_parser_fails_only_with_function_file_error(text):
    try:
        f = parse_function_file(text)
    except FunctionFileError:
        return
    assert isinstance(f, FunctionSpec)
