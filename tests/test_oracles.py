from itertools import product

import pytest

from doubleschur.oracles import enumerate_syt, lr_coefficient, syt_count, syt_count_hook
from doubleschur.poly import Poly
from ssyt import _ssyt_fillings, classical_schur_ssyt
from xstructure import coefficient_of_x


def test_schur_single_box():
    assert classical_schur_ssyt((1,), 2) == Poly.x(1, 2) + Poly.x(2, 2)


def test_schur_single_column():
    assert classical_schur_ssyt((1, 1), 2) == Poly.x(1, 2) * Poly.x(2, 2)


def test_schur_two_one_has_eight_tableaux():
    p = classical_schur_ssyt((2, 1), 3)
    # 8 semistandard tableaux; x1*x2*x3 occurs twice
    total = sum(c for _, _, c in p.iter_terms())
    assert total == 8
    assert coefficient_of_x(p, (1, 1, 1)) == Poly.const(2)
    assert coefficient_of_x(p, (2, 1, 0)) == Poly.one()


def test_schur_more_parts_than_variables_vanishes():
    assert classical_schur_ssyt((1, 1, 1), 2).is_zero()


def _nested_ssyt_fillings(shape, n):
    """Semistandard fillings cell by cell, each entry at least the one to
    its left and above the one over it."""
    def rows(r, above):
        if r == len(shape):
            yield ()
            return
        width = shape[r]

        def cells(c, prev_row):
            if c == width:
                yield ()
                return
            low = prev_row[-1] if prev_row else 1
            if above is not None and c < len(above):
                low = max(low, above[c] + 1)
            for v in range(low, n + 1):
                for rest in cells(c + 1, prev_row + (v,)):
                    yield (v,) + rest

        for row in cells(0, ()):
            for rest in rows(r + 1, row):
                yield (row,) + rest

    yield from rows(0, None)


def test_ssyt_fillings_match_nested_generators():
    # every partition with at most 4 rows and 4 columns, 1 <= n <= 4
    shapes = {tuple(p for p in parts if p)
              for parts in product(range(5), repeat=4)
              if list(parts) == sorted(parts, reverse=True)}
    cases = 0
    for shape in shapes:
        for n in range(1, 5):
            got = _ssyt_fillings(shape, n)
            assert len(got) == len(set(got))
            assert set(got) == set(_nested_ssyt_fillings(shape, n))
            cases += 1
    assert cases == 280


def test_lr_pieri_cases():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1


def test_lr_first_multiplicity_two():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_classical_identities():
    assert lr_coefficient((2,), (1,), (2, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 3)) == 1
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1


def test_lr_precondition_violations_give_zero():
    assert lr_coefficient((1,), (1,), (3,)) == 0       # size mismatch
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0  # no containment


def test_lr_guard():
    with pytest.raises(ValueError):
        lr_coefficient((3, 3), (3, 2), (6, 5))


def test_syt_counts():
    assert syt_count(()) == 1
    assert syt_count((1,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((3, 2, 1)) == 16
    assert syt_count((2, 2)) == 2
    assert syt_count((4,)) == 1


def test_syt_enumeration_matches_hook():
    for lam in ((3, 1), (2, 2, 1), (4, 2), (3, 3, 2)):
        assert syt_count_hook(lam) == sum(1 for _ in enumerate_syt(lam))


def test_syt_enumeration_yields_standard_fillings():
    tabs = list(enumerate_syt((2, 1)))
    assert sorted(tabs) == [((1, 2), (3,)), ((1, 3), (2,))]


def test_syt_corner_recurrence():
    def corners(lam):
        out = []
        for r in range(len(lam)):
            if r == len(lam) - 1 or lam[r] > lam[r + 1]:
                shrunk = list(lam)
                shrunk[r] -= 1
                out.append(tuple(p for p in shrunk if p))
        return out

    for lam in ((3, 2), (2, 2, 1), (4, 3, 1), (3, 3, 3)):
        assert syt_count(lam) == sum(syt_count(c) for c in corners(lam))
