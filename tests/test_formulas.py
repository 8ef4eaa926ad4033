from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadgenus.errors import InvalidParameterError, NotApplicableError
from quadgenus.formulas import (FORMULAS, _as_genus,
                                _cube_genus_as_printed, corollary_genus,
                                cube_cycle_genus, cube_genus, cube_path_genus,
                                hypercube_genus, main_cycles_genus,
                                main_paths_genus, ringel_genus,
                                white_cycle_genus, white_path_genus)
from quadgenus.graphs import build_family


def test_as_genus_refuses_negative_and_non_integer_values():
    # An int skips the Fraction round trip; both paths refuse alike.
    for x in (-3, Fraction(-3)):
        with pytest.raises(InvalidParameterError,
                           match=r"^ringel: genus value -3 is negative$"):
            _as_genus(x, "ringel")
    with pytest.raises(InvalidParameterError,
                       match=r"^ringel: genus value 7/2 is not an integer$"):
        _as_genus(Fraction(7, 2), "ringel")
    for x in (0, 5, Fraction(10, 2), True):
        got = _as_genus(x, "ringel")
        assert type(got) is int and got == int(x)


@pytest.mark.parametrize("r,want", [(1, 0), (2, 1), (3, 4), (4, 9)])
def test_ringel_values(r, want):
    assert ringel_genus(r) == want


@pytest.mark.parametrize("n,want", [(2, 0), (3, 0), (4, 1), (5, 5), (6, 17)])
def test_hypercube_values(n, want):
    assert hypercube_genus(n) == want


@pytest.mark.parametrize("j,t,want", [(2, 2, 1), (2, 4, 33), (1, 4, 1),
                                      (3, 2, 17), (2, 3, 10)])
def test_cube_values(j, t, want):
    assert cube_genus(j, t) == want


def test_cube_domain():
    with pytest.raises(NotApplicableError):
        cube_genus(1, 3)  # single odd factor not covered
    with pytest.raises(InvalidParameterError):
        cube_genus(0, 2)
    with pytest.raises(NotApplicableError):
        cube_genus(2, 5)


@pytest.mark.parametrize("i,r,s,want", [(1, 2, 3, 13), (1, 2, 2, 9),
                                        (1, 1, 2, 1), (2, 2, 2, 193)])
def test_cube_cycle_values(i, r, s, want):
    assert cube_cycle_genus(i, r, s) == want


@pytest.mark.parametrize("i,r,ml,want", [(1, 1, [2, 2], 17), (1, 2, [2], 9),
                                         (1, 2, [2, 2], 65),
                                         (2, 2, [2], 193)])
def test_main_cycles_values(i, r, ml, want):
    assert main_cycles_genus(i, r, ml) == want


@pytest.mark.parametrize("r,ml,want", [(2, [2], 9), (1, [2], 1),
                                       (2, [2, 2], 65)])
def test_corollary_values(r, ml, want):
    assert corollary_genus(r, ml) == want


@pytest.mark.parametrize("i,r,s,want", [(1, 2, 2, 7), (1, 1, 2, 0),
                                        (1, 2, 1, 3), (2, 2, 1, 81)])
def test_cube_path_values(i, r, s, want):
    assert cube_path_genus(i, r, s) == want


@pytest.mark.parametrize("i,r,ml,want", [(1, 2, [2, 2], 49), (1, 2, [1], 3),
                                         (1, 1, [2], 0)])
def test_main_paths_values(i, r, ml, want):
    assert main_paths_genus(i, r, ml) == want


@pytest.mark.parametrize("ml,want", [([2, 2], 1), ([3, 2], 1),
                                     ([2, 2, 2], 17)])
def test_white_cycle_values(ml, want):
    assert white_cycle_genus(ml) == want


@pytest.mark.parametrize("ml,want", [([4, 4, 4], 5), ([2, 2, 2], 0),
                                     ([2, 2, 2, 2], 1)])
def test_white_path_values(ml, want):
    assert white_path_genus(ml) == want


def test_white_path_domain():
    with pytest.raises(InvalidParameterError):
        white_path_genus([2, 2])  # needs at least three factors
    with pytest.raises(NotApplicableError):
        white_path_genus([3, 2, 2])  # first three must be even


def test_cycle_domain():
    with pytest.raises(InvalidParameterError):
        cube_cycle_genus(1, 2, 1)
    with pytest.raises(InvalidParameterError):
        main_cycles_genus(1, 2, [1])
    with pytest.raises(InvalidParameterError):
        white_cycle_genus([2])


def test_formula_registry_is_callable():
    assert set(FORMULAS) == {
        "ringel", "hypercube", "cube", "cube_cycle", "main_cycles",
        "corollary", "cube_path", "main_paths", "white_cycle", "white_path"}
    assert int(FORMULAS["ringel"](r=2)) == 1


def test_uncorrected_cube_form_is_wrong_at_smallest_even_case():
    # the uncorrected closed form goes negative where the product of two
    # squares plainly embeds on the torus
    assert _cube_genus_as_printed(2, 2) == Fraction(-3)
    assert _cube_genus_as_printed(2, 4) == Fraction(-15)
    assert cube_genus(2, 2) == 1
    g = build_family("Q(2,2)")
    euler = Fraction(1) + Fraction(g.m, 4) - Fraction(g.n, 2)
    assert euler == 1
    assert _cube_genus_as_printed(2, 2) != euler


def test_uncorrected_form_agrees_only_at_t_equal_one():
    # both variants collapse to the hypercube formula at t=1; for every
    # even t >= 2 they part ways
    assert all(_cube_genus_as_printed(j, 1) == hypercube_genus(j)
               for j in range(2, 8))
    assert all(cube_genus(j, 1) == hypercube_genus(j)
               for j in range(2, 8))
    assert all(_cube_genus_as_printed(j, t) != cube_genus(j, t)
               for j in range(2, 7) for t in (2, 4, 6))


# identity properties


@given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 50))
def test_identity_single_cycle(i, r, s):
    assert main_cycles_genus(i, r, [s]) == cube_cycle_genus(i, r, s)


@given(st.integers(1, 8),
       st.lists(st.integers(2, 12), min_size=1, max_size=5))
def test_identity_single_cube(r, ml):
    assert corollary_genus(r, ml) == main_cycles_genus(1, r, ml)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 50))
def test_identity_single_path(i, r, s):
    assert main_paths_genus(i, r, [s]) == cube_path_genus(i, r, s)


@given(st.integers(2, 60))
def test_identity_hypercube(j):
    assert cube_genus(j, 1) == hypercube_genus(j)


@given(st.integers(1, 60))
def test_identity_ringel(r):
    assert cube_genus(1, 2 * r) == ringel_genus(r)


@given(st.integers(1, 2), st.integers(1, 2),
       st.lists(st.integers(2, 3), min_size=1, max_size=2))
def test_identity_euler_count_cycles(i, r, ml):
    g = build_family(f"Q({i},{2 * r}) x "
                     + " x ".join(f"C({2 * m})" for m in ml))
    euler = Fraction(1) + Fraction(g.m, 4) - Fraction(g.n, 2)
    assert euler == main_cycles_genus(i, r, ml)


@given(st.integers(1, 2), st.integers(1, 2),
       st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_identity_euler_count_paths(i, r, ml):
    g = build_family(f"Q({i},{2 * r}) x "
                     + " x ".join(f"P({2 * m})" for m in ml))
    euler = Fraction(1) + Fraction(g.m, 4) - Fraction(g.n, 2)
    assert euler == main_paths_genus(i, r, ml)


@given(st.lists(st.integers(2, 4), min_size=2, max_size=3))
def test_identity_euler_count_cycle_only(ml):
    g = build_family(" x ".join(f"C({2 * m})" for m in ml))
    euler = Fraction(1) + Fraction(g.m, 4) - Fraction(g.n, 2)
    assert euler == white_cycle_genus(ml)


@given(st.lists(st.sampled_from([2, 4]), min_size=3, max_size=3),
       st.lists(st.integers(2, 5), max_size=1))
def test_identity_euler_count_path_only(head, tail):
    ml = head + tail
    g = build_family(" x ".join(f"P({m})" for m in ml))
    euler = Fraction(1) + Fraction(g.m, 4) - Fraction(g.n, 2)
    assert euler == white_path_genus(ml)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 20))
def test_outputs_are_nonnegative_integers(i, r, s):
    for value in (cube_cycle_genus(i, r, s),
                  cube_path_genus(i, r, s),
                  ringel_genus(r)):
        assert value == int(value) and value >= 0
