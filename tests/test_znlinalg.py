"""Howell substrate tests: canonical forms, kernels, solve, span membership.

Every nontrivial expectation is cross-checked against brute-force
enumeration of the span, which is feasible for the small moduli and
dimensions used here.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.znlinalg import (
    DimensionMismatch,
    Solver,
    ZnMatrix,
    _GenericBuilder,
    howell_from_rows,
    kernel,
    span_builder,
)

from oracles import brute_left_kernel, brute_solve, brute_span, enumerate_span


def test_howell_already_canonical():
    h = howell_from_rows(4, [[2]], 1)
    assert h.rows == ((2,),)


def test_howell_two_rows_z4():
    h = howell_from_rows(4, [[1, 2], [0, 2]], 2)
    assert h.rows == ((1, 0), (0, 2))
    # same span as the input, confirmed by enumeration
    assert brute_span(4, [[1, 2], [0, 2]]) == brute_span(4, [list(r) for r in h.rows])


def test_howell_zero_matrix():
    h = howell_from_rows(6, [[0, 0], [0, 0]], 2)
    assert h.rows == ()
    assert h.span_size() == 1


def test_howell_saturation_z4():
    # span of (1,2) over Z/4 contains (0,2)*... the Howell form must expose
    # the element 2*(1,2) = (2,0) with leading zero structure handled.
    h = howell_from_rows(4, [[1, 2]], 2)
    assert brute_span(4, [[1, 2]]) == enumerate_span(h)


def test_kernel_examples():
    k = kernel(ZnMatrix.from_rows(4, [[2]]))
    assert k.rows == ((2,),)
    k = kernel(ZnMatrix.from_rows(4, [[1, 0], [0, 1]]))
    assert k.rows == ()
    k = kernel(ZnMatrix.from_rows(4, [[0]]))
    assert k.rows == ((1,),)


def test_solve_examples():
    solver = Solver(ZnMatrix.from_rows(4, [[2]]))
    assert solver.solve([2]) == (1,)
    assert solver.solve([1]) is None
    ident = ZnMatrix.from_rows(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Solver(ident).solve([3, 1, 4]) == (3, 1, 4)
    with pytest.raises(DimensionMismatch):
        solver.solve([1, 2])


def test_span_membership_and_size():
    h = howell_from_rows(4, [[2]], 1)
    assert h.contains([0])
    assert h.contains([2])
    assert not h.contains([1])
    assert h.span_size() == 2


def test_span_equal_requires_matching_frame():
    # the same rows over another modulus span another module
    h1 = howell_from_rows(4, [[2]], 1)
    h2 = howell_from_rows(6, [[2]], 1)
    assert h1.rows == h2.rows
    assert h1 != h2
    with pytest.raises(DimensionMismatch):
        h1.contains([2, 0])


def test_span_equal_example():
    h1 = howell_from_rows(4, [[1, 2], [0, 2]], 2)
    h2 = howell_from_rows(4, [[1, 0], [0, 2]], 2)
    assert h1 == h2


def random_rows(rng, n, r, c):
    return [[rng.randrange(n) for _ in range(c)] for _ in range(r)]


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 8, 9])
def test_canonicity_against_enumeration(modulus):
    rng = random.Random(1000 + modulus)
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        rows1 = random_rows(rng, modulus, r, c)
        rows2 = random_rows(rng, modulus, rng.randint(1, 3), c)
        h1 = howell_from_rows(modulus, rows1, c)
        h2 = howell_from_rows(modulus, rows2, c)
        same_brute = brute_span(modulus, rows1) == brute_span(modulus, rows2)
        assert same_brute == (h1 == h2)
        assert enumerate_span(h1) == brute_span(modulus, rows1)
        assert h1.span_size() == len(brute_span(modulus, rows1))


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 8, 9])
def test_kernel_against_enumeration(modulus):
    rng = random.Random(2000 + modulus)
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        rows = random_rows(rng, modulus, r, c)
        m = ZnMatrix.from_rows(modulus, rows)
        k = kernel(m)
        assert enumerate_span(k) == brute_left_kernel(m)
        # |rowspace| * |left kernel| = N^rows
        assert (k.span_size() * howell_from_rows(modulus, rows, c).span_size()
                == modulus ** r)


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 8, 9])
def test_solve_matches_membership(modulus):
    rng = random.Random(3000 + modulus)
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        rows = random_rows(rng, modulus, r, c)
        m = ZnMatrix.from_rows(modulus, rows)
        b = [rng.randrange(modulus) for _ in range(c)]
        x = Solver(m).solve(b)
        member = howell_from_rows(modulus, rows, c).contains(b)
        assert (x is not None) == member
        if x is not None:
            acc = [0] * c
            for i, xi in enumerate(x):
                for j, e in enumerate(m.row(i)):
                    acc[j] = (acc[j] + xi * e) % modulus
            assert acc == [e % modulus for e in b]


def test_solve_returns_lex_smallest():
    # every solution of x*[[2]] = [2] over Z/4 is 1 or 3; canonical pick is 1
    assert Solver(ZnMatrix.from_rows(4, [[2]])).solve([2]) == (1,)
    # exhaustive: canonical representative is minimal in its coset
    rng = random.Random(99)
    for _ in range(30):
        n = rng.choice([4, 6, 8])
        r, c = rng.randint(1, 3), rng.randint(1, 2)
        mm = ZnMatrix.from_rows(n, random_rows(rng, n, r, c))
        b = [rng.randrange(n) for _ in range(c)]
        x = Solver(mm).solve(b)
        if x is None:
            continue
        all_solutions = []
        for cand in product(range(n), repeat=r):
            acc = [0] * c
            for i, xi in enumerate(cand):
                for j, e in enumerate(mm.row(i)):
                    acc[j] = (acc[j] + xi * e) % n
            if acc == [e % n for e in b]:
                all_solutions.append(cand)
        assert x == min(all_solutions)


def test_gf2_engine_matches_generic_shape():
    # over Z/2 the Howell form is plain RREF; verify against enumeration
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        h = howell_from_rows(2, rows, c)
        assert enumerate_span(h) == brute_span(2, rows)


def test_builder_incremental_contains():
    b = span_builder(8, 2)
    b.insert([4, 2])
    assert b.contains([4, 2])
    assert b.contains([0, 4])  # 2*(4,2) = (0,4)
    assert not b.contains([1, 0])
    b.insert([1, 0])
    assert b.contains([1, 0])


@pytest.mark.parametrize("modulus", [2, 4])
def test_builder_contains_checks_the_vector_length(modulus):
    b = span_builder(modulus, 2)
    b.insert([1, 0])
    for vec in ([1], [1, 0, 0], [0, 0, 1]):
        with pytest.raises(DimensionMismatch):
            b.contains(vec)


def test_znmatrix_validation():
    with pytest.raises(ValueError):
        ZnMatrix.from_rows(1, [[0]])
    with pytest.raises(DimensionMismatch):
        ZnMatrix.from_rows(4, [[1, 2], [1]])
    m = ZnMatrix.from_rows(4, [[5, -1]])
    assert m.row(0) == (1, 3)
    # the modulus range [2, 2^31] holds at both ends, for builders too
    assert ZnMatrix.from_rows(2 ** 31, [[-1]]).row(0) == (2 ** 31 - 1,)
    assert span_builder(2 ** 31, 1).contains([0])
    for bad in (1, 2 ** 31 + 1):
        with pytest.raises(ValueError):
            ZnMatrix.from_rows(bad, [[0]])
        with pytest.raises(ValueError):
            span_builder(bad, 1)


# -- property tests of the Howell engine against the brute-force oracles -------

# one _GenericBuilder serves every modulus; shapes stay small enough to
# enumerate N^rows combinations, with larger ones over Z/2
_MODULI = (2, 4, 8, 9, 12)


@st.composite
def _matrices(draw, rows=None):
    n = draw(st.sampled_from(_MODULI))
    most = 6 if n == 2 else 3
    r = draw(st.integers(1, most)) if rows is None else rows
    c = draw(st.integers(1, most))
    # entries outside [0, N) check that every entry point reduces mod N
    entry = st.integers(-n, 2 * n - 1)
    return n, draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                            min_size=r, max_size=r))


def _reduced(n, rows):
    return [[e % n for e in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(_matrices(), st.data())
def test_howell_form_is_canonical_on_both_engines(matrix, data):
    n, rows = matrix
    assert type(span_builder(n, len(rows[0]))) is _GenericBuilder
    h = howell_from_rows(n, rows, len(rows[0]))
    span = brute_span(n, _reduced(n, rows))
    assert enumerate_span(h) == span
    assert h.span_size() == len(span)
    # Howell shape: increasing pivots dividing N, entries above reduced
    cols = [j for j, _ in h.pivots]
    assert cols == sorted(set(cols))
    for i, (j, a) in enumerate(h.pivots):
        assert n % a == 0
        assert all(h.rows[k][j] < a for k in range(i))
    # the same span presented otherwise: shuffled, with redundant
    # combinations, each row scaled by a unit
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    units = [u for u in range(1, n) if all(u * k % n for k in range(1, n))]
    other = []
    for row in rows:
        u = rng.choice(units)
        other.append([u * e for e in row])
    for _ in range(rng.randint(0, 3)):
        coeffs = [rng.randrange(n) for _ in rows]
        other.append([sum(c * row[t] for c, row in zip(coeffs, rows))
                      for t in range(len(rows[0]))])
    rng.shuffle(other)
    assert howell_from_rows(n, other, len(rows[0])) == h
    # and a different span gives a different basis
    extra = data.draw(st.lists(st.integers(0, n - 1), min_size=len(rows[0]),
                               max_size=len(rows[0])))
    grown = howell_from_rows(n, rows + [extra], len(rows[0]))
    assert (grown == h) == (tuple(extra) in span)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_kernel_matches_the_oracle_on_both_engines(matrix):
    n, rows = matrix
    m = ZnMatrix.from_rows(n, rows)
    k = kernel(m)
    assert enumerate_span(k) == brute_left_kernel(m)
    assert k == howell_from_rows(n, k.rows, m.rows)
    assert (k.span_size() * howell_from_rows(n, rows, m.cols).span_size()
            == n ** m.rows)


@settings(max_examples=150, deadline=None)
@given(_matrices(), st.data())
def test_solve_matches_the_oracle_on_both_engines(matrix, data):
    n, rows = matrix
    m = ZnMatrix.from_rows(n, rows)
    span = brute_span(n, _reduced(n, rows))
    if data.draw(st.booleans()):
        b = data.draw(st.sampled_from(sorted(span)))
    else:
        b = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m.cols,
                                     max_size=m.cols)))
    x = Solver(m).solve(b)
    assert (x is not None) == (b in span)
    if x is not None:
        image = [sum(xi * m.row(i)[j] for i, xi in enumerate(x)) % n
                 for j in range(m.cols)]
        assert image == list(b)
        # the canonical pick: the smallest solution x + ker
        coset = {tuple((xi + ki) % n for xi, ki in zip(x, k))
                 for k in brute_left_kernel(m)}
        assert x == min(coset)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_one_solver_serves_many_right_hand_sides(matrix, data):
    n, rows = matrix
    m = ZnMatrix.from_rows(n, rows)
    solver = Solver(m)
    assert solver.kernel == kernel(m)
    span = sorted(brute_span(n, _reduced(n, rows)))
    anything = st.lists(st.integers(-n, 2 * n - 1), min_size=m.cols,
                        max_size=m.cols)
    rhs = data.draw(st.lists(st.one_of(st.sampled_from(span), anything),
                             min_size=1, max_size=8))
    for b in rhs:
        assert solver.solve(b) == brute_solve(m, b)
    with pytest.raises(DimensionMismatch):
        solver.solve([0] * (m.cols + 1))
