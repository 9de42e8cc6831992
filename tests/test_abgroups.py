"""Lattice diagonalization helpers, checked against direct group enumeration."""

import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.abgroups import (
    quotient_decomposition,
    smith_diagonalize,
    subgroup_decomposition,
)


def test_smith_contract_random():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(m)]
        diag, t, tinv = smith_diagonalize(rows, d)
        # t and tinv are mutually inverse
        for i in range(d):
            for j in range(d):
                s = sum(t[i][k] * tinv[k][j] for k in range(d))
                assert s == (1 if i == j else 0)
        # membership in the row lattice == divisibility after transform
        for _ in range(12):
            coeffs = [rng.randint(-3, 3) for _ in rows]
            x = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(d)]
            y = [sum(x[i] * t[i][j] for i in range(d)) for j in range(d)]
            for j in range(d):
                if diag[j] == 0:
                    assert y[j] == 0
                else:
                    assert y[j] % diag[j] == 0


def group_elements(orders):
    return list(product(*[range(o) for o in orders]))


def test_quotient_decomposition_sizes_and_map():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 3)
        orders = [rng.choice([2, 3, 4, 6, 8]) for _ in range(d)]
        rels = [[rng.randrange(o) for o in orders] for _ in range(rng.randint(0, 2))]
        new_orders, project, lifts = quotient_decomposition(rels, orders)
        # the projection is an additive surjection with the right fibers
        subgroup = set()
        frontier = {tuple(0 for _ in orders)}
        gens = [tuple(r) for r in rels]
        # subgroup generated by the relations inside the ambient group
        subgroup = {tuple(0 for _ in orders)}
        changed = True
        while changed:
            changed = False
            for g in gens:
                for s in list(subgroup):
                    e = tuple((a + b) % o for a, b, o in zip(s, g, orders))
                    if e not in subgroup:
                        subgroup.add(e)
                        changed = True
        expected_size = prod(orders) // len(subgroup)
        assert prod(new_orders) == expected_size
        images = {project(list(e)) for e in group_elements(orders)}
        assert len(images) == expected_size
        # kernel of the projection is exactly the relation subgroup
        kernel = {e for e in group_elements(orders)
                  if project(list(e)) == tuple(0 for _ in new_orders)}
        assert kernel == subgroup
        # lifts hit the generators of the quotient
        for idx, lift in enumerate(lifts):
            img = project(list(lift))
            expected = tuple(1 if k == idx else 0 for k in range(len(new_orders)))
            assert img == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_decomposition_lifts_project_to_the_unit_vectors(data):
    # up to five factors and three relations reach the column updates of
    # smith_diagonalize that the seeded draws above leave out
    orders = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=5))
    rels = data.draw(st.lists(
        st.tuples(*[st.integers(0, o - 1) for o in orders]), max_size=3))
    new_orders, project, lifts = quotient_decomposition(
        [list(r) for r in rels], orders)
    assert len(lifts) == len(new_orders)
    for j, lift in enumerate(lifts):
        assert project(list(lift)) == tuple(int(k == j)
                                            for k in range(len(new_orders)))


def test_subgroup_decomposition_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(1, 3)
        orders = [rng.choice([2, 3, 4, 8, 9])] * 1 + [rng.choice([2, 4, 6]) for _ in range(d - 1)]
        gens = [[rng.randrange(o) for o in orders] for _ in range(rng.randint(1, 3))]
        sub_orders, read, basis_rows = subgroup_decomposition(gens, orders)
        # enumerate the subgroup directly
        target = {tuple(0 for _ in orders)}
        changed = True
        while changed:
            changed = False
            for g in gens:
                for s in list(target):
                    e = tuple((a + b) % o for a, b, o in zip(s, g, orders))
                    if e not in target:
                        target.add(e)
                        changed = True
        # enumerate span of the reported basis, checking independence;
        # read inverts it on every element
        combos = set()
        for coeffs in product(*[range(o) for o in sub_orders]) if sub_orders else [()]:
            vec = [0] * len(orders)
            for c, row in zip(coeffs, basis_rows):
                for i in range(len(orders)):
                    vec[i] = (vec[i] + c * row[i]) % orders[i]
            combos.add(tuple(vec))
            assert read(vec) == tuple(coeffs)
        assert combos == target
        assert len(combos) == prod(sub_orders) if sub_orders else len(combos) == 1
        for e in group_elements(orders):
            if e not in target:
                with pytest.raises(ValueError):
                    read(list(e))
