"""Ring constructors, homs, radicals and spectra on the spec's worked cases."""

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.rings import (
    BudgetExceededError,
    FiniteRing,
    HomomorphismError,
    ModuleSpec,
    RingConstructionError,
    RingHom,
    product,
    ring_from_products,
    trivial_extension,
    trivial_extension_embedding,
    trunc_poly,
    verify_ring,
    zmod,
)
from amalgam.amalgam import duplication, hom_power, ring_power
from amalgam.instances import standard_instances
from amalgam.modules import basis_action_rows, ideal_span
from amalgam.spectrum import (
    idempotents,
    is_local,
    maximal_ideals,
    nilradical,
    quotient_ring,
)


from oracles import (brute_is_field, brute_is_local, brute_maximal_ideals,
                     dense_action_rows, dense_apply_coords, dense_mul_coords,
                     ideal_elements, is_nilpotent)


def test_zmod_shapes():
    z4 = zmod(4)
    assert z4.order() == 4
    assert verify_ring(z4).ok
    assert is_local(z4)[0]
    z2 = zmod(2)
    local, mx = is_local(z2)
    assert local and mx.size() == 1  # Z/2 is a field
    z6 = zmod(6)
    assert not is_local(z6)[0]
    assert len(maximal_ideals(z6)) == 2
    with pytest.raises(RingConstructionError):
        zmod(1)


@pytest.mark.parametrize("coords", [(), (1,), (1, 0, 0)])
def test_element_needs_one_coordinate_per_basis_element(coords):
    # an extra coordinate was once dropped without a word
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        trunc_poly(2, 2).element(coords)


def test_zmod6_idempotents():
    z6 = zmod(6)
    vals = sorted(e.coords[0] for e in idempotents(z6))
    assert vals == [0, 1, 3, 4]


def test_verify_ring_catches_corruption():
    z4 = zmod(4)
    bad = FiniteRing.__new__(FiniteRing)
    for slot, val in (("char", 4), ("rank", 1), ("orders", (4,)),
                      ("labels", ("1",)), ("tensor", (((3,),),)),
                      ("unit", (1,)), ("name", "bad"), ("scale", (1,)),
                      ("_cache", {})):
        object.__setattr__(bad, slot, val)
    rep = verify_ring(bad)
    assert not rep.ok
    assert any(kind == "unit" for kind, _, _ in rep.failures)
    assert verify_ring(z4).ok


def test_product_ring():
    p = product(zmod(2), zmod(2))
    assert p.order() == 4
    assert verify_ring(p).ok
    assert len(idempotents(p)) == 4
    q = product(zmod(4), zmod(2))
    assert q.order() == 8
    assert verify_ring(q).ok
    assert len(maximal_ideals(q)) == 2


def test_product_mixed_characteristics():
    q = product(zmod(4), zmod(3))
    assert q.char == 12
    assert q.order() == 12
    assert verify_ring(q).ok
    # behaves like Z/12 spectrally
    assert len(maximal_ideals(q)) == 2


def test_trunc_poly():
    a = trunc_poly(2, 3)
    assert a.order() == 8
    assert verify_ring(a).ok
    x = a.basis_element(1)
    assert (x * x * x).is_zero()
    assert not (x * x).is_zero()
    local, mx = is_local(a)
    assert local and mx.size() == 4


def test_trivial_extension_z4_mod2():
    r = zmod(4)
    e = ModuleSpec(r, [2], [[[1]]])
    a = trivial_extension(r, e)
    assert a.order() == 8
    assert verify_ring(a).ok
    local, mx = is_local(a)
    assert local
    assert mx.size() == 4
    # the module part squares to zero: (0,e)(0,f) = (0,0)
    for i in range(1, 2):
        em = a.basis_element(r.rank)  # first module generator
        assert (em * em).is_zero()
    # 0 |x E is an ideal of square zero
    ideal_e = ideal_span(a, [a.basis_element(1)])
    for u in ideal_e.element_rows():
        for v in ideal_e.element_rows():
            assert (u * v).is_zero()


def test_ring_from_products_reads_each_unordered_pair_once():
    calls = []

    def mul(i, j):
        calls.append((i, j))
        return tuple(int(k == i + j) for k in range(4))

    ring = ring_from_products(2, (2,) * 4, (1, 0, 0, 0), mul, "abcd", "R")
    assert len(calls) == len(set(calls)) == 10
    assert all(j >= i for i, j in calls)
    assert ring.tensor == trunc_poly(2, 4).tensor


def test_trivial_extension_acts_once_per_ring_and_module_basis_pair(
        monkeypatch):
    r = trunc_poly(2, 3)
    spec = ModuleSpec(r, [2, 2], [[[1, 0], [0, 1]], [[0, 1], [0, 0]],
                                  [[0, 0], [0, 0]]])
    real, calls = ModuleSpec.act_coords, []

    def counting(self, i, vec):
        calls.append((i, vec))
        return real(self, i, vec)

    monkeypatch.setattr(ModuleSpec, "act_coords", counting)
    a = trivial_extension(r, spec)
    assert len(calls) == r.rank * len(spec.orders)
    monkeypatch.undo()
    assert verify_ring(a).ok


def test_trivial_extension_embedding_is_hom():
    r = zmod(4)
    e = ModuleSpec(r, [2], [[[1]]])
    a = trivial_extension(r, e)
    emb = trivial_extension_embedding(r, a)
    assert emb(r.one()) == a.one()
    for x in r.elements():
        for y in r.elements():
            assert emb(x * y) == emb(x) * emb(y)


def test_module_spec_validation():
    r = zmod(4)
    with pytest.raises(RingConstructionError):
        ModuleSpec(r, [3], [[[1]]])            # order does not divide char
    with pytest.raises(RingConstructionError):
        ModuleSpec(r, [2], [[[0]]])            # unit does not act as identity


def test_nilradical_examples():
    assert ideal_elements(nilradical(zmod(4))) == {(0,), (2,)}
    assert ideal_elements(nilradical(zmod(6))) == {(0,)}
    r = zmod(4)
    a = trivial_extension(r, ModuleSpec(r, [2], [[[1]]]))
    nil = nilradical(a)
    assert nil.size() == 4
    assert ideal_elements(nil) == {(0, 0), (0, 1), (2, 0), (2, 1)}


def test_nilradical_matches_bruteforce():
    # the truncations of rank 5, 9 and 4 need x -> x^q with q = 8, 16 and 9,
    # a third Frobenius power or more; the last four mix two primes, so
    # the nilradical is summed from its CRT parts
    z4 = zmod(4)
    z4_z2 = trivial_extension(z4, ModuleSpec(z4, [2], [[[1]]]))
    rings = [z4, zmod(6), zmod(8), zmod(9), zmod(12), trunc_poly(2, 3),
             trunc_poly(3, 2), trunc_poly(2, 5), trunc_poly(2, 9),
             trunc_poly(3, 4), product(zmod(4), zmod(2)), z4_z2,
             zmod(36), product(trunc_poly(2, 3), zmod(9)),
             product(zmod(4), trunc_poly(3, 2)), product(z4_z2, zmod(3))]
    for ring in rings:
        nil = nilradical(ring)
        brute = {x.coords for x in ring.elements() if is_nilpotent(x)}
        assert {c for c in (v for v in ideal_elements(nil))} == brute


def test_maximal_ideals_against_bruteforce():
    z4 = zmod(4)
    rings = [z4, zmod(6), zmod(12), trunc_poly(2, 2),
             product(zmod(4), zmod(2)), product(zmod(2), zmod(2)),
             trivial_extension(z4, ModuleSpec(z4, [2], [[[1]]]))]
    for ring in rings:
        mine = {frozenset(ideal_elements(m)) for m in maximal_ideals(ring)}
        brute = brute_maximal_ideals(ring)
        assert mine == brute, ring.name


def _f4():
    """F_2[x]/(x^2 + x + 1), the field of four elements."""
    return FiniteRing(2, (2, 2), [[(1, 0), (0, 1)], [(0, 1), (1, 1)]], (1, 0),
                      labels=("1", "x"), name="F4")


def _galois_ring():
    """The Galois ring (Z/4)[x]/(x^2 + x + 1): x * x = 3x + 3."""
    return FiniteRing(4, (4, 4), [[(1, 0), (0, 1)], [(0, 1), (3, 3)]], (1, 0),
                      labels=("1", "x"), name="GR(4,2)")


def _locality_rings(instances):
    z4 = zmod(4)
    t3 = trunc_poly(2, 3)
    x = t3.basis_element(1)
    z12 = zmod(12)
    p24 = product(zmod(2), zmod(4))
    f4 = _f4()
    # residue fields that are not prime fields: Frobenius fixes fewer
    # dimensions than R/Nil(R) has
    rings = [z4, zmod(6), z12, p24,
             product(trunc_poly(2, 2), zmod(2)),
             quotient_ring(t3, ideal_span(t3, [x * x]))[0],
             quotient_ring(z12, ideal_span(z12, [z12.from_int(4)]))[0],
             quotient_ring(p24, ideal_span(p24, [p24.element((0, 2))]))[0],
             f4, _galois_ring(), product(f4, zmod(2)), product(f4, _f4()),
             product(f4, trunc_poly(2, 2))]
    for am in instances.values():
        rings += [am.ring, am.a, am.b, am.subring]
    return rings


def test_is_local_against_bruteforce(instances):
    for ring in _locality_rings(instances):
        local, mx = is_local(ring)
        assert local == brute_is_local(ring), ring.name
        brute = brute_maximal_ideals(ring)
        if local:
            assert brute == {frozenset(ideal_elements(mx))}, ring.name
            assert maximal_ideals(ring)[0].basis == mx.basis, ring.name
        else:
            assert mx is None and len(brute) > 1, ring.name
            mine = {frozenset(ideal_elements(m)) for m in maximal_ideals(ring)}
            assert mine == brute, ring.name


def test_residue_field_against_bruteforce(instances):
    for ring in _locality_rings(instances):
        local, mx = is_local(ring)
        if not local:
            continue
        field, pi = quotient_ring(ring, mx)
        assert field.order() * mx.size() == ring.order(), ring.name
        assert brute_is_field(field), ring.name
        assert all(pi(x).is_zero() for x in mx.element_rows()), ring.name
        assert pi(ring.one()) == field.one(), ring.name


def test_is_local_of_a_product_of_fields_past_the_budget():
    # F_2^17 has order 2^17 > the default budget; Frobenius fixes all 17
    # dimensions, and nothing is enumerated
    ring = zmod(2)
    for _ in range(16):
        ring = product(ring, zmod(2))
    assert ring.order() == 2 ** 17
    assert is_local(ring) == (False, None)
    with pytest.raises(BudgetExceededError):
        maximal_ideals(ring)


def test_is_local_past_the_budget():
    # order 2^18 > the default budget 65536; only R/Nil(R) is enumerated
    a = trunc_poly(2, 12)
    obj = duplication(a, ideal_span(a, [a.basis_element(6)]))
    assert obj.ring.order() == 2 ** 18
    local, mx = is_local(obj.ring)
    assert local and mx.size() == 131072


def test_maximal_ideals_budget_and_crt():
    big = zmod(2 * 3 * 5 * 7 * 11 * 13 * 17)  # order 510510 > default budget
    mx = maximal_ideals(big)
    assert len(mx) == 7
    sizes = sorted(m.size() for m in mx)
    assert sizes == sorted(510510 // p for p in (2, 3, 5, 7, 11, 13, 17))
    with pytest.raises(BudgetExceededError):
        idempotents(big)


def test_quotient_ring_and_residue_field():
    z4 = zmod(4)
    f, pi = quotient_ring(z4, is_local(z4)[1])
    assert f.order() == 2
    assert pi(z4.from_int(2)).is_zero()
    assert pi(z4.from_int(3)) == f.one()
    # quotient of the truncated polynomial ring by (x^2)
    a = trunc_poly(2, 3)
    x = a.basis_element(1)
    b, pi2 = quotient_ring(a, ideal_span(a, [x * x]))
    assert b.order() == 4
    assert verify_ring(b).ok
    assert pi2(x * x).is_zero()
    assert not pi2(x).is_zero()


def test_quotient_by_unit_ideal_rejected():
    z4 = zmod(4)
    with pytest.raises(RingConstructionError):
        quotient_ring(z4, ideal_span(z4, [z4.one()]))


def test_residue_field_of_duplication_ready_ring():
    r = zmod(4)
    a = trivial_extension(r, ModuleSpec(r, [2], [[[1]]]))
    f, pi = quotient_ring(a, is_local(a)[1])
    assert f.order() == 2


def test_hom_validation():
    z4, z2 = zmod(4), zmod(2)
    f = RingHom(z4, z2, [(1,)])
    assert f(z4.from_int(3)) == z2.one()
    with pytest.raises(HomomorphismError):
        RingHom(z2, z4, [(1,)])  # 2*1 = 0 must map to 0, but 2*1 != 0 in Z/4
    a = trunc_poly(2, 3)
    b = trunc_poly(2, 2)
    f = RingHom(a, b, [(1, 0), (0, 1), (0, 0)])
    x = a.basis_element(1)
    assert f(x * x).is_zero()
    with pytest.raises(HomomorphismError):
        RingHom(a, b, [(1, 0), (1, 1), (0, 0)])  # not multiplicative


def test_zero_ring_disallowed():
    with pytest.raises(RingConstructionError):
        FiniteRing(4, (), (), ())


def _arithmetic_cases():
    """{label: (ring, homs out of it)} for the compiled-arithmetic tests."""
    cases = {}
    for name, am in standard_instances().items():
        square, a_square = ring_power(am.ring, 2), ring_power(am.a, 2)
        # the projection (a, f(a) + j) -> a onto A
        da = am.a.rank
        proj = RingHom(am.ring, am.a, [am.a.basis_element(i).coords
                                       for i in range(da)]
                       + [(0,) * da] * len(am.j_orders))
        cases[name] = (am.ring, [proj])
        cases[f"{name}^2"] = (square, [hom_power(proj, 2, square, a_square)])
        cases[f"{name}.A"] = (am.a, [am.f])
        cases[f"{name}.C"] = (am.subring, [am.subring_incl])
    for n, p in ((4, 2), (9, 3)):
        cases[f"Z{n}"] = (zmod(n), [RingHom(zmod(n), zmod(p), [(1,)])])
    f2 = trunc_poly(2, 3)
    cases["F2[x]/(x^3)"] = (f2, [RingHom(f2, trunc_poly(2, 2),
                                         [(1, 0), (0, 1), (0, 0)])])
    z4x = trunc_poly(4, 3)
    quo, pi = quotient_ring(z4x, ideal_span(z4x, [z4x.element((0, 2, 0))]))
    cases["Z4[x]/(x^3)"] = (z4x, [pi])
    cases["Z4[x]/(x^3, 2x)"] = (quo, [RingHom.identity(quo)])
    # in the Galois ring x * x = 3x + 3 has two nonzero coordinates
    gr = _galois_ring()
    assert verify_ring(gr).ok
    frob = RingHom(gr, gr, [(1, 0), (3, 3)])  # x -> x^2 = -1 - x
    cases["GR(4,2)"] = (gr, [frob])
    return cases


ARITHMETIC_CASES = _arithmetic_cases()


@pytest.mark.parametrize("label", sorted(ARITHMETIC_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compiled_arithmetic_matches_dense_reference(label, data):
    ring, homs = ARITHMETIC_CASES[label]
    coords = st.tuples(*[st.integers(0, o - 1) for o in ring.orders])
    x, y = data.draw(coords), data.draw(coords)
    assert ring.mul_coords(x, y) == dense_mul_coords(ring, x, y)
    for hom in homs:
        assert hom.apply_coords(x) == dense_apply_coords(hom, x)
    slots = data.draw(st.lists(coords, min_size=1, max_size=3))
    vec = tuple(ring.element(c) for c in slots)
    assert basis_action_rows(ring, vec) == dense_action_rows(ring, slots)


def _count_products(monkeypatch):
    calls = []
    real = FiniteRing.mul_coords

    def counting(self, x, y):
        calls.append(1)
        return real(self, x, y)

    monkeypatch.setattr(FiniteRing, "mul_coords", counting)
    return calls


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2),
                                         (4, 2), (5, 3), (8, 3)])
def test_power_is_square_and_multiply(monkeypatch, n, products):
    # 1 + x is a unit, so no square is zero and every step runs
    r = trunc_poly(2, 4)
    u = r.one() + r.basis_element(1)
    calls = _count_products(monkeypatch)
    u ** n
    assert len(calls) == products


@pytest.mark.parametrize("n, products", [(2, 1), (3, 2), (4, 2), (5, 2),
                                         (6, 2), (8, 2), (1000, 2)])
def test_power_stops_at_a_zero_square(monkeypatch, n, products):
    # x^4 = 0: once the running square is x^4 the power is zero
    x = trunc_poly(2, 4).basis_element(1)
    calls = _count_products(monkeypatch)
    power = x ** n
    assert len(calls) == products
    assert power.is_zero() == (n >= 4)


@pytest.mark.parametrize("ring", [zmod(9), trunc_poly(2, 4), _galois_ring()],
                         ids=lambda r: r.name)
def test_power_matches_repeated_multiplication(ring):
    for x in ring.elements():
        expected = ring.one()
        for n in range(34):
            assert x ** n == expected, (x, n)
            expected = expected * x
