"""Span/syzygy/resolution engine, cross-checked by exhaustive enumeration."""

import contextlib
import gc
import io
import os
import random
import sys
import weakref
from collections import Counter
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.instances import standard_truncation
from amalgam.rings import FiniteRing, product, trunc_poly, zmod
from amalgam.modules import (
    CokernelSpec,
    Submodule,
    SummandType,
    TypeTable,
    global_dimension_signature,
    ideal_span,
    ideal_sum,
    is_projective,
    minimal_generators,
    minimal_resolution,
    residue_field_target,
    submodule_span,
    syzygy,
    _mx_rows,
)
from amalgam.spectrum import is_local
from amalgam.znlinalg import HowellBasis, howell_from_rows
from amalgam import amalgam as am, cli
from oracles import (dense_resolution, enumerate_span, product_span_basis,
                     respan_kernel_holds)


def submodule_elements(sub):
    ring = sub.ring
    out = set()
    for row in enumerate_span(sub.basis):
        d = ring.rank
        out.add(tuple(ring.unscaled(row[k * d:(k + 1) * d]) for k in range(sub.p)))
    return out


def brute_submodule(ring, p, gens):
    """All R-combinations of the generators, as coordinate tuples."""
    elems = list(ring.elements())
    out = {tuple(ring.zero().coords for _ in range(p))}
    changed = True
    vectors = {tuple(tuple(e.coords) for e in g) for g in gens}
    # close the additive span of {r*g} under addition
    seeds = set()
    for g in gens:
        for r in elems:
            seeds.add(tuple((r * x).coords for x in g))
    frontier = set(out)
    while frontier:
        new = set()
        for v in frontier:
            for s in seeds:
                w = tuple(
                    tuple((a + b) % o for a, b, o in zip(cv, cs, ring.orders))
                    for cv, cs in zip(v, s))
                if w not in out:
                    out.add(w)
                    new.add(w)
        frontier = new
    return out


def brute_syzygy(ring, gens):
    """Exhaustive tuples (a_1..a_r) with sum a_i g_i = 0."""
    r = len(gens)
    p = len(gens[0])
    out = set()
    for combo in iproduct(ring.elements(), repeat=r):
        acc = [ring.zero()] * p
        for a, g in zip(combo, gens):
            for s in range(p):
                acc[s] = acc[s] + a * g[s]
        if all(e.is_zero() for e in acc):
            out.add(tuple(e.coords for e in combo))
    return out


def dup_ring():
    """Order-8 duplication-style local ring used across the module tests."""
    z4 = zmod(4)
    i2 = ideal_span(z4, [z4.from_int(2)])
    return am.duplication(z4, i2)


def test_submodule_span_examples():
    z4 = zmod(4)
    empty = submodule_span(z4, 1, [])
    assert empty.is_zero() and empty.size() == 1
    two = submodule_span(z4, 1, [(z4.from_int(2),)])
    assert two.size() == 2
    obj = dup_ring()
    r = obj.ring
    z4a = obj.a
    gen = obj.embed(z4a.from_int(2), z4a.from_int(2))
    sub = submodule_span(r, 1, [(gen,)])
    assert sub.size() == 2
    elems = submodule_elements(sub)
    assert len(elems) == 2


def test_submodule_span_matches_bruteforce():
    rng = random.Random(31)
    obj = dup_ring()
    rings = [zmod(4), zmod(6), trunc_poly(2, 2), obj.ring]
    for ring in rings:
        elems = list(ring.elements())
        for _ in range(8):
            p = rng.randint(1, 2)
            gens = [tuple(rng.choice(elems) for _ in range(p))
                    for _ in range(rng.randint(1, 2))]
            sub = submodule_span(ring, p, gens)
            assert submodule_elements(sub) == brute_submodule(ring, p, gens)


def test_syzygy_examples():
    z4 = zmod(4)
    s = syzygy(z4, [(z4.from_int(2),)])
    assert submodule_elements(s) == {((0,),), ((2,),)}
    # standard basis of a free module has zero syzygy
    free = syzygy(z4, [(z4.one(), z4.zero()), (z4.zero(), z4.one())])
    assert free.is_zero()
    obj = dup_ring()
    z4a = obj.a
    w = obj.embed(z4a.from_int(2), z4a.from_int(2))
    s = syzygy(obj.ring, [(w,)])
    # annihilator of (2,2) in the duplication has order 4 and equals M |><| I
    assert s.size() == 4
    assert s.basis == ideal_span(obj.ring, [v[0] for v in s.rows_as_vectors()]).basis
    assert s.basis == obj.mj.basis


def test_syzygy_matches_bruteforce():
    rng = random.Random(57)
    obj = dup_ring()
    for ring in (zmod(4), zmod(9), trunc_poly(2, 2), obj.ring):
        elems = list(ring.elements())
        for _ in range(6):
            p = rng.randint(1, 2)
            r = rng.randint(1, 2)
            gens = [tuple(rng.choice(elems) for _ in range(p)) for _ in range(r)]
            s = syzygy(ring, gens)
            got = submodule_elements(s)
            want = brute_syzygy(ring, gens)
            assert got == want


def test_syzygy_mod_denominator():
    z4 = zmod(4)
    den = submodule_span(z4, 1, [(z4.from_int(2),)])
    s = syzygy(z4, [(z4.one(),)], den=den)
    # {a : a*1 in (2)} = (2)
    assert submodule_elements(s) == {((0,),), ((2,),)}


def test_minimal_generators_examples():
    obj = dup_ring()
    r = obj.ring
    local, mx = is_local(r)
    assert local
    mg = minimal_generators(obj.mj, mx)
    assert len(mg) == 2
    # zero module
    z = submodule_span(r, 1, [])
    assert minimal_generators(z, mx) == []
    # free module with standard generators
    free = submodule_span(r, 2, [(r.one(), r.zero()), (r.zero(), r.one())])
    assert len(minimal_generators(free, mx)) == 2


def test_minimal_generator_count_is_order_independent():
    rng = random.Random(4)
    obj = dup_ring()
    r = obj.ring
    _, mx = is_local(r)
    elems = list(r.elements())
    for _ in range(10):
        gens = [tuple(rng.choice(elems) for _ in range(2)) for _ in range(4)]
        sub = submodule_span(r, 2, gens)
        counts = set()
        base = minimal_generators(sub, mx, gens=gens)
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            counts.add(len(minimal_generators(sub, mx, gens=shuffled)))
        counts.add(len(base))
        assert len(counts) == 1


def _rank30_duplication():
    a = trunc_poly(2, 20)
    return am.duplication(a, ideal_span(a, [a.basis_element(1) ** 10])).ring


def _seeded_submodules(ring, rng, count):
    """Submodules of R^1 and R^2 spanned by one to three random vectors,
    each once with those generators and once with only its basis rows."""
    for _ in range(count):
        p = rng.randint(1, 2)
        gens = [tuple(ring.element([rng.randrange(o) for o in ring.orders])
                      for _ in range(p)) for _ in range(rng.randint(1, 3))]
        sub = submodule_span(ring, p, gens)
        yield sub
        yield Submodule(ring, p, sub.basis)


def test_mx_from_either_pairing_is_the_span_of_all_products(instances):
    # F2[x]/(x^4) with X = R: pairing M's generator x with X's generator 1
    # would give span{x}, not M
    rings = [zmod(8), trunc_poly(2, 4), _rank30_duplication()]
    rings += [inst.ring for inst in instances.values()]
    rng = random.Random(22)
    for ring in rings:
        _, mx = is_local(ring)
        one = submodule_span(ring, 1, [(ring.one(),)])
        for sub in [one, *_seeded_submodules(ring, rng, 6)]:
            got = howell_from_rows(ring.char, list(_mx_rows(sub, mx)),
                                   sub.p * ring.rank)
            assert got == product_span_basis(sub, mx), ring.name


def test_mx_makes_no_more_products_than_the_cheaper_pairing(monkeypatch):
    ring = _rank30_duplication()
    _, mx = is_local(ring)
    assert len(minimal_generators(mx, mx)) == 2 and len(mx.basis.rows) == 29
    calls = [0]
    mul = FiniteRing.mul_coords

    def counted(self, x, y):
        calls[0] += 1
        return mul(self, x, y)

    monkeypatch.setattr(FiniteRing, "mul_coords", counted)
    for sub in _seeded_submodules(ring, random.Random(5), 8):
        gens = sub._generators
        rows = len(sub.basis.rows)
        calls[0] = 0
        list(_mx_rows(sub, mx))
        cheaper = min(2 * rows, 29 * (rows if gens is None else len(gens)))
        assert calls[0] <= sub.p * cheaper


def test_a_ring_frees_its_cached_maximal_ideal_generators():
    gc.disable()
    try:
        ring = trunc_poly(2, 8)
        _, mx = is_local(ring)
        minimal_generators(submodule_span(ring, 1, [(ring.one(),)]), mx)
        gens = ring._cache["ideal_generators", mx.basis]
        assert gens == ((0, 1, 0, 0, 0, 0, 0, 0),)
        alive = weakref.ref(ring)
        del ring, mx
        assert alive() is None
        assert sys.getrefcount(gens) == 2  # gens and the call's argument
    finally:
        gc.enable()


def test_resolution_of_residue_field_z4():
    z4 = zmod(4)
    local, mx = is_local(z4)
    res = minimal_resolution(z4, residue_field_target(z4, mx), mx, depth=8)
    assert list(res.betti) == [1] * 9
    assert res.verdict == ("at_least", 8)
    assert res.periodic is not None
    assert res.validate() == []


def test_resolution_free_module():
    z4 = zmod(4)
    _, mx = is_local(z4)
    free = submodule_span(z4, 1, [(z4.one(),)])
    res = minimal_resolution(z4, free, mx, depth=4)
    assert res.betti[0] == 1 and res.betti[1] == 0
    assert res.verdict == ("exact", 0)
    assert is_projective(z4, free, mx)
    with pytest.raises(ValueError):
        minimal_resolution(z4, free, mx, depth=-1)


def test_pd_reports():
    z2 = zmod(2)
    _, mx2 = is_local(z2)
    res = minimal_resolution(z2, residue_field_target(z2, mx2), mx2, depth=8)
    assert res.verdict == ("exact", 0)
    z4 = zmod(4)
    _, mx = is_local(z4)
    sig = global_dimension_signature(z4, mx, depth=8)
    assert sig.verdict == ("at_least", 8)
    z5 = zmod(5)
    _, mx5 = is_local(z5)
    assert global_dimension_signature(z5, mx5, depth=8).verdict == ("exact", 0)


def _every_ideal(ring):
    """The principal ideals of a finite ring, closed under sums."""
    ideals = {}
    for x in ring.elements():
        ideal = ideal_span(ring, [x])
        ideals.setdefault(ideal.basis, ideal)
    frontier = list(ideals.values())
    while frontier:
        new = []
        for a in frontier:
            for b in list(ideals.values()):
                joined = ideal_sum(a, b)
                if joined.basis not in ideals:
                    ideals[joined.basis] = joined
                    new.append(joined)
        frontier = new
    return list(ideals.values())


@pytest.mark.parametrize("name", ["dup_z4", "tower_dim1", "tower_dim2",
                                  "trunc_t3", "trunc_t4"])
def test_every_cyclic_quotient_obeys_auslander_buchsbaum(instances, name):
    # a finite local ring has depth 0, so by Auslander-Buchsbaum a module
    # of finite projective dimension is free, and R/I (I proper) is free
    # iff I = 0: every other quotient resolves past any depth
    inst = instances[name]
    ring = inst.ring
    assert ring.order() <= 64
    _, mx = inst.ring_local()
    table = TypeTable(ring, mx)
    whole = submodule_span(ring, 1, [(ring.one(),)])
    proper = [i for i in _every_ideal(ring) if i.is_proper()]
    assert any(i.is_zero() for i in proper) and len(proper) > 2
    for ideal in proper:
        res = minimal_resolution(ring, CokernelSpec(whole, ideal), mx, 4,
                                 table=table)
        assert res.verdict == (("exact", 0) if ideal.is_zero()
                               else ("at_least", 4))
        assert res.validate() == []


def test_zero_j_module_resolution_positive_betti():
    obj = dup_ring()
    r = obj.ring
    _, mx = is_local(r)
    res = minimal_resolution(r, obj.zero_j, mx, depth=6)
    assert all(b >= 1 for b in res.betti[:7])
    assert res.validate() == []
    assert not is_projective(r, obj.zero_j, mx)
    res_mj = minimal_resolution(r, obj.mj, mx, depth=6)
    assert all(b >= 1 for b in res_mj.betti[:7])
    assert res_mj.validate() == []


def _engine_summary(res):
    """Betti table, verdict, periodic and per-step kernel sizes."""
    sizes = []
    by_key = {t.key: t for t in res.types}
    mult = {res.root: 1}
    for nxt in res.multiplicities:
        sizes.append(prod(t.syz.size() ** m for t, m in mult.items()))
        mult = {by_key[k]: m for k, m in nxt.items()}
    return list(res.betti), res.verdict, res.periodic, sizes


def _assert_matches_dense(ring, target, mx, depth):
    res = minimal_resolution(ring, target, mx, depth)
    assert _engine_summary(res) == dense_resolution(ring, target, mx, depth)
    assert res.validate() == []


@pytest.mark.parametrize("name", ["dup_z4", "tower_dim1", "tower_dim2",
                                  "trunc_t3", "trunc_t4"])
@pytest.mark.parametrize("kind", ["mj", "zero_j", "residue_field"])
def test_engine_agrees_with_dense_oracle_on_instances(instances, name, kind):
    inst = instances[name]
    _, mx = inst.ring_local()
    target = (residue_field_target(inst.ring, mx) if kind == "residue_field"
              else getattr(inst, kind))
    # depth 3 keeps the dense oracle on tower_dim2 to Betti 256
    _assert_matches_dense(inst.ring, target, mx, 3 if name == "tower_dim2" else 4)


_SMALL_RINGS = (zmod(4), zmod(8), zmod(9), trunc_poly(2, 2), trunc_poly(2, 3),
                dup_ring().ring)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_agrees_with_dense_oracle_on_random_submodules(data):
    ring = data.draw(st.sampled_from(_SMALL_RINGS))
    elems = list(ring.elements())
    p = data.draw(st.integers(1, 3))
    entries = st.lists(st.sampled_from(elems), min_size=p, max_size=p)
    gens = data.draw(st.lists(entries, min_size=1, max_size=3))
    _, mx = is_local(ring)
    target = submodule_span(ring, p, gens)
    if data.draw(st.booleans()):
        # a quotient by multiples of the generators, which lie in the span
        scales = data.draw(st.lists(st.sampled_from(elems),
                                    min_size=len(gens), max_size=len(gens)))
        den = submodule_span(ring, p, [tuple(c * e for e in g)
                                       for c, g in zip(scales, gens)])
        target = CokernelSpec(target, den)
    _assert_matches_dense(ring, target, mx, data.draw(st.integers(0, 4)))


def _corruptible():
    """(res, t, label) twice: t is the first resolved type of a resolution
    of mj on a fresh table, and res the resolution that must report t's
    corruption under label, res's name for t.  res is that resolution
    again, then R/(2) resolved on the same table, which reaches t as its
    type 1.  Both resolutions are validated before the caller corrupts t,
    so each report comes past a warm check memo."""
    for case in ("revalidated", "second_resolution"):
        obj = dup_ring()
        ring = obj.ring
        _, mx = is_local(ring)
        table = TypeTable(ring, mx)
        first = minimal_resolution(ring, obj.mj, mx, depth=3, table=table)
        t = next(t for t in first.types if t.syz is not None)
        whole = submodule_span(ring, 1, [(ring.one(),)])
        two = ideal_span(ring, [ring.one() + ring.one()])
        second = minimal_resolution(ring, CokernelSpec(whole, two), mx,
                                    depth=3, table=table)
        assert first.validate() == [] and second.validate() == []
        assert first.types.index(t) == 0 and second.types.index(t) == 1
        res = first if case == "revalidated" else second
        yield res, t, f"type {res.types.index(t)}:"


def test_validate_reports_a_corrupted_syzygy_generator():
    for res, t, where in _corruptible():
        row = list(t.syz_gens[0])
        row[0] = row[0] + res.ring.one()
        t.syz_gens[0] = tuple(row)
        assert any(msg.startswith(where) for msg in res.validate())


def test_validate_reports_a_corrupted_child_multiplicity():
    for res, t, where in _corruptible():
        child = next(iter(t.children))
        t.children[child] += 1
        issues = res.validate()
        assert f"{where} child multiplicities disagree with the components" in issues
        assert any("multiplicities disagree" in msg for msg in issues)


def test_validate_reports_a_corrupted_component_basis():
    for res, t, where in _corruptible():
        slots, _ = t.components[0]
        t.components[0] = (slots, submodule_span(res.ring, len(slots), []).basis)
        assert f"{where} a component does not span its summand type" in res.validate()


def test_validate_reports_a_corrupted_kernel():
    # R e_1 + R s e_2 with |Rs| = 2 has the size of the stored kernel
    # M e_1 + M e_2 (8 * 2 = 4 * 4) but is another submodule of R^2, so
    # only the span of the differential rows can tell them apart
    for res, t, where in _corruptible():
        ring = res.ring
        s = next(x for x in ring.elements() if ideal_span(ring, [x]).size() == 2)
        other = submodule_span(ring, 2, [(ring.one(), ring.zero()), (ring.zero(), s)])
        assert len(t.gens) == 2 and other.size() == t.syz.size() and other != t.syz
        t.syz = other
        assert f"{where} the differential rows do not span the kernel" in res.validate()


def test_validate_reports_a_type_filed_under_another_key():
    for res, t, where in _corruptible():
        t.module = submodule_span(res.ring, t.module.p, [])
        assert f"{where} the module is not the one its key names" in res.validate()


# -- exactness by placement --------------------------------------------------------

def _same_size_other_span(key):
    """A Howell basis with key's ambient and span size but another span:
    key's rows with one entry past a pivot changed; None if there is none."""
    n = key.modulus
    for i, (j, _) in enumerate(key.pivots):
        for c in range(j + 1, key.ambient):
            for v in range(n):
                rows = [list(r) for r in key.rows]
                rows[i][c] = v
                other = howell_from_rows(n, rows, key.ambient)
                if other != key and other.span_size() == key.span_size():
                    return other
    return None


def _kernel_mutants(t):
    """(label, field, value): t's field set to value corrupts its kernel
    data, or, for slots swapped between two equal keys, leaves it intact."""
    comps = t.components
    for n, (slots, key) in enumerate(comps):
        other = _same_size_other_span(key)
        if other is not None:
            yield "same_size_key", "components", comps[:n] + [(slots, other)] + comps[n + 1:]
        dropped = HowellBasis(key.modulus, key.ambient, key.rows[:-1])
        yield "key_row_dropped", "components", comps[:n] + [(slots, dropped)] + comps[n + 1:]
        for m in range(n + 1, len(comps)):
            swapped = list(comps)
            swapped[n], swapped[m] = (comps[m][0], key), (slots, comps[m][1])
            yield "slots_swapped", "components", swapped
    ring, mu, syz = t.module.ring, len(t.gens), t.syz.basis
    other = _same_size_other_span(syz)
    if other is not None:
        yield "same_size_kernel", "syz", Submodule(ring, mu, other)
    if syz.rows:
        yield "kernel_row_dropped", "syz", Submodule(
            ring, mu, HowellBasis(syz.modulus, syz.ambient, syz.rows[:-1]))


def _depth6_resolutions(instances, monkeypatch):
    """Every resolution at depth 6 of the standard instances' table
    targets, then every resolution that ringdsl check --depth 6 makes on
    the corpus files that build."""
    for inst in instances.values():
        _, mx = inst.ring_local()
        for target in _table_targets(inst):
            yield minimal_resolution(inst.ring, target, mx, depth=6)
    from amalgam import checks, modules
    made, inner = [], modules.minimal_resolution

    def kept(*args, **kwargs):
        made.append(inner(*args, **kwargs))
        return made[-1]

    for owner in (modules, checks):
        monkeypatch.setattr(owner, "minimal_resolution", kept)
    for name in ("duplication_z4", "idealization_tower", "truncation_t3",
                 "duplication_mixed_orders"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", _corpus(name), "--depth", "6"]) in (0, 1)
    assert made
    yield from made


def test_validate_passes_exactly_when_the_whole_kernel_respan_does(
        instances, monkeypatch):
    # placement replaced the whole-kernel re-span; on every resolution and
    # on each kernel mutant of its types the two verdicts agree
    mutants = Counter()
    for res in _depth6_resolutions(instances, monkeypatch):
        types = [t for t in (res.root, *res.types) if t.syz is not None]
        assert res.validate() == [] and all(map(respan_kernel_holds, types))
        for t in types:
            for label, field, value in _kernel_mutants(t):
                saved = getattr(t, field)
                setattr(t, field, value)
                try:
                    verdict = res.validate() == []
                    assert verdict == respan_kernel_holds(t), label
                finally:
                    setattr(t, field, saved)
                mutants[label, verdict] += 1
            assert res.validate() == []
    for label in ("same_size_key", "key_row_dropped", "slots_swapped",
                  "same_size_kernel", "kernel_row_dropped"):
        assert mutants[label, False], label


def test_validate_reports_a_key_of_the_same_size_and_another_span():
    for res, t, where in _corruptible():
        slots, key = t.components[0]
        other = _same_size_other_span(key)
        assert other.span_size() == key.span_size() and other != key
        t.components[0] = (slots, other)
        assert f"{where} a component does not span its summand type" in res.validate()


def test_validate_reports_a_dropped_key_row():
    for res, t, where in _corruptible():
        slots, key = t.components[0]
        t.components[0] = (slots, HowellBasis(key.modulus, key.ambient, key.rows[:-1]))
        assert f"{where} a component does not span its summand type" in res.validate()


@pytest.mark.parametrize("slot", [0, 2], ids=["overlap", "outside"])
def test_validate_reports_a_component_slot_overlapping_or_outside(slot):
    # the type has mu = 2 and components on slots 0 and 1; slot 2 is the
    # first slot outside R^2
    for res, t, where in _corruptible():
        assert len(t.gens) == 2 and [s for s, _ in t.components] == [(0,), (1,)]
        t.components[1] = ((slot,), t.components[1][1])
        assert (f"{where} component slots overlap or fall outside R^2"
                in res.validate())


def test_validate_reports_a_kernel_generator_straddling_two_components():
    # the sum of a generator on slot 0 and one on slot 1 is still in the
    # kernel, so only the split tells it apart
    for res, t, where in _corruptible():
        first = next(row for row in t.syz_gens if not row[0].is_zero())
        second = next(row for row in t.syz_gens if not row[1].is_zero())
        t.syz_gens[t.syz_gens.index(first)] = tuple(a + b for a, b in zip(first, second))
        assert f"{where} a kernel generator straddles components" in res.validate()


def test_validate_reports_components_that_do_not_cover():
    for res, t, where in _corruptible():
        t.components = t.components[:1]
        assert f"{where} components do not cover R^2" in res.validate()


def test_validate_reports_swapped_component_slots(instances):
    # trunc_t3's syzygies split into components with different keys
    inst = instances["trunc_t3"]
    _, mx = inst.ring_local()
    res = minimal_resolution(inst.ring, inst.mj, mx, depth=4)
    assert res.validate() == []
    n, t = next((n, t) for n, t in enumerate(res.types)
                if len({key for _, key in t.components}) > 1)
    (a, key_a), (b, key_b) = t.components[:2]
    t.components[:2] = [(b, key_a), (a, key_b)]
    assert f"type {n}: a component does not span its summand type" in res.validate()


def test_validation_never_respans_a_split_kernel_whole(instances, monkeypatch):
    # each component is re-spanned on its own slots and the kernel is
    # checked by placing the keys, so no span runs in the kernel's ambient
    # R^mu of a type whose kernel splits
    from amalgam import modules
    inst = instances["dup_z4"]
    _, mx = inst.ring_local()
    res = minimal_resolution(inst.ring, inst.mj, mx, depth=14)
    checking, split, wide = [], [], []
    span, violations = modules.submodule_span, SummandType._violations

    def watched_span(ring, p, gens):
        t = checking[-1]
        if len(t.gens) > 1 and len(t.components) > 1 and p == len(t.gens):
            wide.append(p)
        return span(ring, p, gens)

    def watched_violations(self, max_ideal, cover, spans):
        checking.append(self)
        split.append(len(self.components) > 1)
        try:
            return violations(self, max_ideal, cover, spans)
        finally:
            checking.pop()

    monkeypatch.setattr(modules, "submodule_span", watched_span)
    monkeypatch.setattr(SummandType, "_violations", watched_violations)
    assert res.validate() == []
    assert any(split) and wide == []


# -- one span memo per validate() call ---------------------------------------------

def _span_pair(p, gens):
    return p, tuple(tuple(e.coords for e in g) for g in gens)


def _span_calls(monkeypatch):
    """A list of lists: each validate() call the caller opens with
    calls.append([]) collects there the _span_pair of every
    submodule_span it makes."""
    from amalgam import modules
    calls, span = [], modules.submodule_span

    def counted(ring, p, gens):
        gens = list(gens)
        calls[-1].append(_span_pair(p, gens))
        return span(ring, p, gens)

    monkeypatch.setattr(modules, "submodule_span", counted)
    return calls


def _equal_components_type(inst):
    """A fresh M |><| J resolution and its first type whose kernel splits
    into two components with equal keys."""
    _, mx = inst.ring_local()
    res = minimal_resolution(inst.ring, inst.mj, mx, depth=4)
    n, t = next((n, t) for n, t in enumerate(res.types)
                if len(t.components) > 1 and t.components[0][1] == t.components[1][1])
    return res, n, t


def _corrupt_second_component(t):
    """Replace the last generator of t's second component by its first,
    so that component spans less than its key, while every other check
    (complex, minimality, cardinality, placement) still passes."""
    slots = set(t.components[1][0])
    rows = [i for i, row in enumerate(t.syz_gens)
            if any(not row[s].is_zero() for s in slots)]
    assert len(rows) > 1
    t.syz_gens[rows[-1]] = t.syz_gens[rows[0]]


def test_each_validation_spans_each_distinct_pair_once(instances, monkeypatch):
    # the resolve_block resolutions: a type's module check spans what its
    # parent's component check spanned, and equal components span equal
    # groups; each validate() call spans each distinct (p, vectors) once,
    # and a pair two validations share is spanned once in each
    resolutions = []
    for name, target, depth in (("dup_z4", "mj", 14), ("tower_dim1", "mj", 9),
                                ("tower_dim2", "mj", 7), ("tower_dim2", "zero_j", 7)):
        inst = instances[name]
        _, mx = inst.ring_local()
        resolutions.append(minimal_resolution(inst.ring, getattr(inst, target), mx,
                                              depth=depth))
    calls = _span_calls(monkeypatch)
    for res in resolutions:
        calls.append([])
        assert res.validate() == []
    assert all(len(made) == len(set(made)) for made in calls)
    assert sum(map(len, calls)) == 5
    assert len(set(calls[2]) & set(calls[3])) == 1


def test_the_span_memo_does_not_hide_one_of_two_equal_components(instances):
    # the first component's group fills the memo with the key's basis;
    # the corrupted second group has other vectors, so it is spanned anew
    res, n, t = _equal_components_type(instances["dup_z4"])
    _corrupt_second_component(t)
    assert res.validate() == [f"type {n}: a component does not span its summand type"]


def test_the_span_memo_lives_for_one_validation(instances, monkeypatch):
    # the second call spans the corrupted type's own generators again:
    # nothing the first call spanned is kept
    res, n, t = _equal_components_type(instances["dup_z4"])
    calls = _span_calls(monkeypatch)
    calls.append([])
    assert res.validate() == []
    _corrupt_second_component(t)
    calls.append([])
    assert res.validate() == [f"type {n}: a component does not span its summand type"]
    own = _span_pair(t.module.p, t.gens)
    assert own in calls[0] and own in calls[1]


# -- one type table shared by every resolution over a ring -----------------------

def _table_targets(inst):
    """mj, zero_j, the residue field and R/R(0,k) for the first k of J."""
    _, mx = inst.ring_local()
    r = inst.ring
    gen = inst.embed(inst.a.zero(), inst.j_group_basis[0])
    whole = submodule_span(r, 1, [(r.one(),)])
    quotient = CokernelSpec(whole, submodule_span(r, 1, [(gen,)]))
    return [inst.mj, inst.zero_j, residue_field_target(r, mx), quotient]


def _summary(res):
    return (list(res.betti), res.verdict, res.periodic,
            [t.key for t in res.types], res.validate())


@pytest.mark.parametrize("name", ["dup_z4", "tower_dim1", "tower_dim2",
                                  "trunc_t3", "trunc_t4"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_a_shared_type_table_changes_no_resolution(instances, name, reverse):
    inst = instances[name]
    _, mx = inst.ring_local()
    targets = _table_targets(inst)
    depth = 4
    fresh = [_summary(minimal_resolution(inst.ring, t, mx, depth))
             for t in targets]
    table = TypeTable(inst.ring, mx)
    order = list(reversed(range(len(targets)))) if reverse else range(len(targets))
    shared = {}
    for i in order:
        res = minimal_resolution(inst.ring, targets[i], mx, depth, table=table)
        shared[i] = _summary(res)
        # every type the resolution reaches is the table's own object
        assert all(table.types[t.key] is t for t in res.types)
    assert [shared[i] for i in range(len(targets))] == fresh
    assert all(issues == [] for *_, issues in fresh)
    # a later resolution of an already seen target resolves no new type
    res = minimal_resolution(inst.ring, targets[0], mx, depth, table=table)
    assert res.structure[1:] == ("memo",) * (len(res.structure) - 1)


def test_a_type_table_for_another_ring_or_maximal_ideal_is_refused():
    obj = dup_ring()
    _, mx = is_local(obj.ring)
    table = TypeTable(obj.ring, mx)
    z4 = zmod(4)
    _, mx4 = is_local(z4)
    whole4 = submodule_span(z4, 1, [(z4.one(),)])
    with pytest.raises(ValueError):
        minimal_resolution(z4, whole4, mx4, 2, table=table)
    # the same ring with an ideal that is not its maximal ideal
    with pytest.raises(ValueError):
        minimal_resolution(obj.ring, obj.mj, obj.zero_j, 2, table=table)
    # the right ring and maximal ideal, even as another Ideal object
    same_mx = ideal_span(obj.ring, mx.element_rows())
    assert minimal_resolution(obj.ring, obj.mj, same_mx, 2, table=table).betti


def test_a_type_table_holds_no_reference_cycle():
    # the type graph of trunc_t3 has a self-loop; named by key, it still
    # leaves nothing for the cycle collector once the bundle is dropped
    gc.collect()
    gc.disable()
    try:
        inst = standard_truncation(3)
        _, mx = inst.ring_local()
        table = TypeTable(inst.ring, mx)
        res = minimal_resolution(inst.ring, inst.mj, mx, 6, table=table)
        assert any(t.key in t.children for t in res.types)
        del inst, table, mx, res
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (SummandType, TypeTable, am.AmalgamObjects))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def test_quotient_presentation():
    z4 = zmod(4)
    _, mx = is_local(z4)
    num = submodule_span(z4, 1, [(z4.one(),)])
    den = submodule_span(z4, 1, [(z4.from_int(2),)])
    spec = CokernelSpec(num, den)
    res = minimal_resolution(z4, spec, mx, depth=6)
    assert list(res.betti) == [1] * 7
    # num == den gives the zero module
    zero_spec = CokernelSpec(den, den)
    res0 = minimal_resolution(z4, zero_spec, mx, depth=3)
    assert res0.betti[0] == 0 and res0.verdict == ("exact", 0)
    with pytest.raises(ValueError):
        CokernelSpec(den, num)


def test_quotient_cardinality():
    obj = dup_ring()
    r = obj.ring
    _, mx = is_local(r)
    whole = submodule_span(r, 1, [(r.one(),)])
    spec = CokernelSpec(whole, obj.mj)
    assert whole.size() // obj.mj.size() == 2


def test_module_equal():
    z4 = zmod(4)
    a = submodule_span(z4, 1, [(z4.from_int(2),)])
    b = submodule_span(z4, 1, [(z4.from_int(2),), (z4.zero(),)])
    assert a == b
    c = submodule_span(z4, 1, [(z4.one(),)])
    assert a != c


def test_is_projective_examples():
    obj = dup_ring()
    r = obj.ring
    _, mx = is_local(r)
    whole = submodule_span(r, 1, [(r.one(),)])
    assert is_projective(r, whole, mx)
    assert not is_projective(r, obj.zero_j, mx)
    assert not is_projective(r, obj.mj, mx)


def test_pd_zero_iff_projective_iff_beta1_zero(instances):
    # three-way agreement between the counting test |M| = |R|^mu and the
    # resolution, on small submodules and cokernels and on the modules
    # the thm31 and betti jobs ask about
    rng = random.Random(8)
    scalars = random.Random(9)  # leaves rng's draws of the submodules as they were
    corpus = []
    obj = dup_ring()
    for ring in (zmod(4), zmod(8), zmod(9), trunc_poly(2, 2), obj.ring):
        elems = list(ring.elements())
        for _ in range(5):
            p = rng.randint(1, 2)
            gens = [tuple(rng.choice(elems) for _ in range(p))
                    for _ in range(rng.randint(1, 2))]
            sub = submodule_span(ring, p, gens)
            corpus.append((ring, sub))
            # sub over a submodule of it, and the free R^p over sub
            multiples = []
            for g in gens:
                c = scalars.choice(elems)
                multiples.append(tuple(c * x for x in g))
            den = submodule_span(ring, p, multiples)
            units = [tuple(ring.one() if t == s else ring.zero()
                           for t in range(p)) for s in range(p)]
            free = submodule_span(ring, p, units)
            corpus.append((ring, CokernelSpec(sub, den)))
            corpus.append((ring, CokernelSpec(free, sub)))
    for am in instances.values():
        r = am.ring
        whole = submodule_span(r, 1, [(r.one(),)])
        corpus += [(r, am.mj), (r, am.zero_j), (r, whole),
                   (r, CokernelSpec(whole, am.mj))]
        for e in am.j_group_basis:
            ideal = ideal_span(r, [am.embed(am.a.zero(), e)])
            corpus += [(r, ideal),
                       (r, CokernelSpec(whole, ideal))]
    assert len(corpus) >= 100
    verdicts = set()
    for ring, target in corpus:
        _, mx = is_local(ring)
        res = minimal_resolution(ring, target, mx, depth=1)
        beta1 = res.betti[1] if len(res.betti) > 1 else 0
        projective = is_projective(ring, target, mx)
        pd_zero = res.verdict == ("exact", 0)
        assert projective == (beta1 == 0) == pd_zero
        verdicts.add(projective)
    assert verdicts == {True, False}


_SUM_RINGS = (zmod(12), trunc_poly(2, 3), trunc_poly(4, 2),
              product(zmod(4), zmod(2)), dup_ring().ring)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ideal_sum_is_the_span_of_both_generator_sets(data):
    ring = data.draw(st.sampled_from(_SUM_RINGS))
    elems = st.lists(st.tuples(*[st.integers(0, o - 1) for o in ring.orders])
                     .map(ring.element), max_size=3)
    xs, ys = data.draw(elems), data.draw(elems)
    i, j = ideal_span(ring, xs), ideal_span(ring, ys)
    total = ideal_sum(i, j)
    assert total.basis == ideal_span(ring, xs + ys).basis
    assert total.contains_submodule(i) and total.contains_submodule(j)
    with pytest.raises(ValueError):
        ideal_sum(i, ideal_span(zmod(3), []))


def _corpus(name):
    return os.path.join(os.path.dirname(__file__), "..", "corpus", f"{name}.ring")


def _check(name):
    """Exit code of ringdsl check on a corpus file, its report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["check", _corpus(name), "--format", "json"])


@pytest.mark.parametrize("name", ["duplication_z4", "idealization_tower",
                                  "truncation_t3"])
def test_a_ringdsl_run_resolves_each_summand_type_once(monkeypatch, name):
    # betti, thm31 and gldim resolve over one ring; the run
    # gives them one table per local ring, so no type of a ring is
    # resolved twice
    seen = Counter()
    resolve = SummandType.resolve

    def counted(self, table):
        if self.key is not None:
            seen[id(self.module.ring), self.key] += 1
        return resolve(self, table)

    monkeypatch.setattr(SummandType, "resolve", counted)
    assert _check(name) == 0
    assert seen and max(seen.values()) == 1


def _copied(x):
    return None if x is None else type(x)(x)


@pytest.mark.parametrize("name", ["duplication_z4", "idealization_tower",
                                  "truncation_t3"])
def test_a_ringdsl_run_checks_each_type_state_once(monkeypatch, name):
    # betti's second resolution, thm31 and gldim validate types that an
    # earlier job of the run validated; a type is checked again only when
    # a field its check reads has changed since
    checked = []
    full = SummandType._violations

    def counted(self, max_ideal, cover, spans):
        state = (max_ideal, cover, self.key, self.module, self.gens, self.den,
                 self.syz, _copied(self.syz_gens), _copied(self.components),
                 _copied(self.children))
        assert not any(t is self and s == state for t, s in checked)
        checked.append((self, state))
        return full(self, max_ideal, cover, spans)

    monkeypatch.setattr(SummandType, "_violations", counted)
    assert _check(name) == 0
    assert checked


def test_a_ringdsl_run_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        assert _check("truncation_t3") == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (SummandType, TypeTable))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


@pytest.mark.parametrize("name", ["duplication_z4", "idealization_tower",
                                  "truncation_t3", "duplication_mixed_orders"])
def test_every_summand_type_resolves_inside_minimal_resolution(monkeypatch, name):
    # perfbench times resolution as the time inside minimal_resolution,
    # wrapped where modules and checks look it up; a type resolved outside
    # those calls would go untimed and read as a gain
    from amalgam import checks, modules
    open_calls = [0]
    inner = modules.minimal_resolution

    def wrapped(*args, **kwargs):
        open_calls[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            open_calls[0] -= 1

    inside = []
    resolve = SummandType.resolve

    def watched(self, table):
        inside.append(open_calls[0] > 0)
        return resolve(self, table)

    for owner in (modules, checks):
        monkeypatch.setattr(owner, "minimal_resolution", wrapped)
    monkeypatch.setattr(SummandType, "resolve", watched)
    assert _check(name) in (0, 1)
    assert inside and all(inside)
