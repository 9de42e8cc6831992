"""The amalgamation bundle: its ideals are additive spans, and f(A) + J is
built on first use."""

import glob
import os

import pytest

from amalgam import amalgam, cli, dsl, modules
from amalgam.amalgam import (AmalgamObjects, duplication, ideal_power,
                             power_slot_element, ring_power)
from amalgam.checks import hypotheses_of, power_iso
from amalgam.instances import standard_instances
from amalgam.modules import additive_ideal, ideal_span
from amalgam.rings import product, trunc_poly, zmod
from amalgam.spectrum import hom_preimage_ideal, quotient_ring

from oracles import brute_ideals

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_bundles():
    """Every amalgamation the corpus files declare and build, by
    file:name."""
    out = {}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.ring"))):
        with open(path, encoding="utf-8") as fh:
            try:
                spec = dsl.parse(fh.read())
            except ValueError:
                continue
        builder = cli.Builder(65536)
        for stmt in spec.statements:
            if not isinstance(stmt, dsl.Decl):
                continue
            try:
                value = builder.env[stmt.name] = builder.eval_expr(stmt.expr)
            except ValueError:
                continue
            if isinstance(value, AmalgamObjects):
                out[f"{os.path.basename(path)}:{stmt.name}"] = value
    return out


def _dup_t42():
    # J = (2 + x) in Z/4[x]/(x^2): Howell rows (2, 1), (0, 2), but one
    # cyclic group generator, so the two generator lists differ
    a = trunc_poly(4, 2)
    return duplication(a, ideal_span(a, [a.element((2, 1))]))


BUNDLES = {**standard_instances(), **corpus_bundles(), "dup_t42": _dup_t42()}


def ideals_of(ring):
    """Every ideal of a small ring, as Ideals in a fixed order."""
    found = {}
    for elems in brute_ideals(ring):
        ideal = ideal_span(ring, [ring.element(x) for x in sorted(elems)])
        found.setdefault(ideal.basis, ideal)
    return [found[b] for b in sorted(found, key=lambda b: b.rows)]


def assert_spans_as_ideal(ideal, elems):
    """ideal is ideal_span of exactly elems: same basis, same generators."""
    closed = ideal_span(ideal.ring, elems)
    assert ideal.basis == closed.basis
    assert ideal.generators == closed.generators == tuple((e,) for e in elems)


def test_the_bundles_cover_the_corpus_and_a_group_basis_unlike_the_rows():
    assert len(BUNDLES) == 10
    am = BUNDLES["dup_t42"]
    assert list(am.j_group_basis) != am.j.element_rows()


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_the_bundles_ideals_are_their_generators_ideal_spans(name):
    am = BUNDLES[name]
    a = am.a
    j_gens = [am.embed(a.zero(), e) for e in am.j_group_basis]
    assert_spans_as_ideal(am.zero_j, j_gens)
    if am.a_local:
        assert am.mj is not None
        assert_spans_as_ideal(
            am.mj, [am.embed(x, am.b.zero()) for x in am.a_max.element_rows()]
            + j_gens)
    for ideal_a in ideals_of(a):
        assert_spans_as_ideal(
            am.mj_of(ideal_a),
            [am.embed(x, am.b.zero()) for x in ideal_a.element_rows()] + j_gens)
    for n in (2, 3):
        b_n = ring_power(am.b, n)
        assert_spans_as_ideal(ideal_power(am.j, n, b_n), [
            power_slot_element(b_n, am.b, n, s, x)
            for s in range(n) for x in am.j.element_rows()])
    j_in_c = am.j_in_subring
    assert j_in_c.ring is am.subring
    assert_spans_as_ideal(j_in_c, j_in_c.generator_elements())
    assert [am.subring_incl(g) for g in j_in_c.generator_elements()] == list(
        am.j_group_basis)


@pytest.mark.parametrize("ring", [zmod(6), zmod(12),
                                  product(zmod(4), trunc_poly(3, 2))],
                         ids=["zmod6", "zmod12", "z4_x_t3_2"])
def test_a_preimage_under_a_quotient_is_its_generators_ideal_span(ring):
    checked = 0
    for kernel_ideal in ideals_of(ring):
        if not kernel_ideal.is_proper():
            continue
        quo, pi = quotient_ring(ring, kernel_ideal)
        kernel_gens = kernel_ideal.element_rows()
        for target in ideals_of(quo):
            pre = hom_preimage_ideal(pi, target, kernel_gens)
            assert_spans_as_ideal(pre, pre.generator_elements())
            assert pre.generator_elements()[:len(kernel_gens)] == kernel_gens
            assert pre.size() == kernel_ideal.size() * target.size()
            checked += 1
    assert checked >= 6


def test_an_additive_span_that_is_not_closed_is_not_its_ideal_span():
    # the routine spans additively and trusts the caller: [x] in F2[x]/(x^3)
    # spans {0, x}, while the ideal (x) also holds x^2
    ring = trunc_poly(2, 3)
    x = ring.basis_element(1)
    span = additive_ideal(ring, [x])
    assert span.size() == 2
    assert ideal_span(ring, [x]).size() == 4
    assert span.basis != ideal_span(ring, [x]).basis


def test_a_bundle_spans_no_ideal_and_builds_f_a_plus_j_on_first_use(monkeypatch):
    spans, subrings, counting = [], [], []
    real_span, real_image = modules.submodule_span, amalgam.image_plus_J

    def span(*args):
        if counting:
            spans.append(args)
        return real_span(*args)

    def image(*args):
        subrings.append(args)
        return real_image(*args)

    def counted(fn):
        def run(*args, **kwargs):
            counting.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                counting.pop()
        return run

    # the instances build their J by ideal_span; only the bundle is counted
    monkeypatch.setattr(modules, "submodule_span", span)
    monkeypatch.setattr(amalgam, "image_plus_J", image)
    monkeypatch.setattr(AmalgamObjects, "__init__",
                        counted(AmalgamObjects.__init__))
    assert not hasattr(amalgam, "ideal_span")
    assert not hasattr(amalgam, "ideal_in_subring")
    fresh = standard_instances()
    assert counted(power_iso)(fresh["dup_z4"], 2).passed
    assert spans == [] and subrings == []
    for am in fresh.values():
        hypotheses_of(am)
        am.j_subring_generators()
    assert [args[1] for args in subrings] == [am.j for am in fresh.values()]

