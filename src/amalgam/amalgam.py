"""Amalgamated constructions: f(A)+J subrings, A |><|^f J, duplications.

The amalgamation of A with B along an ideal J of B via f : A -> B is the
subring {(a, f(a) + j)} of A x B.  Additively it is A + J, so the carrier
here uses coordinates (a-part in A's basis, j-part in a cyclic basis of J).
That basis and the one of f(A) + J come from abgroups.subgroup_decomposition,
with the map reading an element's coordinates in them; multiplication
follows from

    (a, f(a)+j) * (a', f(a')+j') = (aa', f(aa') + f(a)j' + f(a')j + jj').

AmalgamObjects bundles the constructed ring with the canonical maps and
ideals the verification harness consumes: the pair constructor, {0} x J,
M |><| J for the maximal ideal of a local A, and the subring f(A) + J of
B.  These ideals, and J^n in B^n, are ideals by construction, so each is
the additive span of its generators (modules.additive_ideal); f(A) + J is
built on first use.
"""

from functools import cached_property

from .znlinalg import span_builder
from .rings import (DEFAULT_MAX_ORDER, RingConstructionError, RingElement,
                    RingHom, derived_ring, product, ring_from_products)
from .abgroups import subgroup_decomposition
from .modules import _flat_scaled_coords, additive_ideal, select_generators
from . import spectrum


def image_plus_J(f, j):
    """The subring C = f(A) + J of B, its inclusion into B, and the map
    reading an element of C (coordinates in B) in C's basis.

    The additive group is generated by the images of A's basis together
    with J; it is closed under multiplication because J is an ideal and f
    is a ring homomorphism.
    """
    b = f.target
    if j.ring is not b:
        raise ValueError("ideal does not live in the hom's target")
    gen_rows = [f.apply_coords(f.source.basis_element(i).coords)
                for i in range(f.source.rank)]
    gen_rows += [b.unscaled(row) for row in j.basis.rows]
    orders, read, lifts = subgroup_decomposition(gen_rows, b.orders)
    sub = derived_ring(b, orders, lifts, read, "c", f"f({f.source.name})+J")
    return sub, RingHom(sub, b, lifts), read


class AmalgamObjects:
    """The amalgamation ring together with its canonical maps and ideals.

    zero_j and mj are additive spans of their embedded generators.  subring,
    subring_incl and j_in_subring are built on first read, where an error
    building f(A) + J would surface.  None arises: f(1) = 1 != 0 lies in it
    (FiniteRing refuses a zero ring) and RingHom checks the inclusion."""

    def __init__(self, ring_a, ring_b, hom, ideal_j, budget=DEFAULT_MAX_ORDER):
        if hom.source is not ring_a or hom.target is not ring_b:
            raise ValueError("hom endpoints do not match the given rings")
        if ideal_j.ring is not ring_b:
            raise ValueError("J must be an ideal of B")
        if not ideal_j.is_proper():
            raise RingConstructionError("J must be a proper ideal of B")
        self.a = ring_a
        self.b = ring_b
        self.f = hom
        self.j = ideal_j
        self.budget = budget

        j_orders, self._j_read, j_lifts = subgroup_decomposition(
            [ring_b.unscaled(row) for row in ideal_j.basis.rows],
            ring_b.orders)
        self.j_orders = tuple(j_orders)
        self.j_group_basis = tuple(ring_b.element(x) for x in j_lifts)

        # basis: A's, then J's; a product with a J factor lies in J
        da, k = ring_a.rank, len(j_orders)
        zero_a, zero_j = (0,) * da, (0,) * k
        gens = [hom.apply_coords(ring_a.basis_element(i).coords)
                for i in range(da)] + j_lifts

        def mul(i, t):
            if t < da:
                return ring_a.tensor[i][t] + zero_j
            return zero_a + self._j_read(ring_b.mul_coords(gens[i], gens[t]))

        self.ring = ring_from_products(
            ring_a.char, ring_a.orders + self.j_orders, ring_a.unit + zero_j,
            mul, ring_a.labels + tuple(f"j{t}" for t in range(k)),
            f"{ring_a.name}><{ring_b.name}")
        assert self.ring.order() == ring_a.order() * ideal_j.size()

        # canonical ideals
        self.zero_j = additive_ideal(
            self.ring, [self.embed(ring_a.zero(), e) for e in self.j_group_basis])
        assert self.zero_j.size() == ideal_j.size()
        self.a_local, self.a_max = spectrum.is_local(ring_a)
        self.mj = self.mj_of(self.a_max) if self.a_local else None
        self._hypotheses = None  # cached by checks.hypotheses_of

    @cached_property
    def _image_plus_j(self):
        """f(A) + J, its inclusion into B and J as an ideal of it (spanned
        by J's group basis, read in the subring's basis)."""
        sub, incl, read = image_plus_J(self.f, self.j)
        return sub, incl, additive_ideal(
            sub, [sub.element(read(e.coords)) for e in self.j_group_basis])

    subring = property(lambda self: self._image_plus_j[0])
    subring_incl = property(lambda self: self._image_plus_j[1])
    j_in_subring = property(lambda self: self._image_plus_j[2])

    def ring_local(self):
        """(flag, maximal ideal) of the constructed ring."""
        return spectrum.is_local(self.ring)

    def embed(self, a_elem, j_elem):
        """The ring element with pair (a, f(a) + j)."""
        if a_elem.ring is not self.a:
            raise ValueError("first component must be an element of A")
        if j_elem.ring is not self.b:
            raise ValueError("second component must be an element of B in J")
        return RingElement(self.ring,
                           a_elem.coords + self._j_read(j_elem.coords))

    def embed_vector(self, a_vec, j_vec=None):
        """Slotwise pair embedding of (u, f^p(u) + k) for vectors."""
        if j_vec is None:
            j_vec = [self.b.zero()] * len(a_vec)
        return tuple(self.embed(u, k) for u, k in zip(a_vec, j_vec))

    def decompose(self, elem):
        """Inverse of embed: the (a, j) coordinates of a ring element."""
        da = self.a.rank
        a_elem = self.a.element(elem.coords[:da])
        j_elem = self.b.zero()
        for c, e in zip(elem.coords[da:], self.j_group_basis):
            if c:
                j_elem = j_elem + c * e
        return a_elem, j_elem

    def mj_of(self, ideal_a):
        """The ideal m |><| J = {(m, f(m)+j)} for an ideal m of A."""
        gens = [self.embed(x, self.b.zero())
                for x in (ideal_a.element_rows())]
        gens += [self.embed(self.a.zero(), e) for e in self.j_group_basis]
        out = additive_ideal(self.ring, gens)
        assert out.size() == ideal_a.size() * self.j.size()
        return out

    @cached_property
    def _j_subring_generators(self):
        local, m_c = spectrum.is_local(self.subring)
        gens = select_generators(self.j_in_subring, local, m_c)
        return [self.subring_incl(g) for (g,) in gens]

    def j_subring_generators(self):
        """Generators of J over f(A) + J (modules.select_generators), as
        elements of B, cached."""
        return self._j_subring_generators

    def product_set_basis(self, blocks):
        """Scaled basis of the direct sum of the sets U |><| J^p, one per
        block (U, p) in blocks, inside R^(sum of the p).

        U is a Submodule of A^p; the set {(v, f^p(v) + j)} is additively
        generated by the embedded basis rows of U and by every J basis
        element placed in every one of the block's slots.
        """
        ring = self.ring
        zero = (0,) * ring.rank
        j_slots = [self.embed(self.a.zero(), e).coords
                   for e in self.j_group_basis]
        total = sum(p for _, p in blocks)
        builder = span_builder(ring.char, total * ring.rank)
        before = 0
        for u_sub, p in blocks:
            vectors = [[e.coords for e in self.embed_vector(row)]
                       for row in u_sub.rows_as_vectors()]
            vectors += [[j if t == s else zero for t in range(p)]
                        for s in range(p) for j in j_slots]
            after = [zero] * (total - before - p)
            for vec in vectors:
                builder.insert(_flat_scaled_coords(
                    ring, [zero] * before + vec + after))
            before += p
        return builder.basis()


def amalgamation(ring_a, ring_b, hom, ideal_j, budget=DEFAULT_MAX_ORDER):
    """Construct A |><|^f J with its canonical maps and ideals."""
    return AmalgamObjects(ring_a, ring_b, hom, ideal_j, budget)


def duplication(ring_a, ideal_a, budget=DEFAULT_MAX_ORDER):
    """Amalgamated duplication A |><| I: B = A, f = identity, J = I."""
    return amalgamation(ring_a, ring_a, RingHom.identity(ring_a), ideal_a,
                        budget)


# -- powers, for the (A |><| J)^n ~ A^n |><| J^n isomorphism -----------------

def ring_power(r, n):
    """The n-fold product ring; coordinates are slot-major."""
    out = r
    for _ in range(n - 1):
        out = product(out, r)
    return out


def power_slot_element(r_pow, r, n, slot, elem):
    """Embed an element of r into slot `slot` of the n-fold power."""
    d = r.rank
    return r_pow.element(
        (0,) * (slot * d) + elem.coords + (0,) * ((n - slot - 1) * d))


def hom_power(f, n, src_pow, tgt_pow):
    """Block-diagonal power of a hom between the n-fold product rings."""
    db = f.target.rank
    rows = [(0,) * (s * db) + row + (0,) * ((n - s - 1) * db)
            for s in range(n) for row in f.matrix]
    return RingHom(src_pow, tgt_pow, rows, check=False)


def ideal_power(j, n, b_pow):
    """J^n = J + ... + J as an ideal of the n-fold power of B."""
    return additive_ideal(b_pow, [power_slot_element(b_pow, j.ring, n, s, e)
                                  for s in range(n) for e in j.element_rows()])
