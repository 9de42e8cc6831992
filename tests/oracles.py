"""Brute-force oracles and plain restatements shared across the test suite.

The oracles work by exhaustive enumeration and are deliberately
independent of the Howell/span machinery they cross-check; the
restatements compute a definition directly from a ring's stored data.
"""

from itertools import product as iproduct


def enumerate_span(h):
    """All elements of a HowellBasis's span, by brute force."""
    n = h.modulus
    vecs = {(0,) * h.ambient}
    for row in h.rows:
        new = set()
        for k in range(n):
            shift = tuple((k * e) % n for e in row)
            for v in vecs:
                new.add(tuple((a + b) % n for a, b in zip(v, shift)))
        vecs = new
    return vecs


def dense_mul_coords(ring, x, y):
    """x * y by the plain triple loop over the stored tensor."""
    d = ring.rank
    acc = [0] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                acc[k] += x[i] * y[j] * ring.tensor[i][j][k]
    return tuple(a % o for a, o in zip(acc, ring.orders))


def dense_apply_coords(hom, x):
    """hom applied to source coordinates x by the plain matrix product."""
    tgt = hom.target
    acc = [0] * tgt.rank
    for i in range(hom.source.rank):
        for k in range(tgt.rank):
            acc[k] += x[i] * hom.matrix[i][k]
    return tuple(a % o for a, o in zip(acc, tgt.orders))


def dense_action_rows(ring, slots):
    """Scaled images of b_j * x for every basis element j, x given as
    coordinate tuples, by dense products and an explicit scaling."""
    d = ring.rank
    rows = []
    for j in range(d):
        b_j = tuple(int(k == j) for k in range(d))
        row = []
        for x in slots:
            prod = dense_mul_coords(ring, b_j, x)
            row.extend(c * (ring.char // o) for c, o in zip(prod, ring.orders))
        rows.append(row)
    return rows


def product_span_basis(sub, max_ideal):
    """Howell basis of M*X from every basis row of M times every basis row
    of X: no generator choice on either side."""
    from amalgam.znlinalg import howell_from_rows
    ring, d = sub.ring, sub.ring.rank
    rows = []
    for m in max_ideal.basis.rows:
        m = ring.unscaled(m)
        for x in sub.basis.rows:
            rows.append([c * s for k in range(sub.p)
                         for c, s in zip(ring.mul_coords(
                             m, ring.unscaled(x[k * d:(k + 1) * d])), ring.scale)])
    return howell_from_rows(ring.char, rows, sub.p * d)


def structurally_equal(r, s):
    """Two rings with the same structure constants: same characteristic,
    basis orders, multiplication tensor and unit."""
    return (r.char == s.char and r.orders == s.orders
            and r.tensor == s.tensor and r.unit == s.unit)


def second_component(am, elem):
    """The B-coordinate f(a) + j of an element (a, f(a) + j) of A |><|^f J."""
    a_elem, j_elem = am.decompose(elem)
    return am.f(a_elem) + j_elem


def brute_span(modulus, rows):
    """All Z/N-combinations of the given rows, as a set of tuples."""
    if not rows:
        return {()}
    width = len(rows[0])
    vecs = {(0,) * width}
    for r in rows:
        vecs = {
            tuple((a + k * b) % modulus for a, b in zip(v, r))
            for v in vecs
            for k in range(modulus)
        }
    return vecs


def brute_solve(m, b):
    """The lexicographically smallest x with x*m = b, or None."""
    n = m.modulus
    b = [e % n for e in b]
    for x in iproduct(range(n), repeat=m.rows):  # in lexicographic order
        acc = [0] * m.cols
        for i, xi in enumerate(x):
            if xi:
                for j, e in enumerate(m.row(i)):
                    acc[j] = (acc[j] + xi * e) % n
        if acc == b:
            return x
    return None


def brute_left_kernel(m):
    n, r = m.modulus, m.rows
    out = set()
    for x in iproduct(range(n), repeat=r):
        acc = [0] * m.cols
        for i, xi in enumerate(x):
            if xi:
                for j, e in enumerate(m.row(i)):
                    acc[j] = (acc[j] + xi * e) % n
        if not any(acc):
            out.add(x)
    return out


def ideal_elements(ideal):
    """The ideal as a set of abstract coordinate tuples."""
    out = set()
    for row in enumerate_span(ideal.basis):
        out.add(ideal.ring.unscaled(row))
    return out


def is_nilpotent(x):
    """Direct nilpotency test by repeated squaring."""
    y = x
    for _ in range(x.ring.order().bit_length() + 1):
        if y.is_zero():
            return True
        y = y * y
    return y.is_zero()


def brute_ideals(r):
    """Every ideal of a small ring, as a set of frozensets of coordinate
    tuples, by closing the principal ideals under sums: every ideal of a
    finite ring is a finite sum of principal ideals."""
    elems = list(r.elements())
    ideals = set()
    for x in elems:
        ideals.add(frozenset((x * y).coords for y in elems))
    frontier = list(ideals)
    while frontier:
        new = []
        for s in frontier:
            for t in list(ideals):
                u = frozenset(
                    tuple((a + b) % o for a, b, o in zip(ca, cb, r.orders))
                    for ca in s for cb in t)
                if u not in ideals:
                    ideals.add(u)
                    new.append(u)
        frontier = new
    return ideals


def brute_maximal_ideals(r):
    """All maximal ideals: the maximal proper members of brute_ideals.
    Usable only for small rings."""
    full = frozenset(e.coords for e in r.elements())
    proper = [s for s in brute_ideals(r) if s != full]
    return {s for s in proper if not any(s < t for t in proper)}


def brute_is_local(r):
    """A finite commutative ring is local iff 0 and 1 are its only
    idempotents; checked over every element."""
    one = r.one()
    return all(x.is_zero() or x == one for x in r.elements() if x * x == x)


def brute_is_field(r):
    """Every nonzero element has an inverse; checked over every pair."""
    elems = list(r.elements())
    one = r.one()
    return all(any(x * y == one for y in elems)
               for x in elems if not x.is_zero())


def respan_kernel_holds(t):
    """The kernel check that placement replaced in SummandType: the
    differential rows, re-spanned whole in R^mu, give the stored kernel;
    each component's rows, restricted to its slots, span its key; and the
    component sizes multiply to |ker|."""
    from math import prod
    from amalgam.modules import submodule_span
    ring, mu = t.module.ring, len(t.gens)
    if submodule_span(ring, mu, t.syz_gens).basis != t.syz.basis:
        return False
    for slots, key in t.components:
        group = [tuple(row[s] for s in slots) for row in t.syz_gens
                 if any(not row[s].is_zero() for s in slots)]
        if submodule_span(ring, len(slots), group).basis != key:
            return False
    return prod(key.span_size() for _, key in t.components) == t.syz.size()


def dense_resolution(ring, target, max_ideal, depth):
    """Minimal resolution by the plain syzygy / Nakayama loop: no direct-sum
    split, no memo.  Returns (betti, verdict, periodic, kernel sizes)."""
    from amalgam.modules import CokernelSpec, minimal_generators, syzygy
    num, den = ((target.num, target.den) if isinstance(target, CokernelSpec)
                else (target, None))
    gens = minimal_generators(num, max_ideal, den=den)
    betti, kernels = [len(gens)], []
    while betti[-1] and len(kernels) < depth:
        syz = syzygy(ring, gens, den=den if not kernels else None)
        kernels.append(syz)
        gens = minimal_generators(syz, max_ideal, gens=syz.rows_as_vectors())
        betti.append(len(gens))
    verdict = (("exact", max(len(betti) - 2, 0)) if not betti[-1]
               else ("at_least", depth))
    seen, periodic = {}, None
    for i, syz in enumerate(kernels):
        key = (syz.p, syz.basis)
        if key in seen:
            periodic = (seen[key] + 1, i - seen[key])
            break
        seen[key] = i
    return betti, verdict, periodic, [syz.size() for syz in kernels]
