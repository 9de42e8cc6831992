"""Radical, idempotent and spectrum analysis of finite commutative rings.

The nilradical is computed without element enumeration: for every prime p
dividing the characteristic, the p-power map is additive on R/pR, so its
iterated kernel is a linear-algebra problem over Z/p; the nilradical is the
intersection of the preimages across primes.  Maximal ideals come from the
primitive idempotents of R/Nil(R), which is a product of finite fields; the
locality test is the count of those maximal ideals, so it enumerates only
R/Nil(R), never R.

Operations that genuinely enumerate elements (idempotents, units, the
semisimple quotient's idempotents) refuse to run past a configurable budget
instead of silently grinding.
"""

from math import lcm

from .znlinalg import ZnMatrix, kernel, span_builder
from .rings import (DEFAULT_MAX_ORDER, BudgetExceededError, FiniteRing,
                    RingConstructionError, RingHom)
from .abgroups import quotient_decomposition
from .modules import NotLocalError, ideal_span, syzygy


def prime_factors(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- quotient rings -----------------------------------------------------------

def quotient_ring(r, ideal):
    """The quotient R/I with its projection (the hom carries a section).

    The additive quotient is renormalized to a fresh cyclic basis; the
    tensor is transported along chosen lifts, which is well defined because
    I is an ideal.
    """
    if ideal.ring is not r:
        raise ValueError("ideal belongs to a different ring")
    rel_rows = [r.unscaled(row) for row in ideal.basis.rows]
    new_orders, project, lift_rows = quotient_decomposition(
        [list(row) for row in rel_rows], r.orders)
    if not new_orders:
        raise RingConstructionError("quotient by the unit ideal is the zero ring")
    lifts = [r.element(tuple(c % o for c, o in zip(row, r.orders)))
             for row in lift_rows]
    d = len(new_orders)
    tensor = []
    for i in range(d):
        row = []
        for j in range(d):
            prod_elem = lifts[i] * lifts[j]
            row.append(project(list(prod_elem.coords)))
        tensor.append(tuple(row))
    unit = project(list(r.unit))
    char = lcm(*new_orders)
    quo = FiniteRing(char, new_orders, tensor, unit,
                     labels=tuple(f"q{i}" for i in range(d)),
                     name=f"{r.name}/I")
    hom_rows = [project(list(r.basis_element(i).coords)) for i in range(r.rank)]
    pi = RingHom(r, quo, hom_rows, section=tuple(lifts))
    return quo, pi


def hom_preimage_ideal(pi, target_ideal, kernel_gens):
    """Preimage of an ideal of pi's target, given generators of ker(pi)."""
    src = pi.source
    lifts = pi.section
    gens = list(kernel_gens)
    for row in target_ideal.element_rows():
        lifted = src.zero()
        for c, w in zip(row.coords, lifts):
            if c:
                lifted = lifted + c * w
        gens.append(lifted)
    return ideal_span(src, gens)


# -- nilradical ---------------------------------------------------------------

def nilradical(r):
    """Ideal of nilpotents, by iterated p-power kernels on R/pR per prime."""
    n = r.char
    d = r.rank
    spans = []
    for p in prime_factors(n):
        alive = [i for i in range(d) if r.orders[i] % p == 0]
        dim = len(alive)
        k_iter = 0
        power = 1
        while power < dim:
            power *= p
            k_iter += 1
        k_iter = max(k_iter, 1)
        # matrix of x -> x^p on R/pR in the surviving coordinates
        rows = []
        for i in alive:
            img = r.basis_element(i) ** p
            rows.append([img.coords[j] % p for j in alive])
        frob = ZnMatrix.from_rows(p, rows, dim) if dim else None
        if dim:
            fk = frob
            for _ in range(k_iter - 1):
                fk = fk.mul(frob)
            ker = kernel(fk)
        builder = span_builder(n, d)
        if dim:
            for row in ker.rows:
                coords = [0] * d
                for idx, i in enumerate(alive):
                    coords[i] = row[idx] % r.orders[i]
                builder.insert(list(r.scaled(tuple(coords))))
        for i in range(d):
            coords = [0] * d
            coords[i] = p % r.orders[i]
            builder.insert(list(r.scaled(tuple(coords))))
        spans.append(builder.basis())
    basis = spans[0]
    for other in spans[1:]:
        basis = _span_intersection(n, basis, other)
    elems = [r.element(r.unscaled(row)) for row in basis.rows]
    return ideal_span(r, elems)


def _span_intersection(n, b1, b2):
    if not b1.rows:
        return b1
    if not b2.rows:
        return b2
    ambient = b1.ambient
    rows = [list(x) for x in b1.rows] + [list(x) for x in b2.rows]
    ker = kernel(ZnMatrix.from_rows(n, rows, ambient))
    out = span_builder(n, ambient)
    r1 = len(b1.rows)
    for row in ker.rows:
        vec = [0] * ambient
        for c, src in zip(row[:r1], b1.rows):
            if c:
                for i, e in enumerate(src):
                    vec[i] = (vec[i] + c * e) % n
        out.insert(vec)
    return out.basis()


# -- element-level analysis -----------------------------------------------------

def is_regular(x):
    """Non-zero-divisor test: the multiplication map has trivial kernel."""
    ann = syzygy(x.ring, [(x,)])
    return ann.size() == 1


def idempotents(r, budget=DEFAULT_MAX_ORDER):
    return [x for x in r.elements(budget) if (x * x) == x]


def units(r, budget=DEFAULT_MAX_ORDER):
    return [x for x in r.elements(budget) if is_regular(x)]


def is_nilpotent(x):
    """Direct nilpotency test by repeated squaring (used as an oracle)."""
    y = x
    for _ in range(x.ring.order().bit_length() + 1):
        if y.is_zero():
            return True
        y = y * y
    return y.is_zero()


# -- spectrum -------------------------------------------------------------------

def _primitive_idempotents(s, budget):
    """Minimal nonzero idempotents: e with e*f in {0, e} for every idempotent f."""
    nonzero = [e for e in idempotents(s, budget) if not e.is_zero()]
    prims = []
    for e in nonzero:
        if all((lambda pr: pr.is_zero() or pr == e)(e * f) for f in nonzero):
            prims.append(e)
    return prims


def _semisimple_maximal_ideals(s, budget):
    """Maximal ideals of a reduced finite commutative ring."""
    if s.order() <= budget:
        prims = _primitive_idempotents(s, budget)
        out = []
        for e in prims:
            out.append(ideal_span(s, [s.one() - e]))
        return out
    # CRT fallback: split along the prime powers of the characteristic
    factors = prime_factors(s.char)
    if len(factors) < 2:
        raise BudgetExceededError(
            f"ring of order {s.order()} exceeds the enumeration budget and "
            "has prime-power characteristic; cannot split further")
    out = []
    for p, e in factors.items():
        q = p ** e
        m1 = s.char // q
        c = (m1 * pow(m1, -1, q)) % s.char
        complement = s.from_int(1 - c)
        ker = ideal_span(s, [complement])
        s_q, pi_q = quotient_ring(s, ker)
        for mx in _semisimple_maximal_ideals(s_q, budget):
            out.append(hom_preimage_ideal(pi_q, mx, ker.element_rows()))
    return out


def maximal_ideals(r, budget=DEFAULT_MAX_ORDER):
    """The complete list of maximal ideals, canonically ordered."""
    nil = nilradical(r)
    if nil.size() == 1:
        semis = _semisimple_maximal_ideals(r, budget)
        result = semis
    else:
        s, pi = quotient_ring(r, nil)
        nil_gens = nil.element_rows()
        result = [hom_preimage_ideal(pi, mx, nil_gens)
                  for mx in _semisimple_maximal_ideals(s, budget)]
    return sorted(result, key=lambda ideal: ideal.basis.rows)


def is_local(r, budget=DEFAULT_MAX_ORDER):
    """(flag, maximal ideal or None).

    A characteristic with two prime factors already yields a nontrivial CRT
    idempotent, so such a ring is not local.  Otherwise the ring is local
    iff `maximal_ideals` finds exactly one maximal ideal; that enumerates
    only R/Nil(R), never R.
    """
    if len(prime_factors(r.char)) > 1:
        return False, None
    mx = maximal_ideals(r, budget)
    if len(mx) != 1:
        return False, None
    return True, mx[0]


def residue_field(r, budget=DEFAULT_MAX_ORDER):
    """Quotient by the maximal ideal, with the projection; verified a field."""
    local, mx = is_local(r, budget)
    if not local:
        raise NotLocalError(f"{r.name} is not local")
    field, pi = quotient_ring(r, mx)
    for x in field.elements(budget):
        if not x.is_zero() and not is_regular(x):
            raise RingConstructionError("residue quotient is not a field")
    return field, pi


def is_field(r, budget=DEFAULT_MAX_ORDER):
    local, mx = is_local(r, budget)
    return local and mx.size() == 1
