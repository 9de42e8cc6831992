"""Radical, idempotent and spectrum analysis of finite commutative rings.

The nilradical is computed without element enumeration: for every prime p
dividing the characteristic, the q-power map (q a power of p) is additive
on R/pR, and for q >= dim R/pR its kernel is Nil(R/pR): a linear-algebra
problem over Z/p whose matrix is read off the ring's own q-th powers of
its basis.  The nilradical is the intersection of the preimages S_p of
the Nil(R/pR).  Each S_p contains pR, hence the CRT parts of R at the
other primes, so that intersection is the sum of the c_p * S_p, c_p the
CRT idempotent of p's prime power p^e.  That sum is one span of every
S_p generator times N/p^e, which spans what c_p does: it is c_p times a
unit mod p^e.  It is cached on the ring.

Locality is one rank over F_p.  A characteristic with two prime factors
splits R by CRT.  Otherwise the characteristic is p^k, p lies in Nil(R),
and R/Nil(R) is a reduced F_p-algebra, i.e. a product of finite fields.
Frobenius x -> x^p is F_p-linear on it and fixes exactly one copy of F_p
in each factor, so the number of maximal ideals is dim ker(Frob - I) on
R/Nil(R) (Berlekamp 1967).  R is local iff that kernel is a line, and then
Nil(R) is its maximal ideal, so neither R nor R/Nil(R) is enumerated, and
the residue field R/Nil(R) needs no check: a reduced local finite ring is
a field.

Operations that genuinely enumerate elements (idempotents, the
maximal ideals of a ring that is not local) refuse to run past a
configurable budget instead of silently grinding.
"""

from .znlinalg import ZnMatrix, howell_from_rows, kernel, span_builder
from .rings import (DEFAULT_MAX_ORDER, BudgetExceededError,
                    RingConstructionError, RingHom, derived_ring)
from .abgroups import quotient_decomposition
from .modules import Ideal, additive_ideal, ideal_span


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
    new_orders, project, lifts = quotient_decomposition(
        [r.unscaled(row) for row in ideal.basis.rows], r.orders)
    if not new_orders:
        raise RingConstructionError("quotient by the unit ideal is the zero ring")
    quo = derived_ring(r, new_orders, lifts, project, "q", f"{r.name}/I")
    hom_rows = [project(r.basis_element(i).coords) for i in range(r.rank)]
    pi = RingHom(r, quo, hom_rows,
                 section=tuple(r.element(x) for x in lifts))
    return quo, pi


def hom_preimage_ideal(pi, target_ideal, kernel_gens):
    """Preimage of an ideal of pi's target, spanned additively by
    kernel_gens, which must generate ker(pi) additively (as an ideal's
    rows do), and the lifts of the target ideal's rows."""
    src = pi.source
    lifts = [sum((c * w for c, w in zip(row.coords, pi.section) if c), src.zero())
             for row in target_ideal.element_rows()]
    return additive_ideal(src, list(kernel_gens) + lifts)


# -- nilradical ---------------------------------------------------------------

def _frobenius(r, q):
    """The coordinates of b_i^q for every basis element, cached on the ring
    by the exponent."""
    images = r._cache.get(("frobenius", q))
    if images is None:
        images = r._cache[("frobenius", q)] = tuple(
            (r.basis_element(i) ** q).coords for i in range(r.rank))
    return images


def nilradical(r):
    """Ideal of nilpotents, by iterated p-power kernels on R/pR per prime.

    The basis is cached on the ring (a basis holds no reference to it).
    """
    basis = r._cache.get("nilradical")
    if basis is None:
        basis = r._cache["nilradical"] = _nilradical_basis(r)
    return Ideal(r, 1, basis)


def _nilradical_basis(r):
    n = r.char
    d = r.rank
    builder = span_builder(n, d)
    for p, e in prime_factors(n).items():
        # R/pR lives on the coordinates whose order p divides; x -> x^q
        # kills its nilpotents once q >= dim R/pR (and q >= p)
        alive = [i for i in range(d) if r.orders[i] % p == 0]
        q = p
        while q < len(alive):
            q *= p
        images = _frobenius(r, q)
        ker = kernel(ZnMatrix.from_rows(
            p, [[images[i][j] for j in alive] for i in alive], len(alive)))
        # S_p is spanned by the kernel's lifts and pR (see the module
        # docstring for the sum)
        cofactor = n // p ** e
        gens = []
        for row in ker.rows:
            coords = [0] * d
            for idx, i in enumerate(alive):
                coords[i] = row[idx] % r.orders[i]
            gens.append(coords)
        for i in range(d):
            coords = [0] * d
            coords[i] = p % r.orders[i]
            gens.append(coords)
        for coords in gens:
            builder.insert([cofactor * x % n for x in r.scaled(tuple(coords))])
    return builder.basis()


# -- element-level analysis -----------------------------------------------------

def idempotents(r, budget=DEFAULT_MAX_ORDER):
    return [x for x in r.elements(budget) if (x * x) == x]


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
    """The complete list of maximal ideals, canonically ordered.

    A local ring's is Nil(R); otherwise R/Nil(R) is enumerated (or split
    by CRT) under the budget.
    """
    local, mx = is_local(r)
    if local:
        return [mx]
    nil = nilradical(r)
    if nil.size() == 1:
        result = _semisimple_maximal_ideals(r, budget)
    else:
        s, pi = quotient_ring(r, nil)
        nil_gens = nil.element_rows()
        result = [hom_preimage_ideal(pi, mx, nil_gens)
                  for mx in _semisimple_maximal_ideals(s, budget)]
    return sorted(result, key=lambda ideal: ideal.basis.rows)


def is_local(r):
    """(flag, maximal ideal or None), without enumerating anything.

    A local ring's maximal ideal is Nil(R).  The flag is cached on the
    ring, as the nilradical's basis is (a flag holds no reference to it).
    """
    local = r._cache.get("local")
    if local is None:
        local = r._cache["local"] = _is_local(r)
    return (True, nilradical(r)) if local else (False, None)


def _is_local(r):
    """A characteristic with two prime factors yields a nontrivial CRT
    idempotent, so such a ring is not local.  For characteristic p^k,
    with N the rows of Nil(R) mod p and R/pR = F_p^d, the Frobenius-fixed
    part of R/Nil(R) has dimension d - rank [N ; b_i^p - b_i mod p] (see
    the module docstring); R is local iff it is 1.
    """
    factors = prime_factors(r.char)
    if len(factors) > 1:
        return False
    (p,) = factors
    d = r.rank
    nil = nilradical(r)
    rows = [[c % p for c in r.unscaled(row)] for row in nil.basis.rows]
    for i, img in enumerate(_frobenius(r, p)):
        rows.append([(c - (k == i)) % p for k, c in enumerate(img)])
    return d - len(howell_from_rows(p, rows, d).rows) == 1
