"""Finitely presented modules over a FiniteRing: spans, syzygies, resolutions.

A vector in R^p is a tuple of p ring elements; its scaled coordinate image
lives in (Z/N)^(p*d) where d is the ring rank.  Submodules are stored as the
canonical Howell basis of that scaled image, which makes "same submodule"
a structural comparison.

Over a local ring the engine produces minimal free resolutions as direct
sums.  The target gets its Nakayama generators and their syzygy; from then
on every syzygy is split by union-find over the slot supports of its
Nakayama generators.  Groups with disjoint supports span a direct sum, and
the generators of a direct sum are the union of each summand's, so the
split is exact, and a minimal resolution of a direct sum is the sum of the
summands' minimal resolutions (Avramov, Infinite free resolutions, 1998).
Each connected component, restricted to its slots, is a summand type keyed
by its canonical Howell basis.  A type is resolved once; a step carries
only type multiplicities, with betti = sum mult(T) * mu(T) and the next
multiplicities sum mult(T) * children(T).  The Betti numbers of the
paper-scale instances grow geometrically, while the number of types stays
at a handful.  The types live in a TypeTable for one ring and maximal
ideal, which several resolutions may share so that each type is resolved
once between them.  Tests compare the engine with the plain
syzygy/Nakayama loop on small inputs.
"""

from collections import Counter
from math import prod

from .znlinalg import (HowellBasis, ZnMatrix, howell_from_rows, kernel,
                       span_builder)
from .rings import RingElement

DEFAULT_DEPTH = 8


class NotLocalError(ValueError):
    pass


# -- vector plumbing ---------------------------------------------------------

def vector_from_coords(ring, p, flat_coords):
    """Build a vector in R^p from p*d abstract coordinates."""
    d = ring.rank
    if len(flat_coords) != p * d:
        raise ValueError(f"expected {p * d} coordinates")
    return tuple(ring.element(flat_coords[k * d:(k + 1) * d]) for k in range(p))


def _flat_scaled_coords(ring, slots):
    """Scaled image of a vector given as p coordinate tuples."""
    out = []
    for x in slots:
        out.extend(ring.scaled(x))
    return out


def flat_scaled(ring, vec):
    return _flat_scaled_coords(ring, [e.coords for e in vec])


def _coord_slots(ring, p, flat):
    """The p coordinate tuples of a scaled flat row."""
    d = ring.rank
    return [ring.unscaled(flat[k * d:(k + 1) * d]) for k in range(p)]


def unflatten_scaled(ring, p, flat):
    return tuple(RingElement(ring, x) for x in _coord_slots(ring, p, flat))


def vector_scale(x, vec):
    """x * vec for a ring element x; zero entries stay untouched."""
    return tuple(x * e if any(e.coords) else e for e in vec)


def vector_is_zero(vec):
    return all(e.is_zero() for e in vec)


def basis_action_rows(ring, vec):
    """Scaled images of (basis_j * vec) for every ring basis element j.

    b_j * x is read off row j of the compiled tensor, sum_l x_l (b_j b_l),
    and scaled in the same pass: (a mod o_k) * s_k = a * s_k mod N.
    """
    n, d, scale = ring.char, ring.rank, ring.scale
    slots = [e.coords for e in vec]
    zero = [0] * d
    rows = []
    for products in ring.sparse_tensor():
        flat = []
        for x in slots:
            if not any(x):
                flat.extend(zero)
                continue
            acc = [0] * d
            for l, prod_l in products:
                xl = x[l]
                if xl:
                    for k, c in prod_l:
                        acc[k] += xl * c
            flat.extend([a * s % n for a, s in zip(acc, scale)])
        rows.append(flat)
    return rows


# -- submodules ---------------------------------------------------------------

class Submodule:
    """R-submodule of R^p as a canonical Howell basis of its scaled image.

    generators defaults to the basis rows, boxed as ring elements only when
    first asked for.
    """

    __slots__ = ("ring", "p", "basis", "_generators")

    def __init__(self, ring, p, basis, generators=None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_generators",
                           None if generators is None else tuple(generators))

    def __setattr__(self, *a):
        raise AttributeError("Submodule is immutable")

    @property
    def generators(self):
        if self._generators is None:
            object.__setattr__(self, "_generators", tuple(self.rows_as_vectors()))
        return self._generators

    @classmethod
    def from_gens(cls, ring, p, gens):
        b = span_builder(ring.char, p * ring.rank)
        gens = tuple(tuple(v) for v in gens)
        for g in gens:
            if len(g) != p:
                raise ValueError(f"generator has {len(g)} slots, expected {p}")
            for row in basis_action_rows(ring, g):
                b.insert(row)
        return cls(ring, p, b.basis(), gens)

    def size(self):
        return self.basis.span_size()

    def is_zero(self):
        return not self.basis.rows

    def contains_vector(self, vec):
        return self.basis.contains(flat_scaled(self.ring, vec))

    def contains_submodule(self, other):
        return all(self.basis.contains(list(r)) for r in other.basis.rows)

    def rows_as_vectors(self):
        return [unflatten_scaled(self.ring, self.p, row) for row in self.basis.rows]

    def random_element(self, rng):
        n = self.ring.char
        flat = [0] * (self.p * self.ring.rank)
        for row in self.basis.rows:
            c = rng.randrange(n)
            if c:
                for i, e in enumerate(row):
                    flat[i] = (flat[i] + c * e) % n
        return unflatten_scaled(self.ring, self.p, flat)

    def __eq__(self, other):
        if not isinstance(other, Submodule):
            return NotImplemented
        return (self.ring is other.ring and self.p == other.p
                and self.basis == other.basis)

    def __hash__(self):
        return hash((id(self.ring), self.p, self.basis))

    def __repr__(self):
        return (f"Submodule({self.ring.name}^{self.p}, "
                f"size {self.size()}, {len(self.basis.rows)} rows)")


class Ideal(Submodule):
    """Submodule of R^1, with element-level conveniences."""

    @classmethod
    def from_elements(cls, ring, elems):
        sub = Submodule.from_gens(ring, 1, [(e,) for e in elems])
        return cls(ring, 1, sub.basis, sub.generators)

    def contains_element(self, x):
        return self.basis.contains(list(self.ring.scaled(x.coords)))

    def element_rows(self):
        return [row[0] for row in self.rows_as_vectors()]

    def generator_elements(self):
        return [g[0] for g in self.generators]

    def is_proper(self):
        return self.size() < self.ring.order()

    def random_ring_element(self, rng):
        return self.random_element(rng)[0]


def submodule_span(ring, p, gens):
    """Smallest R-submodule of R^p containing the generators."""
    return Submodule.from_gens(ring, p, gens)


def ideal_span(ring, elems):
    return Ideal.from_elements(ring, elems)


def ideal_sum(a, b):
    """The ideal a + b.  It is the additive span of a and b, so its basis
    is the Howell form of their two bases' rows."""
    ring = a.ring
    if b.ring is not ring:
        raise ValueError("ideals belong to different rings")
    return Ideal(ring, 1, howell_from_rows(ring.char, a.basis.rows + b.basis.rows,
                                           ring.rank))


def zero_ideal(ring):
    return Ideal.from_elements(ring, [])


def module_equal(a, b):
    return (a.ring is b.ring) and a.p == b.p and a.basis == b.basis


# -- syzygies -----------------------------------------------------------------

def _evaluation_rows(ring, gens):
    """Rows sigma(b_j * g_i), indexed (i major, j minor)."""
    rows = []
    for g in gens:
        rows.extend(basis_action_rows(ring, g))
    return rows


def syzygy(ring, gens, den=None):
    """All (a_1..a_r) in R^r with sum a_i g_i = 0 (or in den, if given).

    Unknown coordinates are taken modulo the basis orders: a relation in
    abstract coordinates y (one block of d per generator) satisfies
    sum y_ij sigma(b_j g_i) = 0, so the left kernel of the stacked action
    rows gives every syzygy after rescaling the blocks back into carrier
    coordinates.
    """
    gens = [tuple(g) for g in gens]
    r = len(gens)
    if r == 0:
        return Submodule(ring, 0, HowellBasis(ring.char, 0, []))
    p = len(gens[0])
    n = ring.char
    d = ring.rank
    rows = _evaluation_rows(ring, gens)
    if den is not None:
        if den.p != p:
            raise ValueError("denominator lives in a different ambient rank")
        rows = rows + [list(row) for row in den.basis.rows]
    m = ZnMatrix.from_rows(n, rows, p * d)
    ker = kernel(m)
    scale = ring.scale
    out = span_builder(n, r * d)
    for row in ker.rows:
        vec = [(row[k] * scale[k % d]) % n for k in range(r * d)]
        out.insert(vec)
    return Submodule(ring, r, out.basis())


# -- Nakayama minimal generators ----------------------------------------------

def minimal_generators(sub, max_ideal, gens=None, den=None):
    """Greedy Nakayama selection of a minimal generating subset.

    A candidate is redundant iff it lies in span(chosen) + M*X (+ den for
    quotient targets); the greedy filter in input order therefore returns a
    subset whose residue classes form a basis of X/(MX + den), so its size
    is the Betti number and is independent of the scan order.
    """
    ring = sub.ring
    if gens is None:
        gens = sub.generators
    gens = [tuple(g) for g in gens]
    b = span_builder(ring.char, sub.p * ring.rank)
    if den is not None:
        for row in den.basis.rows:
            b.insert(list(row))
    # M*X is spanned by m*x over the rows of M and X; it is zero (and
    # nothing is inserted) exactly when M annihilates X
    x_rows = [_coord_slots(ring, sub.p, row) for row in sub.basis.rows]
    for row in max_ideal.basis.rows:
        m = ring.unscaled(row)
        for x in x_rows:
            prod_slots = [ring.mul_coords(m, e) for e in x]
            if any(map(any, prod_slots)):
                b.insert(_flat_scaled_coords(ring, prod_slots))
    chosen = []
    for g in gens:
        if vector_is_zero(g):
            continue
        if b.contains(flat_scaled(ring, g)):
            continue
        chosen.append(g)
        for row in basis_action_rows(ring, g):
            b.insert(row)
    return chosen


def select_generators(sub, local, max_ideal):
    """A generating subset of sub.generators, in their order.

    Over a local ring it is the Nakayama selection, of minimal size.
    Otherwise it is the same greedy scan with M = 0, an irredundant subset
    whose size only bounds the generating number from above.
    """
    return minimal_generators(sub, max_ideal if local else zero_ideal(sub.ring))


# -- resolutions ---------------------------------------------------------------

class CokernelSpec:
    """Presentation of num/den for resolution targets."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if num.ring is not den.ring or num.p != den.p:
            raise ValueError("numerator and denominator must share an ambient module")
        if not num.contains_submodule(den):
            raise ValueError("denominator is not contained in the numerator")
        self.num = num
        self.den = den


def module_quotient_presentation(ring, num, den):
    return CokernelSpec(num, den)


class SummandType:
    """One summand of a syzygy module, resolved once however often it occurs.

    module is a submodule of R^k (k = module.p) and key its canonical Howell
    basis (None for a resolution target); gens are its Nakayama generators,
    so mu = len(gens) is its contribution to the next Betti number.
    resolve() fills in syz, the syzygy of gens inside R^mu (taken modulo den
    for the resolution target), syz_gens, the Nakayama generators of syz
    (the rows of the next differential), components, the connected slot
    components of syz_gens as (slots, child key), and children, the Counter
    of child keys.  Children are named by key, never by object, so the type
    graph, self-loops included, holds no reference cycle.
    """

    __slots__ = ("key", "module", "gens", "den", "syz", "syz_gens",
                 "components", "children")

    def __init__(self, module, gens, den=None, key=None):
        self.key = key
        self.module = module
        self.gens = tuple(gens)
        self.den = den
        self.syz = self.syz_gens = self.components = self.children = None

    def resolve(self, table):
        ring = self.module.ring
        self.syz = syzygy(ring, self.gens, den=self.den)
        self.syz_gens = minimal_generators(self.syz, table.max_ideal)
        self.components = [(slots, table.key_of(len(slots), group))
                           for slots, group in _slot_components(self.syz_gens)]
        self.children = Counter(key for _, key in self.components)

    def issues(self, max_ideal, where, cover):
        """Violations of the type's own data (see Resolution.validate)."""
        ring = self.module.ring
        mu = len(self.gens)
        span_gens = list(self.gens)
        if self.den is not None:
            span_gens += self.den.rows_as_vectors()
        bad = []
        if self.key is not None and self.module.basis != self.key:
            bad.append(f"{where}: the module is not the one its key names")
        if submodule_span(ring, self.module.p, span_gens).basis != self.module.basis:
            bad.append(f"{where}: generators do not span the module")
        if self.syz is None:
            return bad
        for row in self.syz_gens:
            image = _combine(ring, row, self.gens, self.module.p)
            if any(image) and (self.den is None
                               or not self.den.basis.contains(image)):
                bad.append(f"{where}: d o d != 0")
                break
        if not all(max_ideal.contains_element(e)
                   for row in self.syz_gens for e in row if not e.is_zero()):
            bad.append(f"{where}: a differential entry lies outside the maximal ideal")
        if submodule_span(ring, mu, self.syz_gens).basis != self.syz.basis:
            bad.append(f"{where}: the differential rows do not span the kernel")
        image_size = self.module.size()
        if self.den is not None:
            image_size //= self.den.size()
        if self.syz.size() * image_size != ring.order() ** mu:
            bad.append(f"{where}: cardinality bookkeeping fails")
        return bad + self._split_issues(where, cover)

    def _split_issues(self, where, cover):
        ring = self.module.ring
        mu = len(self.gens)
        owner = {}
        for n, (slots, _) in enumerate(self.components):
            for s in slots:
                if s in owner or not 0 <= s < mu:
                    return [f"{where}: component slots overlap or fall outside R^{mu}"]
                owner[s] = n
        if cover and len(owner) != mu:
            return [f"{where}: components do not cover R^{mu}"]
        groups = [[] for _ in self.components]
        for row in self.syz_gens:
            support = {s for s, e in enumerate(row) if not e.is_zero()}
            homes = {owner.get(s) for s in support}
            if len(homes) != 1 or None in homes:
                return [f"{where}: a kernel generator straddles components"]
            groups[homes.pop()].append(row)
        for (slots, key), group in zip(self.components, groups):
            restricted = [tuple(row[s] for s in slots) for row in group]
            if submodule_span(ring, len(slots), restricted).basis != key:
                return [f"{where}: a component does not span its summand type"]
        if prod(key.span_size() for _, key in self.components) != self.syz.size():
            return [f"{where}: the components do not sum to the kernel"]
        if self.children != Counter(key for _, key in self.components):
            return [f"{where}: child multiplicities disagree with the components"]
        return []


def _combine(ring, coeffs, gens, p):
    """Scaled image of sum coeffs[i] * gens[i] in R^p."""
    n = ring.char
    acc = [0] * (p * ring.rank)
    for c, g in zip(coeffs, gens):
        if any(c.coords):
            term = _flat_scaled_coords(
                ring, [ring.mul_coords(c.coords, e.coords) for e in g])
            for i, v in enumerate(term):
                acc[i] += v
    return [v % n for v in acc]


def _slot_components(gens):
    """Group nonzero vectors whose slot supports overlap, transitively.

    Returns [(slots, restricted vectors)] with slots sorted; groups with
    disjoint supports span a direct sum, and the generators of a direct
    sum are the union of each summand's.
    """
    owner = {}

    def find(s):
        while owner.setdefault(s, s) != s:
            owner[s] = owner[owner[s]]
            s = owner[s]
        return s

    supports = [[s for s, e in enumerate(g) if not e.is_zero()] for g in gens]
    for support in supports:
        for s in support:
            owner[find(s)] = find(support[0])
    groups = {}
    for g, support in zip(gens, supports):
        groups.setdefault(find(support[0]), []).append(g)
    members = {}
    for s in sorted(owner):
        members.setdefault(find(s), []).append(s)
    return [(tuple(members[root]), [tuple(g[s] for s in members[root]) for g in group])
            for root, group in groups.items()]


class TypeTable:
    """The summand types over one ring and one maximal ideal.

    types maps a canonical Howell basis to the SummandType of that
    submodule of R^k.  A type's data depends only on its key, so every
    resolution over the same ring and maximal ideal may share one table
    and resolve each type once.  AmalgamObjects owns one for its ring for
    as long as the bundle lives, pd_profile one for its ideal loop, and
    minimal_resolution makes a fresh one, dropped with the call, when
    handed none.  Types name their children by key, so a table is freed
    with its owner by reference counting.
    """

    __slots__ = ("ring", "max_ideal", "types")

    def __init__(self, ring, max_ideal):
        self.ring = ring
        self.max_ideal = max_ideal
        self.types = {}

    def key_of(self, k, vectors):
        """The key of span(vectors) in R^k, filing a new type on first sight."""
        module = submodule_span(self.ring, k, vectors)
        t = self.types.get(module.basis)
        if t is None:
            gens = minimal_generators(module, self.max_ideal,
                                      gens=module.rows_as_vectors())
            t = self.types[module.basis] = SummandType(module, gens,
                                                       key=module.basis)
        return t.key


class Resolution:
    """Minimal free resolution as a direct sum of summand types.

    root is the target as a SummandType (modulo den); multiplicities[i] is
    the Counter of summand-type keys of the (i+1)-st syzygy, so betti[i+1]
    is the sum of mult * mu over it; types holds the types this resolution
    reaches, in order of first reach, not the whole table it ran on.
    structure[i] is "generic" when step i+1 resolved a type, the target or
    one no earlier resolution on the table had resolved, and "memo" when
    every type was already known.  verdict is ("exact", k) when the
    resolution terminated with betti_{k+1} = 0, else ("at_least", depth);
    periodic is (first step, period) of the first syzygy module that
    repeats, or None.
    """

    __slots__ = ("ring", "max_ideal", "betti", "root", "types",
                 "multiplicities", "structure", "verdict", "periodic")

    def __init__(self, **kw):
        for k, v in kw.items():
            object.__setattr__(self, k, v)

    def __setattr__(self, *a):
        raise AttributeError("Resolution is immutable")

    def __repr__(self):
        kind, val = self.verdict
        v = f"pd={val}" if kind == "exact" else f"pd>={val}"
        return f"Resolution(betti={list(self.betti)}, {v})"

    # -- validity -------------------------------------------------------------

    def validate(self):
        """Re-check the resolution type by type; returns the violations.

        For the target and for every reached summand type T, once: T's
        module is the one its key names, the generators span T (modulo
        den), every kernel generator composes with them to 0 (complex), has
        its entries in M (minimality) and together they span the stored
        kernel (exactness), with |ker| * |T| = |R|^mu (cardinality).  The
        kernel splits exactly: component slots are disjoint (and cover R^mu
        below the target), each component spans its key and the component
        sizes multiply to |ker|.  Last, the multiplicities and Betti numbers
        are recomputed from the children.
        """
        mx = self.max_ideal
        bad = self.root.issues(mx, "target", cover=False)
        for n, t in enumerate(self.types):
            bad += t.issues(mx, f"type {n}", cover=True)
        if len(self.root.gens) != self.betti[0]:
            bad.append("betti_0 is not the number of target generators")
        lookup = {t.key: t for t in self.types}
        lookup[None] = self.root
        mult = Counter({None: 1})
        for i, stored in enumerate(self.multiplicities):
            if any(lookup[k].children is None for k in mult):
                bad.append(f"step {i + 1} reaches an unresolved type")
                break
            mult = _next_multiplicities(mult, lookup)
            if mult != stored:
                bad.append(f"multiplicities disagree with the children at step {i + 1}")
            if any(k not in lookup for k in mult):
                bad.append(f"step {i + 1} reaches a type outside the resolution")
                break
            if _betti(mult, lookup) != self.betti[i + 1]:
                bad.append(f"betti_{i + 1} disagrees with the multiplicities")
        return bad


def _next_multiplicities(mult, lookup):
    out = Counter()
    for k, m in mult.items():
        for c, n in lookup[k].children.items():
            out[c] += m * n
    return out


def _betti(mult, lookup):
    return sum(m * len(lookup[k].gens) for k, m in mult.items())


def minimal_resolution(ring, target, max_ideal, depth=DEFAULT_DEPTH, table=None):
    """Minimal free resolution data of the target module to the given depth.

    target is a Submodule or a CokernelSpec; max_ideal must be the maximal
    ideal of the (local) ring.  Summand types are resolved on table, a
    TypeTable for this ring and maximal ideal that the caller shares
    between resolutions; with none, a fresh one serves this call only, and
    a table for another ring or maximal ideal raises ValueError.  The
    result is the same whichever table it ran on.  Deterministic for a
    fixed generator order.
    """
    if depth < 0:
        raise ValueError(f"resolution depth must be non-negative, got {depth}")
    if table is None:
        table = TypeTable(ring, max_ideal)
    elif table.ring is not ring:
        raise ValueError(f"type table is over {table.ring.name}, not {ring.name}")
    elif not module_equal(max_ideal, table.max_ideal):
        raise ValueError("type table is for another maximal ideal")
    if isinstance(target, CokernelSpec):
        num, den = target.num, target.den
    else:
        num, den = target, None
    root = SummandType(num, minimal_generators(num, max_ideal, den=den), den)
    reached = {None: root}  # the target under None, then each type reached
    mult = Counter({None: 1})
    betti = [len(root.gens)]
    multiplicities = []
    structure = []
    while betti[-1] and len(multiplicities) < depth:
        fresh = [reached[k] for k in mult if reached[k].children is None]
        for t in fresh:
            t.resolve(table)
        structure.append("generic" if fresh else "memo")
        mult = _next_multiplicities(mult, reached)
        for k in mult:
            if k not in reached:
                reached[k] = table.types[k]
        multiplicities.append(mult)
        betti.append(_betti(mult, reached))
    if betti[-1]:
        verdict = ("at_least", depth)
    else:
        verdict = ("exact", max(len(betti) - 2, 0))
    del reached[None]
    return Resolution(ring=ring, max_ideal=max_ideal, betti=tuple(betti),
                      root=root, types=tuple(reached.values()),
                      multiplicities=tuple(multiplicities),
                      structure=tuple(structure), verdict=verdict,
                      periodic=_detect_period(ring, betti, root,
                                              multiplicities, reached))


def _detect_period(ring, betti, root, multiplicities, types):
    """(first step, period) of the first repeated syzygy module, or None.

    Equal syzygies have equal Betti ranks and equal type multiplicities, so
    those are compared first; only on a match are the modules themselves
    compared, as the set of their components placed in the ambient free
    module.  The placement follows the order of the Nakayama generators,
    which is the order of their Howell pivots.  types maps each reached
    key to its type.
    """
    coarse = [(b, frozenset(m.items())) for b, m in zip(betti, multiplicities)]
    if _first_repeat(coarse) is None:
        return None
    d = ring.rank
    placed = root.components
    keys = []
    for b in betti[:len(multiplicities)]:
        keys.append((b, frozenset((key, slots) for slots, key in placed)))
        if len(keys) == len(multiplicities):
            break
        order = sorted((slots[j // d] * d + j % d, n, g)
                       for n, (slots, key) in enumerate(placed)
                       for g, j in enumerate(_pivots(types[key].gens)))
        pos = {(n, g): i for i, (_, n, g) in enumerate(order)}
        placed = [(tuple(pos[n, s] for s in sub), child)
                  for n, (_, key) in enumerate(placed)
                  for sub, child in types[key].components]
    return _first_repeat(keys)


def _pivots(gens):
    """Coordinate index of the first nonzero coordinate of each vector."""
    return [next(s * len(e.coords) + j for s, e in enumerate(g)
                 for j, x in enumerate(e.coords) if x) for g in gens]


def _first_repeat(keys):
    seen = {}
    for i, key in enumerate(keys):
        if key in seen:
            return (seen[key] + 1, i - seen[key])
        seen[key] = i
    return None


def pd_report(ring, target, max_ideal, depth=DEFAULT_DEPTH):
    """Projective-dimension verdict: ("exact", k) or ("at_least", depth).

    "at_least" is an honest lower bound, never upgraded to infinity; use
    minimal_resolution for the full Betti data.
    """
    res = minimal_resolution(ring, target, max_ideal, depth)
    return res.verdict


def is_projective(ring, target, max_ideal):
    """Projective = free over a local ring, decided by counting.

    With mu the number of Nakayama generators, R^mu -> M is onto, so M is
    free iff that map is a bijection, i.e. iff |M| = |R|^mu; no
    resolution is run.  target is a Submodule or a CokernelSpec.
    """
    if isinstance(target, CokernelSpec):
        num, den = target.num, target.den
        size = num.size() // den.size()
    else:
        num, den, size = target, None, target.size()
    mu = len(minimal_generators(num, max_ideal, den=den))
    return size == ring.order() ** mu


def residue_field_target(ring, max_ideal):
    """Cokernel spec of R/M, the residue field as an R-module."""
    num = submodule_span(ring, 1, [(ring.one(),)])
    den = Submodule(ring, 1, max_ideal.basis, max_ideal.generators)
    return CokernelSpec(num, den)


def global_dimension_signature(ring, max_ideal, depth=DEFAULT_DEPTH):
    """pd verdict of the residue field (= global dimension for local rings)."""
    return minimal_resolution(ring, residue_field_target(ring, max_ideal),
                              max_ideal, depth)
