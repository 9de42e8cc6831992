"""Finite commutative rings as structure constants over cyclic coordinates.

A ring is carried by an additive group  Z/o_0 + ... + Z/o_{d-1}  with every
order o_i dividing the characteristic N (for a ring, the additive exponent
always equals the additive order of 1, so N is both).  Multiplication is a
tensor giving the product of any two basis elements in coordinates.

Coordinates with mixed orders embed into the free module (Z/N)^d by scaling
coordinate i with N/o_i; the image is a Z/N-submodule, so all span, kernel
and canonical-form questions delegate to the Howell machinery in znlinalg.
The scaled picture is used pervasively by the module/ideal layer.

Plain rings whose additive group happens to be free (all o_i = N) are just
the special case orders = (N, ..., N).

Products run on the compiled (sparse) form of the tensor: for each basis
element i, only the pairs (j, b_i * b_j) with a nonzero product, each
product listed by its nonzero coordinates.  It is built from the stored
tensor on first use and costs O(d^2 + nnz) per ring; a RingHom likewise
keeps the nonzero entries of its matrix rows.  Hot loops here, in the
module layer and in the power isomorphism check work on plain coordinate
tuples and box only at the boundary: a RingElement is built only where a
caller receives one.
"""

from itertools import product as iproduct
from math import lcm, prod

from .znlinalg import MAX_MODULUS

DEFAULT_MAX_ORDER = 1 << 16


class RingConstructionError(ValueError):
    pass


class HomomorphismError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """An enumeration-backed operation refused to run past its cap."""


class FiniteRing:
    """Immutable finite commutative ring given by structure constants.

    tensor[i][j] is the coordinate vector of (basis i) * (basis j); unit is
    the coordinate vector of 1.  Invariants (commutativity, associativity,
    unit law, order compatibility) are checked by verify_ring; constructors
    in this package always produce verified rings.
    """

    __slots__ = ("char", "rank", "orders", "labels", "tensor", "unit",
                 "name", "scale", "_cache", "__weakref__")

    def __init__(self, char, orders, tensor, unit, labels=None, name="R"):
        if char < 2 or char > MAX_MODULUS:
            raise RingConstructionError(f"characteristic {char} out of range")
        orders = tuple(int(o) for o in orders)
        d = len(orders)
        if d == 0:
            raise RingConstructionError("zero ring is not allowed")
        for o in orders:
            if o < 2 or char % o:
                raise RingConstructionError(f"basis order {o} must divide {char}")
        if lcm(*orders) != char:
            raise RingConstructionError("characteristic must equal the additive exponent")
        if len(tensor) != d or any(len(row) != d or any(len(vec) != d
                                                        for vec in row)
                                   for row in tensor):
            raise RingConstructionError(
                f"tensor must be {d} x {d} vectors of {d} coordinates")
        if len(unit) != d:
            raise RingConstructionError(f"unit must have {d} coordinates")
        # ring_from_products stores each product once under (i, j) and
        # (j, i); such a shared vector is reduced once
        reduced = [[None] * d for _ in range(d)]
        for i, row in enumerate(tensor):
            for j, vec in enumerate(row):
                if j < i and vec is tensor[j][i]:
                    reduced[i][j] = reduced[j][i]
                else:
                    reduced[i][j] = tuple([c % o for c, o in zip(vec, orders)])
        tensor = tuple(tuple(row) for row in reduced)
        unit = tuple(u % o for u, o in zip(unit, orders))
        if labels is None:
            labels = tuple(f"b{i}" for i in range(d))
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "rank", d)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "scale", tuple(char // o for o in orders))
        object.__setattr__(self, "_cache", {"unit_scale": all(char == o for o in orders)})

    def __setattr__(self, *a):
        raise AttributeError("FiniteRing is immutable")

    def __repr__(self):
        return f"FiniteRing({self.name}, order {self.order()})"

    def order(self):
        return prod(self.orders)

    # -- element plumbing ---------------------------------------------------

    def element(self, coords):
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} coordinates, got {len(coords)}")
        return RingElement(self, tuple(c % o
                                       for c, o in zip(coords, self.orders)))

    def zero(self):
        return RingElement(self, (0,) * self.rank)

    def one(self):
        return RingElement(self, self.unit)

    def basis_element(self, i):
        return RingElement(self, tuple(1 if k == i else 0 for k in range(self.rank)))

    def from_int(self, n):
        """The image of the integer n, i.e. n * 1."""
        return self.element(tuple((n * u) % o for u, o in zip(self.unit, self.orders)))

    def elements(self, budget=DEFAULT_MAX_ORDER):
        if self.order() > budget:
            raise BudgetExceededError(
                f"ring of order {self.order()} exceeds enumeration budget {budget}")
        for coords in iproduct(*[range(o) for o in self.orders]):
            yield RingElement(self, coords)

    def add_coords(self, x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def sparse_tensor(self):
        """The compiled tensor: row i holds (j, ((k, c), ...)) for every j
        with b_i * b_j != 0, listing the nonzero coordinates c at k."""
        terms = self._cache.get("sparse_tensor")
        if terms is None:
            terms = self._cache["sparse_tensor"] = tuple(
                tuple((j, tuple((k, c) for k, c in enumerate(vec) if c))
                      for j, vec in enumerate(row) if any(vec))
                for row in self.tensor)
        return terms

    def mul_coords(self, x, y):
        acc = [0] * self.rank
        for xi, row in zip(x, self.sparse_tensor()):
            if xi:
                for j, vec in row:
                    s = xi * y[j]
                    if s:
                        for k, c in vec:
                            acc[k] += s * c
        return tuple([a % o for a, o in zip(acc, self.orders)])

    # -- scaled (Z/N)-coordinates for the span machinery --------------------

    def scaled(self, coords):
        """Embed abstract coordinates into (Z/N)^d by the order scaling."""
        if self._cache["unit_scale"]:
            return tuple(coords)
        return tuple(c * s for c, s in zip(coords, self.scale))

    def unscaled(self, vec):
        """Inverse of scaled().  The input coordinates must be carrier
        points in [0, N), as Howell rows and flats reduced mod N are; on a
        ring whose orders all equal N they are returned as given."""
        if self._cache["unit_scale"]:
            return tuple(vec)
        out = []
        for v, s, o in zip(vec, self.scale, self.orders):
            q, r = divmod(v % self.char, s)
            if r:
                raise ValueError("vector is not in the ring carrier")
            out.append(q % o)
        return tuple(out)


def ring_from_products(char, orders, unit, product, labels, name):
    """The ring whose basis elements i and j multiply to product(i, j).

    The ring is commutative, so product is called once for each j >= i
    and its value mirrored; FiniteRing checks the shapes and reduces each
    stored product modulo the orders once.
    """
    d = len(orders)
    tensor = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            tensor[i][j] = tensor[j][i] = product(i, j)
    return FiniteRing(char, orders, tensor, unit, labels=labels, name=name)


def derived_ring(ring, orders, lifts, read, prefix, name):
    """A quotient or subring of `ring`, by transport of structure.

    Basis element i of the new ring (of order orders[i]) is represented by
    the coordinate tuple lifts[i] of `ring`, and read maps a coordinate
    tuple of `ring` to coordinates in the new basis.  The tensor holds
    read(lifts[i] * lifts[j]) and the unit is read(1).
    """
    return ring_from_products(
        lcm(*orders), tuple(orders), read(ring.unit),
        lambda i, j: read(ring.mul_coords(lifts[i], lifts[j])),
        tuple(f"{prefix}{i}" for i in range(len(orders))), name)


class RingElement:
    """Element of a FiniteRing: a reduced coordinate tuple plus its ring."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("RingElement is immutable")

    def _require_same_ring(self, other):
        if self.ring is not other.ring:
            raise ValueError("elements belong to different rings")

    def __add__(self, other):
        self._require_same_ring(other)
        return RingElement(self.ring, self.ring.add_coords(self.coords, other.coords))

    def __sub__(self, other):
        self._require_same_ring(other)
        r = self.ring
        return RingElement(r, tuple((a - b) % o for a, b, o in
                                    zip(self.coords, other.coords, r.orders)))

    def __neg__(self):
        r = self.ring
        return RingElement(r, tuple((-a) % o for a, o in zip(self.coords, r.orders)))

    def __mul__(self, other):
        if isinstance(other, int):
            r = self.ring
            return RingElement(r, tuple((other * a) % o
                                        for a, o in zip(self.coords, r.orders)))
        self._require_same_ring(other)
        return RingElement(self.ring, self.ring.mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, n):
        """Square-and-multiply: floor(log2 n) squarings plus one product
        per further set bit of n.  A zero square ends it early: a set bit
        of n is still to come, so the power is zero."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return self.ring.one()
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base
            if base.is_zero():
                return base

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.ring), self.coords))

    def __repr__(self):
        r = self.ring
        terms = [f"{c}*{lbl}" for c, lbl in zip(self.coords, r.labels) if c]
        return "<0>" if not terms else "<" + " + ".join(terms) + ">"


class RingHom:
    """Additive, unital, multiplicative map between finite rings.

    matrix[i] is the coordinate vector (in the target) of the image of the
    i-th source basis element.  Construction verifies well-definedness with
    respect to the source orders, unitality, and multiplicativity on every
    basis pair, which by bilinearity covers all elements.
    """

    __slots__ = ("source", "target", "matrix", "section", "_sparse")

    def __init__(self, source, target, matrix, section=None, check=True):
        if (len(matrix) != source.rank
                or any(len(row) != target.rank for row in matrix)):
            raise HomomorphismError(
                f"matrix must have {source.rank} rows of {target.rank} "
                f"coordinates")
        matrix = tuple(tuple(c % o for c, o in zip(row, target.orders))
                       for row in matrix)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "_sparse", tuple(
            tuple((k, c) for k, c in enumerate(row) if c) for row in matrix))
        if check:
            self._verify()

    def __setattr__(self, *a):
        raise AttributeError("RingHom is immutable")

    def _verify(self):
        src, tgt = self.source, self.target
        # well-defined: order of each source basis element must annihilate its image
        for i, o in enumerate(src.orders):
            for c, ot in zip(self.matrix[i], tgt.orders):
                if (o * c) % ot:
                    raise HomomorphismError(
                        f"image of basis {i} is not annihilated by its order {o}")
        if self.apply_coords(src.unit) != tgt.unit:
            raise HomomorphismError("unit is not mapped to unit")
        for i in range(src.rank):
            for j in range(i, src.rank):
                lhs = self.apply_coords(src.tensor[i][j])
                rhs = tgt.mul_coords(self.matrix[i], self.matrix[j])
                if lhs != rhs:
                    raise HomomorphismError(
                        f"multiplicativity fails on basis pair ({i}, {j})")

    def apply_coords(self, coords):
        acc = [0] * self.target.rank
        for c, row in zip(coords, self._sparse):
            if c:
                for k, v in row:
                    acc[k] += c * v
        return tuple([a % o for a, o in zip(acc, self.target.orders)])

    def __call__(self, elem):
        if elem.ring is not self.source:
            raise ValueError("element is not in the source ring")
        return RingElement(self.target, self.apply_coords(elem.coords))

    @classmethod
    def identity(cls, ring):
        rows = [tuple(1 if k == i else 0 for k in range(ring.rank))
                for i in range(ring.rank)]
        return cls(ring, ring, rows, check=False)


class RingReport:
    """Outcome of verify_ring: ok flag plus failure witnesses."""

    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.ok = not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "RingReport(ok)"
        return f"RingReport({len(self.failures)} failures, first={self.failures[0]})"


def verify_ring(r):
    """Check every FiniteRing invariant; failures carry witness triples."""
    failures = []
    d = r.rank
    for i in range(d):
        for j in range(d):
            for k, c in enumerate(r.tensor[i][j]):
                if (r.orders[i] * c) % r.orders[k]:
                    failures.append(("order", (i, j, k), c))
    for i in range(d):
        for j in range(i + 1, d):
            if r.tensor[i][j] != r.tensor[j][i]:
                failures.append(("commutativity", (i, j), r.tensor[i][j]))
    for i in range(d):
        e_i = tuple(1 if k == i else 0 for k in range(d))
        got = r.mul_coords(r.unit, e_i)
        if got != e_i:
            failures.append(("unit", (i,), got))
    basis = [tuple(1 if t == i else 0 for t in range(d)) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = r.mul_coords(r.mul_coords(basis[i], basis[j]), basis[k])
                rhs = r.mul_coords(basis[i], r.mul_coords(basis[j], basis[k]))
                if lhs != rhs:
                    failures.append(("associativity", (i, j, k), (lhs, rhs)))
    return RingReport(failures)


# -- constructors -----------------------------------------------------------

def zmod(n):
    """The ring Z/n."""
    if n < 2:
        raise RingConstructionError(f"zmod needs n >= 2, got {n}")
    return ring_from_products(n, (n,), (1,), lambda i, j: (1,), ("1",),
                              f"Z{n}")


def trunc_poly(n, t):
    """Truncated polynomial ring (Z/n)[x] / (x^t)."""
    if t < 1:
        raise RingConstructionError("truncation degree must be >= 1")
    # powers[m] is x^m for every exponent m = i + j < 2t; 0 from m = t on
    powers = [tuple(int(k == m) for k in range(t)) for m in range(t)]
    powers += [(0,) * t] * t
    labels = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}")
                   for i in range(t))
    return ring_from_products(n, (n,) * t, powers[0],
                              lambda i, j: powers[i + j], labels,
                              f"Z{n}[x]/(x^{t})")


def product(r, s):
    """Direct product of two rings; coordinates are simply concatenated.

    Different characteristics are fine: the result lives over lcm of the
    two, and each factor keeps its own basis orders.
    """
    dr = r.rank
    zero_r, zero_s = (0,) * dr, (0,) * s.rank

    def mul(i, j):
        if j < dr:
            return r.tensor[i][j] + zero_s
        if i >= dr:
            return zero_r + s.tensor[i - dr][j - dr]
        return zero_r + zero_s

    labels = tuple(f"{l}.1" for l in r.labels) + tuple(f"{l}.2" for l in s.labels)
    return ring_from_products(lcm(r.char, s.char), r.orders + s.orders,
                              r.unit + s.unit, mul, labels,
                              f"({r.name}x{s.name})")


class ModuleSpec:
    """Finitely generated module over a ring, for trivial extensions.

    The underlying group is a sum of cyclic groups of the given orders; one
    square action matrix per ring basis element gives the module action.
    Consistency (well-definedness, unit identity, compatibility with the
    ring tensor) is verified at construction.
    """

    __slots__ = ("ring", "orders", "actions", "labels")

    def __init__(self, ring, orders, actions, labels=None):
        orders = tuple(int(o) for o in orders)
        k = len(orders)
        for o in orders:
            if o < 2 or ring.char % o:
                raise RingConstructionError(
                    f"module order {o} must divide the characteristic {ring.char}")
        if len(actions) != ring.rank or any(
                len(m) != k or any(len(row) != k for row in m) for m in actions):
            raise RingConstructionError(
                f"need one {k} x {k} action matrix per ring basis element "
                f"({ring.rank})")
        actions = tuple(tuple(tuple(c % o for c, o in zip(row, orders))
                              for row in mat) for mat in actions)
        self.ring = ring
        self.orders = orders
        self.actions = actions
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(k))
        self._verify()

    def act_coords(self, i, vec):
        """Action of ring basis element i on a module coordinate vector."""
        mat = self.actions[i]
        k = len(self.orders)
        acc = [0] * k
        for l, c in enumerate(vec):
            if c:
                row = mat[l]
                for t in range(k):
                    if row[t]:
                        acc[t] += c * row[t]
        return tuple(a % o for a, o in zip(acc, self.orders))

    def _verify(self):
        ring = self.ring
        k = len(self.orders)
        for i in range(ring.rank):
            for l in range(k):
                # ring-order well-definedness: o_i * (b_i . e_l) = 0
                for t, c in enumerate(self.actions[i][l]):
                    if (ring.orders[i] * c) % self.orders[t]:
                        raise RingConstructionError(
                            f"action of basis {i} not annihilated by its order")
                # module-order well-definedness: m_l * (b_i . e_l) = 0
                for t, c in enumerate(self.actions[i][l]):
                    if (self.orders[l] * c) % self.orders[t]:
                        raise RingConstructionError(
                            f"action on generator {l} not annihilated by its order")
        # unit acts as the identity
        for l in range(k):
            e_l = tuple(1 if t == l else 0 for t in range(k))
            acc = (0,) * k
            for i, u in enumerate(ring.unit):
                if u:
                    step = self.act_coords(i, e_l)
                    acc = tuple((a + u * b) % o for a, b, o in zip(acc, step, self.orders))
            if acc != e_l:
                raise RingConstructionError("unit does not act as identity on the module")
        # compatibility with the ring tensor: b_i . (b_j . e) = (b_i b_j) . e
        for i in range(ring.rank):
            for j in range(ring.rank):
                for l in range(k):
                    e_l = tuple(1 if t == l else 0 for t in range(k))
                    lhs = self.act_coords(i, self.act_coords(j, e_l))
                    rhs = (0,) * k
                    for m, c in enumerate(ring.tensor[i][j]):
                        if c:
                            step = self.act_coords(m, e_l)
                            rhs = tuple((a + c * b) % o
                                        for a, b, o in zip(rhs, step, self.orders))
                    if lhs != rhs:
                        raise RingConstructionError(
                            f"module action incompatible with ring product ({i},{j})")


def trivial_extension(r, spec):
    """Idealization R x| E: pairs (a, e) with (a, e)(b, f) = (ab, af + be)."""
    if spec.ring is not r:
        raise RingConstructionError("module is over a different ring")
    d, k = r.rank, len(spec.orders)
    zero_r, zero_e = (0,) * d, (0,) * k

    def mul(i, j):
        if j < d:
            return r.tensor[i][j] + zero_e
        if i < d:
            return zero_r + spec.act_coords(
                i, tuple(int(t == j - d) for t in range(k)))
        return zero_r + zero_e

    return ring_from_products(r.char, r.orders + spec.orders, r.unit + zero_e,
                              mul, r.labels + spec.labels, f"{r.name}|xE")


def trivial_extension_embedding(r, ext):
    """The canonical ring embedding a -> (a, 0) for a trivial extension."""
    rows = [tuple(1 if k == i else 0 for k in range(ext.rank)) for i in range(r.rank)]
    return RingHom(r, ext, rows, check=False)
