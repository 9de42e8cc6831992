"""Exact linear algebra over Z/N via the Howell normal form.

Everything downstream (ring carriers, ideals, syzygies, resolutions) reduces
to questions about row spans of integer matrices modulo N, where N is any
modulus >= 2, prime or not.  Because Z/N has zero divisors, ordinary row
echelon form does not give canonical answers; the Howell form does:

* pivots divide N and pivot columns strictly increase,
* entries above a pivot are reduced modulo that pivot,
* the span is "saturated": any span element whose first k coordinates vanish
  lies in the span of the rows whose pivots sit beyond column k.

Two matrices have the same row span iff they have the identical Howell form,
which makes span equality, membership and kernel computations decidable and
canonical.  All vectors are row vectors; kernels are left kernels.
"""

from math import gcd, prod

MAX_MODULUS = 1 << 31


class DimensionMismatch(ValueError):
    """Operands disagree on modulus or ambient dimension."""


def _xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g >= 0."""
    s, s1 = 1, 0
    t, t1 = 0, 1
    g, g1 = a, b
    while g1:
        q = g // g1
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
        g, g1 = g1, g - q * g1
    if g < 0:
        s, t, g = -s, -t, -g
    return g, s, t


def _lift_unit(b, n):
    """A unit u modulo n with u*b = gcd(b, n) (mod n), for b != 0 mod n.

    Classical normalization step: every residue is associate to the divisor
    gcd(b, n) of n.  Invert b/g modulo n/g, then bump by multiples of n/g
    until the representative is coprime to n (a valid choice exists by CRT).
    """
    b %= n
    g = gcd(b, n)
    m = n // g
    if m == 1:
        return 1
    u = pow((b // g) % m, -1, m)
    while gcd(u, n) != 1:
        u += m
    return u % n


class ZnMatrix:
    """Immutable matrix over Z/N, entries stored row-major in [0, N): the
    input of kernel and Solver."""

    __slots__ = ("modulus", "rows", "cols", "entries")

    def __init__(self, modulus, rows, cols, entries):
        if not 2 <= modulus <= MAX_MODULUS:
            raise ValueError(f"modulus must be in [2, 2^31], got {modulus}")
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        entries = tuple(e % modulus for e in entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("ZnMatrix is immutable")

    @classmethod
    def from_rows(cls, modulus, row_list, cols=None):
        row_list = [list(r) for r in row_list]
        if cols is None:
            cols = len(row_list[0]) if row_list else 0
        for r in row_list:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        flat = [e for r in row_list for e in r]
        return cls(modulus, len(row_list), cols, flat)

    def row(self, i):
        c = self.cols
        return self.entries[i * c:(i + 1) * c]


class HowellBasis:
    """Canonical Howell-form basis of a row span in (Z/N)^ambient.

    Structural equality of two HowellBasis values over the same modulus and
    ambient dimension is equivalent to equality of the spans they generate.
    """

    __slots__ = ("modulus", "ambient", "rows", "pivots", "_hash")

    def __init__(self, modulus, ambient, rows):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        pivots = []
        for r in self.rows:
            for j, v in enumerate(r):
                if v:
                    pivots.append((j, v))
                    break
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("HowellBasis is immutable")

    def __eq__(self, other):
        if not isinstance(other, HowellBasis):
            return NotImplemented
        return (self.modulus, self.ambient, self.rows) == \
               (other.modulus, other.ambient, other.rows)

    def __hash__(self):
        # cached: summand types are keyed by their basis, and a resolution
        # and its validation look the keys up at every step
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((self.modulus, self.ambient, self.rows)))
        return self._hash

    def __repr__(self):
        return f"HowellBasis(mod {self.modulus}, dim {self.ambient}, {len(self.rows)} rows)"

    def span_size(self):
        """Cardinality of the span: product of N/pivot over all pivots."""
        n = self.modulus
        return prod(n // v for (_, v) in self.pivots)

    def _check(self, v):
        if len(v) != self.ambient:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient {self.ambient}")

    def contains(self, v):
        """Exact span membership by greedy reduction along pivots."""
        self._check(v)
        n = self.modulus
        w = None
        for row, (j, a) in zip(self.rows, self.pivots):
            x = v[j] if w is None else w[j]
            if x % n == 0:
                continue
            if x % a:
                return False
            if w is None:
                w = [e % n for e in v]
            q = w[j] // a
            for t in range(j, self.ambient):
                w[t] = (w[t] - q * row[t]) % n
        if w is None:
            return all(e % n == 0 for e in v)
        return not any(w)

    def reduce(self, v):
        """Canonical (lexicographically smallest) representative of v + span."""
        self._check(v)
        n = self.modulus
        w = [e % n for e in v]
        for row, (j, a) in zip(self.rows, self.pivots):
            q = w[j] // a
            if q:
                for t in range(j, self.ambient):
                    w[t] = (w[t] - q * row[t]) % n
        return tuple(w)


class _GenericBuilder:
    """Incremental Howell accumulator for arbitrary modulus.

    rows maps pivot column -> row (list).  Invariants maintained on insert:
    every stored pivot value divides N, and whenever a pivot row is created
    or replaced its annihilator multiple (N/pivot)*row is re-inserted, which
    is exactly the saturation the Howell property requires.
    """

    def __init__(self, modulus, ncols):
        self.n = modulus
        self.ncols = ncols
        self.rows = {}
        self._basis = None

    def insert(self, vec):
        n = self.n
        ncols = self.ncols
        if len(vec) != ncols:
            raise DimensionMismatch(f"vector length {len(vec)} != {ncols}")
        rows = self.rows
        stack = [[e % n for e in vec]]
        while stack:
            v = stack.pop()
            j = 0
            while j < ncols:
                if not v[j]:
                    j += 1
                    continue
                piv = rows.get(j)
                if piv is None:
                    b = v[j]
                    u = _lift_unit(b, n)
                    if u != 1:
                        v = [(u * x) % n for x in v]
                    g = v[j]
                    rows[j] = v
                    if g > 1:
                        sat = n // g
                        w = [(sat * x) % n for x in v]
                        if any(w):
                            stack.append(w)
                    break
                a = piv[j]
                b = v[j]
                if b % a == 0:
                    q = b // a
                    for t in range(j, ncols):
                        v[t] = (v[t] - q * piv[t]) % n
                else:
                    g, s, t_ = _xgcd(a, b)
                    newpiv = [(s * piv[t] + t_ * v[t]) % n for t in range(ncols)]
                    aq, bq = a // g, b // g
                    v = [(aq * v[t] - bq * piv[t]) % n for t in range(ncols)]
                    rows[j] = newpiv
                    sat = n // g
                    w = [(sat * x) % n for x in newpiv]
                    if any(w):
                        stack.append(w)
                j += 1
        self._basis = None

    def contains(self, vec):
        n = self.n
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.ncols}")
        rows = self.rows
        v = [e % n for e in vec]
        for j in range(self.ncols):
            if not v[j]:
                continue
            piv = rows.get(j)
            if piv is None or v[j] % piv[j]:
                return False
            q = v[j] // piv[j]
            for t in range(j, self.ncols):
                v[t] = (v[t] - q * piv[t]) % n
        return True

    def basis(self):
        if self._basis is not None:
            return self._basis
        n = self.n
        cols = sorted(self.rows)
        reduced = {j: list(self.rows[j]) for j in cols}
        # Clear entries above each pivot modulo the pivot value.
        for j in cols:
            prow = reduced[j]
            a = prow[j]
            for i in cols:
                if i >= j:
                    break
                r = reduced[i]
                q = r[j] // a
                if q:
                    for t in range(j, self.ncols):
                        r[t] = (r[t] - q * prow[t]) % n
        self._basis = HowellBasis(n, self.ncols, [reduced[j] for j in cols])
        return self._basis


def span_builder(modulus, ncols):
    """Incremental span accumulator over Z/modulus, for every modulus."""
    if not 2 <= modulus <= MAX_MODULUS:
        raise ValueError(f"modulus must be in [2, 2^31], got {modulus}")
    return _GenericBuilder(modulus, ncols)


def howell_from_rows(modulus, rows, ncols):
    b = span_builder(modulus, ncols)
    for r in rows:
        b.insert(r)
    return b.basis()


class Solver:
    """x*m = b for any number of right-hand sides b, factoring m once.

    The factorization is the Howell form of [m | I], whose rows span the
    pairs (x*m, x).  Its rows with a pivot in the m-part are kept as
    reducers; by the saturation property the other rows, whose m-part
    vanishes, form a Howell basis of exactly the left kernel of m.  Each
    solve is one greedy reduction of b along the reducers, which
    accumulates a particular solution x (particular), and one reduction
    of x modulo the kernel.
    """

    __slots__ = ("cols", "kernel", "_reducers")

    def __init__(self, m):
        n, r, c = m.modulus, m.rows, m.cols
        aug = []
        for i in range(r):
            row = list(m.row(i)) + [0] * r
            row[c + i] = 1
            aug.append(row)
        h = howell_from_rows(n, aug, c + r)
        self.cols = c
        # pivot columns increase, so the m-part pivots come first
        self._reducers = [(j, a, row[:c], row[c:])
                          for row, (j, a) in zip(h.rows, h.pivots) if j < c]
        self.kernel = HowellBasis(
            n, r, [row[c:] for row in h.rows[len(self._reducers):]])

    def solve(self, b):
        """The canonical solution x of x*m = b, or None.

        x is the lexicographically smallest representative of its coset
        modulo the left kernel, so equal inputs always give the identical
        answer.
        """
        x = self.particular(b)
        return None if x is None else self.kernel.reduce(x)

    def particular(self, b):
        """A solution x of x*m = b, or None: the reduction of b along the
        factorization, not yet reduced modulo the left kernel."""
        if len(b) != self.cols:
            raise DimensionMismatch(f"rhs length {len(b)} != cols {self.cols}")
        n, r = self.kernel.modulus, self.kernel.ambient
        v = [e % n for e in b]
        x = [0] * r
        for j, a, image, coeffs in self._reducers:
            if not v[j]:
                continue
            if v[j] % a:
                return None
            q = v[j] // a
            for t in range(j, self.cols):
                v[t] = (v[t] - q * image[t]) % n
            for t in range(r):
                x[t] = (x[t] + q * coeffs[t]) % n
        if any(v):
            return None
        return x


def kernel(m):
    """Canonical basis of the left kernel {x : x*m = 0 (mod N)}: the
    kernel of m's Solver factorization."""
    return Solver(m).kernel
