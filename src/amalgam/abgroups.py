"""Cyclic decompositions of finite abelian groups given by integer lattices.

Ring constructors (quotients, subrings, amalgamation carriers) need to turn
"subgroup/quotient of a direct sum of cyclic groups" into a fresh basis with
cyclic orders.  A quotient is Smith-style diagonalization over Z on tiny
dense matrices; only the column transform and its inverse are tracked,
which is all the change-of-basis bookkeeping requires.  A subgroup with m
generators is the quotient of Z^m by their relations, which one Howell
factorization over Z/N yields, and an element is read by one solve
against it.  Both give (orders, read, lifts), what rings.derived_ring takes.
"""

from math import lcm

from .znlinalg import Solver, ZnMatrix, _xgcd


def _swap_cols(a, t, tinv, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in t:
        row[i], row[j] = row[j], row[i]
    tinv[i], tinv[j] = tinv[j], tinv[i]


def _addmul_col(a, t, tinv, dst, src, q):
    # column op: col_dst += q * col_src; inverse acts on tinv rows.
    for row in a:
        row[dst] += q * row[src]
    for row in t:
        row[dst] += q * row[src]
    for k in range(len(tinv[0])):
        tinv[src][k] -= q * tinv[dst][k]


def _negate_col(a, t, tinv, i):
    for row in a:
        row[i] = -row[i]
    for row in t:
        row[i] = -row[i]
    tinv[i] = [-x for x in tinv[i]]


def smith_diagonalize(rows, ncols):
    """Diagonalize the lattice spanned by the given integer rows.

    Returns (diag, t, tinv) where t and tinv are mutually inverse unimodular
    ncols x ncols matrices and the row span of the input equals the span of
    {diag[j] * tinv[j] : j}.  Coordinates transform by y = x . t.  diag
    entries are nonnegative; no divisibility chain is enforced.
    """
    a = [list(r) for r in rows]
    m = len(a)
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    tinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def improve_rows(r1, r2, j):
        # zero out a[r2][j] with unimodular row ops (no tracking needed)
        x, y = a[r1][j], a[r2][j]
        if y == 0:
            return
        if x == 0:
            a[r1], a[r2] = a[r2], a[r1]
            return
        if y % x == 0:
            q = y // x
            a[r2] = [e2 - q * e1 for e1, e2 in zip(a[r1], a[r2])]
            return
        g, s, u = _xgcd(x, y)
        xg, yg = x // g, y // g
        new1 = [s * e1 + u * e2 for e1, e2 in zip(a[r1], a[r2])]
        new2 = [xg * e2 - yg * e1 for e1, e2 in zip(a[r1], a[r2])]
        a[r1], a[r2] = new1, new2

    def improve_cols(c1, c2, i):
        # zero out a[i][c2] by euclid on the two columns (elementary ops
        # only, so the t/tinv tracking stays simple)
        if a[i][c2] == 0:
            return
        if a[i][c1] == 0:
            _swap_cols(a, t, tinv, c1, c2)
            return
        while True:
            q = a[i][c2] // a[i][c1]
            if q:
                _addmul_col(a, t, tinv, c2, c1, -q)
            if a[i][c2] == 0:
                return
            _swap_cols(a, t, tinv, c1, c2)

    k = 0
    while k < m and k < ncols:
        # find a nonzero pivot at or after (k, k)
        found = False
        for i in range(k, m):
            for j in range(k, ncols):
                if a[i][j]:
                    a[k], a[i] = a[i], a[k]
                    if j != k:
                        _swap_cols(a, t, tinv, k, j)
                    found = True
                    break
            if found:
                break
        if not found:
            break
        while True:
            for i in range(k + 1, m):
                improve_rows(k, i, k)
            for j in range(k + 1, ncols):
                improve_cols(k, j, k)
            rows_clear = all(a[i][k] == 0 for i in range(k + 1, m))
            cols_clear = all(a[k][j] == 0 for j in range(k + 1, ncols))
            if rows_clear and cols_clear:
                break
        if a[k][k] < 0:
            _negate_col(a, t, tinv, k)
        k += 1

    diag = []
    for j in range(ncols):
        d = a[j][j] if j < m and j < ncols else 0
        diag.append(abs(d))
    return diag, t, tinv


def quotient_decomposition(relation_rows, orders):
    """Decompose (sum of Z/orders[i]) / <relations> into cyclic factors.

    relation_rows are integer coordinate vectors (relative to the ambient
    basis); the ambient order relations are appended automatically.

    Returns (new_orders, project, lift_rows):
      new_orders -- cyclic orders (> 1) of the quotient's basis,
      project    -- function mapping an ambient coordinate vector to
                    quotient coordinates (reduced mod new_orders),
      lift_rows  -- reduced ambient coordinate vectors mapping onto the
                    new basis.
    """
    d = len(orders)
    rows = [list(r) for r in relation_rows]
    rows += [[o if k == i else 0 for k in range(d)]
             for i, o in enumerate(orders)]
    diag, t, tinv = smith_diagonalize(rows, d)
    keep = [j for j in range(d) if diag[j] != 1]
    new_orders = [diag[j] for j in keep]
    if 0 in new_orders:
        raise ValueError("relation lattice is not of full rank")
    # the image of ambient basis vector i: row i of t on the kept columns,
    # as its nonzero (position, entry) pairs
    images = [[(idx, row[j]) for idx, j in enumerate(keep) if row[j]]
              for row in t]

    def project(vec):
        out = [0] * len(keep)
        for c, image in zip(vec, images):
            if c:
                for idx, y in image:
                    out[idx] += c * y
        return tuple([y % o for y, o in zip(out, new_orders)])

    lift_rows = [tuple([c % o for c, o in zip(tinv[j], orders)])
                 for j in keep]
    return new_orders, project, lift_rows


def subgroup_decomposition(generator_rows, orders):
    """Decompose the subgroup generated by the given elements.

    generator_rows are m coordinate vectors in the ambient sum of
    Z/orders[i].  The subgroup is Z^m modulo the relations among them,
    which are N * Z^m plus the left kernel over Z/N of the rows scaled
    into (Z/N)^d, N the ambient exponent; quotient_decomposition splits
    that quotient.  Returns (sub_orders, read, lift_rows) as it does:
    read maps an ambient coordinate vector of the subgroup to coordinates
    in the new basis and raises ValueError outside the subgroup, and
    lift_rows are the new basis elements' ambient coordinates.
    """
    n = lcm(*orders)
    scale = [n // o for o in orders]
    gens = list(generator_rows)
    solver = Solver(ZnMatrix.from_rows(
        n, [[c * s % n for c, s in zip(g, scale)] for g in gens], len(orders)))
    sub_orders, project, coeff_rows = quotient_decomposition(
        solver.kernel.rows, [n] * len(gens))

    def read(vec):
        # project sends the left kernel to 0, so any solution will do
        x = solver.particular([c * s for c, s in zip(vec, scale)])
        if x is None:
            raise ValueError(f"element {tuple(vec)} is not in the subgroup")
        return project(x)

    lift_rows = []
    for coeffs in coeff_rows:
        vec = [0] * len(orders)
        for c, g in zip(coeffs, gens):
            if c:
                for i, x in enumerate(g):
                    vec[i] += c * x
        lift_rows.append(tuple([v % o for v, o in zip(vec, orders)]))
    return sub_orders, read, lift_rows
