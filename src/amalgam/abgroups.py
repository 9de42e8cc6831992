"""Cyclic decompositions of finite abelian groups given by integer lattices.

Ring constructors (quotients, subrings, amalgamation carriers) need to turn
"subgroup/quotient of a direct sum of cyclic groups" into a fresh basis with
cyclic orders.  That is Smith-style diagonalization over Z on tiny dense
matrices; only the column transform and its inverse are tracked, which is
all the change-of-basis bookkeeping requires.
"""

from .znlinalg import _xgcd


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
      lift_rows  -- ambient coordinate vectors mapping onto the new basis.
    """
    d = len(orders)
    rows = [list(r) for r in relation_rows]
    for i, o in enumerate(orders):
        rel = [0] * d
        rel[i] = o
        rows.append(rel)
    diag, t, tinv = smith_diagonalize(rows, d)
    keep = [j for j in range(d) if diag[j] != 1]
    for j in keep:
        if diag[j] == 0:
            raise ValueError("relation lattice is not of full rank")
    new_orders = [diag[j] for j in keep]

    def project(vec):
        out = []
        for idx, j in enumerate(keep):
            y = sum(vec[i] * t[i][j] for i in range(d))
            out.append(y % new_orders[idx])
        return tuple(out)

    lift_rows = [tuple(tinv[j]) for j in keep]
    return new_orders, project, lift_rows


def subgroup_decomposition(generator_rows, orders):
    """Decompose the subgroup generated by the given elements.

    generator_rows are coordinate vectors in the ambient sum of Z/orders[i].
    Returns (sub_orders, basis_rows) where basis_rows are ambient coordinate
    vectors forming an independent cyclic basis of the subgroup (orders > 1,
    in matching positions).
    """
    d = len(orders)
    lattice = [list(r) for r in generator_rows]
    for i, o in enumerate(orders):
        rel = [0] * d
        rel[i] = o
        lattice.append(rel)
    basis = hermite_basis(lattice, d)
    # coordinates of the ambient order relations in the lattice basis
    x_rows = []
    for i, o in enumerate(orders):
        rel = [0] * d
        rel[i] = o
        x_rows.append(_solve_triangular(basis, rel))
    diag, t, tinv = smith_diagonalize(x_rows, d)
    sub_orders = []
    basis_rows = []
    for j in range(d):
        if diag[j] == 0:
            raise ValueError("order lattice not of full rank")
        if diag[j] == 1:
            continue
        sub_orders.append(diag[j])
        vec = [0] * d
        for k in range(d):
            c = tinv[j][k]
            if c:
                for idx in range(d):
                    vec[idx] += c * basis[k][idx]
        basis_rows.append(tuple(v % o for v, o in zip(vec, orders)))
    return sub_orders, basis_rows


def hermite_basis(rows, ncols):
    """Row-style Hermite basis of a full-rank integer lattice in Z^ncols.

    Returns ncols rows with strictly increasing pivot columns (hence a
    square triangular basis) and positive pivots.
    """
    work = [list(r) for r in rows if any(r)]
    basis = {}
    for v in work:
        v = list(v)
        j = 0
        while j < ncols:
            if v[j] == 0:
                j += 1
                continue
            cur = basis.get(j)
            if cur is None:
                if v[j] < 0:
                    v = [-x for x in v]
                basis[j] = v
                break
            x, y = cur[j], v[j]
            if y % x == 0:
                q = y // x
                v = [b - q * a for a, b in zip(cur, v)]
            else:
                g, s, u = _xgcd(x, y)
                newpiv = [s * a + u * b for a, b in zip(cur, v)]
                xg, yg = x // g, y // g
                v = [xg * b - yg * a for a, b in zip(cur, v)]
                basis[j] = newpiv
            # loop continues; v[j] is now 0
    if len(basis) != ncols:
        raise ValueError("lattice is not of full rank")
    return [basis[j] for j in sorted(basis)]


def _solve_triangular(basis, target):
    """Solve y . basis = target exactly for a triangular Hermite basis."""
    d = len(basis)
    t = list(target)
    y = [0] * d
    for j in range(d):
        piv = basis[j][j]
        if t[j] % piv:
            raise ValueError("target not in lattice")
        q = t[j] // piv
        y[j] = q
        if q:
            for k in range(j, d):
                t[k] -= q * basis[j][k]
    if any(t):
        raise ValueError("target not in lattice")
    return y
