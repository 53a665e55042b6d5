"""Exact Lie algebra data: Cartan matrices, matrix realizations,
principal gradings and slice bases, and the one exact elimination
(`echelon`, `back_sweep`) over Fraction.  Matrices are lists of
rows; the products visit nonzero entries only and write the one shared
ZERO, since the Chevalley bases they act on are very sparse.
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# Cartan-level data

def cartan_matrix(typ, n):
    """Cartan matrix with the convention C[i][j] = alpha_j(H_i), so that
    [H_i, X_j] = C[i][j] X_j.

    Labelings: the chains A, B, C, D are numbered along the chain with the
    special vertex last (B: short root n; C: long root n; D: fork n-1, n).
    E: chain 1-3-4-5-6(-7-8) with 2 attached to 4.  F4: chain 1-2=>3-4
    with 1, 2 long.  G2: 1 short, 2 long.
    """
    if typ == 'A':
        if n < 1:
            raise ValueError("A needs rank >= 1")
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            A[i][i] = 2
            if i + 1 < n:
                A[i][i + 1] = A[i + 1][i] = -1
        return A
    if typ in ('B', 'C'):
        if n < 2:
            raise ValueError("%s needs rank >= 2" % typ)
        A = cartan_matrix('A', n)
        if typ == 'B':
            A[n - 1][n - 2] = -2       # alpha_n short
        else:
            A[n - 2][n - 1] = -2       # alpha_n long
        return A
    if typ == 'D':
        if n < 3:
            raise ValueError("D needs rank >= 3")
        A = cartan_matrix('A', n)
        A[n - 1][n - 2] = A[n - 2][n - 1] = 0
        A[n - 1][n - 3] = A[n - 3][n - 1] = -1
        return A
    if typ == 'E':
        if n not in (6, 7, 8):
            raise ValueError("E rank must be 6, 7 or 8")
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [1, 3, 4, 5, 6, 7, 8][:n - 1]
        for a, b in zip(chain, chain[1:]):
            A[a - 1][b - 1] = A[b - 1][a - 1] = -1
        A[2 - 1][4 - 1] = A[4 - 1][2 - 1] = -1
        return A
    if typ == 'F':
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    if typ == 'G':
        return [[2, -3], [-1, 2]]
    raise ValueError("unknown type %r" % typ)


def root_lengths(typ, n):
    """(alpha_i, alpha_i) with long roots normalized to 2."""
    A = cartan_matrix(typ, n)
    d = [Fraction(1)] * n
    # symmetrize: d_i A_ij = d_j A_ji
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if A[i][j] and d[i] * A[i][j] != d[j] * A[j][i]:
                    d[j] = d[i] * A[i][j] / A[j][i]
                    changed = True
    top = max(d)
    return [2 * x / top for x in d]


def lie_central_invariants(typ, n):
    """c_i = <alpha_i^, alpha_i^> / 48 in the normalized form."""
    return [Fraction(1, 12) / x for x in root_lengths(typ, n)]


def defining_form_ratio(series):
    """normalized form / trace form on the defining representation."""
    return {'A': Fraction(1), 'B': Fraction(1, 2),
            'C': Fraction(1), 'D': Fraction(1, 2)}[series]


def fold(typ, n):
    """Central invariants of a non simply laced algebra, obtained by
    summing the invariants of the folded simply laced diagram over the
    identified (mutually orthogonal) vertices."""
    if typ == 'B':
        src = lie_central_invariants('D', n + 1)
        groups = [[i] for i in range(n - 1)] + [[n - 1, n]]
    elif typ == 'C':
        src = lie_central_invariants('A', 2 * n - 1)
        groups = [[i, 2 * n - 2 - i] for i in range(n - 1)] + [[n - 1]]
    elif typ == 'F':
        src = lie_central_invariants('E', 6)
        groups = [[1], [3], [2, 4], [0, 5]]
    elif typ == 'G':
        if n == 3:           # via B3
            src = lie_central_invariants('B', 3)
            groups = [[0, 2], [1]]
        else:                # via D4
            src = lie_central_invariants('D', 4)
            groups = [[0, 2, 3], [1]]
    else:
        raise ValueError("no folding onto %r" % typ)
    return [sum((src[i] for i in g), Fraction(0)) for g in groups]


# ---------------------------------------------------------------------------
# exact elimination over Fraction

def echelon(rows):
    """Forward sweep: (echelon rows, pivot columns, determinant of a
    square input), `int` entries made Fractions.  Each pivot row is
    divided by its pivot and subtracted from the rows below with a
    nonzero in its column.  The rows above are left to `back_sweep`, as
    a determinant never reads them and one-pass Gauss-Jordan (Montante)
    would update them.

    >>> echelon([[0, 2], [1, 1]])[1:]      # a row swap flips the sign
    ([0, 1], Fraction(-2, 1))
    """
    M = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    nr, piv, det = len(M), [], Fraction(1)
    for c in range(len(M[0])):
        r = len(piv)
        pr = next((i for i in range(r, nr) if M[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            M[r], M[pr], det = M[pr], M[r], -det
        p = M[r][c]
        det, inv = det * p, 1 / p
        M[r] = [x * inv if x else x for x in M[r]]
        _clear(M[r + 1:], c, M[r])
        piv.append(c)
    return M, piv, det if len(piv) == nr else Fraction(0)


def _clear(rows, c, prow):
    """Subtract multiples of a pivot row with a 1 at column c from rows."""
    pivot = _nonzeros(prow)
    for row in rows:
        f = row[c]
        if f:
            for j, y in pivot:
                row[j] -= f * y


def back_sweep(M, piv):
    """Back sweep, in place on the rows of `echelon`: clears the entries
    above the pivots, so M is the reduced echelon form."""
    for r in range(len(piv) - 1, 0, -1):
        _clear(M[:r], piv[r], M[r])


def determinant(rows):
    """Determinant of a square Fraction matrix."""
    return echelon(rows)[2]


def nullspace(rows):
    """Basis of the right kernel: for each free column, 1 there and
    minus the reduced rows' entries at the pivots."""
    M, piv, _ = echelon(rows)
    back_sweep(M, piv)
    out = []
    for fc in range(len(M[0])):
        if fc not in piv:
            v = [Fraction(0)] * len(M[0])
            v[fc] = Fraction(1)
            for row, pc in zip(M, piv):
                v[pc] = -row[fc]
            out.append(v)
    return out


def solve(rows, rhs):
    """One solution of rows . x = rhs over Fraction, or None."""
    nc = len(rows[0])
    M, piv, _ = echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if nc in piv:
        return None
    back_sweep(M, piv)
    x = [Fraction(0)] * nc
    for row, pc in zip(M, piv):
        x[pc] = row[nc]
    return x


def inverse(rows):
    """Exact inverse of a square Fraction matrix, from the sweeps of
    [rows | I]; raises ValueError when it is singular."""
    n = len(rows)
    M, piv, _ = echelon([list(r) + [int(i == j) for j in range(n)]
                         for i, r in enumerate(rows)])
    if piv[-1] >= n:
        raise ValueError("singular matrix")
    back_sweep(M, piv)
    return [row[n:] for row in M]


ZERO = Fraction(0)


def _nonzeros(row):
    """(column, entry) for the nonzero entries of a row."""
    return [(j, x) for j, x in enumerate(row) if x is not ZERO and x]


def _dense_row(acc, m):
    row = [ZERO] * m
    for j, x in acc.items():
        if x:
            row[j] = x
    return row


def mzero(n, m=None):
    return [[ZERO] * (m or n) for _ in range(n)]


def madd(A, B, s=1):
    """A + s B."""
    out = [list(r) for r in A]
    for ro, rb in zip(out, B):
        for j, b in enumerate(rb):
            if b is not ZERO and b:
                v = ro[j] + s * b
                ro[j] = v if v else ZERO
    return out


def transpose(A):
    return [list(r) for r in zip(*A)]


def mscale(A, s):
    return [[a * s if a is not ZERO and a else ZERO for a in row] for row in A]


def mmul(A, B):
    m = len(B[0])
    Bnz = [_nonzeros(r) for r in B]
    C = []
    for ra in A:
        acc = {}
        for k, a in _nonzeros(ra):
            for j, b in Bnz[k]:
                v = acc.get(j)
                acc[j] = a * b if v is None else v + a * b
        C.append(_dense_row(acc, m))
    return C


def mcomm(A, B):
    """AB - BA, both products accumulated in one pass over the per-row
    nonzeros of the two factors."""
    m = len(A[0])
    Anz = [_nonzeros(r) for r in A]
    Bnz = [_nonzeros(r) for r in B]
    C = []
    for ra, rb in zip(Anz, Bnz):
        acc = {}
        for k, a in ra:
            for j, b in Bnz[k]:
                v = acc.get(j)
                acc[j] = a * b if v is None else v + a * b
        for k, b in rb:
            for j, a in Anz[k]:
                v = acc.get(j)
                acc[j] = -(b * a) if v is None else v - b * a
        C.append(_dense_row(acc, m))
    return C


def mtrace_prod(A, B):
    """tr(AB), over the nonzeros of A."""
    tot = ZERO
    for i, ra in enumerate(A):
        for j, a in enumerate(ra):
            if a is not ZERO and a:
                b = B[j][i]
                if b is not ZERO and b:
                    tot += a * b
    return tot


class MatrixLieAlgebra:
    """A simple Lie algebra realized by matrices, generated by Chevalley
    triples (X_i, Y_i) in some faithful representation.

    The basis is built by bracket closure and consists of root vectors:
    `weights[k]` holds the coefficients of the root of `basis[k]` over the
    simple roots (zero for the Cartan elements).
    """

    def __init__(self, n, X, Y, form_scale, dim):
        self.n = n
        self.X = X
        self.Y = Y
        self.form_scale = Fraction(form_scale)
        self.dim = dim
        self.H = [mcomm(x, y) for x, y in zip(X, Y)]
        self._close_basis()
        self._principal()

    def form(self, a, b):
        return mtrace_prod(a, b) * self.form_scale

    def _reduce(self, fl):
        """Reduce a sparse flat vector against the stored pivot rows,
        tracking the combination of basis vectors used."""
        r = dict(fl)
        expr = [ZERO] * len(self.basis)
        for p, (row, ex) in self._red.items():
            f = r.get(p)
            if f:
                for c, x in row.items():
                    v = r.get(c, Fraction(0)) - f * x
                    if v:
                        r[c] = v
                    else:
                        r.pop(c, None)
                for i, x in enumerate(ex):
                    if x:
                        expr[i] += f * x
        return r, expr

    @staticmethod
    def _sparse(m):
        out = {}
        k = 0
        for row in m:
            for x in row:
                if x is not ZERO and x:
                    out[k] = x
                k += 1
        return out

    def _close_basis(self):
        self.basis = []
        self.weights = []
        self._red = {}      # pivot column -> (normalized sparse row, basis expr)

        def try_add(m, w):
            r, used = self._reduce(self._sparse(m))
            if not r:
                return False
            piv = min(r)
            self.basis.append(m)
            inv = 1 / r[piv]
            row = {c: x * inv for c, x in r.items()}
            # row = inv * (m - sum used_i basis_i) in flat coordinates
            ex = [-inv * u if u else ZERO for u in used] + [inv]
            self._red[piv] = (row, ex)
            self.weights.append(w)
            return True

        n = self.n
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        gens = ([(x, w) for x, w in zip(self.X, unit)]
                + [(y, tuple(-e for e in w)) for y, w in zip(self.Y, unit)])
        for m, w in gens[:n] + [(h, (0,) * n) for h in self.H] + gens[n:]:
            try_add(m, w)
        frontier = list(zip(self.basis, self.weights))
        while len(self.basis) < self.dim and frontier:
            new = []
            for g, wg in gens:
                for b, wb in frontier:
                    c = mcomm(g, b)
                    w = tuple(x + y for x, y in zip(wg, wb))
                    if try_add(c, w):
                        new.append((c, w))
            frontier = new
        if len(self.basis) != self.dim:
            raise ValueError("closure gave dim %d, expected %d"
                             % (len(self.basis), self.dim))
    def coords(self, m):
        """Coordinates of a matrix in the basis."""
        r, expr = self._reduce(self._sparse(m))
        if r:
            raise ValueError("matrix outside the algebra")
        return expr

    def from_coords(self, x):
        out = mzero(len(self.basis[0]), len(self.basis[0][0]))
        for c, b in zip(x, self.basis):
            if c:
                out = madd(out, b, c)
        return out

    def realized_cartan(self):
        """C[i][j] = alpha_j(H_i), read off from [H_i, X_j] = C X_j."""
        C = mzero(self.n, self.n)
        for i, Hi in enumerate(self.H):
            for j, Xj in enumerate(self.X):
                b = mcomm(Hi, Xj)
                val = None
                for rb, rx in zip(b, Xj):
                    for xb, xx in zip(rb, rx):
                        if xx:
                            v = xb / xx
                            if val is not None and v != val:
                                raise ValueError("X_%d not a weight vector" % (j + 1))
                            val = v
                C[i][j] = val if val is not None else Fraction(0)
        return C

    def _principal(self):
        C = self.realized_cartan()
        Ct = [list(r) for r in zip(*C)]
        a = solve(Ct, [Fraction(2)] * self.n)
        if a is None:
            raise ValueError("principal sl2 system unsolvable")
        Ip = mzero(len(self.X[0]))
        rho = mzero(len(self.X[0]))
        for ai, Xi, Hi in zip(a, self.X, self.H):
            Ip = madd(Ip, Xi, ai)
            rho = madd(rho, Hi, ai / 2)
        self.I_plus = Ip
        self.rho = rho
        Im = mzero(len(self.X[0]))
        for Yi in self.Y:
            Im = madd(Im, Yi, 1)
        self.I_minus = Im
        # [rho, X_j] = X_j, so the principal grade of a root vector is the
        # height of its root
        self.grades = [Fraction(sum(w)) for w in self.weights]
        if mcomm(Ip, Im) != mscale(rho, 2):
            raise ValueError("principal sl2 relations fail")

    def ad_matrix(self, m):
        """ad m in basis coordinates (columns = images of basis vectors)."""
        cols = [self.coords(mcomm(m, b)) for b in self.basis]
        return [list(r) for r in zip(*cols)]

    def graded_kernel(self, m):
        """Kernel of ad m for a homogeneous m, by principal grade: dict
        grade -> coord vectors.  ad m then maps each grade to one grade,
        so every vector of the echelon kernel basis is homogeneous."""
        out = {}
        for v in nullspace(self.ad_matrix(m)):
            grades = {self.grades[i] for i, x in enumerate(v) if x}
            if len(grades) != 1:
                raise ValueError("ad m mixes grades")
            out.setdefault(grades.pop(), []).append(v)
        return out

    def root_vector(self, nvec):
        """The root space element for the root sum n_i alpha_i, scaled so
        that the first nonzero entry in row-major order is 1."""
        nvec = tuple(nvec)
        found = [b for b, w in zip(self.basis, self.weights) if w == nvec]
        if len(found) != 1:
            raise ValueError("root space has dimension %d" % len(found))
        m = found[0]
        lead = next(x for row in m for x in row if x)
        return mscale(m, 1 / lead)


def g2_algebra():
    """G2 in its 7-dimensional representation; <a, b> = tr(ab)/2."""
    def E(pairs):
        m = mzero(7)
        for i, j, c in pairs:
            m[i - 1][j - 1] = Fraction(c)
        return m
    X1 = E([(1, 2, 1), (3, 4, 2), (4, 5, 1), (6, 7, 1)])
    X2 = E([(2, 3, 1), (5, 6, 1)])
    Y1 = E([(2, 1, 1), (4, 3, 1), (5, 4, 2), (7, 6, 1)])
    Y2 = E([(3, 2, 1), (6, 5, 1)])
    return MatrixLieAlgebra(2, [X1, X2], [Y1, Y2], Fraction(1, 2), 14)
