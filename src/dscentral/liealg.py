"""Exact Lie algebra data: Cartan matrices, matrix realizations,
principal gradings and slice bases.

All linear algebra here is exact over Fraction.  Matrices are lists of
rows; the matrix kernels visit nonzero entries only and share a single
zero object, since the Chevalley bases they act on are very sparse.
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
# exact linear algebra over Fraction

def rref(rows):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    M = [list(map(Fraction, r)) for r in rows]
    if not M:
        return M, []
    nr, nc = len(M), len(M[0])
    piv = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv if x else x for x in M[r]]
        pivot = _nonzeros(M[r])
        for i in range(nr):
            if i != r and M[i][c]:
                f, row = M[i][c], M[i]
                for j, y in pivot:
                    row[j] -= f * y
        piv.append(c)
        r += 1
        if r == nr:
            break
    return M, piv


def nullspace(rows):
    """Basis of the right kernel."""
    if not rows:
        return []
    nc = len(rows[0])
    M, piv = rref(rows)
    free = [c for c in range(nc) if c not in piv]
    out = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):
            v[pc] = -M[r][fc]
        out.append(v)
    return out


def solve(rows, rhs):
    """One solution of rows . x = rhs, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    nc = len(rows[0])
    M, piv = rref(aug)
    if nc in piv:
        return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(piv):
        x[pc] = M[r][nc]
    return x


def inverse(rows):
    """Exact inverse of a square matrix, from the rref of [rows | I];
    raises ValueError when it is singular."""
    n = len(rows)
    M, piv = rref([list(r) + [1 if i == j else 0 for j in range(n)]
                   for i, r in enumerate(rows)])
    if piv and piv[-1] >= n:
        raise ValueError("singular matrix")
    return [row[n:] for row in M]


# Matrices over Fraction are stored as lists of rows.  The matrices of a
# Chevalley basis are very sparse, so the kernels below touch nonzero
# entries only, and every zero they write is the one shared ZERO.

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
            k = len(self.basis)
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
