"""Exact Lie algebra data: Cartan matrices, matrix realizations,
principal gradings and slice bases; the one Fraction elimination,
`Echelon` (basis closure, `coords`, `nullspace`, `solve`, `inverse`),
and the point route's one integer route, fraction-free (Bareiss): the
`determinant` and one Gauss-Jordan elimination per `kernel_vector`.

A Lie matrix is its entries {(row, column): x} of the nonzero x, the
one format from the generators to the slice data, since Chevalley bases
are very sparse.  Stored entries are int where integral, keyed by one
shared table of index pairs (`shared`), so that what a pass keeps stays
small.  The products (`smul`, `scomm`) run on rows {row: {column: x}}
over any ring.  The dense helpers, on lists of rows with the one shared
ZERO, go through them; `Stored` reads entries as dense rows.
"""

from fractions import Fraction
from math import gcd
from operator import mul


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
# exact elimination: one Fraction row reduction, and integer determinants

ZERO = Fraction(0)


class Echelon:
    """Vectors as entries {key: x}, each reduced against the ones added
    before it with the combination it subtracts tracked; the independent
    ones are numbered 0, 1, ... in order of addition."""

    def __init__(self):
        # pivot key -> (row, 1 / pivot, k, other terms): the row is vector k
        # + sum c_i vector_i over the other terms (i, c_i), the added dict
        # itself when nothing reduced it
        self.pivots = {}

    def reduce(self, E):
        """(remainder, {k: c_k}) with E = remainder + sum c_k vector_k and
        the remainder zero at every pivot; each c_k a Fraction."""
        r, used = dict(E), {}
        for p, (row, inv, k, others) in self.pivots.items():
            f = r.get(p)
            if f:
                f = _compact(f * inv)       # the row stays in integers
                for c, x in row.items():
                    v = r.get(c, 0) - f * x
                    if v:
                        r[c] = v
                    else:
                        r.pop(c, None)
                used[k] = used.get(k, ZERO) + f
                for i, x in others:
                    used[i] = used.get(i, ZERO) + f * x
        return r, used

    def add(self, E):
        """None when E is independent of the vectors added before, which
        stores it; else E's combination of them, as `reduce` gives it."""
        r, used = self.reduce(E)
        if not r:
            return used
        piv = min(r)
        self.pivots[piv] = (r if any(used.values()) else E, _compact(Fraction(1, r[piv])),
                            len(self.pivots), tuple(sorted((i, -u) for i, u in used.items() if u)))
        return None


def determinant(rows):
    """Determinant of a square integer matrix, an int, by fraction-free
    elimination (Bareiss 1968); each division is exact.

    >>> determinant([[0, 2], [3, 1]])    # one row swap
    -6
    """
    M, sign, prev = list(rows), 1, 1
    while M:
        i = next((i for i, r in enumerate(M) if r[0]), None)
        if i is None:
            return 0
        if i:
            M[0], M[i], sign = M[i], M[0], -sign
        (p, *top), rest = M[0], M[1:]
        M = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], top)] for r in rest]
        prev = p
    return sign * prev


def kernel_vector(rows):
    """The primitive integer vector spanning the right kernel of a square
    integer matrix A of corank 1: a nonzero column of adj(A), in the
    kernel as A adj(A) = det(A) I = 0, over its gcd.  For the first j
    whose other rows have rank n - 1, one fraction-free Gauss-Jordan
    elimination of those rows gives the (-1)^i det(A without row j and
    column i): s D at the free column f and -s M[k][f] at the pivot of
    row k, D the last pivot and s = (-1)^f times the row-swap parity.  A
    ValueError for corank 0 (A v != 0) or 2 and more (no such j).

    >>> kernel_vector([[1, 2], [2, 4]])
    [2, -1]
    """
    n = len(rows)
    for j in range(n):
        M, sign, prev, piv = [*rows[:j], *rows[j + 1:]], 1, 1, []
        for c in range(n):
            k = len(piv)
            i = next((i for i in range(k, n - 1) if M[i][c]), None)
            if i is not None:
                M[k], M[i], sign = M[i], M[k], sign if i == k else -sign
                top, p = M[k], M[k][c]
                M = [r if h == k else [(p * x - r[c] * y) // prev for x, y in zip(r, top)]
                     for h, r in enumerate(M)]
                prev = p
                piv.append(c)
        if len(piv) == n - 1:
            f = n * (n - 1) // 2 - sum(piv)         # the free column
            s, col = -sign if f % 2 else sign, dict(zip(piv, M))
            v = [s * prev if c == f else -s * col[c][f] for c in range(n)]
            g = gcd(*v)
            v = [x // g for x in v]
            if any(sum(map(mul, r, v)) for r in rows):
                raise ValueError("matrix has corank 0")
            return v
    raise ValueError("matrix has corank 2 or more")


def nullspace(rows):
    """Basis of the right kernel, the reduced echelon one: for each
    column that depends on the columns before it, 1 there and minus its
    (unique) combination at the independent columns.

    >>> nullspace([[1, 2, 0], [2, 4, 0]]) == [[-2, 1, 0], [0, 0, 1]]
    True
    """
    ech, piv, out = Echelon(), [], []
    for j, col in enumerate(zip(*rows)):
        c = ech.add({i: x for i, x in enumerate(col) if x})
        if c is None:
            piv.append(j)
            continue
        v = [ZERO] * len(rows[0])
        v[j] = Fraction(1)
        for k, x in c.items():
            v[piv[k]] = -x
        out.append(v)
    return out


def solve(rows, rhs):
    """One solution of rows . x = rhs over Fraction, or None: the kernel
    vector of [rows | -rhs] whose free column is the last one."""
    nc = len(rows[0])
    return next((v[:nc] for v in nullspace([list(r) + [-b] for r, b in zip(rows, rhs)])
                 if v[nc]), None)


def inverse(rows):
    """Exact inverse of a square matrix over Fraction, column k the
    combination of its columns giving e_k; a ValueError when singular."""
    n, ech = len(rows), Echelon()
    for j in range(n):
        if ech.add({i: r[j] for i, r in enumerate(rows) if r[j]}) is not None:
            raise ValueError("singular matrix")
    cols = [ech.reduce({k: 1})[1] for k in range(n)]
    return [[c.get(i, ZERO) for c in cols] for i in range(n)]


_KEYS = {}      # the index pairs of `shared`: positions only, each pair once


# ---------------------------------------------------------------------------
# sparse matrices

def sparse(M):
    """The entries of a matrix: entries as given, a `Stored` one's own
    (neither to be changed), dense rows without their zeros."""
    if isinstance(M, dict):
        return M
    if isinstance(M, Stored):
        return M.entries
    return {(r, c): x for r, row in enumerate(M) for c, x in enumerate(row)
            if x is not ZERO and x}


def _compact(x):
    """x as stored: an int where integral."""
    return x.numerator if x.denominator == 1 else x


def shared(E):
    """The entries E as stored: integral ones as int, the keys from one
    table of index pairs, so that stored matrices share their positions."""
    return {_KEYS.setdefault(k, k): _compact(x) for k, x in E.items()}


class Stored:
    """A square matrix kept as its entries and read as its dense rows of
    Fraction, built afresh at each read: the slice generators that
    `fixtures.load_gammas` returns."""
    __slots__ = ('entries', 'size')

    def __init__(self, entries, size):
        self.entries, self.size = entries, size

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(dense({k: Fraction(x) for k, x in self.entries.items()}, self.size))


def dense(E, n, m=None):
    """The dense n x m matrix of the entries E, ZERO elsewhere."""
    return [[E.get((r, c), ZERO) for c in range(m or n)] for r in range(n)]


def rows(E):
    out = {}
    for (r, c), x in E.items():
        out.setdefault(r, {})[c] = x
    return out


def flat(R):
    """The entries of the rows R, without the zeros."""
    return {(r, c): x for r, row in R.items() for c, x in row.items() if x}


def _mul_into(acc, A, B, s=1):
    """acc += s A B over rows, the cancelled entries left as zeros."""
    for r, ra in A.items():
        row = acc.setdefault(r, {})
        for k, a in ra.items():
            rb = B.get(k)
            if rb:
                if s != 1:
                    a = s * a
                for c, b in rb.items():
                    v = row.get(c)
                    row[c] = a * b if v is None else v + a * b
    return acc


def smul(A, B):
    """The rows of AB from the rows of A and B."""
    out = ((r, {c: x for c, x in row.items() if x}) for r, row in _mul_into({}, A, B).items())
    return {r: row for r, row in out if row}


def scomm(A, B):
    """The entries of AB - BA."""
    A, B = rows(A), rows(B)
    return flat(_mul_into(_mul_into({}, A, B), B, A, -1))


def scombine(terms):
    """The entries of sum c E over the pairs (c, E)."""
    out = {}
    for c, E in terms:
        for k, x in E.items():
            v = out.get(k)
            out[k] = c * x if v is None else v + c * x
    return {k: x for k, x in out.items() if x}


def spair(A, B):
    """tr(AB)."""
    return sum((a * B[c, r] for (r, c), a in A.items() if (c, r) in B), ZERO)


# dense matrices: lists of rows, through the sparse kernels

def madd(A, B, s=1):
    """A + s B."""
    return dense(scombine([(1, sparse(A)), (s, sparse(B))]), len(A), len(A[0]))


def mmul(A, B):
    return dense(flat(smul(rows(sparse(A)), rows(sparse(B)))), len(A), len(B[0]))


def mcomm(A, B):
    """AB - BA."""
    return dense(scomm(sparse(A), sparse(B)), len(A))


class MatrixLieAlgebra:
    """A simple Lie algebra realized by matrices, generated by Chevalley
    triples (X_i, Y_i) in some faithful representation.

    The basis is built by bracket closure and consists of root vectors,
    each stored as its entries: `weights[k]` holds the coefficients of
    the root of `basis[k]` over the simple roots (zero for the Cartan
    elements).  X, Y, H, I_plus, I_minus and rho are entries too, as are
    what `root_vector` and `from_coords` return and what `coords` and
    `ad_matrix` take.  The generators may be given as anything `sparse`
    reads; `size` is 1 + the largest index of their entries.
    """

    def __init__(self, n, X, Y, form_scale, dim):
        self.n = n
        self.form_scale = Fraction(form_scale)
        self.dim = dim
        self.X, self.Y = ([shared(sparse(m)) for m in M] for M in (X, Y))
        self.size = 1 + max((max(k) for m in self.X + self.Y for k in m), default=-1)
        self.H = [shared(scomm(x, y)) for x, y in zip(self.X, self.Y)]
        self._close_basis()
        self._principal()

    def _close_basis(self):
        self.basis, self.weights = [], []
        # the basis in one Echelon: its pivot rows have shared keys, like m's
        self._echelon = Echelon()

        def try_add(m, w):
            if self._echelon.add(m) is not None:
                return False
            self.basis.append(m)
            self.weights.append(w)
            return True

        n = self.n
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        gens = (list(zip(self.X, unit))
                + [(y, tuple(-e for e in w)) for y, w in zip(self.Y, unit)])
        for m, w in gens[:n] + [(h, (0,) * n) for h in self.H] + gens[n:]:
            try_add(m, w)
        frontier = list(zip(self.basis, self.weights))
        while len(self.basis) < self.dim and frontier:
            new = []
            for g, wg in gens:
                for b, wb in frontier:
                    c = shared(scomm(g, b))
                    w = tuple(x + y for x, y in zip(wg, wb))
                    if try_add(c, w):
                        new.append((c, w))
            frontier = new
        if len(self.basis) != self.dim:
            raise ValueError("closure gave dim %d, expected %d"
                             % (len(self.basis), self.dim))

    def coords(self, m):
        """Coordinates of the entries m in the basis."""
        r, used = self._echelon.reduce(m)
        if r:
            raise ValueError("matrix outside the algebra")
        return [used.get(k, ZERO) for k in range(len(self.basis))]

    def from_coords(self, x):
        """The entries of sum x_k basis[k]."""
        return scombine((c, b) for c, b in zip(x, self.basis) if c)

    def realized_cartan(self):
        """C[i][j] = alpha_j(H_i), read off from [H_i, X_j] = C X_j."""
        C = [[ZERO] * self.n for _ in range(self.n)]
        for i, Hi in enumerate(self.H):
            for j, Xj in enumerate(self.X):
                b = scomm(Hi, Xj)
                vals = {Fraction(b.get(rc, 0), x) for rc, x in Xj.items()}
                if len(vals) > 1:
                    raise ValueError("X_%d not a weight vector" % (j + 1))
                C[i][j] = vals.pop() if vals else Fraction(0)
        return C

    def _principal(self):
        C = self.realized_cartan()
        Ct = [list(r) for r in zip(*C)]
        a = solve(Ct, [Fraction(2)] * self.n)
        if a is None:
            raise ValueError("principal sl2 system unsolvable")
        self.I_plus = shared(scombine(zip(a, self.X)))
        self.rho = shared(scombine((ai / 2, h) for ai, h in zip(a, self.H)))
        self.I_minus = scombine((1, y) for y in self.Y)
        # [rho, X_j] = X_j, so the principal grade of a root vector is the
        # height of its root; one Fraction object per grade value
        one = {}
        self.grades = [one.setdefault(g, Fraction(g)) for g in map(sum, self.weights)]
        if scomm(self.I_plus, self.I_minus) != scombine([(2, self.rho)]):
            raise ValueError("principal sl2 relations fail")

    def ad_matrix(self, m):
        """ad m in basis coordinates (columns = images of basis vectors)."""
        cols = [self.coords(scomm(m, b)) for b in self.basis]
        return [list(r) for r in zip(*cols)]

    def graded_kernel(self, m):
        """Kernel of ad m for a homogeneous m, by principal grade: dict
        grade -> coord vectors.  ad m then maps each grade to one grade,
        so every vector of the reduced echelon kernel basis is homogeneous."""
        out = {}
        for v in nullspace(self.ad_matrix(m)):
            grades = {self.grades[i] for i, x in enumerate(v) if x}
            if len(grades) != 1:
                raise ValueError("ad m mixes grades")
            out.setdefault(grades.pop(), []).append(v)
        return out

    def root_vector(self, nvec):
        """The root space element for the root sum n_i alpha_i, scaled so
        that the first nonzero entry in row-major order is 1, as entries."""
        nvec = tuple(nvec)
        found = [b for b, w in zip(self.basis, self.weights) if w == nvec]
        if len(found) != 1:
            raise ValueError("root space has dimension %d" % len(found))
        m, = found
        return shared(scombine([(Fraction(1, m[min(m)]), m)]))


def g2_algebra():
    """G2 in its 7-dimensional representation; <a, b> = tr(ab)/2."""
    def E(pairs):
        return {(i - 1, j - 1): c for i, j, c in pairs}
    X1 = E([(1, 2, 1), (3, 4, 2), (4, 5, 1), (6, 7, 1)])
    X2 = E([(2, 3, 1), (5, 6, 1)])
    Y1 = E([(2, 1, 1), (4, 3, 1), (5, 4, 2), (7, 6, 1)])
    Y2 = E([(3, 2, 1), (6, 5, 1)])
    return MatrixLieAlgebra(2, [X1, X2], [Y1, Y2], Fraction(1, 2), 14)
