"""Cartan data, exact linear algebra and the rank 2 matrix model."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from dscentral import liealg
from dscentral.algebra import Poly
from dscentral.liealg import (cartan_matrix, root_lengths,
                              lie_central_invariants, fold, determinant,
                              inverse, kernel_vector, nullspace, solve, mcomm,
                              madd, dense, scombine, scomm, g2_algebra)


def test_cartan_matrices_well_formed():
    for typ, n in (('A', 4), ('B', 4), ('C', 4), ('D', 4),
                   ('E', 6), ('E', 7), ('E', 8), ('F', 4), ('G', 2)):
        C = cartan_matrix(typ, n)
        assert all(C[i][i] == 2 for i in range(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert C[i][j] <= 0
                    assert (C[i][j] == 0) == (C[j][i] == 0)


def test_cartan_symmetrizable():
    for typ, n in (('B', 3), ('C', 3), ('F', 4), ('G', 2)):
        C = cartan_matrix(typ, n)
        d = root_lengths(typ, n)
        for i in range(n):
            for j in range(n):
                assert d[i] * C[i][j] == d[j] * C[j][i]


def test_root_lengths():
    assert root_lengths('A', 3) == [Fraction(2)] * 3
    assert root_lengths('B', 3) == [Fraction(2), Fraction(2), Fraction(1)]
    assert root_lengths('C', 3) == [Fraction(1), Fraction(1), Fraction(2)]
    assert root_lengths('G', 2) == [Fraction(2, 3), Fraction(2)]
    assert root_lengths('F', 4) == [Fraction(2), Fraction(2),
                                    Fraction(1), Fraction(1)]


def test_fold_matches_direct():
    assert fold('B', 4) == lie_central_invariants('B', 4)
    assert fold('C', 4) == lie_central_invariants('C', 4)
    assert fold('F', 4) == lie_central_invariants('F', 4)
    assert fold('G', 3) == lie_central_invariants('G', 2)
    assert fold('G', 4) == lie_central_invariants('G', 2)


def test_solve_nullspace():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(n)]
        sol = solve(A, b)
        if determinant(A):
            assert sol == x
        else:
            assert sol is None or \
                all(sum(A[i][j] * sol[j] for j in range(n)) == b[i]
                    for i in range(n))
    ns = nullspace([[Fraction(1), Fraction(1), Fraction(0)]])
    assert len(ns) == 2


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    tot = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        tot += (-1) ** j * m[0][j] * naive_det(sub)
    return tot


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(5):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert determinant(m) == naive_det(m)


INTS = st.integers(-5, 5)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def matrices(draw, entry, square=False, max_size=5):
    """r x c matrices of `entry`, r = c when square, r, c <= max_size;
    some with zeros atop the first column (row swaps), some with a zero
    column, and some with a row that is a multiple of the first
    (singular)."""
    r = draw(st.integers(1, max_size))
    c = r if square else draw(st.integers(1, max_size))
    M = [[draw(entry) for _ in range(c)] for _ in range(r)]
    for i in range(draw(st.integers(0, r - 1))):
        M[i][0] = 0 * M[i][0]
    if draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, c - 1))
        for row in M:
            row[j] = 0 * row[j]
    if r > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        M[draw(st.integers(1, r - 1))] = [k * x for x in M[0]]
    return M


@settings(max_examples=150, deadline=None)
@given(matrices(INTS, square=True))
def test_determinant_agrees_with_cofactor_expansion(M):
    got = determinant(M)
    assert type(got) is int
    assert got == naive_det(M)


# the dense Gauss-Jordan sweeps that `Echelon` replaced, kept as the
# reference that nullspace, solve and inverse equal exactly

def echelon(rows):
    """Forward sweep: (echelon rows, pivot columns), int entries made
    Fractions.  Each pivot row is divided by its pivot and subtracted
    from the rows below with a nonzero in its column."""
    M = [[Fraction(x) for x in r] for r in rows]
    nr, piv = len(M), []
    for c in range(len(M[0])):
        r = len(piv)
        pr = next((i for i in range(r, nr) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv if x else x for x in M[r]]
        _clear(M[r + 1:], c, M[r])
        piv.append(c)
    return M, piv


def _clear(rows, c, prow):
    """Subtract multiples of a pivot row with a 1 at column c from rows."""
    pivot = [(j, y) for j, y in enumerate(prow) if y]
    for row in rows:
        f = row[c]
        if f:
            for j, y in pivot:
                row[j] -= f * y


def reduced_echelon(rows):
    """The reduced echelon form and its pivot columns."""
    M, piv = echelon(rows)
    for r in range(len(piv) - 1, 0, -1):
        _clear(M[:r], piv[r], M[r])
    return M, piv


def dense_nullspace(rows):
    M, piv = reduced_echelon(rows)
    out = []
    for fc in range(len(M[0])):
        if fc not in piv:
            v = [Fraction(0)] * len(M[0])
            v[fc] = Fraction(1)
            for row, pc in zip(M, piv):
                v[pc] = -row[fc]
            out.append(v)
    return out


def dense_solve(rows, rhs):
    nc = len(rows[0])
    M, piv = reduced_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if nc in piv:
        return None
    x = [Fraction(0)] * nc
    for row, pc in zip(M, piv):
        x[pc] = row[nc]
    return x


def dense_inverse(rows):
    n = len(rows)
    M, piv = reduced_echelon([list(r) + [int(i == j) for j in range(n)]
                              for i, r in enumerate(rows)])
    if piv[-1] >= n:
        raise ValueError("singular matrix")
    return [row[n:] for row in M]


def _all_fractions(*vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([INTS, FRACTIONS]).flatmap(matrices), st.data())
def test_elimination_equals_dense_gauss_jordan(M, data):
    # square, wide and tall shapes, zero columns, repeated rows, singular
    ns = nullspace(M)
    assert ns == dense_nullspace(M)
    assert _all_fractions(*ns)
    # a right-hand side in the column span, or off it
    x = data.draw(st.lists(INTS, min_size=len(M[0]), max_size=len(M[0])))
    off = data.draw(st.lists(FRACTIONS, min_size=len(M), max_size=len(M)))
    t = data.draw(st.sampled_from([0, 1]))
    rhs = [sum(a * y for a, y in zip(row, x)) + t * o for row, o in zip(M, off)]
    sol = solve(M, rhs)
    assert sol == dense_solve(M, rhs)
    assert sol is None or _all_fractions(sol)
    if len(M) == len(M[0]):
        try:
            want = dense_inverse(M)
        except ValueError:
            with pytest.raises(ValueError, match='singular matrix'):
                inverse(M)
        else:
            W = inverse(M)
            assert W == want
            assert _all_fractions(*W)


def test_one_row_reduction_tracks_its_combinations():
    ech = liealg.Echelon()
    assert ech.add({0: 2, 1: 4}) is None
    assert ech.add({1: 3}) is None
    # dependent: the combination of the vectors added before it
    assert ech.add({0: 1, 1: 5}) == {0: Fraction(1, 2), 1: Fraction(1)}
    assert ech.add({}) == {}
    r, used = ech.reduce({0: 4, 2: 1})
    assert r == {2: 1} and used == {0: Fraction(2), 1: Fraction(-8, 3)}
    # a row that nothing reduced is kept as the caller's dict
    E = {5: 7}
    assert ech.add(E) is None
    assert ech.pivots[5][0] is E


def _product(B, C):
    return [[sum(b * c for b, c in zip(row, col)) for col in zip(*C)] for row in B]


@st.composite
def products(draw, inner):
    """(n x n product B C through an (n - inner) dimensional space, n)."""
    n = draw(st.integers(inner + 1, 5))
    ints = st.integers(-4, 4)
    B = [[draw(ints) for _ in range(n - inner)] for _ in range(n)]
    C = [[draw(ints) for _ in range(n)] for _ in range(n - inner)]
    return _product(B, C), n


def _corank(A):
    return len(nullspace(A))


@settings(max_examples=100, deadline=None)
@given(products(1))
def test_kernel_vector_is_primitive_and_in_the_kernel(case):
    A, n = case
    assume(_corank(A) == 1)
    v = kernel_vector(A)
    assert all(type(x) is int for x in v) and any(v)
    assert gcd(*v) == 1
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)


@settings(max_examples=50, deadline=None)
@given(products(2))
def test_kernel_vector_refuses_corank_two(case):
    A, n = case
    with pytest.raises(ValueError, match='corank 2 or more'):
        kernel_vector(A)


def kernel_vector_by_minors(rows):
    """Reference: the n-minor adjugate route that `kernel_vector` replaced.
    For the first j whose minors are not all zero, the vector of
    (-1)^i det(A without row j and column i) over its gcd."""
    for j in range(len(rows)):
        minor = rows[:j] + rows[j + 1:]
        v = [(-1) ** i * determinant([r[:i] + r[i + 1:] for r in minor])
             for i in range(len(rows))]
        if any(v):
            g = gcd(*v)
            v = [x // g for x in v]
            if any(sum(a * x for a, x in zip(r, v)) for r in rows):
                raise ValueError("matrix has corank 0")
            return v
    raise ValueError("matrix has corank 2 or more")


@st.composite
def square_matrices(draw):
    """An n x n integer matrix, n <= 6: any entries (mostly corank 0), a
    product through a smaller space (corank >= 1), or, generically,
    corank 1 with the left kernel w zero at rows 0..j-1, so that the rows
    without row i have rank n - 1 first at i = j <= 2."""
    n, scale = draw(st.integers(1, 6)), draw(st.sampled_from([1, 10 ** 12]))
    ints = st.integers(-4, 4).map(lambda x: x * scale)
    kind = draw(st.sampled_from(['any', 'product', 'drop']))
    if kind == 'any':
        return [[draw(ints) for _ in range(n)] for _ in range(n)]
    if kind == 'product':
        inner = draw(st.integers(0, n - 1))
        B = [[draw(ints) for _ in range(inner)] for _ in range(n)]
        C = [[draw(ints) for _ in range(n)] for _ in range(inner)]
        return [[sum(b * c for b, c in zip(row, col)) for col in zip(*C)] if inner else [0] * n
                for row in B]
    j = draw(st.integers(0, min(2, n - 1)))
    A = [[draw(ints) for _ in range(n)] for _ in range(n)]
    w = [0] * j + [1] + [draw(ints) for _ in range(n - j - 1)]
    A[j] = [-sum(wi * r[c] for i, (wi, r) in enumerate(zip(w, A)) if i != j) for c in range(n)]
    return A


def _kernel_or_error(kernel, A):
    try:
        return kernel([list(r) for r in A])
    except ValueError as ex:
        return 'ValueError: %s' % ex


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_kernel_vector_matches_the_minor_route(A):
    assert _kernel_or_error(kernel_vector, A) == _kernel_or_error(kernel_vector_by_minors, A)


def test_kernel_vector_examples():
    assert kernel_vector([[1, 2], [2, 4]]) == [2, -1]
    assert kernel_vector([[0]]) == [1]
    # a zero first adjugate column: v_0 = 0, so the second column is read
    assert kernel_vector([[1, 0, 0], [0, 1, 1], [0, 2, 2]]) == [0, -1, 1]
    # the rows without row 0, and those without row 1, have rank 2 of 3:
    # the third column is read
    A = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2]]
    assert kernel_vector(A) == kernel_vector_by_minors(A) == [0, 0, 1, -1]
    for A in ([[1, 2], [3, 4]], [[5]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]]):
        with pytest.raises(ValueError, match='corank 0'):
            kernel_vector(A)
    with pytest.raises(ValueError, match='corank 2 or more'):
        kernel_vector([[0, 0], [0, 0]])


def test_elimination_over_each_scalar():
    # int entries, promoted to Fraction by the elimination
    def entries(*ms):
        return [x for m in ms for row in m for x in row]

    def times(A, v):
        return [sum((a * x for a, x in zip(row, v)), 0) for row in A]

    # a row swap at the first pivot flips the determinant's sign
    assert determinant([[0, 1], [1, 0]]) == -1
    A = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert determinant(A) == 4
    W = inverse(A)
    for j in range(3):
        col = times(A, [row[j] for row in W])
        assert col == [int(i == j) for i in range(3)]
    # singular: the determinant is 0 and the inverse refuses
    S = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert determinant(S) == 0
    with pytest.raises(ValueError, match='singular'):
        inverse(S)
    # rank 2 of 4 columns: two independent kernel vectors
    N = [[1, 2, 0, 1], [2, 4, 1, 3], [3, 6, 1, 4]]
    ns = nullspace(N)
    assert len(ns) == 4 - 2
    for v in ns:
        assert not any(times(N, v))
    assert determinant([[int(v[1]), int(v[3])] for v in ns]) != 0
    # every elimination output is a Fraction, never a float or an int;
    # the determinants are ints
    assert {type(x) for x in entries(W, ns)} == {Fraction}
    assert {type(determinant(A)), type(determinant(S))} == {int}


def test_solve_inconsistent():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(A, [Fraction(1), Fraction(3)]) is None


def test_g2_model_structure():
    alg = g2_algebra()
    assert alg.dim == 14
    assert alg.size == 7
    assert len(alg.basis) == 14
    assert alg.realized_cartan() == cartan_matrix('G', 2)
    # principal grades run from -5 to 5
    assert sorted(set(alg.grades)) == list(range(-5, 6))


def test_g2_principal_sl2():
    alg = g2_algebra()
    Ip, Im, rho = (dense(m, alg.size) for m in (alg.I_plus, alg.I_minus, alg.rho))
    assert mcomm(Ip, Im) == [[2 * x for x in row] for row in rho]


def test_g2_root_vector_of_simple_roots():
    alg = g2_algebra()
    assert alg.root_vector([1, 0]) == alg.X[0]
    assert alg.root_vector([0, 1]) == alg.X[1]


def test_g2_chevalley_tower():
    alg = g2_algebra()
    # the highest root vector, with the sign of the grade 5 slice generator
    top = scombine([(-1, alg.root_vector((3, 2)))])
    assert scomm(alg.X[0], top) == {}
    assert scomm(alg.X[1], top) == {}
    # and lives at grade 5
    c = alg.coords(top)
    grades = {alg.grades[i] for i, x in enumerate(c) if x}
    assert grades == {5}


def test_matrix_algebra_rejects_bad_sl2():
    X = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]]
    Y = [[[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]]
    with pytest.raises(ValueError, match='closure gave dim 1'):
        liealg.MatrixLieAlgebra(1, X, Y, Fraction(1), 3)


def _roots(C):
    """All roots as coefficient tuples over the simple roots: the orbit of
    the simple roots under the simple reflections, with the pairing
    <beta, alpha_i^> = sum_j C[i][j] n_j read off the realized Cartan
    matrix."""
    n = len(C)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            k = sum(C[i][j] * beta[j] for j in range(n))
            img = tuple(b - k * (j == i) for j, b in enumerate(beta))
            if img not in seen:
                seen.add(img)
                todo.append(img)
    return sorted(seen)


@pytest.mark.parametrize('name', ['g2', 'f4'])
def test_root_vector_every_root(name):
    from dscentral import fixtures
    alg = g2_algebra() if name == 'g2' else fixtures.build_algebra(name)
    C = alg.realized_cartan()
    roots = _roots(C)
    assert len(roots) == alg.dim - alg.n
    assert sum(1 for r in roots if min(r) >= 0) == len(roots) // 2
    for nvec in roots:
        m = alg.root_vector(list(nvec))
        assert m
        assert next(x for row in dense(m, alg.size) for x in row if x) == 1
        for i, Hi in enumerate(alg.H):
            lam = sum(C[i][j] * nvec[j] for j in range(alg.n))
            assert scomm(Hi, m) == scombine([(lam, m)]), (nvec, i)


@pytest.mark.parametrize('name', ['g2', 'f4'])
def test_stored_basis_round_trip(name):
    # the basis is stored as its nonzero entries, inside the matrix
    from dscentral import fixtures
    alg = g2_algebra() if name == 'g2' else fixtures.build_algebra(name)
    assert len(alg.basis) == alg.dim
    for b in alg.basis:
        assert b and all(x for x in b.values())
        assert all(0 <= r < alg.size and 0 <= c < alg.size for r, c in b)
    rng = random.Random(13)
    for _ in range(10):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
        m = alg.from_coords(x)
        assert alg.coords(m) == x
        assert alg.from_coords(alg.coords(m)) == m


def test_root_vector_rejects_non_roots():
    alg = g2_algebra()
    with pytest.raises(ValueError, match='root space has dimension 2'):
        alg.root_vector([0, 0])
    with pytest.raises(ValueError, match='root space has dimension 0'):
        alg.root_vector([2, 0])


def _random_sparse(rng, n, m, density):
    # fresh zero objects on purpose: the kernels must not rely on sharing
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             if rng.random() < density else Fraction(0) for _ in range(m)]
            for _ in range(n)]


def test_matrix_kernels_match_dense_formulas():
    # the same draws twice: Fraction entries, then Poly entries x * y,
    # whose zeros are fresh empty Polys that the kernels must skip
    y = Poly.of('y')
    for kind, lift in ((Fraction, lambda x: x), (Poly, lambda x: x * y)):
        rng = random.Random(11)
        zero = lift(Fraction(0))

        def sparse(n, m, density):
            return [[lift(x) for x in row]
                    for row in _random_sparse(rng, n, m, density)]

        for trial in range(30):
            n = rng.randint(1, 9)
            density = rng.choice([0.0, 0.05, 0.2, 0.6, 1.0])
            A = sparse(n, n, density)
            B = sparse(n, n, density)
            s = rng.choice([1, -1, 0, Fraction(rng.randint(-5, 5), 3)])
            prod = [[sum((A[i][k] * B[k][j] for k in range(n)), zero)
                     for j in range(n)] for i in range(n)]
            rprod = [[sum((B[i][k] * A[k][j] for k in range(n)), zero)
                      for j in range(n)] for i in range(n)]
            want = {
                'madd': [[a + s * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)],
                'mmul': prod,
                'mcomm': [[x - y for x, y in zip(rx, ry)] for rx, ry in zip(prod, rprod)],
            }
            got = {'madd': madd(A, B, s), 'mmul': liealg.mmul(A, B), 'mcomm': mcomm(A, B)}
            for key, M in got.items():
                assert M == want[key], (kind, trial, key)
                assert all(type(x) is kind or x is liealg.ZERO
                           for row in M for x in row), (kind, trial, key)
            assert liealg.spair(liealg.sparse(A), liealg.sparse(B)) == sum(
                (prod[i][i] for i in range(n)), zero)
        # rectangular products
        A = sparse(3, 5, 0.3)
        B = sparse(5, 2, 0.3)
        assert liealg.mmul(A, B) == [[sum((A[i][k] * B[k][j] for k in range(5)),
                                          zero) for j in range(2)]
                                     for i in range(3)]
