"""Cartan data, exact linear algebra and the rank 2 matrix model."""

import random
from fractions import Fraction

import pytest

from dscentral import liealg
from dscentral.algebra import Poly
from dscentral.liealg import (cartan_matrix, root_lengths, coroot_gram,
                              lie_central_invariants, fold, rref, nullspace,
                              solve, rank, mcomm, mscale, madd, mzero,
                              g2_algebra, chevalley_tower_g2)


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


def test_coroot_gram_diagonal():
    G = coroot_gram('G', 2)
    # (a^, a^) = 4 / (a, a): 6 for the short root, 2 for the long one
    assert G[0][0] == 6
    assert G[1][1] == 2


def test_invariant_values_from_coroots():
    for typ, n in (('A', 3), ('B', 3), ('G', 2), ('F', 4)):
        G = coroot_gram(typ, n)
        cs = lie_central_invariants(typ, n)
        assert cs == [G[i][i] / 48 for i in range(n)]


def test_fold_matches_direct():
    assert fold('B', 4) == lie_central_invariants('B', 4)
    assert fold('C', 4) == lie_central_invariants('C', 4)
    assert fold('F', 4) == lie_central_invariants('F', 4)
    assert fold('G', 3) == lie_central_invariants('G', 2)
    assert fold('G', 4) == lie_central_invariants('G', 2)


def test_rref_solve_nullspace():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        A = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(n)]
        sol = solve(A, b)
        if rank(A) == n:
            assert sol == x
        else:
            assert sol is None or \
                all(sum(A[i][j] * sol[j] for j in range(n)) == b[i]
                    for i in range(n))
    ns = nullspace([[Fraction(1), Fraction(1), Fraction(0)]])
    assert len(ns) == 2


def test_solve_inconsistent():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(A, [Fraction(1), Fraction(3)]) is None


def test_g2_model_structure():
    alg = g2_algebra()
    assert alg.dim == 14
    assert len(alg.basis) == 14
    assert alg.realized_cartan() == cartan_matrix('G', 2)
    # principal grades run from -5 to 5
    assert sorted(set(alg.grades)) == list(range(-5, 6))


def test_g2_principal_sl2():
    alg = g2_algebra()
    assert mcomm(alg.I_plus, alg.I_minus) == mscale(alg.rho, 2)


def test_g2_root_vector_of_simple_roots():
    alg = g2_algebra()
    assert alg.root_vector([1, 0]) == alg.X[0]
    assert alg.root_vector([0, 1]) == alg.X[1]


def test_g2_chevalley_tower():
    alg = g2_algebra()
    Xs, Ys = chevalley_tower_g2(alg)
    # highest root vector commutes with both positive generators
    top = Xs[-1]
    assert mcomm(alg.X[0], top) == mzero(7)
    assert mcomm(alg.X[1], top) == mzero(7)
    # and lives at grade 5
    c = alg.coords(top)
    grades = {alg.grades[i] for i, x in enumerate(c) if x}
    assert grades == {5}


def test_matrix_algebra_rejects_bad_sl2():
    X = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]]
    Y = [[[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]]
    with pytest.raises(Exception):
        liealg.MatrixLieAlgebra('bad', 'A', 1, X, Y, Fraction(1), 3)


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
    size = len(alg.X[0])
    for nvec in roots:
        m = alg.root_vector(list(nvec))
        assert m != mzero(size)
        assert next(x for row in m for x in row if x) == 1
        for i, Hi in enumerate(alg.H):
            lam = sum(C[i][j] * nvec[j] for j in range(alg.n))
            assert mcomm(Hi, m) == mscale(m, lam), (nvec, i)


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
                'mscale': [[a * s for a in row] for row in A],
                'mmul': prod,
                'mcomm': [[x - y for x, y in zip(rx, ry)] for rx, ry in zip(prod, rprod)],
            }
            got = {'madd': madd(A, B, s), 'mscale': mscale(A, s),
                   'mmul': liealg.mmul(A, B), 'mcomm': mcomm(A, B)}
            for key, M in got.items():
                assert M == want[key], (kind, trial, key)
                assert all(type(x) is kind or x is liealg.ZERO
                           for row in M for x in row), (kind, trial, key)
            assert liealg.mtrace_prod(A, B) == sum(
                (prod[i][i] for i in range(n)), zero)
        # rectangular products
        A = sparse(3, 5, 0.3)
        B = sparse(5, 2, 0.3)
        assert liealg.mmul(A, B) == [[sum((A[i][k] * B[k][j] for k in range(5)),
                                          zero) for j in range(2)]
                                     for i in range(3)]
