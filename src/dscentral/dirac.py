"""Reduction of the bihamiltonian structure to a transversal slice by
second class constraints, for exact matrix Lie algebra data.

All tensors are computed symbolically in the slice coordinates u^i and
an auxiliary shift parameter; the shift-linear parts are the level-one
tensors of the pencil.
"""

from fractions import Fraction

from .algebra import Poly, bareiss_det, bareiss_adjugate
from .invariants import DegeneratePoint, _rational_roots
from . import liealg
from .liealg import mzero, madd, mscale, mcomm, nullspace


LAM = ('lam', 0, 0)


def slice_bases(alg, gammas=None):
    """The transversal slice data of a matrix Lie algebra.

    Returns a dict with keys 'gammas' (matrices spanning Ker ad I_+ by
    grade), 'gamma_ups' (dual basis in Ker ad I_-, <gamma^i, gamma_j> =
    delta), 'f' (basis of n + its dual complement inside h + n^-) and
    'exponents'.

    The gamma_i can be supplied explicitly to pin a normalization; the
    duals are always recomputed from the pairing.
    """
    n = alg.n
    if gammas is None:
        gk = alg.graded_kernel(alg.I_plus)
        gammas = []
        exps = sorted(g for g in gk if g > 0)
        for g in exps:
            for v in gk[g]:
                gammas.append(alg.from_coords(v))
    else:
        exps = []
        for g in gammas:
            c = alg.coords(g)
            grades = {alg.grades[i] for i, x in enumerate(c) if x}
            if len(grades) != 1:
                raise ValueError("gamma not graded")
            exps.append(grades.pop())
    if len(gammas) != n:
        raise ValueError("expected %d slice generators" % n)
    gkm = alg.graded_kernel(alg.I_minus)
    gups = []
    for g, gam in zip(exps, gammas):
        cand = gkm.get(-g, [])
        pick = None
        for v in cand:
            m = alg.from_coords(v)
            pr = alg.form(m, gam)
            if pr:
                if pick is not None:
                    raise ValueError("ambiguous dual generator at grade %s" % g)
                pick = mscale(m, 1 / pr)
        if pick is None:
            raise ValueError("no dual generator at grade %s" % g)
        gups.append(pick)
    for i, gu in enumerate(gups):
        for j, gam in enumerate(gammas):
            want = Fraction(1) if i == j else Fraction(0)
            if alg.form(gu, gam) != want:
                raise ValueError("dual basis pairing failed")
    # n = positive part of the graded basis
    npos = [b for b, g in zip(alg.basis, alg.grades) if g > 0]
    nonpos = [i for i, g in enumerate(alg.grades) if g <= 0]
    # complement: annihilator of the gamma_i inside h + n^-
    rows = [[alg.form(alg.basis[k], gam) for k in nonpos] for gam in gammas]
    ann = nullspace(rows)
    ndual = []
    for v in ann:
        c = [Fraction(0)] * alg.dim
        for k, x in zip(nonpos, v):
            c[k] = x
        ndual.append(alg.from_coords(c))
    if len(npos) != len(ndual):
        raise ValueError("slice complement has wrong dimension")
    return {'gammas': gammas, 'gamma_ups': gups, 'f': npos + ndual,
            'exponents': exps}


def _affine(alg, const_m, gammas, alpha, probe):
    """Poly  <const + sum u_i gamma_i + lam alpha, probe>  for a fixed
    probe matrix."""
    out = Poly.num(alg.form(const_m, probe)) if const_m is not None else Poly()
    for i, gam in enumerate(gammas):
        c = alg.form(gam, probe)
        if c:
            out = out + Poly.of('u', i + 1) * c
    c = alg.form(alpha, probe)
    if c:
        out = out + Poly.from_var(LAM) * c
    return out


def dirac_tensors(alg, slices=None):
    """Contravariant tensors of the reduced pencil in the coordinates
    u^i = <gamma^i, q>.

    Returns a dict of n x n Poly matrices: 'g2', 'g1', 'A12', 'A11',
    'A22', 'A21' (second index = shift level), entries polynomial in
    the u^i.
    """
    if slices is None:
        slices = slice_bases(alg)
    gammas, gups, fs = slices['gammas'], slices['gamma_ups'], slices['f']
    n = alg.n
    m2 = len(fs)
    alpha = gammas[-1]

    # P(u, lam) and the constant Q
    P = [[Poly() for _ in range(m2)] for _ in range(m2)]
    Q = [[Poly.num(alg.form(fa, fb)) for fb in fs] for fa in fs]
    for a in range(m2):
        for b in range(a + 1, m2):
            br = mcomm(fs[a], fs[b])
            pol = -_affine(alg, alg.I_minus, gammas, alpha, br)
            P[a][b] = pol
            P[b][a] = -pol
    # R(u, lam) and the constant S, n x 2m
    R = [[Poly() for _ in range(m2)] for _ in range(n)]
    S = [[Poly.num(alg.form(gu, fa)) for fa in fs] for gu in gups]
    for i in range(n):
        for a in range(m2):
            br = mcomm(gups[i], fs[a])
            R[i][a] = -_affine(alg, None, gammas, alpha, br)

    adj, det = bareiss_adjugate(P)
    if det.is_zero():
        raise ValueError("degenerate constraint matrix")

    def pm(A, B):
        return [[sum((A[i][t] * B[t][j] for t in range(len(B))), Poly())
                 for j in range(len(B[0]))] for i in range(len(A))]

    Rt, St = _transpose(R), _transpose(S)
    r0 = pm(R, adj)              # R P^-1 * det
    s0 = pm(S, adj)
    QA = pm(Q, adj)
    r1 = pm(r0, QA)              # R P^-1 Q P^-1 * det^2
    s1 = pm(s0, QA)
    s2 = pm(s1, QA)
    r2 = pm(r1, QA)
    r3 = pm(r2, QA)

    def combine(terms, power):
        """terms: list of (num matrix, det-power deficit); divide the
        total by det**power exactly."""
        out = [[Poly() for _ in range(n)] for _ in range(n)]
        for M, d in terms:
            f = det ** d
            for i in range(n):
                for j in range(n):
                    out[i][j] = out[i][j] + M[i][j] * f
        dp = det ** power
        return [[e.divexact(dp) if not e.is_zero() else e for e in row]
                for row in out]

    # signs fixed by expanding -(1/eps) N M^-1 N+ with M = P + Q eps d,
    # N = R + S eps d at constant coefficients
    G2 = combine([(pm(r1, Rt), 0), (mneg(pm(s0, Rt)), 1), (pm(r0, St), 1)], 2)
    T12 = combine([(mneg(pm(r2, Rt)), 0), (pm(r1, St), 1),
                   (mneg(pm(s1, Rt)), 1), (pm(s0, St), 2)], 3)
    T22 = combine([(pm(r3, Rt), 0), (pm(r2, St), 1),
                   (mneg(pm(s2, Rt)), 1), (mneg(pm(s1, St)), 2)], 4)

    def split(M, linear_only=True):
        a0 = [[Poly() for _ in range(n)] for _ in range(n)]
        a1 = [[Poly() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                parts = M[i][j].coeffs_in(LAM)
                for e, pol in parts.items():
                    if e == 0:
                        a0[i][j] = pol
                    elif e == 1:
                        a1[i][j] = pol
                    elif linear_only and not pol.is_zero():
                        raise ValueError("shift dependence not linear")
        return a0, a1

    g2, g1 = split(G2)
    A12, A11 = split(T12)
    A22, A21 = split(T22)
    return {'g2': g2, 'g1': g1, 'A12': A12, 'A11': A11,
            'A22': A22, 'A21': A21}


def mneg(A):
    return [[-e for e in row] for row in A]


def _transpose(A):
    return [list(r) for r in zip(*A)]


def char_poly(tensors, n):
    """p(z; u) = det(g2 - z g1) as a Poly in z and the u^i."""
    z = Poly.of('z')
    M = [[tensors['g2'][i][j] - z * tensors['g1'][i][j] for j in range(n)]
         for i in range(n)]
    return bareiss_det(M)


def central_invariants_dirac(tensors, n, upoint):
    """Evaluate the defect formula of the reduced pencil at a point with
    rational canonical coordinates.

    The tensors are evaluated at the point first: p(z) = det(g2 - z g1)
    is a univariate determinant there, and each partial derivative
    d_k p comes from Jacobi's formula, as the sum over rows r of the
    determinant with row r replaced by d_k g2 - z d_k g1.

    upoint: values of u^1..u^n.  Returns (roots, invariants).
    """
    usub = {('u', i + 1, 0): Fraction(v) for i, v in enumerate(upoint)}
    zvar = ('z', 0, 0)
    z = Poly.of('z')

    def at_point(M, v=None):
        return [[(e if v is None else e.diff(v)).subs(usub).constant()
                 for e in row] for row in M]

    def pencil(v=None):
        return [[Poly.num(a) - z * b for a, b in zip(r2, r1)]
                for r2, r1 in zip(at_point(tensors['g2'], v),
                                  at_point(tensors['g1'], v))]

    M = pencil()
    p0 = bareiss_det(M)
    dp = []
    for k in range(n):
        dM = pencil(('u', k + 1, 0))
        dp.append(sum((bareiss_det(M[:r] + [dM[r]] + M[r + 1:])
                       for r in range(n)), Poly()))
    pz = p0.diff(zvar)
    cz = {e: c.constant() for e, c in p0.coeffs_in(zvar).items()}
    roots = _rational_roots(cz)
    if roots is None:
        raise DegeneratePoint("irrational canonical coordinates")
    roots = sorted(roots)

    def at(pol, z):
        return sum((c.constant() * z ** e
                    for e, c in pol.coeffs_in(zvar).items()), Fraction(0))

    g1 = at_point(tensors['g1'])
    A22 = at_point(tensors['A22'])
    A21 = at_point(tensors['A21'])
    out = []
    for z in roots:
        d = [at(x, z) for x in dp]
        num = sum(d[k] * d[l] * (A22[k][l] - z * A21[k][l])
                  for k in range(n) for l in range(n))
        den = sum(d[k] * d[l] * g1[k][l] for k in range(n) for l in range(n))
        if den == 0:
            raise DegeneratePoint("degenerate first metric direction")
        out.append(Fraction(1, 3) * at(pz, z) ** 2 * num / den ** 2)
    return roots, out


def _blocks_at(P, Q, R, S):
    """The three second-bracket blocks G2, T12, T22 at a single point,
    from the constraint blocks P (antisymmetric, invertible), Q, R, S as
    Fraction matrices."""
    m2 = len(P)
    aug = liealg.rref([list(r) + [Fraction(1) if i == j else Fraction(0)
                                  for j in range(m2)]
                       for i, r in enumerate(P)])[0]
    if any(aug[i][i] != 1 for i in range(m2)):
        raise ValueError("degenerate constraint matrix at this point")
    Pinv = [row[m2:] for row in aug]
    mm = liealg.mmul

    def qp(M):                   # M P^-1 Q P^-1 = (M P^-1) Q P^-1
        return mm(mm(M, Q), Pinv)

    Rt, St = _transpose(R), _transpose(S)
    r0 = mm(R, Pinv)
    s0 = mm(S, Pinv)
    r1 = qp(r0)
    s1 = qp(s0)
    s2 = qp(s1)
    r2 = qp(r1)
    r3 = qp(r2)
    add, neg = liealg.madd, lambda A: liealg.mscale(A, -1)
    G2 = add(mm(r1, Rt), add(neg(mm(s0, Rt)), mm(r0, St)))
    T12 = add(neg(mm(r2, Rt)), add(mm(r1, St),
              add(neg(mm(s1, Rt)), mm(s0, St))))
    T22 = add(mm(r3, Rt), add(mm(r2, St),
              add(neg(mm(s2, Rt)), neg(mm(s1, St)))))
    return G2, T12, T22


def numeric_pencil(alg, slices, upoint):
    """All six reduced tensors as Fraction matrices at one slice point,
    via evaluations at three values of the shift parameter.

    The constraint blocks pair a point with brackets of the f_a, which do
    not depend on the shift.  Invariance of the form turns each pairing
    <q, [x, f_b]> into <[q, x], f_b>, so only the brackets [q, f_a] and
    [q, gamma^i] are formed, once per shift value, and every pairing with
    f_b runs over the few nonzero entries of f_b.
    """
    gammas, gups, fs = slices['gammas'], slices['gamma_ups'], slices['f']
    alpha = gammas[-1]
    n, m2 = alg.n, len(fs)
    scale = alg.form_scale
    # <M, f> = tr(M f) * scale over the nonzero entries (r, c, x) of f
    fnz = [[(r, c, x) for r, row in enumerate(f) for c, x in enumerate(row) if x]
           for f in fs]

    def pair(M, nz):
        return sum(M[c][r] * x for r, c, x in nz if M[c][r]) * scale

    q = mzero(len(alpha))
    for u, gam in zip(upoint, gammas):
        q = madd(q, gam, Fraction(u))
    Q = [[pair(fa, nz) for nz in fnz] for fa in fs]
    S = [[pair(gu, nz) for nz in fnz] for gu in gups]
    vals = []
    for lam in (0, 1, 2):
        ql = madd(q, alpha, Fraction(lam))
        qfull = madd(ql, alg.I_minus)
        P = mzero(m2)
        for a, fa in enumerate(fs):
            K = mcomm(qfull, fa)        # <qfull, [f_a, f_b]> = <[qfull, f_a], f_b>
            for b in range(a + 1, m2):
                v = -pair(K, fnz[b])
                P[a][b] = v
                P[b][a] = -v
        R = [[-pair(K, nz) for nz in fnz]
             for K in (mcomm(ql, gu) for gu in gups)]
        vals.append(_blocks_at(P, Q, R, S))
    out = {}
    for idx, (k2, k1) in enumerate((('g2', 'g1'), ('A12', 'A11'),
                                    ('A22', 'A21'))):
        a0 = vals[0][idx]
        a1 = madd(vals[1][idx], a0, -1)
        chk = madd(madd(vals[2][idx], a0, -1), a1, -2)
        if any(x for row in chk for x in row):
            raise ValueError("shift dependence not linear at this point")
        out[k2] = a0
        out[k1] = a1
    return out


def g2_slice(alg):
    """The transversal slice of the rank 2 algebra with the historical
    normalization of the grade 1 and grade 5 generators."""
    Xt, _ = liealg.chevalley_tower_g2(alg)
    g1 = madd(mscale(alg.X[0], Fraction(3, 5)), alg.X[1])
    g2 = Xt[-1]
    return slice_bases(alg, [g1, g2])
