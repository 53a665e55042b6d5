"""Reduction of the bihamiltonian structure to a transversal slice by
second class constraints, for exact matrix Lie algebra data.

At the slice point q = I_- + sum u^k gamma_k + lam gamma_n the
constraint blocks are affine in (1, u^1, ..., u^n), the shift lam riding
on u^n.  `_constraint_parts` builds their parts once, and one chain,
`_reduce`, turns them into the second-bracket blocks, whose parts of
degree 0 and 1 in lam are the two levels of the pencil.  The chain runs
over either scalar ring:

- `dirac_tensors`: Poly in the u^k and lam, with P^-1 = W / d from a
  single fraction-free adjugate;
- `numeric_pencil`: Fraction at one point, with the exact inverse of P
  at lam = 0, 1, 2, the levels read off the differences.
"""

from fractions import Fraction

from .algebra import Poly, bareiss_det, bareiss_adjugate
from .invariants import DegeneratePoint, _rational_roots
from . import liealg
from .liealg import (ZERO, inverse, madd, mcomm, mscale, mzero, nullspace,
                     transpose)


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


def _constraint_parts(alg, slices):
    """The parts of the constraint blocks at q = I_- + sum u^k gamma_k.

    P[a][b] = -<q, [f_a, f_b]> and R[i][a] = -<q, [gamma^i, f_a]> are
    affine in (1, u^1, ..., u^n): their parts come from x_0 = I_- and
    x_k = gamma_k, with <x, [f_a, f_b]> = <[x, f_a], f_b>, so only the
    brackets [x_k, f_a] and [x_k, gamma^i] are formed.  Each part is a
    list of its nonzero entries (row, column, value); P's parts are
    antisymmetric and list the upper triangle, and R has no constant
    part.  Returns (P parts, R parts, Q, S) with the constant
    Q[a][b] = <f_a, f_b> and S[i][a] = <gamma^i, f_a>.
    """
    gammas, gups, fs = slices['gammas'], slices['gamma_ups'], slices['f']
    scale = alg.form_scale
    # <M, f> = tr(M f) * scale over the nonzero entries (r, c, x) of f
    fnz = [[(r, c, x) for r, row in enumerate(f) for c, x in enumerate(row) if x]
           for f in fs]

    def pair(M, nz):
        return sum(M[c][r] * x for r, c, x in nz if M[c][r]) * scale

    def nonzero(entries):
        return [e for e in entries if e[2]]

    Pparts = [nonzero((a, b, -pair(K, fnz[b]))
                      for a, K in enumerate(mcomm(x, fa) for fa in fs)
                      for b in range(a + 1, len(fs)))
              for x in [alg.I_minus] + gammas]
    Rparts = [nonzero((i, a, -pair(K, nz))
                      for i, K in enumerate(mcomm(gam, gu) for gu in gups)
                      for a, nz in enumerate(fnz))
              for gam in gammas]
    Q = [[pair(fa, nz) for nz in fnz] for fa in fs]
    S = [[pair(gu, nz) for nz in fnz] for gu in gups]
    return Pparts, Rparts, Q, S


def _reduce(parts, coeffs, zero, invert):
    """The second-bracket blocks G2, T12, T22 from the constraint parts
    with the coefficients (1, c^1, ..., c^n), over the ring of `zero`;
    invert(P) gives (W, d) with P^-1 = W / d."""
    Pparts, Rparts, Q, S = parts
    m2 = len(Q)
    P = [[zero] * m2 for _ in range(m2)]
    for c, part in zip(coeffs, Pparts):
        for a, b, v in part:
            P[a][b] += c * v
            P[b][a] -= c * v
    R = [[zero] * m2 for _ in range(len(S))]
    for c, part in zip(coeffs[1:], Rparts):
        for i, a, v in part:
            R[i][a] += c * v
    W, d = invert(P)
    mm = liealg.mmul
    QW = mm(Q, W)
    r, s = [mm(R, W)], [mm(S, W)]    # r[k] = R P^-1 (Q P^-1)^k d^(k+1)
    for _ in range(3):
        r.append(mm(r[-1], QW))
    for _ in range(2):
        s.append(mm(s[-1], QW))
    Rt, St = transpose(R), transpose(S)

    def block(terms, power):
        # terms: (sign, product, power of d it lacks); sum, then divide
        out = mzero(len(R))
        for sign, M, k in terms:
            out = madd(out, M, sign * d ** k)
        dp = d ** power
        return [[x / dp if x else x for x in row] for row in out]

    # signs fixed by expanding -(1/eps) N M^-1 N+ with M = P + Q eps d,
    # N = R + S eps d at constant coefficients
    return (block([(1, mm(r[1], Rt), 0), (-1, mm(s[0], Rt), 1),
                   (1, mm(r[0], St), 1)], 2),
            block([(-1, mm(r[2], Rt), 0), (1, mm(r[1], St), 1),
                   (-1, mm(s[1], Rt), 1), (1, mm(s[0], St), 2)], 3),
            block([(1, mm(r[3], Rt), 0), (1, mm(r[2], St), 1),
                   (-1, mm(s[2], Rt), 1), (-1, mm(s[1], St), 2)], 4))


LEVELS = (('g2', 'g1'), ('A12', 'A11'), ('A22', 'A21'))


def dirac_tensors(alg, slices=None):
    """Contravariant tensors of the reduced pencil in the coordinates
    u^i = <gamma^i, q>.

    Returns a dict of n x n Poly matrices: 'g2', 'g1', 'A12', 'A11',
    'A22', 'A21' (second index = shift level), entries polynomial in
    the u^i.  The shift lam is kept symbolic, so P has one adjugate.
    """
    if slices is None:
        slices = slice_bases(alg)
    parts = _constraint_parts(alg, slices)
    coeffs = [Poly.num(1)] + [Poly.of('u', k + 1) for k in range(alg.n)]
    coeffs[-1] = coeffs[-1] + Poly.from_var(LAM)

    def adjugate(P):
        W, d = bareiss_adjugate(P)
        if d.is_zero():
            raise ValueError("degenerate constraint matrix")
        return W, d

    out = {}
    for (k2, k1), M in zip(LEVELS, _reduce(parts, coeffs, Poly(), adjugate)):
        split = [[x.coeffs_in(LAM) if x else {} for x in row] for row in M]
        if any(e > 1 for row in split for c in row for e in c):
            raise ValueError("shift dependence not linear")
        out[k2], out[k1] = ([[c.get(e, Poly()) for c in row] for row in split]
                            for e in (0, 1))
    return out


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


def numeric_pencil(alg, slices, upoint):
    """All six reduced tensors as Fraction matrices at one slice point,
    via evaluations at three values of the shift parameter."""
    parts = _constraint_parts(alg, slices)
    vals = []
    for lam in (0, 1, 2):
        coeffs = [Fraction(1)] + [Fraction(u) for u in upoint]
        coeffs[-1] += lam
        vals.append(_reduce(parts, coeffs, ZERO, lambda P: (inverse(P), 1)))
    out = {}
    for idx, (k2, k1) in enumerate(LEVELS):
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
