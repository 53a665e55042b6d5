"""Reduction of the bihamiltonian structure to a transversal slice by
second class constraints, for exact matrix Lie algebra data.

At the slice point q = I_- + sum u^k gamma_k the constraint blocks are
affine in (1, u^1, ..., u^n).  `_constraint_parts` builds their parts
once, and one chain, `_reduce`, turns them into the second-bracket
blocks.  The pencil's shift lam rides on u^n, the unit field, so the
first bracket is the derivative of the second along it.  The constraint
matrix is P0 + N, P0 constant and N raising the principal grade, so its
inverse is a finite series and the chain runs over any ring:

- `dirac_tensors`: Poly in the u^k, the first-bracket tensors the
  d/du^n derivatives of the second-bracket ones;
- `numeric_pencil`: Fraction at one point, at lam = 0, 1, 2, the levels
  read off the differences.

`central_invariants_dirac` hands the tensors and the kernel covectors
dlam at a point to `invariants.defect_invariants`.
"""

from fractions import Fraction

from .algebra import Poly
from .liealg import (determinant, inverse, madd, mcomm, mmul as mm, mscale,
                     mzero, nullspace, transpose)
from .invariants import defect_invariants
from .upoly import DegeneratePoint, interpolate, rational_roots


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
        gammas, exps = [], []
        for g in sorted(g for g in gk if g > 0):
            for v in gk[g]:
                gammas.append(alg.from_coords(v))
                exps.append(g)
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
    # in each grade, the duals are the candidates of the opposite grade
    # times the inverse of their pairing with the gammas of that grade
    gkm = alg.graded_kernel(alg.I_minus)
    gups = [None] * n
    for g in sorted(set(exps)):
        idx = [j for j, e in enumerate(exps) if e == g]
        cand = gkm.get(-g, [])
        if len(cand) != len(idx):
            raise ValueError("no dual generators at grade %s" % g)
        ms = [alg.from_coords(v) for v in cand]
        W = inverse([[alg.form(m, gammas[j]) for j in idx] for m in ms])
        for j, row in zip(idx, W):
            gups[j] = alg.from_coords([sum(w * v[k] for w, v in zip(row, cand))
                                       for k in range(alg.dim)])
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
    part.  Returns (P parts, R parts, Q, S, P0^-1) with the constant
    Q[a][b] = <f_a, f_b>, S[i][a] = <gamma^i, f_a> and P's constant part.
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
    P0 = mzero(len(fs))
    for a, b, v in Pparts[0]:
        P0[a][b], P0[b][a] = v, -v
    try:
        P0inv = inverse(P0)
    except ValueError:
        raise ValueError("degenerate constraint matrix") from None
    return Pparts, Rparts, Q, S, P0inv


def _times_inverse(X, P0inv, U):
    """X P^-1 = sum_k X P0^-1 U^k for P = P0 + N, U = -N P0^-1, in ring
    operations only.  N raises the principal grade, so the terms vanish
    from the m-th on (m = len(U)); one that does not is a ValueError."""
    term = out = mm(X, P0inv)
    for _ in range(len(U)):
        term = mm(term, U)
        if not any(x for row in term for x in row):
            return out
        out = madd(out, term)
    raise ValueError("constraint series does not terminate")


def _reduce(parts, coeffs):
    """The second-bracket blocks G2, T12, T22 from the constraint parts
    with the coefficients (1, c^1, ..., c^n), over their ring."""
    Pparts, Rparts, Q, S, P0inv = parts
    m2 = len(Q)
    zero = 0 * coeffs[0]
    negN = [[zero] * m2 for _ in range(m2)]     # -(P - P0)
    for c, part in zip(coeffs[1:], Pparts[1:]):
        for a, b, v in part:
            negN[a][b] -= c * v
            negN[b][a] += c * v
    R = [[zero] * m2 for _ in range(len(S))]
    for c, part in zip(coeffs[1:], Rparts):
        for i, a, v in part:
            R[i][a] += c * v
    U, n = mm(negN, P0inv), len(S)
    # r[k] = R P^-1 (Q P^-1)^k, and s[k] the same from S, stacked
    r, s, X = [], [], R + S
    for _ in range(4):
        X = _times_inverse(X, P0inv, U)
        r.append(X[:n])
        s.append(X[n:])
        X = mm(X, Q)
    Rt, St = transpose(R), transpose(S)

    def block(*terms):
        out = mzero(len(R))
        for sign, M in terms:
            out = madd(out, M, sign)
        return out

    # signs fixed by expanding -(1/eps) B M^-1 B+ with M = P + Q eps,
    # B = R + S eps at constant coefficients
    return (block((1, mm(r[1], Rt)), (-1, mm(s[0], Rt)), (1, mm(r[0], St))),
            block((-1, mm(r[2], Rt)), (1, mm(r[1], St)),
                  (-1, mm(s[1], Rt)), (1, mm(s[0], St))),
            block((1, mm(r[3], Rt)), (1, mm(r[2], St)),
                  (-1, mm(s[2], Rt)), (-1, mm(s[1], St))))


# the delta^(s) tensors (s = 1, 2, 3) of brackets 2 and 1, and their blocks
LEVELS = (('g2', 'g1'), ('A12', 'A11'), ('A22', 'A21'))
BLOCKS = {key: (a, s) for s, keys in enumerate(LEVELS, 1)
          for a, key in zip((2, 1), keys)}


def dirac_tensors(alg, slices):
    """Contravariant tensors of the reduced pencil in the coordinates
    u^i = <gamma^i, q>.

    Returns a dict of n x n Poly matrices: 'g2', 'g1', 'A12', 'A11',
    'A22', 'A21' (second index = shift level), entries polynomial in
    the u^i.  Each first-bracket tensor is the d/du^n derivative of its
    second-bracket one, which must be linear in u^n.
    """
    parts = _constraint_parts(alg, slices)
    coeffs = [Poly.num(1)] + [Poly.of('u', k + 1) for k in range(alg.n)]
    unit = ('u', alg.n, 0)
    out = {}
    for (k2, k1), M in zip(LEVELS, _reduce(parts, coeffs)):
        M = [[Poly() + x for x in row] for row in M]    # constants as Poly too
        D = [[x.diff(unit) for x in row] for row in M]
        if any(x.diff(unit) for row in D for x in row):
            raise ValueError("shift dependence not linear")
        out[k2], out[k1] = M, D
    return out


def central_invariants_dirac(tensors, n, upoint):
    """Evaluate the defect formula of the reduced pencil at a point with
    rational canonical coordinates, the roots lam of p(z) = det(g2 - z g1).

    The tensors are evaluated at the point first, and p is interpolated
    from its values at z = 0, ..., n.  At a simple root lam the
    symmetric g2 - lam g1 has a one-dimensional kernel, spanned by v, and
    dlam_k = v.(d_k g2 - lam d_k g1).v / v.g1.v (Hellmann-Feynman; the
    adjugate there is c v v^T with c != 0, so p'(lam) = -c v.g1.v and
    the denominator is nonzero).  Each tensor is one block of the formula.

    upoint: values of u^1..u^n.  Returns (roots, invariants).
    """
    usub = {('u', i + 1, 0): Fraction(v) for i, v in enumerate(upoint)}

    def at_point(M, v=None):
        return [[(e if v is None else e.diff(v)).subs(usub).constant()
                 for e in row] for row in M]

    def pencil(z, g2, g1):
        return [[a - z * b for a, b in zip(r2, r1)] for r2, r1 in zip(g2, g1)]

    def form(M, v):             # v.(M v)
        return sum(x * sum(a * y for a, y in zip(row, v)) for x, row in zip(v, M))

    vals = {key: at_point(T) for key, T in tensors.items()}
    g2, g1 = vals['g2'], vals['g1']
    dg = [(at_point(tensors['g2'], v), at_point(tensors['g1'], v)) for v in usub]
    zs = range(n + 1)
    roots = rational_roots(interpolate(zs, [determinant(pencil(z, g2, g1)) for z in zs]))
    if roots is None:
        raise DegeneratePoint("irrational canonical coordinates")
    dlams = []
    for lam in roots:
        v, = nullspace(pencil(lam, g2, g1))
        den = form(g1, v)
        dlams.append([(form(d2, v) - lam * form(d1, v)) / den for d2, d1 in dg])
    blocks = {BLOCKS[key]: [(j, k, x) for j, row in enumerate(T)
                            for k, x in enumerate(row) if x]
              for key, T in vals.items()}
    return roots, defect_invariants(roots, dlams, blocks)[1]


def numeric_pencil(alg, slices, upoint):
    """All six reduced tensors as Fraction matrices at one slice point,
    via evaluations at three values of the shift parameter."""
    parts = _constraint_parts(alg, slices)
    vals = []
    for lam in (0, 1, 2):
        coeffs = [Fraction(1)] + [Fraction(u) for u in upoint]
        coeffs[-1] += lam
        vals.append(_reduce(parts, coeffs))
    out = {}
    for idx, (k2, k1) in enumerate(LEVELS):
        a0 = vals[0][idx]
        a1 = madd(vals[1][idx], a0, -1)
        chk = madd(madd(vals[2][idx], a0, -1), a1, -2)
        if any(x for row in chk for x in row):
            raise ValueError("shift dependence not linear at this point")
        out[k2], out[k1] = a0, a1
    return out


def g2_slice(alg):
    """The transversal slice of the rank 2 algebra with the historical
    normalization of the grade 1 and grade 5 generators."""
    g1 = madd(mscale(alg.X[0], Fraction(3, 5)), alg.X[1])
    g2 = mscale(alg.root_vector((3, 2)), -1)
    return slice_bases(alg, [g1, g2])
