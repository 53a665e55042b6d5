"""Reduction of the bihamiltonian structure to a transversal slice by
second class constraints, for exact matrix Lie algebra data.

At the slice point q = I_- + sum u^k gamma_k the constraint blocks are
affine in (1, u^1, ..., u^n).  `slice_bases` builds their parts once,
with the slices (`_constraint_parts`, one product f_a x per f_a and
affine part x), and one chain, `_reduce`, turns them into the
second-bracket blocks.  The pencil's shift lam rides on u^n, the unit
field, so the first bracket is the derivative of the second along it.
The constraint matrix is P0 + N, P0 constant and N raising the
principal grade, so its inverse is a finite series, each term kept in
lowest terms.  The chain runs it over sparse rows of integral ring
elements, each matrix over one integer denominator, and divides the
blocks once at the end:

- `dirac_tensors`: Poly with int coefficients in the u^k, the
  first-bracket tensors the d/du^n derivatives of the second-bracket
  ones;
- `numeric_pencil`: one chain at one point, the u^k over their common
  denominator and the shift lam symbolic, so entries are int or Poly in
  lam; the two levels are the lam^0 and lam^1 parts.

`central_invariants_dirac` reads every tensor entry at a point once,
through `algebra.evaluate`, as integers over one denominator d;
`point_invariants`, which the fixture route runs on its cached
`algebra.Prepared` entries, does the rest in integers.  The pencil
G2 - z G1 is divided by its content, which changes neither its roots
nor its primitive kernel vectors.  p(z) = det(g2 - z g1) comes from the
n + 1 determinants at z = 0..n as n! p(z) (`upoly.scaled_interpolate`),
and the kernel vector v at a root lam = r/s from one fraction-free
elimination of s G2 - r G1 (`liealg.kernel_vector`).  The unit field e
shifts every canonical coordinate by one, so v spans dlam and
dlam = v / v[unit], with no derivative of any tensor.
`invariants.defect_invariants` runs on the v and the integer blocks,
and each c is multiplied by d v[unit]^2.
"""

from fractions import Fraction
from math import gcd, lcm

from .algebra import Poly, evaluate
from .liealg import (dense, determinant, flat, inverse, kernel_vector, madd, nullspace, rows,
                     scombine, scomm, shared, smul, sparse, spair)
from .invariants import defect_invariants
from .upoly import DegeneratePoint, rational_roots, scaled_interpolate


def slice_bases(alg, gammas=None):
    """The transversal slice data of a matrix Lie algebra.

    Returns a dict with keys 'gammas' (entries spanning Ker ad I_+ by
    grade), 'gamma_ups' (dual basis in Ker ad I_-, <gamma^i, gamma_j> =
    delta, as entries), 'f' (basis of n + its dual complement inside
    h + n^-, each as primitive integer entries), 'exponents' and 'parts'
    (`_constraint_parts`).

    The gamma_i, anything `liealg.sparse` reads, can be supplied to pin
    a normalization; the duals are always recomputed from the pairing.
    """
    n = alg.n
    if gammas is None:
        gk = alg.graded_kernel(alg.I_plus)
        gammas, exps = [], []
        for g in sorted(g for g in gk if g > 0):
            for v in gk[g]:
                gammas.append(alg.from_coords(v))
                exps.append(g)
        sg = gammas
    else:
        sg, exps = [sparse(g) for g in gammas], []
        for g in sg:
            c = alg.coords(g)
            grades = {alg.grades[i] for i, x in enumerate(c) if x}
            if len(grades) != 1:
                raise ValueError("gamma not graded")
            exps.append(grades.pop())
    if len(gammas) != n:
        raise ValueError("expected %d slice generators" % n)
    # in each grade, the duals are the candidates of the opposite grade,
    # the kernel of ad I_- there, times the inverse of their pairing with
    # the gammas of that grade
    gups = [None] * n

    def form(E, j):
        return spair(E, sg[j]) * alg.form_scale

    for g in sorted(set(exps)):
        idx = [j for j, e in enumerate(exps) if e == g]
        low = [b for b, h in zip(alg.basis, alg.grades) if h == -g]
        cand = nullspace(list(zip(*(alg.coords(scomm(alg.I_minus, b)) for b in low))))
        if len(cand) != len(idx):
            raise ValueError("no dual generators at grade %s" % g)
        ms = [scombine((x, b) for x, b in zip(v, low) if x) for v in cand]
        W = inverse([[form(m, j) for j in idx] for m in ms])
        for j, row in zip(idx, W):
            gups[j] = shared(scombine(zip(row, ms)))
    if any(form(gu, j) != int(i == j) for i, gu in enumerate(gups) for j in range(n)):
        raise ValueError("dual basis pairing failed")
    # n = positive part of the graded basis
    npos = [b for b, g in zip(alg.basis, alg.grades) if g > 0]
    nonpos = [i for i, g in enumerate(alg.grades) if g <= 0]
    # complement: annihilator of the gamma_i inside h + n^-
    ann = nullspace([[spair(alg.basis[k], gam) for k in nonpos] for gam in sg])
    # an f_a may be scaled: a vector on one basis element is that element
    terms = [[(x, alg.basis[k]) for k, x in zip(nonpos, v) if x] for v in ann]
    ndual = [t[0][1] if len(t) == 1 else scombine(t) for t in terms]
    if len(npos) != len(ndual):
        raise ValueError("slice complement has wrong dimension")
    f = []
    for E in npos + ndual:      # primitive integer entries, a basis element's own if it has them
        (F,), _ = _integral([E])
        g = gcd(*F.values())
        f.append(E if g == 1 and all(type(x) is int for x in E.values())
                 else {k: x // g for k, x in F.items()})
    out = {'gammas': gammas, 'gamma_ups': gups, 'f': f, 'exponents': exps}
    out['parts'] = _constraint_parts(alg, out)
    return out


def _integral(ms):
    """Rational entries as integer ones over one denominator: (list, d)."""
    d = lcm(*(x.denominator for E in ms for x in E.values()))
    return [{k: x.numerator * (d // x.denominator) for k, x in E.items()} for E in ms], d


def _constraint_parts(alg, slices):
    """The parts of the constraint blocks at q = I_- + sum u^k gamma_k.

    P[a][b] = <q, [f_b, f_a]> and R[i][a] = <q, [f_a, gamma^i]> are
    affine in (1, u^1, ..., u^n): their parts come from x_0 = I_- and
    x_k = gamma_k.  With A[a][b] = tr(f_a x f_b), <x, [f_b, f_a]> =
    <[f_a, x], f_b> = A[a][b] - A[b][a], so a P part takes one product
    f_a x per a, each f_a and x turned into rows once, paired with every
    f_b in one sparse product; R takes the brackets [gamma^i, x_k], as
    <x, [f_a, gamma^i]> = <[gamma^i, x], f_a>.  The blocks do not change
    when an f_a is scaled, and each has integer entries, the products run
    in integers.  Returns (P parts, R parts, Q, S, P0^-1) with Q[a][b] =
    <f_a, f_b> and S[i][a] = <gamma^i, f_a>, each matrix a pair (integer
    entries, denominator); the P and R parts are those of u^1..u^n, as
    _reduce reads P0 only through its inverse and R has no constant part.
    """
    sn, sd = alg.form_scale.as_integer_ratio()
    fs = slices['f']
    xs, dx = _integral([sparse(m) for m in [alg.I_minus] + slices['gammas']])
    gups, e = _integral(slices['gamma_ups'])
    # F[(c, r)][b] = sd <E_cr, f_b>, E_cr the unit matrix at (c, r), so
    # that the rows of (entries of M) F are the sd <M, f_b>
    F = {}
    for b, f in enumerate(fs):
        for (r, c), x in f.items():
            F.setdefault((c, r), {})[b] = x * sn

    def pairs(ms):
        return shared(flat(smul(dict(enumerate(ms)), F)))

    frows, P = [rows(f) for f in fs], []
    for x in map(rows, xs):
        A = pairs([flat(smul(fa, x)) for fa in frows])
        P.append(shared(scombine([(1, A), (-1, {(b, a): v for (a, b), v in A.items()})])))
    # f_a, f_b pair in P0 only when their grades sum to 1, so with f = n +
    # its complement P0 = [[0, B], [-B^T, 0]] and P0^-1 = [[0, -B^-T], [B^-1, 0]]
    h = len(fs) // 2
    B = {(a, b - h): x for (a, b), x in P[0].items() if a < h <= b}
    if 2 * len(B) != len(P[0]) or any(P[0].get((b + h, a)) != -x for (a, b), x in B.items()):
        raise ValueError("constraint matrix not of the form [[0, B], [-B^T, 0]]")
    try:
        Binv = sparse(inverse(dense(B, h)))
    except ValueError:
        raise ValueError("degenerate constraint matrix") from None
    W = {(c, h + r): -x for (r, c), x in Binv.items()}
    W.update({(h + r, c): x for (r, c), x in Binv.items()})
    (W,), w = _integral([W])
    return ([(E, dx * sd) for E in P[1:]],
            [(pairs([scomm(gu, x) for gu in gups]), e * dx * sd) for x in xs[1:]],
            (pairs(fs), sd), (pairs(gups), e * sd),
            (shared({k: v * dx * sd for k, v in W.items()}), w))


def _combine(terms):
    """sum c E / d over the terms (c, (E, d)), as one pair (E, d)."""
    terms = list(terms)
    den = lcm(*(d for _, (_, d) in terms))
    return scombine((c * (den // d), E) for c, (E, d) in terms), den


def _lowest(E, d):
    """Integral entries (int or Poly) over d, their common factor with d
    cancelled."""
    g = d
    for x in E.values():
        g = gcd(g, *x.terms.values()) if isinstance(x, Poly) else gcd(g, x)
        if g == 1:
            return E, d
    return {k: Poly({m: c // g for m, c in x.terms.items()}) if isinstance(x, Poly)
            else x // g for k, x in E.items()}, d // g


def _times_inverse(X, P0inv, U):
    """X P^-1 = sum_k X P0^-1 U^k for P = P0 + N, U = -N P0^-1, each
    matrix its rows of integral entries over a denominator.  Each term
    is kept in lowest terms (`_lowest`), and the sum is taken over the
    lcm of their denominators.  N raises the principal grade, so U is
    nilpotent and the terms vanish once k passes the number of nonzero
    rows of U; one that does not is a ValueError."""
    (Um, du), term = U, _lowest(flat(smul(X[0], P0inv[0])), X[1] * P0inv[1])
    terms = [term]
    for _ in range(len(Um) + 1):
        term = _lowest(flat(smul(rows(term[0]), Um)), term[1] * du)
        if not term[0]:
            E, d = _combine((1, t) for t in terms)
            return rows(E), d
        terms.append(term)
    raise ValueError("constraint series does not terminate")


def _reduce(parts, coeffs, den=1):
    """The second-bracket blocks G2, T12, T22 at the coefficients
    (1, c^1 / den, ..., c^n / den), the c^k integral ring elements (int
    or Poly with int coefficients).  The chain runs over the rows of
    integral matrices, one denominator each; the blocks are divided once,
    at the end."""
    P, R, Q, S, (W, w) = parts
    W = rows(W)
    # U = -N P0^-1 = -sum c^k P_k P0^-1 / den, each P_k P0^-1 in lowest terms
    U, e = _combine((-c, _lowest(flat(smul(rows(E), W)), d * w))
                    for c, (E, d) in zip(coeffs, P))
    P0inv, U = (W, w), (rows(U), den * e)
    R, e = _combine(zip(coeffs, R))
    Q, S, R = (rows(Q[0]), Q[1]), (rows(S[0]), S[1]), (rows(R), den * e)

    def chain(X, k):
        """X P^-1 (Q P^-1)^j for j < k"""
        out = []
        for _ in range(k):
            out.append(_times_inverse(X, P0inv, U))
            X = smul(out[-1][0], Q[0]), out[-1][1] * Q[1]
        return out
    r, s = chain(R, 4), chain(S, 3)
    Rt, St = ((rows({(c, r): x for (r, c), x in flat(M).items()}), d) for M, d in (R, S))
    n = len(coeffs)

    def block(*terms):
        E, d = _combine((sign, (flat(smul(A, B)), a * b)) for sign, (A, a), (B, b) in terms)
        q = Fraction(1, d)
        return [[E.get((i, j), 0) * q for j in range(n)] for i in range(n)]

    # signs fixed by expanding -(1/eps) B M^-1 B+ with M = P + Q eps,
    # B = R + S eps at constant coefficients
    return (block((1, r[1], Rt), (-1, s[0], Rt), (1, r[0], St)),
            block((-1, r[2], Rt), (1, r[1], St), (-1, s[1], Rt), (1, s[0], St)),
            block((1, r[3], Rt), (1, r[2], St), (-1, s[2], Rt), (-1, s[1], St)))


# the delta^(s) tensors (s = 1, 2, 3) of brackets 2 and 1, and their blocks
LEVELS = (('g2', 'g1'), ('A12', 'A11'), ('A22', 'A21'))
BLOCKS = {key: (a, s) for s, keys in enumerate(LEVELS, 1)
          for a, key in zip((2, 1), keys)}
SHIFT = ('lam', 0, 0)           # the pencil's shift in `numeric_pencil`


def dirac_tensors(alg, slices):
    """Contravariant tensors of the reduced pencil in the coordinates
    u^i = <gamma^i, q>.

    Returns a dict of n x n Poly matrices: 'g2', 'g1', 'A12', 'A11',
    'A22', 'A21' (second index = shift level), entries polynomial in
    the u^i.  Each first-bracket tensor is the d/du^n derivative of its
    second-bracket one, which must be linear in u^n.
    """
    coeffs = [Poly.of('u', k + 1) for k in range(alg.n)]
    unit = ('u', alg.n, 0)
    out = {}
    for (k2, k1), M in zip(LEVELS, _reduce(slices['parts'], coeffs)):
        M = [[Poly() + x for x in row] for row in M]    # constants as Poly too
        D = [[x.diff(unit) for x in row] for row in M]
        if any(x.diff(unit) for row in D for x in row):
            raise ValueError("shift dependence not linear")
        out[k2], out[k1] = M, D
    return out


def tensor_entries(tensors):
    """The entries of a dict of n x n matrices, matrix by matrix and row
    by row: the order in which `point_invariants` reads them."""
    return [x for T in tensors.values() for row in T for x in row]


def central_invariants_dirac(tensors, n, upoint, unit=None):
    """Evaluate the defect formula of the reduced pencil at a point with
    rational canonical coordinates, the roots lam of p(z) = det(g2 - z g1),
    in integers as the module docstring says.  A degree of p below n
    (det g1 = 0) and a kernel vector v with v[unit] = 0 are
    DegeneratePoints.

    upoint: values of u^1..u^n.  unit: the 0-based index of the
    coordinate along e, by default n - 1 (u^n on a slice).  Returns
    (roots, invariants).
    """
    return point_invariants(list(tensors), tensor_entries(tensors), n, upoint, unit)


def point_invariants(keys, entries, n, upoint, unit=None):
    """`central_invariants_dirac` for the tensors named by keys, given by
    their `tensor_entries` or the `algebra.Prepared` of those."""
    if len(upoint) != n:
        raise ValueError("expected %d coordinates, got %d" % (n, len(upoint)))
    unit = n - 1 if unit is None else unit
    nn = n * n
    nums, d = evaluate(entries, upoint)
    vals = dict(zip(keys, (nums[j:j + nn] for j in range(0, len(nums), nn))))
    # the pencil over its content: the same roots and primitive kernels
    g = gcd(*vals['g2'], *vals['g1']) or 1
    G2, G1 = ([x // g for x in vals[key]] for key in ('g2', 'g1'))

    def pencil(s, r):           # the rows of s G2 - r G1
        return [[s * a - r * b for a, b in zip(G2[i:i + n], G1[i:i + n])] for i in range(0, nn, n)]

    p = scaled_interpolate([determinant(pencil(1, z)) for z in range(n + 1)])
    if len(p) <= n:             # the z^n coefficient is n! (-1)^n det G1
        raise DegeneratePoint("first metric degenerate at this point")
    roots = rational_roots(p)
    if roots is None:
        raise DegeneratePoint("irrational canonical coordinates")
    vs = []
    for lam in roots:
        vs.append(kernel_vector(pencil(lam.denominator, lam.numerator)))
        if not vs[-1][unit]:
            raise DegeneratePoint("dlam vanishes on the unit field at lam = %s" % lam)
    blocks = {BLOCKS[key]: [(i // n, i % n, x) for i, x in enumerate(M) if x]
              for key, M in vals.items()}
    cs = defect_invariants(roots, vs, blocks)[1]
    return roots, [c * (d * v[unit] ** 2) for c, v in zip(cs, vs)]


def numeric_pencil(alg, slices, upoint):
    """All six reduced tensors as Fraction matrices at one slice point.

    One chain runs with the shift symbolic: the coefficients are the
    u^k over their common denominator den, the last one c^n + den lam,
    so the entries are int where lam does not reach and Poly in lam
    where it does.  The second-bracket tensors are the lam^0 parts and
    the first-bracket ones the lam^1 parts, the chain's values at lam = 1
    and 0 subtracted; a lam^2 or higher term is a ValueError."""
    if len(upoint) != alg.n:
        raise ValueError("expected %d coordinates, got %d" % (alg.n, len(upoint)))
    up = [Fraction(u) for u in upoint]
    den = lcm(*(u.denominator for u in up))
    c = [int(u * den) for u in up]          # the shift lam rides on u^n
    lam, out = Poly.from_var(SHIFT), {}
    for (k2, k1), M in zip(LEVELS, _reduce(slices['parts'], c[:-1] + [c[-1] + den * lam], den)):
        v0, v1 = ([[_at_shift(x, t) for x in row] for row in M] for t in (0, 1))
        out[k2], out[k1] = v0, madd(v1, v0, -1)
    return out


def _at_shift(x, t):
    """The value at lam = t of a Fraction or a Poly in lam of degree <= 1."""
    if not isinstance(x, Poly):
        return x
    cs = x.coeffs_in(SHIFT)
    if any(e > 1 for e in cs):
        raise ValueError("shift dependence not linear at this point")
    return sum((p.constant() * t ** e for e, p in cs.items()), Fraction(0))


def g2_slice(alg):
    """The transversal slice of the rank 2 algebra with the historical
    normalization of the grade 1 and grade 5 generators."""
    g1 = scombine([(Fraction(3, 5), alg.X[0]), (1, alg.X[1])])
    g2 = scombine([(-1, alg.root_vector((3, 2)))])
    return slice_bases(alg, [g1, g2])
