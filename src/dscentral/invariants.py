"""Canonical coordinates and central invariants of the scalar-Lax
bihamiltonian pencils.

The pencil is diagonalized at the critical points of the symbol; the
delta'', delta''' blocks of the bracket tables, contracted with the
Jacobian of the critical values, feed the defect formula

    c_i = ( Q2_ii - lam_i Q1_ii
            + sum_{k != i} (P2_ki - lam_i P1_ki)^2 / (f_k (lam_k - lam_i)) )
          / (3 f_i^2).
"""

import functools
import math
from fractions import Fraction

from .algebra import Poly
from .brackets import bracket_table
from .lax import NU, u_list, lambda_xpoly, capital_lambda, capital_lambda_tilde
from . import liealg


class DegeneratePoint(Exception):
    """The symbol has coinciding or otherwise unusable critical data."""


def _poly_coeffs(p, vname):
    """Laurent Poly in a single variable -> dict power -> Fraction."""
    out = {}
    for e, c in p.coeffs_in((vname, 0, 0)).items():
        out[e] = c.constant()
    return out


def _eval1(coeffs, x):
    """A polynomial (dict power -> Fraction, nonnegative powers) at x,
    by Horner's rule in integers: with x = a/b, L the common denominator
    and d the degree, the value is sum (L c_e) a^e b^(d-e) / (L b^d)."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    deg = max(coeffs)
    a, b = x.numerator, x.denominator
    v, bpow = 0, 1
    for e in range(deg, -1, -1):
        c = coeffs.get(e, 0)
        v = v * a + c.numerator * (den // c.denominator) * bpow
        bpow *= b
    return Fraction(v, den * b ** deg)


# Integer polynomials below are coefficient lists, constant term first,
# with a nonzero last entry.

def _value(p, x):
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _primitive(p):
    g = math.gcd(*p)
    return [c // g for c in p]


def _prem(a, b):
    """A positive multiple of the remainder of a by b."""
    r = list(a)
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) >= len(b):
        c, k = s * r[-1], len(r) - len(b)
        r = [m * x for x in r]
        for i, y in enumerate(b):
            r[i + k] -= c * y
        while r and not r[-1]:
            r.pop()
    return r


def _exquo(a, b):
    """a / b for a monic b that divides a."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(out))):
        c = out[k] = a[k + len(b) - 1]
        for i, y in enumerate(b):
            a[i + k] -= c * y
    return out


def _sturm(q):
    """Sturm sequence of q, each term a positive multiple of the classical
    one, so the signs are the same; the last term is gcd(q, q')."""
    seq = [q, _primitive([i * c for i, c in enumerate(q)][1:])]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in _primitive(r)])
    return seq


def _variations(values):
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _single_root(q, a, b):
    """The root of q in (a, b], where q has exactly one, simple root, if
    it is an integer, else None.  Bisects on the sign of q alone."""
    vb = _value(q, b)
    if vb == 0:
        return b
    while b - a > 1:
        m = (a + b) // 2
        vm = _value(q, m)
        if vm == 0:
            return m
        if (vm > 0) == (vb > 0):
            b, vb = m, vm
        else:
            a = m
    return None


def _integer_roots(seq):
    """Ascending integer roots of the squarefree monic q = seq[0], given
    its Sturm sequence."""
    q = seq[0]
    d = len(q) - 1
    # V is constant beyond the roots of q, so the values at -B and B are
    # the signs of the leading coefficients at -inf and +inf
    vlo = _variations([p[-1] * (-1) ** (len(p) - 1) for p in seq])
    vhi = _variations([p[-1] for p in seq])
    if vlo - vhi == d:
        # all roots real: their squares sum to q_{d-1}^2 - 2 q_{d-2}
        bound = math.isqrt(q[d - 1] ** 2 - 2 * (q[d - 2] if d > 1 else 0)) + 1
    else:
        bound = 1 + max(abs(c) for c in q[:-1])   # Cauchy
    out = []
    # (a, V(a), b, V(b)): V(a) - V(b) roots lie in (a, b]
    stack = [(-bound, vlo, bound, vhi)]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            y = _single_root(q, a, b)
            if y is not None:
                out.append(y)
        elif va - vb > 1:
            if b - a == 1:
                # several roots, and only b can be an integer
                if _value(q, b) == 0:
                    out.append(b)
                continue
            m = (a + b) // 2
            vm = _variations([_value(p, m) for p in seq])
            stack += [(m, vm, b, vb), (a, va, m, vm)]
    return sorted(out)


def _rational_roots(coeffs):
    """All roots of a rational-coefficient polynomial, ascending, if they
    are all rational and simple, else None.  A repeated rational root
    raises DegeneratePoint, also next to irrational ones.  coeffs: dict
    power -> Fraction over nonnegative powers; the largest key is the
    degree, so a zero entry there leaves a root missing and gives None.

    Exact, float-free and without factoring: a rational root x of the
    primitive integer polynomial p (degree d, leading coefficient
    lc > 0) is y / lc for an integer root y of the monic integer
    polynomial q(y) = lc^(d-1) p(y / lc).  The real roots of q are
    isolated with a Sturm sequence by bisecting on integers, and an
    interval that holds one root is bisected on the sign of q until q
    vanishes at an integer or the interval is (l, l+1).

    >>> _rational_roots({2: Fraction(6), 1: Fraction(-1), 0: Fraction(-1)})
    [Fraction(-1, 3), Fraction(1, 2)]
    >>> print(_rational_roots({2: Fraction(1), 0: Fraction(-2)}))
    None
    """
    deg = max(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    p = [c.numerator * (den // c.denominator)
         for c in (coeffs.get(e, 0) for e in range(deg + 1))]
    while p and not p[-1]:
        p.pop()
    if len(p) < 2:
        return [] if deg == 0 else None
    p = _primitive(p if p[-1] > 0 else [-c for c in p])
    d, lc = len(p) - 1, p[-1]
    q = [c * lc ** (d - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    seq = _sturm(q)
    g = seq[-1]
    if len(g) > 1:
        # g = gcd(q, q') holds the repeated roots; the integer ones are
        # among the integer roots of the squarefree part q / g
        g = g if g[-1] > 0 else [-c for c in g]
        if any(_value(g, y) == 0
               for y in _integer_roots(_sturm(_exquo(q, g)))):
            raise DegeneratePoint("repeated critical point")
        return None
    ys = _integer_roots(seq)
    if len(ys) != deg:
        return None
    return [Fraction(y, lc) for y in ys]


def canonical_coordinates(series, n, u):
    """Critical points and values of the symbol: list of (r, lam).

    A: lam at the roots of lam'; B, C: Lam at the roots of Lam' (in the
    capital variable) plus the distinguished pair (0, Lam(0)) in the last
    slot; D: Lam~ = Lam/P at the roots of P Lam' - Lam.

    All values are exact Fractions; a point whose critical points are not
    all rational raises DegeneratePoint.
    """
    u = u_list(series, n, u)
    if series == 'A':
        lam = _poly_coeffs(lambda_xpoly(series, n, u, 'p'), 'p')
    else:
        lam = _poly_coeffs(capital_lambda(n, u, 'P'), 'P')
    if series == 'D':
        crit = {e: (e - 1) * c for e, c in lam.items() if e != 1}
    else:
        crit = {e - 1: e * c for e, c in lam.items() if e}
    roots = _rational_roots(crit)
    if roots is None:
        raise DegeneratePoint("critical points not all rational")
    if series == 'A':
        pts = sorted((r, _eval1(lam, r)) for r in roots)
    elif series == 'D':
        # a root at 0 needs u_1 = -crit(0) = 0; then 0 is a double root,
        # which _rational_roots has already refused
        pts = sorted((r, _eval1(lam, r) / r) for r in roots)
    else:
        pts = sorted((r, _eval1(lam, r)) for r in roots)
        pts.append((Fraction(0), _eval1(lam, Fraction(0))))
    if len(pts) != n:
        raise DegeneratePoint("expected %d critical points, got %d" % (n, len(pts)))
    vals = [lam for _, lam in pts]
    for i in range(n):
        for j in range(i + 1, n):
            if vals[i] == vals[j]:
                raise DegeneratePoint("coinciding critical values")
    return pts


@functools.lru_cache(maxsize=None)
def _symbolic_tables(series, n, K):
    # shared by every call on one algebra: never hand these Polys out
    return (bracket_table(series, n, 1, K=K), bracket_table(series, n, 2, K=K))


def tables_at(series, n, u, K=4):
    """The two bracket tables at a point: dict (i, j, s) -> Fraction,
    without the entries that vanish there.  The symbolic tables are
    built once per (series, n, K)."""
    vals = {('u', k, 0): x.constant() for k, x in enumerate(u_list(series, n, u), 1)}
    out = []
    for table in _symbolic_tables(series, n, K):
        at = {}
        for key, pol in table.items():
            c = pol.subs(vals).constant()
            if c:
                at[key] = c
        out.append(at)
    return tuple(out)


def _blocks(table):
    """Table at a point -> dict s -> [(i, j, c)]."""
    out = {}
    for (i, j, s), c in table.items():
        out.setdefault(s, []).append((i, j, c))
    return out


def central_invariants(series, n, u, K=4):
    """Full evaluation chain at a single point of the orbit space.

    Returns a dict with canonical points, the diagonal metric entries f,
    the contracted delta''/delta''' blocks P, Q and the invariants c.
    The bracket tables are built symbolically once per (series, n, K),
    kept for the life of the process, and evaluated at the point.
    The formula reads the delta''' blocks, which need K >= 3.
    """
    if K < 3:
        raise ValueError("epsilon order K = %d < 3: no delta''' blocks" % K)
    u = u_list(series, n, u)
    pts = canonical_coordinates(series, n, u)
    blocks = [_blocks(t) for t in tables_at(series, n, u, K)]
    rs = [r for r, _ in pts]
    lams = [l for _, l in pts]
    # the delta^(s) coefficient at (x, y) is sum c x^(i-1) y^(j-1) in the
    # small variable for A and in the capital one otherwise
    pw = [[r ** e for e in range(n)] for r in rs]

    def E(a, s, k, i):
        x, y = pw[k], pw[i]
        v = sum((c * x[ia - 1] * y[jb - 1] for ia, jb, c in blocks[a - 1].get(s, ())),
                Fraction(0))
        if series == 'D':
            v = v / (rs[k] * rs[i])
        return v

    f = []
    for i in range(n):
        for k in range(n):
            v = E(1, 1, k, i)
            if k != i and v != 0:
                raise DegeneratePoint("first metric not diagonal")
            if k == i:
                f.append(v)
        if E(2, 1, i, i) != lams[i] * f[i]:
            raise DegeneratePoint("second metric not lam * first")
    if any(x == 0 for x in f):
        raise DegeneratePoint("vanishing diagonal metric entry")
    P1 = {(k, i): E(1, 2, k, i) for k in range(n) for i in range(n)}
    P2 = {(k, i): E(2, 2, k, i) for k in range(n) for i in range(n)}
    Q1 = [E(1, 3, i, i) for i in range(n)]
    Q2 = [E(2, 3, i, i) for i in range(n)]
    cs = []
    for i in range(n):
        acc = Q2[i] - lams[i] * Q1[i]
        for k in range(n):
            if k == i:
                continue
            num = (P2[(k, i)] - lams[i] * P1[(k, i)]) ** 2
            acc += num / (f[k] * (lams[k] - lams[i]))
        cs.append(acc / (3 * f[i] ** 2))
    return {'points': pts, 'lambdas': lams, 'f': f, 'P1': P1, 'P2': P2,
            'Q1': Q1, 'Q2': Q2, 'c': cs}


def residue_identity(rs):
    """For lam with lam' = (n+1) prod (p - r_k):  the sums

        sum_{k != i} (lam(r_k) - lam(r_i)) / (lam''(r_k) (r_k - r_i)^2)

    for each i (all equal to (1-n)/(2(n+1)))."""
    n = len(rs)
    lamp = Poly.num(n + 1)
    for r in rs:
        lamp = lamp * (Poly.of('p') - r)
    cp = _poly_coeffs(lamp, 'p')
    lam = {e + 1: c / (e + 1) for e, c in cp.items()}
    lam2 = {e - 1: c * e for e, c in cp.items() if e >= 1}
    out = []
    for i, ri in enumerate(rs):
        s = Fraction(0)
        for k, rk in enumerate(rs):
            if k == i:
                continue
            s += (_eval1(lam, rk) - _eval1(lam, ri)) / (_eval1(lam2, rk) * (rk - ri) ** 2)
        out.append(s)
    return out


def transform_invariants(lams, cs, kappa):
    """Projective reparametrization of the pencil:

        lam -> (k21 + lam k22) / (k11 + lam k12),
        c   -> (k11 + k12 lam) c / det(kappa).
    """
    (k11, k12), (k21, k22) = kappa
    det = k11 * k22 - k12 * k21
    if det == 0:
        raise ValueError("singular pencil transformation")
    newl, newc = [], []
    for lam, c in zip(lams, cs):
        den = k11 + lam * k12
        if den == 0:
            raise DegeneratePoint("pencil parameter at infinity")
        newl.append((k21 + lam * k22) / den)
        newc.append(den * c / det)
    return newl, newc


def series_scale(series):
    """Multiply the normalized-form values by this factor to get the
    values of the scalar-Lax computation (which uses the trace form on
    the defining representation)."""
    return 1 / liealg.defining_form_ratio(series)


# ---------------------------------------------------------------------------
# exact sample construction

def sample_from_roots(series, n, roots, c0=0, u2=1):
    """Build exact coordinates whose critical points are the given
    rationals.

    A: roots of lam' (must sum to zero); B, C: roots of Lam' (n-1 of
    them, nonzero), c0 = Lam(0); D: n-1 seed values, the n-th critical
    point is forced by the constraint that P Lam' - Lam has no linear
    term, u2 is free.
    """
    roots = [Fraction(r) for r in roots]
    if series == 'A':
        if len(roots) != n or sum(roots) != 0:
            raise ValueError("need n roots summing to zero")
        lamp = Poly.num(n + 1)
        for r in roots:
            lamp = lamp * (Poly.of('p') - r)
        cp = _poly_coeffs(lamp, 'p')
        lam = {e + 1: c / (e + 1) for e, c in cp.items()}
        lam[0] = Fraction(c0)
        return [lam.get(i - 1, Fraction(0)) for i in range(1, n + 1)]
    if series in ('B', 'C'):
        if len(roots) != n - 1 or any(r == 0 for r in roots):
            raise ValueError("need n-1 nonzero roots")
        dL = Poly.num(n)
        for r in roots:
            dL = dL * (Poly.of('P') - r)
        cp = _poly_coeffs(dL, 'P')
        Lam = {e + 1: c / (e + 1) for e, c in cp.items()}
        Lam[0] = Fraction(c0)
        return [Lam.get(i - 1, Fraction(0)) for i in range(1, n + 1)]
    if series == 'D':
        if len(roots) != n - 1 or any(r == 0 for r in roots):
            raise ValueError("need n-1 nonzero seed roots")
        e1 = sum(roots)
        # elementary symmetric values of the seeds
        es = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for r in roots:
            for k in range(n - 1, 0, -1):
                es[k] += es[k - 1] * r
        if es[n - 2] == 0:
            raise DegeneratePoint("cannot complete the critical set")
        last = -es[n - 1] / es[n - 2]
        if last == 0 or last in roots:
            raise DegeneratePoint("degenerate completed critical set")
        full = roots + [last]
        N = Poly.num(n - 1)
        for r in full:
            N = N * (Poly.of('P') - r)
        cn = _poly_coeffs(N, 'P')
        if cn.get(1, Fraction(0)) != 0:
            raise DegeneratePoint("linear term did not cancel")
        u = [Fraction(0)] * n
        for i in range(1, n + 1):
            if i == 2:
                u[1] = Fraction(u2)
            else:
                u[i - 1] = cn.get(i - 1, Fraction(0)) / (i - 2)
        return u
    raise ValueError("unknown series %r" % series)


def random_sample(series, n, rng, spread=12):
    """Exact coordinates with rational canonical data, for property
    tests; retries until nondegenerate."""
    for _ in range(200):
        try:
            if series == 'A':
                pool = rng.sample(range(-spread, spread + 1), n)
                pool[-1] = -sum(pool[:-1])
                if len(set(pool)) != n:
                    continue
                u = sample_from_roots(series, n, pool, c0=rng.randint(-5, 5))
            elif series in ('B', 'C'):
                pool = [x for x in rng.sample(range(-spread, spread + 1), n - 1) if x]
                if len(pool) != n - 1:
                    continue
                u = sample_from_roots(series, n, pool, c0=rng.randint(-5, 5))
            else:
                pool = [x for x in rng.sample(range(-spread, spread + 1), n - 1) if x]
                if len(pool) != n - 1:
                    continue
                u = sample_from_roots(series, n, pool, u2=rng.randint(-5, 5))
            canonical_coordinates(series, n, u)
            return u
        except (DegeneratePoint, ValueError):
            continue
    raise DegeneratePoint("could not draw a nondegenerate sample")
