"""Canonical coordinates and central invariants of bihamiltonian pencils.

`defect_invariants` is the defect formula of Dubrovin, Liu and Zhang at
a point with canonical coordinates lam_i, exact over int or Fraction.
With B_a^s the delta^(s) block of bracket a and E_a^s(k, i) = dlam_k
B_a^s dlam_i, the pencil is diagonal there, E_1^1(k, i) = f_i delta_ki
and E_2^1(i, i) = lam_i f_i, and

    c_i = ( E_2^3(i, i) - lam_i E_1^3(i, i)
            + sum_{k != i} (E_2^2(k, i) - lam_i E_1^2(k, i))^2 / (f_k (lam_k - lam_i)) )
          / (3 f_i^2).
"""

import functools
from fractions import Fraction
from math import lcm
from operator import mul

from .algebra import Prepared, evaluate, u_list
from .upoly import (DegeneratePoint, derivative, from_roots, integral,
                    rational_roots, value)


def defect_invariants(lams, dlams, blocks):
    """The defect formula at one point: (f, c).

    lams: the distinct canonical coordinates; dlams[i]: the components
    of dlam_i; blocks[(a, s)]: B_a^s as 0-based (j, k, value) triples, a
    missing or empty block being zero.  Over int (the Dirac point route)
    or Fraction (`central_invariants`), each E is a dot product in the
    scalars and each c_i one Fraction, formed last.  Scaling dlam_i by a
    and the blocks by b scales f_i by a^2 b and c_i by 1 / (a^2 b).

    >>> blocks = {(1, 1): [(0, 0, 2), (1, 1, 1)], (2, 1): [(0, 0, 2), (1, 1, -1)],
    ...           (2, 3): [(0, 0, 6), (1, 1, 3)]}
    >>> defect_invariants([1, -1], [[1, 0], [0, 1]], blocks)
    ([2, 1], [Fraction(1, 2), Fraction(1, 1)])
    >>> blocks[(2, 2)] = [(0, 1, 1), (1, 0, 1)]
    >>> defect_invariants([1, -1], [[1, 0], [0, 1]], blocks)[1]
    [Fraction(11, 24), Fraction(13, 12)]
    """
    n = len(lams)

    def E(key):
        # E(k, i) = dlam_k . (B dlam_i), the columns B dlam_i formed once
        if not blocks.get(key):
            return lambda k, i: 0
        cols = []
        for y in dlams:
            col = [0] * len(y)
            for j, k, v in blocks[key]:
                col[j] += v * y[k]
            cols.append(col)
        return lambda k, i: sum(map(mul, dlams[k], cols[i]))

    E11, E21, E12, E22, E13, E23 = (E((a, s)) for s in (1, 2, 3) for a in (1, 2))
    # with y_k = L lam_k, L the lcm of the lam denominators, 3 L f_i^2 c_i is
    # L E23 - y_i E13 + sum (L E22 - y_i E12)^2 / (f_k (y_k - y_i)), one num / den
    L = lcm(*(lam.denominator for lam in lams))
    ys = [lam.numerator * (L // lam.denominator) for lam in lams]
    f = []
    for i in range(n):
        if any(E11(k, i) for k in range(n) if k != i):
            raise DegeneratePoint("first metric not diagonal")
        f.append(E11(i, i))
        if L * E21(i, i) != ys[i] * f[i]:
            raise DegeneratePoint("second metric not lam * first")
    if any(x == 0 for x in f):
        raise DegeneratePoint("vanishing diagonal metric entry")
    delta2 = blocks.get((1, 2)) or blocks.get((2, 2))   # else the cross terms vanish

    def c(i, y):
        num, den = 0, 1
        for k in (k for k in range(n) if k != i and delta2):
            b = f[k] * (ys[k] - y)
            num, den = num * b + (L * E22(k, i) - y * E12(k, i)) ** 2 * den, den * b
        return Fraction((L * E23(i, i) - y * E13(i, i)) * den + num, 3 * L * f[i] ** 2 * den)
    return f, [c(i, y) for i, y in enumerate(ys)]


def canonical_coordinates(series, n, u):
    """Critical points and values of the symbol: list of (r, lam).

    A: lam at the roots of lam'; B, C: Lam at the roots of Lam' (in the
    capital variable) plus the distinguished pair (0, Lam(0)) in the last
    slot; D: Lam~ = Lam/P at the roots of P Lam' - Lam.

    All values are exact Fractions; a point whose critical points are not
    all rational raises DegeneratePoint.
    """
    u = [x.constant() for x in u_list(n, u)]
    # lam(p) = p^(n+1) + u_n p^(n-1) + ... + u_1 for A, and
    # Lam(P) = P^n + u_n P^(n-1) + ... + u_1 otherwise
    lam = u + [0, 1] if series == 'A' else u + [1]
    crit = [(e - 1) * c for e, c in enumerate(lam)] if series == 'D' else derivative(lam)
    roots = rational_roots(crit)
    if roots is None:
        raise DegeneratePoint("critical points not all rational")
    if series == 'D':
        # a root at 0 needs u_1 = -crit(0) = 0; then 0 is a double root,
        # which rational_roots has already refused
        pts = sorted((r, value(lam, r) / r) for r in roots)
    else:
        pts = sorted((r, value(lam, r)) for r in roots)
        if series != 'A':
            pts.append((Fraction(0), value(lam, Fraction(0))))
    if len(pts) != n:
        raise DegeneratePoint("expected %d critical points, got %d" % (n, len(pts)))
    if len({lam for _, lam in pts}) != n:
        raise DegeneratePoint("coinciding critical values")
    return pts


@functools.lru_cache(maxsize=None)
def _symbolic_tables(series, n, K):
    # shared by every call on one algebra: never hand these Polys out.
    # Returns the two tables and their entries prepared for evaluate.
    from . import brackets
    second = brackets.bracket_table(series, n, 2, K=K)
    tables = brackets.unit_derivative(series, second), second
    return tables, Prepared(pol for table in tables for pol in table.values())


def tables_at(series, n, u, K=4):
    """The two bracket tables at a point: dict (i, j, s) -> Fraction,
    without the entries that vanish there.  The symbolic tables are
    built and their entries prepared once per (series, n, K); at each
    point `algebra.evaluate` reads every entry of both once, over one
    denominator."""
    point = [x.constant() for x in u_list(n, u)]
    tables, prepared = _symbolic_tables(series, n, K)
    nums, d = evaluate(prepared, point)
    it = iter(nums)
    return tuple({key: Fraction(x, d) for key, x in zip(table, it) if x} for table in tables)


def central_invariants(series, n, u, K=4):
    """Full evaluation chain at a single point of the orbit space.

    Returns a dict with the canonical points, their values lambdas, the
    diagonal metric entries f and the invariants c.  The bracket tables
    are built symbolically once per (series, n, K), kept for the life of
    the process, and evaluated at the point.  The formula reads the
    delta''' blocks, which need K >= 3.
    """
    if K < 3:
        raise ValueError("epsilon order K = %d < 3: no delta''' blocks" % K)
    pts = canonical_coordinates(series, n, u)
    blocks = {}
    for a, table in enumerate(tables_at(series, n, u, K), 1):
        for (i, j, s), c in table.items():
            blocks.setdefault((a, s), []).append((i - 1, j - 1, c))
    # the delta^(s) coefficient at (x, y) is sum c x^(i-1) y^(j-1) in the
    # small variable for A and in the capital one otherwise, over x y for D
    shift = 1 if series == 'D' else 0
    dlams = [[r ** (e - shift) for e in range(n)] for r, _ in pts]
    lams = [lam for _, lam in pts]
    f, cs = defect_invariants(lams, dlams, blocks)
    return {'points': pts, 'lambdas': lams, 'f': f, 'c': cs}


def residue_identity(rs):
    """For lam with lam' = (n+1) prod (p - r_k):  the sums

        sum_{k != i} (lam(r_k) - lam(r_i)) / (lam''(r_k) (r_k - r_i)^2)

    for each i (all equal to (1-n)/(2(n+1)))."""
    lamp = from_roots(len(rs) + 1, rs)
    lam, lam2 = integral(lamp, 0), derivative(lamp)
    return [sum(((value(lam, rk) - value(lam, ri)) / (value(lam2, rk) * (rk - ri) ** 2)
                 for k, rk in enumerate(rs) if k != i), Fraction(0))
            for i, ri in enumerate(rs)]


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
    elif series in ('B', 'C'):
        if len(roots) != n - 1 or any(r == 0 for r in roots):
            raise ValueError("need n-1 nonzero roots")
    if series in ('A', 'B', 'C'):
        # lam' = (n+1) prod (p - r) for A, Lam' = n prod (P - r) for B, C
        return integral(from_roots(len(roots) + 1, roots), Fraction(c0))[:n]
    if series == 'D':
        if n < 2 or len(roots) != n - 1 or any(r == 0 for r in roots):
            raise ValueError("need n-1 nonzero seed roots")
        # the last critical point cancels the linear term of the product
        c = from_roots(1, roots)
        if c[1] == 0:
            raise DegeneratePoint("cannot complete the critical set")
        last = c[0] / c[1]
        if last == 0 or last in roots:
            raise DegeneratePoint("degenerate completed critical set")
        N = from_roots(n - 1, roots + [last])
        if N[1] != 0:
            raise DegeneratePoint("linear term did not cancel")
        return [Fraction(u2) if k == 1 else N[k] / (k - 1) for k in range(n)]
    raise ValueError("unknown series %r" % series)


# the integers random_sample draws its roots from
POOL = range(-12, 13)


def _pool(series, n):
    """POOL up to the ranks it serves, A and D 24, B and C 25; above,
    -h..h with h = ceil(n/2).  A draw of all of -h..h is degenerate for
    A and D, so those keep one spare integer."""
    if n <= (24 if series in 'AD' else 25):
        return POOL
    h = (n + 1) // 2
    return range(-h, h + 1)


def random_sample(series, n, rng):
    """Exact coordinates with rational canonical data, for property
    tests; retries until nondegenerate."""
    for _ in range(200):
        try:
            if series == 'A':
                pool = rng.sample(_pool(series, n), n)
                pool[-1] = -sum(pool[:-1])
                if len(set(pool)) != n:
                    continue
            else:
                pool = [x for x in rng.sample(_pool(series, n), n - 1) if x]
                if len(pool) != n - 1:
                    continue
            # the free value: c0 for A, B, C and u2 for D
            k = rng.randint(-5, 5)
            u = sample_from_roots(series, n, pool, c0=k, u2=k)
            canonical_coordinates(series, n, u)
            return u
        except (DegeneratePoint, ValueError):
            continue
    raise DegeneratePoint("could not draw a nondegenerate sample")
