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
from fractions import Fraction

from .brackets import bracket_table
from .lax import u_list
from .upoly import (DegeneratePoint, derivative, from_roots, integral,
                    rational_roots, value)


def canonical_coordinates(series, n, u):
    """Critical points and values of the symbol: list of (r, lam).

    A: lam at the roots of lam'; B, C: Lam at the roots of Lam' (in the
    capital variable) plus the distinguished pair (0, Lam(0)) in the last
    slot; D: Lam~ = Lam/P at the roots of P Lam' - Lam.

    All values are exact Fractions; a point whose critical points are not
    all rational raises DegeneratePoint.
    """
    u = [x.constant() for x in u_list(series, n, u)]
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


def random_sample(series, n, rng):
    """Exact coordinates with rational canonical data, for property
    tests; retries until nondegenerate."""
    for _ in range(200):
        try:
            if series == 'A':
                pool = rng.sample(POOL, n)
                pool[-1] = -sum(pool[:-1])
                if len(set(pool)) != n:
                    continue
            else:
                pool = [x for x in rng.sample(POOL, n - 1) if x]
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
