"""Univariate polynomials: lists of exact coefficients (int or
Fraction), constant term first, the zero polynomial empty.  The symbol
lam(p), its critical polynomial and det(g2 - z g1) at a point are all of
this kind, and the invariants are read at their rational roots."""

import math
from fractions import Fraction


class DegeneratePoint(Exception):
    """The symbol has coinciding or otherwise unusable critical data."""


def from_roots(lead, roots):
    """lead * prod (x - r) over the roots.

    >>> from_roots(2, [1, -3])
    [-6, 4, 2]
    """
    p = [lead]
    for r in roots:
        p = [-r * p[0]] + [p[k - 1] - r * p[k] for k in range(1, len(p))] + [p[-1]]
    return p


def derivative(p):
    """The derivative.

    >>> derivative([5, 3, 0, 2])
    [3, 0, 6]
    """
    return [k * c for k, c in enumerate(p)][1:]


def scaled_interpolate(ys):
    """n! p for the polynomial p of degree at most n = len(ys) - 1 with
    p(z) = ys[z] at z = 0, ..., n, trailing zeros dropped; integer ys
    give integer coefficients.  By forward differences,
    p(z) = sum_k Delta^k y_0 z(z-1)...(z-k+1) / k!, so n! p is
    sum_k (n!/k!) Delta^k y_0 times the falling factorials, expanded by
    Horner's rule in that basis.

    >>> scaled_interpolate([1, 2, 5])      # z^2 + 1, times 2!
    [2, 0, 2]
    """
    diffs, row = [], list(ys)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    p, scale = [], 1
    for k in reversed(range(len(diffs))):
        p = [b - k * a for a, b in zip(p + [0], [0] + p)]    # p (z - k)
        p[0] += diffs[k] * scale
        scale *= k
    while p and not p[-1]:
        p.pop()
    return p


def integral(p, c0):
    """The antiderivative with constant term c0.

    >>> integral([1, 1], 5)
    [5, Fraction(1, 1), Fraction(1, 2)]
    """
    return [c0] + [Fraction(c, k + 1) for k, c in enumerate(p)]


def value(p, x):
    """p at x by Horner's rule; at x = a/b in integers, as
    sum (L c_e) a^e b^(d-e) / (L b^d), L the common denominator.

    >>> value([-2, 0, 1], 3)
    7
    >>> value([Fraction(1, 2), 0, 1], Fraction(1, 3))
    Fraction(11, 18)
    """
    if isinstance(x, int):
        v = 0
        for c in reversed(p):
            v = v * x + c
        return v
    den = math.lcm(*(c.denominator for c in p))
    a, b = x.numerator, x.denominator
    v, bpow = 0, 1
    for c in reversed(p):
        v = v * a + c.numerator * (den // c.denominator) * bpow
        bpow *= b
    # bpow is b^(d+1) here
    return Fraction(v * b, den * bpow)


# The root finder works on integer polynomials with a nonzero last entry.

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
    seq = [q, _primitive(derivative(q))]
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
    vb = value(q, b)
    if vb == 0:
        return b
    while b - a > 1:
        m = (a + b) // 2
        vm = value(q, m)
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
                if value(q, b) == 0:
                    out.append(b)
                continue
            m = (a + b) // 2
            vm = _variations([value(p, m) for p in seq])
            stack += [(m, vm, b, vb), (a, va, m, vm)]
    return sorted(out)


def rational_roots(p):
    """All roots of p, ascending, if they are all rational and simple,
    else None.  A repeated rational root raises DegeneratePoint, also
    next to irrational ones.  The degree is len(p) - 1, so a zero last
    entry leaves a root missing and gives None.

    Exact, float-free and without factoring: a rational root x of the
    primitive integer polynomial p (degree d, leading coefficient
    lc > 0) is y / lc for an integer root y of the monic integer
    polynomial q(y) = lc^(d-1) p(y / lc).  The real roots of q are
    isolated with a Sturm sequence by bisecting on integers, and an
    interval that holds one root is bisected on the sign of q until q
    vanishes at an integer or the interval is (l, l+1).

    >>> rational_roots([-1, -1, 6])
    [Fraction(-1, 3), Fraction(1, 2)]
    >>> print(rational_roots([-2, 0, 1]))
    None
    """
    deg = len(p) - 1
    den = math.lcm(*(c.denominator for c in p))
    p = [c.numerator * (den // c.denominator) for c in p]
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
        if any(value(g, y) == 0
               for y in _integer_roots(_sturm(_exquo(q, g)))):
            raise DegeneratePoint("repeated critical point")
        return None
    ys = _integer_roots(seq)
    if len(ys) != deg:
        return None
    return [Fraction(y, lc) for y in ys]
