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


def _at_infinity(seq):
    """V(-inf) and V(+inf) of a Sturm sequence, from its leading terms."""
    return (_variations([p[-1] * (-1) ** (len(p) - 1) for p in seq]),
            _variations([p[-1] for p in seq]))


def _integer_roots(seq):
    """The integer roots of the squarefree monic q = seq[0], given its
    Sturm sequence.  V(a) - V(b) roots lie in (a, b], so each interval
    that holds one is bisected on integers down to (b - 1, b], where
    q(b) decides.  The start is Fujiwara's bound 2 max |q_(d-k)|^(1/k)
    on every root, rounded up to a power of 2."""
    (vlo, vhi), q, out = _at_infinity(seq), seq[0], []
    bound = 2 << max(-(-abs(c).bit_length() // k) for k, c in enumerate(reversed(q[:-1]), 1))
    stack = [(-bound, vlo, bound, vhi)]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if value(q, b) == 0:
                out.append(b)
            continue
        m = (a + b) // 2
        vm = _variations([value(p, m) for p in seq])
        stack += [(m, vm, b, vb), (a, va, m, vm)]
    return out


def _descend(seq):
    """The roots of the squarefree monic q = seq[0], given its Sturm
    sequence, descending, if they are all real integers, else None.
    Above the largest root r of a real-rooted q, a Newton step stays at
    or above r, so the integer steps y - floor(q(y)/q'(y)) do too; where
    the floor is 0, the Sturm count above y - 1 shows a root in
    (y - 1, y), not an integer.  Each root found is divided out.  The
    start is past the Laguerre-Samuelson bound mean + sqrt(d - 1) sigma."""
    def above(q):
        d, s1 = len(q) - 1, -q[-2]
        s2 = s1 * s1 - 2 * (q[-3] if d > 1 else 0)
        return (s1 + math.isqrt((d - 1) * (d * s2 - s1 * s1)) + 1) // d + 1
    (vlo, vhi), q, out = _at_infinity(seq), seq[0], []
    if vlo - vhi < len(q) - 1:
        return None
    y = above(q)
    while len(q) > 2:
        v = dv = 0
        for c in reversed(q):
            v, dv = v * y + c, dv * y + v
        if v and v >= dv:
            y -= v // dv
            continue
        if v:
            if _variations([value(p, y - 1) for p in seq]) - vhi > len(out):
                return None
            y -= 1
            if value(q, y):
                continue
        out.append(y)
        q = _exquo(q, [-y, 1])
        y = min(y, above(q))
    return out + [-q[0]]


def rational_roots(p):
    """All roots of p, ascending, if they are all rational and simple,
    else None.  A repeated rational root raises DegeneratePoint, also
    next to irrational ones.  The degree is len(p) - 1, so a zero last
    entry leaves a root missing and gives None.

    Exact, float-free and without factoring: a rational root x of the
    primitive integer polynomial p (degree d, leading coefficient
    lc > 0) is y / lc for an integer root y of the monic integer
    polynomial q(y) = lc^(d-1) p(y / lc).  A Sturm sequence of q tells
    whether q is squarefree with d real roots; if so, `_descend` finds
    them from above in integer Newton steps.  With a repeated root, the
    integer roots of the squarefree part (`_integer_roots`) are tested
    against gcd(q, q').

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
        # g = gcd(q, q') holds the repeated roots, and so does its
        # squarefree part g / gcd(g, g'), both monic up to sign
        g, h = (c if c[-1] > 0 else [-x for x in c] for c in (g, _sturm(g)[-1]))
        if _integer_roots(_sturm(_exquo(g, h))):
            raise DegeneratePoint("repeated critical point")
        return None
    ys = _descend(seq) if d == deg else None
    return None if ys is None else [Fraction(y, lc) for y in reversed(ys)]
