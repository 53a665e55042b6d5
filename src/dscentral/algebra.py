"""Sparse exact arithmetic: differential polynomials and fraction-free
matrix elimination.

A variable is a tuple (family, index, order), e.g. ('u', 2, 0) for u_2 or
('a', 1, 3) for the third x-derivative of a_1.  A monomial is a sorted
tuple of (variable, exponent) pairs; exponents may be negative (Laurent).
A Poly maps monomials to exact coefficients in one canonical form: an int
when the value is integral, else a Fraction, never a float or a bool.
Every quotient of coefficients goes through Fraction.  `constant()` and
`coeff_of()` return Fractions.
"""

import heapq
from fractions import Fraction


def _canon(c):
    """The canonical coefficient of an exact value: an int when it is
    integral, else a Fraction.

    >>> _canon(Fraction(6, 3)), _canon(Fraction(1, 2)), _canon(True)
    (2, Fraction(1, 2), 1)
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quo(a, b):
    """a / b for canonical coefficients, canonical again."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _canon(Fraction(a) / b)


def _settle(terms):
    """Canonical coefficients in place, after arithmetic that may have
    left an integral Fraction."""
    for m, c in terms.items():
        if type(c) is not int:
            terms[m] = _canon(c)
    return terms


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        e2 = d.pop(v, 0) + e
        if e2:
            d[v] = e2
    return tuple(sorted(d.items()))


def _mono_div(m1, m2):
    # m1 / m2, allowing negative exponents in the result
    return _mono_mul(m1, tuple((v, -e) for v, e in m2))


def _mono_divides(m2, m1):
    # does m2 divide m1 in the polynomial (non-Laurent) sense
    d = dict(m1)
    return all(d.get(v, 0) >= e for v, e in m2)


def _accumulate(terms, m, c):
    """terms[m] += c in place, dropping the monomial when it cancels."""
    c2 = terms.get(m, 0) + c
    if c2:
        terms[m] = c2 if type(c2) is int else _canon(c2)
    else:
        terms.pop(m, None)


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @staticmethod
    def num(c):
        c = _canon(c)
        return Poly({(): c} if c else {})

    @staticmethod
    def of(family, index=0, order=0, exp=1):
        if exp == 0:
            return Poly.num(1)
        return Poly({(((family, index, order), exp),): 1})

    @staticmethod
    def from_var(v, exp=1):
        if exp == 0:
            return Poly.num(1)
        return Poly({((v, exp),): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant(self):
        """Value of a constant Poly as a Fraction."""
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return Fraction(self.terms.get((), 0))

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.num(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.num(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            c2 = t.get(m, 0) + c
            if c2:
                t[m] = c2 if type(c2) is int else _canon(c2)
            else:
                t.pop(m, None)
        return Poly(t)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -(other if isinstance(other, Poly) else Poly.num(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c0 = _canon(other)
            if not c0:
                return Poly()
            return Poly(_settle({m: c * c0 for m, c in self.terms.items()}))
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = t.get(m, 0) + c1 * c2
                if c:
                    t[m] = c
                else:
                    t.pop(m, None)
        return Poly(_settle(t))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Poly")
        r = Poly.num(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return self.divexact(other)
        return self * (Fraction(1) / Fraction(other))

    def diff(self, v):
        """Partial derivative with respect to one variable."""
        t = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(v, 0)
            if not e:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            _accumulate(t, tuple(sorted(d.items())), c * e)
        return Poly(t)

    def xdiff(self, frozen=frozenset()):
        """Total x-derivative: (family, i, k) -> (family, i, k+1).

        Families listed in `frozen` are treated as constants.

        >>> Poly.of('u', 1).xdiff() == Poly.of('u', 1, 1)
        True
        >>> p = Poly.of('u', 1) ** 2 + Poly.of('u', 2, 1)
        >>> p.xdiff() == 2 * Poly.of('u', 1) * Poly.of('u', 1, 1) + Poly.of('u', 2, 2)
        True
        """
        t = {}
        for m, c in self.terms.items():
            for v, e in m:
                if v[0] in frozen:
                    continue
                d = dict(m)
                if e == 1:
                    del d[v]
                else:
                    d[v] = e - 1
                v2 = (v[0], v[1], v[2] + 1)
                d[v2] = d.get(v2, 0) + 1
                if d[v2] == 0:
                    del d[v2]
                _accumulate(t, tuple(sorted(d.items())), c * e)
        return Poly(t)

    def subs(self, mapping):
        """Substitute variables by Polys or numbers.  Variables occurring
        with negative exponent may only be mapped to nonzero numbers."""
        t = {}
        for m, c in self.terms.items():
            rest = []
            factors = []
            for v, e in m:
                if v not in mapping:
                    rest.append((v, e))
                    continue
                val = mapping[v]
                if isinstance(val, Poly):
                    if e >= 0:
                        factors.append(val ** e)
                        continue
                    if not val.is_constant():
                        raise ValueError("negative power substitution")
                    val = val.constant()
                val = _canon(val)
                c = c * val ** e if e >= 0 else _quo(c, val ** -e)
            term = Poly({tuple(rest): _canon(c)})
            for f in factors:
                term = term * f
            for m2, c2 in term.terms.items():
                _accumulate(t, m2, c2)
        return Poly(t)

    def coeffs_in(self, v):
        """Split as a polynomial in one variable: dict exponent -> Poly."""
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(v, 0)
            m2 = tuple(sorted(d.items()))
            _accumulate(out.setdefault(e, Poly()).terms, m2, c)
        return {e: p for e, p in out.items() if not p.is_zero()}

    def coeff_of(self, mono):
        return Fraction(self.terms.get(tuple(sorted(mono)), 0))

    def _content(self):
        # the monomial of least exponents (absent counts as 0): it divides
        # every term, and what is left has no monomial factor
        ds = [dict(m) for m in self.terms]
        lo = {v: min(d.get(v, 0) for d in ds) for v in self.variables()}
        return tuple((v, e) for v, e in sorted(lo.items()) if e)

    def divexact(self, other):
        """Exact division in the Laurent ring; raises ValueError when not
        divisible.

        Both sides are first divided by their monomial content, so the
        division that is left is one of polynomials, in graded order.
        """
        if not isinstance(other, Poly):
            return self * (Fraction(1) / Fraction(other))
        if other.is_zero():
            raise ZeroDivisionError("division by zero Poly")
        if self.is_zero():
            return Poly()
        if other.is_constant():
            return self * (Fraction(1) / other.constant())
        s1, s2 = self._content(), other._content()
        if s1 or s2:
            a = Poly({_mono_div(m, s1): c for m, c in self.terms.items()})
            b = Poly({_mono_div(m, s2): c for m, c in other.terms.items()})
            back = _mono_div(s1, s2)
            return Poly({_mono_mul(m, back): c for m, c in a.divexact(b).terms.items()})
        allv = sorted(self.variables() | other.variables())
        pos = {v: i for i, v in enumerate(allv)}

        def key(m):
            # graded lex, negated so that the heap pops the largest first
            vec = [0] * len(allv)
            for v, e in m:
                vec[pos[v]] = -e
            return sum(vec), vec

        lead = min(other.terms, key=key)
        lc = other.terms[lead]
        rest = [(m, c) for m, c in other.terms.items() if m != lead]
        rem = dict(self.terms)
        heap = [(key(m), m) for m in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            m = heapq.heappop(heap)[1]
            c = rem.pop(m, 0)
            if not c:
                continue        # cancelled since it was pushed
            if not _mono_divides(lead, m):
                raise ValueError("not an exact division")
            qm = _mono_div(m, lead)
            qc = quot[qm] = _quo(c, lc)
            # rem -= qc * qm * rest: every new monomial is below m
            for m2, c2 in rest:
                mm = _mono_mul(qm, m2)
                old = rem.get(mm)
                c3 = (old or 0) - qc * c2
                if c3:
                    rem[mm] = c3 if type(c3) is int else _canon(c3)
                    if old is None:
                        heapq.heappush(heap, (key(mm), mm))
                elif old is not None:
                    del rem[mm]
        return Poly(quot)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            vs = ["%s_%d^(%d)%s" % (v[0], v[1], v[2], "" if e == 1 else "**%d" % e)
                  for v, e in m]
            parts.append("%s*%s" % (c, "*".join(vs)) if vs else str(c))
        return " + ".join(parts)

    __repr__ = __str__


def antiderivative(p, frozen=frozenset()):
    """Inverse of the total x-derivative; raises ValueError if `p` is not
    a total derivative.  Greedy: repeatedly strip the term with the
    highest-order jet variable, in which a total derivative is linear."""
    rem = dict(p.terms)
    out = {}
    for _ in range(20000):
        if not rem:
            return Poly(out)
        best = None
        for m, c in rem.items():
            top = max(((v[2], v) for v, e in m if v[0] not in frozen), default=None)
            if top is None or top[1][2] == 0:
                raise ValueError("not a total x-derivative")
            key = (top[0], m)
            if best is None or key > best[0]:
                best = (key, m, c, top[1])
        _, m, c, v = best
        d = dict(m)
        if d.pop(v) != 1:
            raise ValueError("not a total x-derivative")
        v2 = (v[0], v[1], v[2] - 1)
        d[v2] = d.get(v2, 0) + 1
        if not d[v2]:           # v / v2 integrates to a logarithm
            raise ValueError("not a total x-derivative")
        cand = Poly({tuple(sorted(d.items())): _quo(c, d[v2])})
        for m2, c2 in cand.terms.items():
            _accumulate(out, m2, c2)
        for m2, c2 in cand.xdiff(frozen).terms.items():
            _accumulate(rem, m2, -c2)
    raise ValueError("antiderivative did not terminate")


def bareiss_det(rows):
    """Determinant of a square Poly matrix by fraction-free elimination."""
    n = len(rows)
    M = [list(r) for r in rows]
    sign = 1
    prev = Poly.num(1)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for i in range(k + 1, n):
                if not M[i][k].is_zero():
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return Poly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]).divexact(prev)
            M[i][k] = Poly()
        prev = M[k][k]
    d = M[n - 1][n - 1]
    return d if sign == 1 else -d


def bareiss_adjugate(rows):
    """(adjugate-like matrix W, det) with rows^-1 = W / det, by fraction-free
    Gauss-Jordan (Montante) elimination on [rows | I]."""
    n = len(rows)
    M = [list(r) + [Poly.num(1) if i == j else Poly() for j in range(n)]
         for i, r in enumerate(rows)]
    sign = 1
    prev = Poly.num(1)
    for k in range(n):
        if M[k][k].is_zero():
            for i in range(k + 1, n):
                if not M[i][k].is_zero():
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return None, Poly()
        for i in range(n):
            if i == k:
                continue
            for j in range(2 * n):
                if j == k:
                    continue
                M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]).divexact(prev)
            M[i][k] = Poly()
        prev = M[k][k]
    det = prev if sign == 1 else -prev
    W = [[M[i][n + j] if sign == 1 else -M[i][n + j] for j in range(n)] for i in range(n)]
    return W, det
