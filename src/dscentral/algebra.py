"""Sparse exact arithmetic: differential polynomials.

A variable is a tuple (family, index, order), e.g. ('u', 2, 0) for u_2 or
('a', 1, 3) for the third x-derivative of a_1.  A Poly maps monomials to
exact coefficients in one canonical form: an int when the value is
integral, else a Fraction, never a float or a bool; any other
coefficient is a TypeError.  Every quotient of coefficients goes through
Fraction.  `constant()` and `coeff_of()` return Fractions.

A monomial is one int, a packed exponent vector (Monagan & Pearce,
CASC 2007).  The first time a variable is used it is given the next
free W = 16 bit field, in a registry private to this module, and the
monomial is sum_v e_v 2^(W field(v)): each exponent is a signed
(balanced) digit, so Laurent exponents need nothing extra.  The
constant monomial is 0, a product of monomials is m1 + m2 and a
quotient m1 - m2.  Outside this module monomials come only from
`monomial` and the Poly methods, and are read only by `decode` (the
sorted (variable, exponent) pairs) or `exponent` (one field: one shift
and one mask).
Whatever depends on an order sorts by the decoded pairs, so no output
depends on the order in which the variables were registered.  The
fields are assigned per process: a packed monomial means nothing in
another process, and a Poly is not meant to be pickled.

Range.  A stored monomial keeps every exponent in [-2^14, 2^14).  The
sum or the difference of two such exponents lies in [-2^15, 2^15), the
range of a balanced 16-bit digit, so m1 + m2 and m1 - m2 are exact:
nothing carries into a neighbouring field.  Every monomial that an
operation makes is checked at once (`_checked`, and the same test inline
in `mul_into`): adding 2^14 to each field maps an exponent in range into
[0, 2^15), with the top bit of its field clear.  If an exponent is out
of range, the lowest such field gets its top bit set, since the fields
below it are in range and pass it no carry or borrow; so one AND with
the top bits of all fields finds it.  OverflowError is raised before
such a monomial can be an operand, so no chain of products, powers,
quotients or derivatives wraps.

Points.  `evaluate` reads Polys in u_1..u_n at a rational point without
forming a Poly, in two steps.  `Prepared` is the part that does not
depend on the point: each distinct packed monomial decoded once, and
the coefficients as integer numerators over one denominator.  The point
step takes the powers of the point's numerators and one integer dot
product per Poly, and the caller divides each value once.  Data read
at many points keeps its `Prepared` and hands that to `evaluate`.
"""

from fractions import Fraction
from math import inf, lcm
from operator import mul

_W = 16                         # bits per variable field
_MASK = (1 << _W) - 1
_OFF = 1 << (_W - 2)            # exponents lie in [-_OFF, _OFF)
_VARS = []                      # variable of each field, lowest first
_SHIFT = {}                     # variable -> bit offset of its field
_OFFS = 0                       # _OFF in every field
_GUARDS = 0                     # the top bit of every field
_FAMILY = {}                    # family -> its fields
_UNFROZEN = {}                  # frozen families -> the other fields
_DECODED = {}                   # monomial -> its decoded pairs
_MEMO = 1024


def _shift(v):
    """The bit offset of the field of v, registering v the first time."""
    sh = _SHIFT.get(v)
    if sh is None:
        global _OFFS, _GUARDS
        sh = _SHIFT[v] = _W * len(_VARS)
        _VARS.append(v)
        _OFFS |= _OFF << sh
        _GUARDS |= 1 << (sh + _W - 1)
        _FAMILY[v[0]] = _FAMILY.get(v[0], 0) | _MASK << sh
        _UNFROZEN.clear()
    return sh


def _overflow():
    return OverflowError("exponent outside [%d, %d)" % (-_OFF, _OFF))


def _checked(m):
    """m, when every exponent of it lies in range (see the module
    docstring); m must be a sum or difference of two monomials in range."""
    if (m + _OFFS) & _GUARDS:
        raise _overflow()
    return m


def monomial(pairs, base=0):
    """The monomial base * prod v^e over the (variable, exponent) pairs;
    a variable may repeat.

    >>> m = monomial([(('u', 1, 0), 2), (('p', 0, 0), -1)])
    >>> decode(m)
    ((('p', 0, 0), -1), (('u', 1, 0), 2))
    >>> exponent(m, ('p', 0, 0)), decode(monomial([(('p', 0, 0), 1)], m))
    (-1, ((('u', 1, 0), 2),))
    """
    m = base
    for v, e in pairs:
        sh = _SHIFT.get(v)
        m += e << (_shift(v) if sh is None else sh)
        # m was in range, so the sum is exact when e is
        if (m + _OFFS) & _GUARDS or not -_OFF <= e < _OFF:
            raise _overflow()
    return m


def decode(m):
    """The (variable, exponent) pairs of a monomial, sorted by variable.
    Decodes are kept in a memo of at most _MEMO entries, emptied when
    full."""
    pairs = _DECODED.get(m)
    if pairs is None:
        y = m + _OFFS
        z = y ^ _OFFS               # nonzero in the fields of nonzero exponents
        out = []
        field = 0
        while z:
            skip = ((z & -z).bit_length() - 1) // _W
            field += skip
            z >>= _W * skip + _W
            y >>= _W * skip
            out.append((_VARS[field], (y & _MASK) - _OFF))
            y >>= _W
            field += 1
        out.sort()
        pairs = tuple(out)
        if len(_DECODED) >= _MEMO:
            _DECODED.clear()
        _DECODED[m] = pairs
    return pairs


def _unfrozen(frozen):
    # the fields of the variables outside the frozen families, and the
    # offsets in them: ((m + _OFFS) & mask) - offs is the part of m there
    frozen = frozenset(frozen)          # the same object when it is one
    got = _UNFROZEN.get(frozen)
    if got is None:
        mask = (1 << _W * len(_VARS)) - 1
        for f in frozen:
            mask &= ~_FAMILY.get(f, 0)
        got = _UNFROZEN[frozen] = mask, _OFFS & mask
    return got


def exponent(m, v):
    """The exponent of the variable v in the monomial m."""
    sh = _SHIFT.get(v)
    if sh is None:
        return 0
    return ((m + _OFFS) >> sh & _MASK) - _OFF


def _canon(c):
    """The canonical coefficient of an exact value: an int when it is
    integral, else a Fraction.  Anything but an int, a bool or a
    Fraction is a TypeError.

    >>> _canon(Fraction(6, 3)), _canon(Fraction(1, 2)), _canon(True)
    (2, Fraction(1, 2), 1)
    """
    if type(c) is int:
        return c
    if type(c) is bool:
        return int(c)
    if type(c) is not Fraction:
        raise TypeError("not an exact coefficient: %r" % (c,))
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


def accumulate(terms, m, c):
    """terms[m] += c in place, dropping the monomial when it cancels."""
    c2 = terms.get(m, 0) + c
    if c2:
        terms[m] = c2 if type(c2) is int else _canon(c2)
    else:
        terms.pop(m, None)


def mul_into(terms, p, q):
    """terms += p * q in place, dropping the monomials that cancel; the
    coefficients are left for `_settle`."""
    qs = q.terms.items()
    offs, guards = _OFFS, _GUARDS
    for m1, c1 in p.terms.items():
        for m2, c2 in qs:
            m = m1 + m2
            c = terms.get(m)
            if c is None:
                # a key already in terms was checked when it was made
                if (m + offs) & guards:
                    raise _overflow()
                c = c1 * c2
            else:
                c += c1 * c2
            if c:
                terms[m] = c
            else:
                terms.pop(m, None)


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @staticmethod
    def num(c):
        c = _canon(c)
        return Poly({0: c} if c else {})

    @staticmethod
    def of(family, index=0, order=0, exp=1):
        if not -_OFF <= exp < _OFF:
            raise _overflow()
        return Poly({exp << _shift((family, index, order)): 1})

    @staticmethod
    def from_var(v):
        return Poly({monomial(((v, 1),)): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(m == 0 for m in self.terms)

    def constant(self):
        """Value of a constant Poly as a Fraction."""
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return Fraction(self.terms.get(0, 0))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if type(other) not in (int, bool, Fraction):
                return NotImplemented
            other = Poly.num(other)
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        if self.is_constant():
            return hash(self.terms.get(0, 0))
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
        mul_into(t, self, other)
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
            n >>= 1
            if n:
                b = b * b
        return r

    def __truediv__(self, other):
        return self * _quo(1, _canon(other))

    def diff(self, v):
        """Partial derivative with respect to one variable."""
        t = {}
        if v in _SHIFT:
            unit = 1 << _SHIFT[v]
            for m, c in self.terms.items():
                e = exponent(m, v)
                if e:
                    accumulate(t, _checked(m - unit), c * e)
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
        mask, offs = _unfrozen(frozen)
        t = {}
        for m, c in self.terms.items():
            for v, e in decode(((m + _OFFS) & mask) - offs):
                m2 = m + (1 << _shift((v[0], v[1], v[2] + 1))) - (1 << _SHIFT[v])
                accumulate(t, _checked(m2), c * e)
        return Poly(t)

    def subs(self, mapping):
        """Substitute variables by Polys or numbers.  Variables occurring
        with negative exponent may only be mapped to nonzero numbers."""
        t = {}
        for m, c in self.terms.items():
            rest = 0                    # the factors that stay
            factors = []
            # a point evaluation reads few distinct monomials, so the
            # memo is looked up before the call
            for v, e in _DECODED.get(m) or decode(m):
                if v not in mapping:
                    rest += e << _SHIFT[v]
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
            c = _canon(c)
            if not factors:
                accumulate(t, rest, c)
                continue
            term = Poly({rest: c})
            for f in factors:
                term = term * f
            for m2, c2 in term.terms.items():
                accumulate(t, m2, c2)
        return Poly(t)

    def coeffs_in(self, v):
        """Split as a polynomial in one variable: dict exponent -> Poly."""
        sh = _SHIFT.get(v)
        if sh is None:
            return {0: Poly(dict(self.terms))} if self.terms else {}
        out = {}
        for m, c in self.terms.items():
            e = exponent(m, v)
            # the terms with one exponent of v differ in the rest
            out.setdefault(e, {})[m - (e << sh)] = c
        return {e: Poly(t) for e, t in out.items()}

    def split(self, frozen):
        """Split as a polynomial in the variables outside the frozen
        families, with coefficients in the frozen ones: dict monomial ->
        Poly."""
        mask, offs = _unfrozen(frozen)
        out = {}
        for m, c in self.terms.items():
            free = ((m + _OFFS) & mask) - offs
            out.setdefault(free, {})[m - free] = c
        return {m: Poly(t) for m, t in out.items()}

    def map_free(self, frozen, f):
        """The linear map that takes each term c m r, m in the variables
        outside the frozen families and r in the frozen ones, to
        c w monomial(pairs) r, where (pairs, w) = f(decode(m)); f is
        called once for each m."""
        mask, offs = _unfrozen(frozen)
        t, moves = {}, {}
        for m, c in self.terms.items():
            free = ((m + _OFFS) & mask) - offs
            move = moves.get(free)
            if move is None:
                pairs, w = f(decode(free))
                move = moves[free] = monomial(pairs) - free, w
            delta, w = move
            if w:
                m += delta
                if (m + _OFFS) & _GUARDS:
                    raise _overflow()
                accumulate(t, m, c * w)
        return Poly(t)

    def coeff_of(self, m):
        """The coefficient of the monomial m as a Fraction."""
        return Fraction(self.terms.get(m, 0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: decode(t[0])):
            vs = ["%s_%d^(%d)%s" % (v[0], v[1], v[2], "" if e == 1 else "**%d" % e)
                  for v, e in decode(m)]
            parts.append("%s*%s" % (c, "*".join(vs)) if vs else str(c))
        return " + ".join(parts)

    __repr__ = __str__


def u_list(n, u=None):
    """Normalize a coordinate list: entries Poly/Fraction, u[0] is u_1;
    without u, the symbols u_1, ..., u_n."""
    if u is None:
        return [Poly.of('u', i) for i in range(1, n + 1)]
    out = [x if isinstance(x, Poly) else Poly.num(x) for x in u]
    if len(out) != n:
        raise ValueError("expected %d coordinates" % n)
    return out


class Prepared:
    """Polys in u_1..u_n read once for `evaluate`: each distinct monomial
    as its degree and (0-based u index, exponent) pairs, and each
    distinct Poly as a row, the indices of its monomials and its
    coefficients times C, the lcm of all their denominators, so
    integers; `slots` gives the row of each Poly (a symmetric tensor
    repeats its entries).  Whether a monomial lies in u_1..u_n depends on
    the point's n; that check waits for `evaluate`."""

    __slots__ = ("monomials", "rows", "slots", "C", "T", "tops", "needs", "need")

    def __init__(self, polys):
        polys = list(polys)
        self.C = C = lcm(*(c.denominator for p in polys for c in p.terms.values()
                           if type(c) is not int))
        index, distinct, self.rows, self.slots = {}, {}, [], []
        for p in polys:
            slot = distinct.setdefault(p, len(distinct))
            if slot == len(self.rows):
                idx = [index.setdefault(m, len(index)) for m in p.terms]
                self.rows.append((idx, [c * C if type(c) is int
                                        else c.numerator * (C // c.denominator)
                                        for c in p.terms.values()]))
            self.slots.append(slot)
        # needs: (the least n with the monomial in u_1..u_n, inf if there
        # is none, the monomial), as decode sorts u_k by k; tops: the top
        # exponent of each u_k, for the powers of the point
        self.monomials, self.needs, self.tops = [], [], {}
        for m in index:
            pairs, need = [], 0
            for (family, k, order), e in decode(m):
                if family != 'u' or order or k < 1 or e < 0:
                    need = inf
                    break
                pairs.append((k - 1, e))
                self.tops[k - 1] = max(self.tops.get(k - 1, 0), e)
                need = k
            self.monomials.append((sum(e for _, e in pairs), pairs))
            self.needs.append((need, m))
        self.need = max((need for need, _ in self.needs), default=0)
        self.T = max((t for t, _ in self.monomials), default=0)


def evaluate(polys, point):
    """The values of Polys in u_1..u_n at a rational point, as integer
    numerators over one denominator: (values, den).  With the point a / D,
    C the lcm of the coefficient denominators and T the top degree,
    den = C D^T, and a monomial u^e of degree t reads a^e D^(T - t).
    `polys` is a list of Polys or the `Prepared` of one, for data read at
    many points.  Each distinct monomial is read once; a variable outside
    the point or a negative exponent is a ValueError.

    >>> p = Poly.of('u', 1) ** 2 * Fraction(1, 2) + Poly.of('u', 2)
    >>> evaluate([p], [Fraction(1, 3), 2])
    ([37], 18)
    >>> prepared = Prepared([p, Poly.of('u', 2)])
    >>> evaluate(prepared, [1, 2]), evaluate(prepared, [3, 0])
    (([5, 4], 2), ([9, 0], 2))
    """
    prep = polys if isinstance(polys, Prepared) else Prepared(polys)
    n, point = len(point), [Fraction(x) for x in point]
    if prep.need > n:
        m = next(m for need, m in prep.needs if need > n)
        raise ValueError("not a polynomial in u_1..u_%d: %s" % (n, Poly({m: 1})))
    D, T = lcm(*(x.denominator for x in point)), prep.T
    pw = {k: [(x.numerator * (D // x.denominator)) ** e for e in range(prep.tops[k] + 1)]
          for k, x in enumerate(point) if k in prep.tops}
    Dp = [D ** t for t in range(T + 1)]
    weight = []
    for t, pairs in prep.monomials:
        w = Dp[T - t]
        for k, e in pairs:
            w *= pw[k][e]
        weight.append(w)
    values = [sum(map(mul, cs, map(weight.__getitem__, idx))) for idx, cs in prep.rows]
    return [values[slot] for slot in prep.slots], prep.C * Dp[T]
