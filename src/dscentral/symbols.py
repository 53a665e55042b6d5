"""Truncated symbol calculus for pseudodifferential operators.

A Symbol stores coefficients of p^i eps^e as differential polynomials,
with the eps grading truncated at a fixed order K.  The composition law

    a * b = sum_k eps^k/k! d_p^k a . d_x^k b

is the usual symbol product; residue, positive part and formal adjoint
act termwise.  Laurent powers of p are allowed.
"""

from fractions import Fraction

from .algebra import Poly, _accumulate


class Symbol:
    __slots__ = ("c", "K")

    def __init__(self, c=None, K=4):
        self.c = {k: v for k, v in (c or {}).items() if not v.is_zero()}
        self.K = K

    @staticmethod
    def from_p_poly(coeffs, K=4):
        """coeffs: dict p-power -> Poly/number, at eps order 0."""
        out = {}
        for i, v in coeffs.items():
            if not isinstance(v, Poly):
                v = Poly.num(v)
            if not v.is_zero():
                out[(i, 0)] = v
        return Symbol(out, K)

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return self.K == other.K and self.c == other.c

    def _merge(self, key, p):
        cur = self.c.get(key)
        s = p if cur is None else cur + p
        if s.is_zero():
            self.c.pop(key, None)
        else:
            self.c[key] = s

    def __add__(self, other):
        out = Symbol(dict(self.c), self.K)
        for k, p in other.c.items():
            out._merge(k, p)
        return out

    def __neg__(self):
        return Symbol({k: -p for k, p in self.c.items()}, self.K)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        """Multiply by a scalar or a p-independent Poly (eps order 0)."""
        if not isinstance(s, Poly):
            s = Poly.num(s)
        return Symbol({k: p * s for k, p in self.c.items()}, self.K)

    def eps_shift(self, d):
        """Multiply by eps^d, dropping terms beyond the truncation."""
        return Symbol({(i, e + d): p for (i, e), p in self.c.items()
                       if 0 <= e + d <= self.K}, self.K)

    def pdiff(self, k=1):
        out = {}
        for (i, e), p in self.c.items():
            f = Fraction(1)
            for t in range(k):
                f *= i - t
            if f:
                key = (i - k, e)
                q = out.get(key)
                out[key] = p * f if q is None else q + p * f
        return Symbol(out, self.K)

    def xdiff(self, frozen=frozenset()):
        return Symbol({k: p.xdiff(frozen) for k, p in self.c.items()}, self.K)

    def star(self, other, frozen=frozenset()):
        """Symbol product, truncated at eps^K.

        Families in `frozen` have vanishing x-derivatives.
        """
        K = self.K
        bx = [other.c]
        for _ in range(K):
            bx.append({k: p.xdiff(frozen) for k, p in bx[-1].items()})
        out = Symbol({}, K)
        for (i, e1), p1 in self.c.items():
            fall = Fraction(1)
            for k in range(K - e1 + 1):
                if k:
                    fall = fall * (i - k + 1) / k
                    if not fall:
                        break
                for (j, e2), p2 in bx[k].items():
                    if e1 + e2 + k <= K:
                        prod = p1 * p2 if k == 0 else p1 * p2 * fall
                        if not prod.is_zero():
                            out._merge((i - k + j, e1 + e2 + k), prod)
        return out

    def star_residue(self, other, frozen=frozenset()):
        """star(other, frozen).residue() without the other p-powers.

        A term p^i of self meets the k-th x-derivative of the p^j terms
        of other only where i - k + j = -1, so the x-derivative tower of
        other is indexed by p-power and taken no higher than needed.
        """
        K = self.K
        towers = {}                     # j -> [(e2, [p2, p2', ...])]
        for (j, e2), p2 in other.c.items():
            towers.setdefault(j, []).append((e2, [p2]))
        out = {}
        for (i, e1), p1 in self.c.items():
            fall = Fraction(1)
            for k in range(K - e1 + 1):
                if k:
                    fall = fall * (i - k + 1) / k
                    if not fall:
                        break
                matches = towers.get(k - 1 - i)
                if not matches:
                    continue
                p1f = p1 if k == 0 else p1 * fall
                for e2, tower in matches:
                    e = e1 + e2 + k
                    if e > K:
                        continue
                    while len(tower) <= k:
                        tower.append(tower[-1].xdiff(frozen))
                    acc = out.setdefault(e, {})
                    for m, c in (p1f * tower[k]).terms.items():
                        _accumulate(acc, m, c)
        return {e: Poly(t) for e, t in out.items() if t}

    def commutator(self, other, frozen=frozenset()):
        return self.star(other, frozen) - other.star(self, frozen)

    def positive(self):
        return Symbol({k: p for k, p in self.c.items() if k[0] >= 0}, self.K)

    def negative(self):
        return Symbol({k: p for k, p in self.c.items() if k[0] < 0}, self.K)

    def residue(self):
        """Coefficient of p^-1 as dict eps-power -> Poly."""
        return {e: p for (i, e), p in self.c.items() if i == -1}

    def coeff(self, i, e=0):
        return self.c.get((i, e), Poly())

    def adjoint(self, frozen=frozenset()):
        """Formal adjoint, termwise:

        (c p^k)^+ = (-1)^k sum_j C(k,j) eps^j c^(j) p^(k-j)

        with the generalized binomial for Laurent powers (the series is
        cut by the eps truncation).
        """
        out = Symbol({}, self.K)
        for (k, e), p in self.c.items():
            sign = -1 if k % 2 else 1
            binom = Fraction(1)
            pj = p
            for j in range(self.K - e + 1):
                if j:
                    binom = binom * (k - j + 1) / j
                    pj = pj.xdiff(frozen)
                    if not binom:
                        break
                out._merge((k - j, e + j), pj * (sign * binom))
        return out

    def pmin(self):
        return min((i for i, _ in self.c), default=0)

    def subs(self, mapping):
        out = {}
        for k, p in self.c.items():
            q = p.subs(mapping)
            if not q.is_zero():
                out[k] = q
        return Symbol(out, self.K)

    def __str__(self):
        if not self.c:
            return "0"
        return " + ".join("(%s) p^%d eps^%d" % (p, i, e)
                          for (i, e), p in sorted(self.c.items()))

    __repr__ = __str__
