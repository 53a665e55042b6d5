"""Truncated symbol calculus for pseudodifferential operators.

A Symbol stores coefficients of p^i eps^e as differential polynomials,
with the eps grading truncated at a fixed order K.  The composition law

    a * b = sum_k eps^k/k! d_p^k a . d_x^k b

is the usual symbol product; residue, positive part and formal adjoint
act termwise.  Laurent powers of p are allowed.
"""

from .algebra import Poly, _settle, mul_into


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
        if not isinstance(other, Symbol):
            return NotImplemented
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

    def star(self, other, frozen=frozenset(), low=None, high=None):
        """Symbol product, truncated at eps^K.

        Families in `frozen` have vanishing x-derivatives.  With `low`
        and `high`, only the p-powers in [low, high] are formed, exactly
        as in the full product: a term p^i of self meets the k-th
        x-derivative of a p^j term of other at p^(i - k + j), so the
        terms of other are taken from the highest p-power down, those
        above the window skipped, until that falls below it; each
        x-derivative tower goes no higher than a pair reads.  The window
        (-1, -1) is the residue.  A vanishing derivative (a frozen
        coefficient) is skipped before p1 is scaled for it; p1 is scaled
        once per derivative order, and each product is added straight
        into its entry.

        The k-th term of p^i is weighted by d_p^k p^i / k! = C(i, k)
        p^(i - k), an integer binomial for every integer i (negative
        ones included), so integral coefficients give an integral
        product.
        """
        K = self.K
        towers = sorted(([j, e2, [p2]] for (j, e2), p2 in other.c.items()),
                        key=lambda t: -t[0])    # [j, e2, [p2, p2', ...]]
        out = {}
        if not towers or not self.c:
            return Symbol({}, K)
        top = towers[0][0]
        if low is None:
            low = min(i for i, _ in self.c) - K + towers[-1][0]
        if high is None:
            high = max(i for i, _ in self.c) + top
        for (i, e1), p1 in self.c.items():
            binom = 1
            for k in range(K - e1 + 1):
                if i - k + top < low:
                    break
                if k:
                    binom = binom * (i - k + 1) // k
                    if not binom:
                        break
                p1f = None
                for j, e2, tower in towers:
                    pw = i - k + j
                    if pw < low:
                        break
                    if pw > high or e1 + e2 + k > K:
                        continue
                    while len(tower) <= k:
                        tower.append(tower[-1].xdiff(frozen))
                    if tower[k]:
                        if p1f is None:
                            p1f = p1 * binom if k else p1
                        mul_into(out.setdefault((pw, e1 + e2 + k), {}),
                                 p1f, tower[k])
        return Symbol({key: Poly(_settle(t)) for key, t in out.items()}, K)

    def positive(self):
        return Symbol({k: p for k, p in self.c.items() if k[0] >= 0}, self.K)

    def residue(self):
        """Coefficient of p^-1 as dict eps-power -> Poly."""
        return {e: p for (i, e), p in self.c.items() if i == -1}

    def adjoint(self):
        """Formal adjoint, termwise:

        (c p^k)^+ = (-1)^k sum_j C(k,j) eps^j c^(j) p^(k-j)

        with the generalized binomial for Laurent powers (the series is
        cut by the eps truncation).  C(k, j) is an int for every integer
        k, built up as C(k, j) = C(k, j - 1) (k - j + 1) // j, which
        divides exactly.
        """
        out = Symbol({}, self.K)
        for (k, e), p in self.c.items():
            sign = -1 if k % 2 else 1
            binom = 1
            pj = p
            for j in range(self.K - e + 1):
                if j:
                    binom = binom * (k - j + 1) // j
                    pj = pj.xdiff()
                    if not binom:
                        break
                out._merge((k - j, e + j), pj * (sign * binom))
        return out

    def __str__(self):
        if not self.c:
            return "0"
        return " + ".join("(%s) p^%d eps^%d" % (p, i, e)
                          for (i, e), p in sorted(self.c.items()))

    __repr__ = __str__
