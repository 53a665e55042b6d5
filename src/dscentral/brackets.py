"""Poisson bracket tables from the symbol calculus.

Both hamiltonian operators of a scalar Lax operator are evaluated on
pairs of linear functionals with densities a_i(x), b_j(x).  The residue
density is brought to the normal form

    sum  C[i, j, s] a_i b_j^(s) eps^s

by integration by parts; C[i, j, s] is then the delta^(s) coefficient of
{u_i(x), u_j(y)} at eps^(s-1), with the coefficient jets suppressed.

Closed-form counterparts of the leading coefficients are provided for
cross-checking; they are exact Laurent polynomials in two auxiliary
variables x, y.  Each is one numerator over (x - y)^k, divided out
exactly by k synthetic divisions (`_over`), plus a polynomial part.
"""

from fractions import Fraction
from math import comb, lcm

from .algebra import Poly, _quo, _settle, accumulate, decode, mul_into
from .symbols import Symbol
from .lax import (capital_lambda, capital_lambda_tilde, dispersionless_symbol,
                  lambda_xpoly, u_power)

FROZEN = frozenset({'u', 'rho', 'p', 'q', 'P', 'Q'})


def variational_symbol(series, n, fam='a', K=4):
    """Symbol of the operator attached to the density sum_i fam_i u_i:
    with f = sum_i fam_i p^j, j = -u_power(series, i) - 1,

        X = f + w sum_(k >= 1) eps^k/k! d_p^k f d_x^k,

    w = 1 for A and 1/2 otherwise.  The eps^k term of fam_i is
    w C(j, k) fam_i^(k) p^(j - k), with the generalized binomial.
    """
    w = 1 if series == 'A' else Fraction(1, 2)
    js = [-u_power(series, i) - 1 for i in range(1, n + 1)]
    c = {}
    for k in range(K + 1):
        for i, j in enumerate(js, 1):
            binom = comb(j, k) if j >= 0 else (-1) ** k * comb(k - j - 1, k)
            c[(j - k, k)] = Poly.of(fam, i, k) * (binom * w if k else 1)
    return Symbol(c, K)


def gy_exact(comm, frozen=frozenset()):
    """Scalar symbol g with eps d_x g = res(comm), comm = [L, Y], read
    from the p^-1 part of comm: with L's coefficients frozen, each term
    is one jet of order >= 1 times frozen factors; g lowers that jet."""
    out = Symbol({}, comm.K)
    for e, pol in comm.residue().items():
        if e >= 1:
            out._merge((0, e - 1), pol.map_free(frozen, _lower_jet))
        elif not pol.is_zero():
            raise ValueError("residue of [L, Y] has an eps^0 part")
    return out


def _lower_jet(pairs):
    # the step of `gy_exact` on the part of a term outside the frozen families
    if len(pairs) != 1 or pairs[0][1] != 1 or not pairs[0][0][2]:
        raise ValueError("not a total x-derivative")
    (fam, i, k), _ = pairs[0]
    return (((fam, i, k - 1), 1),), 1


def _a_to_b(sym):
    # the b-side copy of an a-side symbol
    ren = lambda pairs: (tuple((('b',) + v[1:] if v[0] == 'a' else v, e) for v, e in pairs), 1)
    return Symbol({k: p.map_free(FROZEN, ren) for k, p in sym.c.items()}, sym.K)


def bracket_density(series, n, K=4):
    """Residue density of the second bracket (without the overall 1/eps)
    as a dict eps-power -> Poly, symbolic in u with the u-jets
    suppressed; `unit_derivative` of it is the first bracket's.

    The density is

        res((L Y)_+ L X) - res(X L (Y L)_+)  [- g res([L, X]) / (n + 1) for A]

    with eps d_x g = res([L, Y]): modulo total x-derivatives the A term
    is the sl(n + 1) correction res(X [L, g]) / (n + 1), res being cyclic.
    It is `_scaled_density` divided by its denominator.
    """
    dens, den = _scaled_density(series, n, K)
    return {e: _divide(p, den) for e, p in dens.items()}


def _divide(pol, den):
    return Poly({m: _quo(c, den) for m, c in pol.terms.items()})


def _scaled_density(series, n, K):
    """The density of `bracket_density` times an integer den, and den.

    X is scaled by D, the lcm of its coefficient denominators, and Y
    with it; the weights of X are binomials, halved for B, C and D, so
    D is 1 for A and at most 2 otherwise.  For A the weight 1/(n + 1)
    of -g res([L, X]) becomes a factor n + 1 on the two pairs.  So
    den = D^2, times n + 1 for A, and with the integer weights of the
    star product every coefficient product is one of ints.

    For B, C and D the two residues are equal up to sign, term for term:
    there L* = +-L and X* = +-X with the same signs for Y, and
    (A_+)* = (A*)_+, so (X L (Y L)_+)* = (L Y)_+ L X; and res(P*) = -res(P).
    The density is then 2 res((L Y)_+ L X), and X L is never formed.

    Each star product is formed once:
    - Y is X with the family a renamed b, and for A, Y L is X L renamed;
    - L Y starts at p^0, the lowest power its positive part reads, and
      at p^-1 for A, where res([L, Y]) = res(L Y - Y L) gives g, and
      res([L, X]) = res(L X - X L) is read from L X at p^-1 alone;
    - (L Y)_+ L starts at p^(-1 - top), top the highest p-power of X,
      the lowest power that meets X in the residue;
    - of each last product only the p^-1 part is formed, and of g times
      res([L, X]) only the terms up to eps^K.
    """
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, K=K)
    X = variational_symbol(series, n, 'a', K)
    D = lcm(*(c.denominator for p in X.c.values() for c in p.terms.values()))
    X = X.scale(D)
    top = max(i for i, _ in X.c)
    LY = lsym.star(_a_to_b(X), frozen, -1 if series == 'A' else 0)
    LYL = LY.positive().star(lsym, frozen, -1 - top)
    if series != 'A':
        return {e: p * 2 for e, p in LYL.star(X, frozen, -1, -1).residue().items()}, D * D
    XL = X.star(lsym, frozen)
    YL = _a_to_b(XL)
    g = gy_exact(LY - YL, frozen)
    out = {}
    for weight, left, right in [(n + 1, LYL, X), (-n - 1, XL, YL.positive())]:
        for e, pol in left.star(right, frozen, -1, -1).residue().items():
            acc = out.setdefault(e, {})
            for m, c in pol.terms.items():
                accumulate(acc, m, c * weight)
    for e2, r in (XL - lsym.star(X, frozen, -1, -1)).residue().items():
        for (_, e1), gp in g.c.items():
            if e1 + e2 <= K:
                mul_into(out.setdefault(e1 + e2, {}), gp, r)
    return {e: Poly(t) for e, t in out.items() if t}, D * D * (n + 1)


def ibp_reduce(pol):
    """Move all x-derivatives off the `a` variables, modulo total
    derivatives, in one step per term:

        a_i^(k) r  ->  (-1)^k a_i d^k r.

    Each term is linear in a.  Outside the frozen families r holds at
    most one factor, to the first power: d^k raises its order by k, and
    a term without one drops out.  A term whose a carries no derivative
    is kept as it is.  The step depends only on the part of a term
    outside the frozen families.
    """
    return pol.map_free(FROZEN, _ibp_step)


def _ibp_step(pairs):
    # the step of `ibp_reduce` on the part of a term outside FROZEN
    a, free = None, []
    for v, e in pairs:
        if v[0] == 'a':
            if a is not None or e != 1:
                raise ValueError("nonlinear density in a")
            a = v
        else:
            free.append((v, e))
    k = 0 if a is None else a[2]
    if not k:
        return pairs, 1
    if len(free) > 1 or free and free[0][1] != 1:
        raise ValueError("remainder not linear in its non-frozen factors: %s" % (pairs,))
    if not free:
        return (), 0
    v = free[0][0]
    return ((a[:2] + (0,), 1), ((v[0], v[1], v[2] + k), 1)), -1 if k % 2 else 1


def unit_derivative(series, polys):
    """The derivative along the unit field of a density or a table, the
    entries that vanish dropped.

    The pencil is {,}_2 - lam {,}_1 and the shift lam rides on the
    constant term of lam (of Lam~ = Lam/P for D), so the first bracket
    is the derivative of the second by u_1 (by u_2 for D).
    """
    v = ('u', 2 if series == 'D' else 1, 0)
    out = {k: p.diff(v) for k, p in polys.items()}
    return {k: p for k, p in out.items() if not p.is_zero()}


def bracket_table(series, n, which, K=4):
    """Normal-form coefficient table of bracket `which` (1 or 2): dict
    (i, j, s) -> Poly in u."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    # both steps are linear, so the density's denominator is divided out
    # of the table, once per entry
    dens, den = _scaled_density(series, n, K)
    table = normal_form(dens if which == 2 else unit_derivative(series, dens))
    return {k: _divide(p, den) for k, p in table.items()}


def normal_form(dens):
    """Coefficient table dict (i, j, s) -> Poly of a residue density.

    Sanity conditions verified on the way: the density is bilinear in the
    two test densities, the eps^0 part cancels, and each a_i b_j^(s)
    coefficient sits at eps power s exactly.
    """
    table = {}
    for e, pol in dens.items():
        for m, rest in ibp_reduce(pol).split(FROZEN).items():
            a = b = None
            for v, ex in decode(m):
                if v[0] == 'a' and a is None and ex == 1 and v[2] == 0:
                    a = v
                elif v[0] == 'b' and b is None and ex == 1:
                    b = v
                else:
                    raise ValueError("unexpected density term %s" % (decode(m),))
            if a is None or b is None:
                raise ValueError("density not bilinear: %s" % (decode(m),))
            if b[2] != e:
                raise ValueError("eps grading violated at %s (eps^%d)" % (decode(m), e))
            table[(a[1], b[1], e)] = rest
    if any(s == 0 for (_, _, s) in table):
        raise ValueError("eps^-1 terms did not cancel")
    return table


def generating_poly(table, series, n, s, capital=False):
    """Generating Laurent polynomial of the delta^(s) block of a table."""
    pname, qname = ('P', 'Q') if capital else ('p', 'q')
    out = {}
    for (i, j, t), pol in table.items():
        if t != s:
            continue
        if capital:
            pi, pj = i - 1, j - 1
        else:
            pi, pj = u_power(series, i), u_power(series, j)
        mul_into(out, pol, Poly.of(pname, 0, 0, pi) * Poly.of(qname, 0, 0, pj))
    return Poly(_settle(out))


def _over(num, x, y, k):
    """num / (x - y)^k, x and y named as in `Poly.of`, by k synthetic
    divisions in x: with num = sum c_j x^j, Laurent powers allowed, the
    quotient has q_(j-1) = c_j + y q_j from the top power down, and the
    remainder c_low + y q_low must vanish."""
    yp = Poly.of(y)
    for _ in range(k):
        cols = num.coeffs_in((x, 0, 0))
        low, quot, q = min(cols, default=0), {}, Poly()
        for j in range(max(cols, default=0), low - 1, -1):
            nq = dict(cols[j].terms) if j in cols else {}
            mul_into(nq, q, yp)
            q = Poly(_settle(nq))
            if j > low:
                mul_into(quot, q, Poly.of(x, exp=j - 1))
            elif q:
                raise ValueError("not an exact division")
        num = Poly(quot)
    return num


def _lam_tower(series, n, name, capital=False, tilde=False):
    # lam (or Lam, Lam~) in the variable `name` and four derivatives
    if capital:
        base = capital_lambda_tilde(n, name) if tilde else capital_lambda(n, name)
    else:
        base = lambda_xpoly(series, n, name)
    v = (name, 0, 0)
    tower = [base]
    for _ in range(4):
        tower.append(tower[-1].diff(v))
    return tower


def closed_form_small(series, n, a, s):
    """Leading bracket coefficients of the A series as exact Laurent
    polynomials in p, q, for a = 1, 2 and s = 1, 2, 3: one numerator over
    (q - p)^s, plus a polynomial part for a = 2.  The numerator at s is
    the one at s - 1 plus one term in (q - p)^(s - 1).

    B, C and D have their closed forms in `closed_form_capital`.
    """
    if series != 'A':
        raise ValueError("small-variable closed forms: series A only")
    if a not in (1, 2) or s not in (1, 2, 3):
        raise ValueError("no closed form for (a, s) = %r" % ((a, s),))
    lp = _lam_tower(series, n, 'p')
    lq = _lam_tower(series, n, 'q')
    qp = Poly.of('q') - Poly.of('p')
    nn = Fraction(1, n + 1)
    if a == 1:
        num = lq[1] - lp[1]
        if s > 1:
            num = num - (lq[2] + lp[2]) / 2 * qp
        if s > 2:
            num = num + (lq[3] - lp[3]) / 6 * qp ** 2
        return _over(num, 'q', 'p', s)
    num = lq[1] * lp[0] - lq[0] * lp[1]
    if s == 1:
        return _over(num, 'q', 'p', 1) + lp[1] * lq[1] * nn
    num = num - (lq[2] * lp[0] - 2 * lq[1] * lp[1] + lq[0] * lp[2]) / 2 * qp
    if s == 2:
        return _over(num, 'q', 'p', 2) - (lq[2] * lp[1] - lq[1] * lp[2]) * nn / 2
    num = num + ((lq[3] * lp[0] - 3 * lq[2] * lp[1] + 3 * lq[1] * lp[2] - lq[0] * lp[3]) / 6
                 * qp ** 2)
    return (_over(num, 'q', 'p', 3)
            + (2 * lq[3] * lp[1] - 3 * lq[2] * lp[2] + 2 * lq[1] * lp[3]) * nn / 12)


def closed_form_capital(series, n, a, s):
    """Generating polynomials of the delta' and eps^2 delta''' blocks in
    the capital variables P, Q, for a = 1, 2 and s = 1, 3: each one
    numerator over (P - Q)^s, plus a polynomial part."""
    if series not in ('B', 'C', 'D'):
        raise ValueError("unknown series %r" % series)
    if a not in (1, 2) or s not in (1, 3):
        raise ValueError("no closed form for (a, s) = %r" % ((a, s),))
    L = _lam_tower(series, n, 'P', capital=True)
    M = _lam_tower(series, n, 'Q', capital=True)
    P, Q = Poly.of('P'), Poly.of('Q')
    if s == 1:
        if a == 2:
            num = 2 * (P * L[1] * M[0] - Q * M[1] * L[0])
        elif series in ('B', 'C'):
            num = 2 * (P * L[1] - Q * M[1])
        else:
            num = 2 * (P * Q * (L[1] - M[1]) + P * M[0] - Q * L[0])
        return _over(num, 'P', 'Q', 1)
    d = P - Q
    lam0 = Poly.of('u', 1)                  # Lam(0) = u_1
    pq_inv = Poly.of('P', exp=-1) * Poly.of('Q', exp=-1)
    extra = 0
    if (series, a) == ('B', 2):
        num = ((P + Q) ** 2 * (L[1] * M[0] - M[1] * L[0])
               - 2 * P * Q * (L[2] * M[0] - 2 * L[1] * M[1] + L[0] * M[2]) * d
               + (4 * (P ** 2 * L[3] * M[0] - Q ** 2 * M[3] * L[0]) / 3
                  + 2 * P * Q * (L[1] * M[2] - M[1] * L[2])
                  + 2 * (P * L[2] * M[0] - Q * M[2] * L[0])) * d ** 2)
        extra = 3 * L[1] * M[1]
    elif (series, a) == ('B', 1):
        num = ((P + Q) ** 2 * (L[1] - M[1])
               - 2 * P * Q * (L[2] + M[2]) * d
               + (4 * (P ** 2 * L[3] - Q ** 2 * M[3]) / 3 + 2 * (P * L[2] - Q * M[2])) * d ** 2)
    elif (series, a) == ('C', 2):
        num = ((P ** 2 + 6 * P * Q + Q ** 2) * (L[1] * M[0] - M[1] * L[0]) / 2
               - 2 * P * Q * (L[2] * M[0] - 2 * L[1] * M[1] + L[0] * M[2]) * d
               + (4 * (P ** 2 * L[3] * M[0] - Q ** 2 * M[3] * L[0]) / 3
                  + 2 * P * Q * (L[1] * M[2] - M[1] * L[2])
                  + P * L[2] * M[0] - Q * M[2] * L[0]) * d ** 2)
        extra = L[1] * M[1]
    elif (series, a) == ('C', 1):
        num = ((P ** 2 + 6 * P * Q + Q ** 2) * (L[1] - M[1]) / 2
               - 2 * P * Q * (L[2] + M[2]) * d
               + (4 * (P ** 2 * L[3] - Q ** 2 * M[3]) / 3 + P * L[2] - Q * M[2]) * d ** 2)
    elif a == 2:
        num = (4 * P * Q * (L[1] * M[0] - M[1] * L[0])
               - 2 * P * Q * (L[2] * M[0] - 2 * L[1] * M[1] + L[0] * M[2]) * d
               + (4 * (P ** 2 * L[3] * M[0] - Q ** 2 * M[3] * L[0]) / 3
                  + 2 * P * Q * (L[1] * M[2] - M[1] * L[2])
                  + (P ** 2 * L[1] * M[0] - Q ** 2 * M[1] * L[0]) * pq_inv) * d ** 2)
        extra = -L[1] * M[1] - lam0 * (P * L[1] + Q * M[1]) * pq_inv
    else:
        Lt = _lam_tower(series, n, 'P', capital=True, tilde=True)
        Mt = _lam_tower(series, n, 'Q', capital=True, tilde=True)
        num = (4 * P * Q * (P ** 2 * Lt[1] - Q ** 2 * Mt[1])
               - 2 * P * Q * (P * L[2] + Q * M[2]) * d
               + (4 * P * Q * (P * L[3] - Q * M[3]) / 3 + P * Q * (Lt[1] - Mt[1])) * d ** 2)
        extra = -lam0 * (P + Q) * pq_inv
    return _over(num, 'P', 'Q', 3) + extra
