"""Reference values of the paper, shared by `verify`, `table` and the tests.

The nine-row invariant table and the classical series values are exact
statements of the source paper; the sample families are rational points
on which the exact pipelines stay rational.
"""

from fractions import Fraction

from . import liealg

# central invariants in the normalized bilinear form, classical rows at
# rank 4, in the vertex labeling of liealg.cartan_matrix
TABLE = {
    ('A', 4): [Fraction(1, 24)] * 4,
    ('B', 4): [Fraction(1, 24)] * 3 + [Fraction(1, 12)],
    ('C', 4): [Fraction(1, 12)] * 3 + [Fraction(1, 24)],
    ('D', 4): [Fraction(1, 24)] * 4,
    ('E', 6): [Fraction(1, 24)] * 6,
    ('E', 7): [Fraction(1, 24)] * 7,
    ('E', 8): [Fraction(1, 24)] * 8,
    ('F', 4): [Fraction(1, 24)] * 2 + [Fraction(1, 12)] * 2,
    ('G', 2): [Fraction(1, 8), Fraction(1, 24)],
}

# (source, target) diagram -> (type and rank for liealg.fold, target row)
FOLDINGS = {
    ('B3', 'G2'): ('G', 3, ('G', 2)),
    ('D4', 'G2'): ('G', 4, ('G', 2)),
    ('D5', 'B4'): ('B', 4, ('B', 4)),
    ('A7', 'C4'): ('C', 4, ('C', 4)),
    ('E6', 'F4'): ('F', 4, ('F', 4)),
}


def classical_invariants(series, n):
    """Values of the scalar-Lax computation (trace form on the defining
    representation) in engine order: for B and C the value at the
    distinguished critical point comes last."""
    if series == 'A':
        return [Fraction(1, 24)] * n
    if series == 'B':
        return [Fraction(1, 12)] * (n - 1) + [Fraction(1, 6)]
    if series == 'C':
        return [Fraction(1, 12)] * (n - 1) + [Fraction(1, 24)]
    if series == 'D':
        return [Fraction(1, 12)] * n
    raise ValueError("unknown series %r" % series)


def table_row(typ, n):
    """The expected normalized-form row of the table: a classical row at
    any rank is classical_invariants scaled by the form ratio of its
    series, an exceptional row is read from TABLE."""
    if typ in ('A', 'B', 'C', 'D'):
        ratio = liealg.defining_form_ratio(typ)
        return [c * ratio for c in classical_invariants(typ, n)]
    return TABLE[(typ, n)]


def g2_sample(rng):
    """A seeded point of the G2 slice: u1, then u2."""
    return [Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))]


def f4_point(t1, k, t4):
    """The F4 flat-coordinate point (t1, t2, 0, t4) on which the quartic
    in the root formula is a perfect square, so the canonical
    coordinates stay rational; t2 is fixed by k and t4."""
    return [Fraction(t1), Fraction(57 * k * k - 2736 * t4 ** 4, 361),
            Fraction(0), Fraction(t4)]


def f4_sample(rng):
    """A seeded point of the F4 family: k, t4 numerator, t4 denominator,
    then t1."""
    k = rng.randint(1, 5)
    t4 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return f4_point(rng.randint(-5, 5), k, t4)
