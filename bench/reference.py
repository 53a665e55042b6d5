"""Reference values the benchmark checks every output against.

Everything here is exact and independent of the program: the classical
invariant table, the block structure of the bracket tables, the G2 and
F4 tensors and pencils as polynomials, and the normalized-form table the
CLI prints.  Polynomials are written in the fixture notation and parsed
by the small evaluator below, so no checked value passes through the
program's own parser.
"""

import ast
from fractions import Fraction as F

# ---------------------------------------------------------------------------
# classical series

CLASSICAL = ([('A', n) for n in range(1, 7)] + [('B', n) for n in range(2, 6)]
             + [('C', n) for n in range(2, 6)] + [('D', n) for n in range(3, 6)])


def classical_invariants(series, n):
    """The README table, in engine order: for B and C the exceptional
    value sits in the last slot."""
    if series == 'A':
        return [F(1, 24)] * n
    if series == 'B':
        return [F(1, 12)] * (n - 1) + [F(1, 6)]
    if series == 'C':
        return [F(1, 12)] * (n - 1) + [F(1, 24)]
    return [F(1, 12)] * n


# (series, n, a) -> (blocks s with a closed form, blocks s without one);
# every block with a closed form must match it exactly
TABLE_BLOCKS = {
    ('A', 1, 1): ((1,), ()), ('A', 1, 2): ((1, 3), ()),
    ('A', 2, 1): ((1,), ()), ('A', 2, 2): ((1, 2, 3), (4,)),
    ('A', 3, 1): ((1, 2, 3), ()), ('A', 3, 2): ((1, 2, 3), (4,)),
    ('A', 4, 1): ((1, 2, 3), ()), ('A', 4, 2): ((1, 2, 3), (4,)),
    ('A', 5, 1): ((1, 2, 3), (4,)), ('A', 5, 2): ((1, 2, 3), (4,)),
    ('A', 6, 1): ((1, 2, 3), (4,)), ('A', 6, 2): ((1, 2, 3), (4,)),
}
for _s, _n in CLASSICAL:
    if _s != 'A':
        for _a in (1, 2):
            TABLE_BLOCKS[(_s, _n, _a)] = ((1, 3), ())

# ---------------------------------------------------------------------------
# exceptional algebras

G2_INVARIANTS = sorted([F(1, 8), F(1, 24)])
F4_INVARIANTS = sorted([F(1, 24), F(1, 24), F(1, 12), F(1, 12)])
F4_SLICE_DIM = 48            # dim F4 - rank
F4_EXPONENTS = [1, 5, 7, 11]

# reduced G2 tensors in the slice coordinates u1, u2 (upper triangle)
G2_TENSORS = {
    ('g2', 0, 0): '-5/7*u1', ('g2', 0, 1): '-15/7*u2',
    ('g2', 1, 1): '-768/875*u1**5 - 1144/525*u2*u1**2',
    ('g1', 0, 0): '0', ('g1', 0, 1): '-15/7', ('g1', 1, 1): '-1144/525*u1**2',
    ('A22', 0, 0): '25/14', ('A22', 0, 1): '0',
    ('A22', 1, 1): '42152/13125*u1**4 + 62/21*u2*u1',
    ('A21', 0, 0): '0', ('A21', 0, 1): '0', ('A21', 1, 1): '62/21*u1',
}
G2_POTENTIAL = '1/2*t1**2*t2 + 24/35*t2**7'
G2_DEGREES = [F(6), F(2)]

# F4: flat coordinates t(u), the flat pencil of the potential and the
# dispersive table A22, all in the flat coordinates (upper triangles)
F4_FLAT = [
    'u4 - 762841/49009212*u1**6 - 129973/259308*u2*u1**3'
    ' - 2783/3528*u3*u1**2 - 56741/142296*u2**2',
    '1781/64827*u1**4 + 34/231*u2*u1 + u3',
    '4199/63504*u1**3 + 4199/3696*u2',
    '-13/42*u1',
]
F4_G1 = {(0, 3): '1', (1, 2): '1'}
F4_G2 = {
    (0, 0): '3168/19*t2*t3**2*t4 + 3971/2*t2**2*t4**3'
            ' + 912384/361*t3**2*t4**5 + 41472*t4**11',
    (0, 1): '2592/19*t2*t3*t4**2 + 248832/361*t3*t4**6 + 165888/130321*t3**3',
    (0, 2): '722*t2*t4**4 + 6859/288*t2**2 + 1152/19*t3**2*t4**2',
    (0, 3): 't1',
    (1, 1): '672/19*t2*t4**3 + 387072/130321*t3**2*t4 + 27648/361*t4**7',
    (1, 2): 't1 + 576/19*t3*t4**3',
    (1, 3): '2/3*t2',
    (2, 2): '34295/1152*t2*t4 + 361/4*t4**5',
    (2, 3): '1/2*t3',
    (3, 3): '1/6*t4',
}
F4_A22 = {
    (0, 0): '238464*t4**10 - 79854336/4693*t3*t4**7 + 362769128/37349*t2*t4**6'
            ' + 82248768000/13482989*t3**2*t4**4 + 65740256/371293*t1*t4**4'
            ' - 286440/247*t2*t3*t4**3 + 6443534125/2689128*t2**2*t4**2'
            ' - 53236224/1694173*t3**3*t4 - 4015872/54587*t1*t3*t4'
            ' + 1656/19*t2*t3**2 + 443/26*t1*t2',
    (0, 1): '-15818112/4693*t4**8 + 42634554624/13482989*t3*t4**5'
            ' - 6453151372/21163701*t2*t4**4 - 51777792/1694173*t3**2*t4**2'
            ' - 28255104/709631*t1*t4**2 + 7349328/54587*t2*t3*t4 + 153/13*t2**2',
    (0, 2): '204693422/37349*t4**7 - 5205718984/7054567*t3*t4**4'
            ' + 9722937545/5378256*t2*t4**3 + 3133152/54587*t3**2*t4'
            ' + 79/4*t1*t4 - 3611/312*t2*t3',
    (0, 3): '16435064/1113879*t4**5 + 14507020/709631*t3*t4**2 - 2783/312*t2*t4',
    (1, 1): '13824/19*t4**6 - 3170304/89167*t3*t4**3 + 4883336/125229*t2*t4**2'
            ' + 13824/6859*t3**2 + 2400/4693*t1',
    (1, 2): '-2508/13*t4**5 + 197596/2197*t3*t4**2 + 817/312*t2*t4',
    (1, 3): '39412/6591*t4**3 - 56/247*t3',
    (2, 2): '116603/4608*t2 + 133/312*t3*t4 + 6137/8*t4**4',
    (2, 3): '-2261/624*t4**2',
    (3, 3): '13/24',
}

# ---------------------------------------------------------------------------
# CLI

# `table --check` at the default rank 4, normalized form
NORMALIZED_TABLE = {
    'A4': ['1/24'] * 4, 'B4': ['1/24'] * 3 + ['1/12'],
    'C4': ['1/12'] * 3 + ['1/24'], 'D4': ['1/24'] * 4,
    'E6': ['1/24'] * 6, 'E7': ['1/24'] * 7, 'E8': ['1/24'] * 8,
    'F4': ['1/24', '1/24', '1/12', '1/12'], 'G2': ['1/8', '1/24'],
}
VERIFY_MIN_CHECKS = 13       # `verify all` reports at least these many checks

# contract inputs: exit 0 with exact 1/24 values, or exit 2 with a
# message and no traceback
CONTRACT_SAMPLES = [('A', 2, '0,-2'), ('A', 2, '1,1'), ('A', 3, '1,-3,0')]


def rat(x):
    """A Fraction as the CLI's 'num/den' string."""
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else '%d/%d' % (x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# exact polynomials: dict exponent-tuple -> Fraction over variables x1..x4

NVARS = 4


def _padd(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _const(c):
    return {(0,) * NVARS: F(c)} if c else {}


def parse(text):
    """Parse a polynomial in x1..x4 (any one-letter family name) with
    rational coefficients."""
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return _const(node.value)
        if isinstance(node, ast.Name):
            k = int(node.id[1:]) - 1
            return {tuple(int(i == k) for i in range(NVARS)): F(1)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _padd({}, ev(node.operand), -1)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                out, base = _const(1), ev(node.left)
                for _ in range(node.right.value):
                    out = _pmul(out, base)
                return out
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return _padd(a, b)
            if isinstance(node.op, ast.Sub):
                return _padd(a, b, -1)
            if isinstance(node.op, ast.Mult):
                return _pmul(a, b)
            if isinstance(node.op, ast.Div):
                return {m: c / b[(0,) * NVARS] for m, c in a.items()}
        raise ValueError('unsupported reference expression %r' % ast.dump(node))
    return ev(ast.parse(text, mode='eval'))


def evaluate(poly, point):
    tot = F(0)
    for m, c in poly.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term *= F(x) ** e
        tot += term
    return tot


def diff(poly, k):
    out = {}
    for m, c in poly.items():
        if m[k]:
            out[m[:k] + (m[k] - 1,) + m[k + 1:]] = c * m[k]
    return out


def to_program(poly, family):
    """The same polynomial as a dscentral Poly in the given family."""
    from dscentral.algebra import Poly
    out = Poly()
    for m, c in poly.items():
        term = Poly.num(c)
        for i, e in enumerate(m):
            if e:
                term = term * Poly.of(family, i + 1) ** e
        out = out + term
    return out


def symmetric(entries, n):
    """n x n matrix of parsed polynomials from an upper-triangle table;
    absent entries are zero."""
    M = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), text in entries.items():
        M[i][j] = M[j][i] = parse(text)
    return M
