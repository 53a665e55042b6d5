"""Bundled exact data files: matrix generators, slice bases, flat
coordinates, potentials and dispersive tensors for the exceptional
algebras.

File format: '[section]' headers and 'key = value' lines; values are
either sparse matrix triplets 'i,j,num/den; ...' or expressions in
Python syntax over rational literals and named variables, parsed with
ast (no eval).  A 'checksum:' header pins each document.

Every reader takes the directory of the documents as its last argument,
`data_dir`, which defaults to the bundled DATA_DIR.  A header key,
section or section key that a reader needs and the document lacks is a
FixtureError, as is a bad checksum or a missing document.
"""

import ast
import functools
import hashlib
import os
import re
from fractions import Fraction

from .algebra import Poly, Prepared, decode
from .liealg import scombine, shared, MatrixLieAlgebra, Stored

DATA_DIR = os.path.join(os.path.dirname(__file__), 'data')


class FixtureError(Exception):
    pass


class _Entries(dict):
    """A dict read from a document; a missing key is a FixtureError."""

    def __init__(self, where):
        super().__init__()
        self.where = where

    def __missing__(self, key):
        raise FixtureError("no %r in %s" % (key, self.where))

    def number(self, key, kind=Fraction):
        return _number(self[key], '%r in %s' % (key, self.where), kind)


def _number(text, where, kind=Fraction):
    """kind(text) for an int or 'num/den' text, else a FixtureError."""
    try:
        return int(text) if kind is int else Fraction(*map(int, text.split('/')))
    except (ValueError, TypeError, ZeroDivisionError):
        raise FixtureError("bad number %r in %s" % (text, where)) from None


def parse_expr(text, varmap):
    """Expression over +,-,*,/,** with integer literals and names from
    varmap; division of constants is exact, an exponent is a constant
    integer in [0, 2^14) (the Poly range), and an expression nested too
    deeply or of too high a degree is a FixtureError.  Returns a Poly,
    or a Fraction for a constant."""
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) is int:
                return Fraction(node.value)
            raise FixtureError("non-integer literal %r" % node.value)
        if isinstance(node, ast.Name):
            if node.id not in varmap:
                raise FixtureError("unknown name %r" % node.id)
            return varmap[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return ev(node.operand)
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Pow):
                if not isinstance(b, Fraction) or b.denominator != 1 or not 0 <= b < 1 << 14:
                    raise FixtureError("bad exponent")
                return a ** int(b)
            if isinstance(node.op, ast.Div):
                if isinstance(b, Fraction):
                    if b == 0:
                        raise FixtureError("division by zero")
                    return a * (Fraction(1) / b)
                raise FixtureError("division by a non-constant")
        raise FixtureError("unsupported syntax %r" % node)

    try:
        return ev(ast.parse(text.strip(), mode='eval'))
    except SyntaxError as ex:
        raise FixtureError("bad expression: %s" % ex)
    except (RecursionError, OverflowError) as ex:
        raise FixtureError("expression too deep or too large: %s" % ex) from None


def parse_triplets(text, size, where='a triplet list'):
    """'i,j,num/den; ...' -> the entries {(i - 1, j - 1): x} of their
    sum, 1 <= i, j <= size, without zeros; a malformed triplet is a
    FixtureError naming `where`."""
    m = {}
    for part in text.split(';'):
        part = part.strip()
        if not part:
            continue
        fields = part.split(',')
        if len(fields) != 3:
            raise FixtureError("bad triplet %r in %s" % (part, where))
        i, j = (_number(x, where, int) for x in fields[:2])
        if not (1 <= i <= size and 1 <= j <= size):
            raise FixtureError("triplet %r in %s has an index outside 1..%d"
                               % (part, where, size))
        m[i - 1, j - 1] = m.get((i - 1, j - 1), 0) + _number(fields[2], where)
    return {k: x for k, x in m.items() if x}


def load_document(name, data_dir=DATA_DIR):
    """Parse <data_dir>/<name>.txt into {'header': {...}, 'sections':
    {...}}; verifies the stored checksum."""
    path = os.path.join(data_dir, name + '.txt')
    if not os.path.exists(path):
        raise FixtureError("no fixture %r" % name)
    with open(path) as f:
        lines = f.read().splitlines()
    header = _Entries('the header of %r' % name)
    body_start = None
    for k, line in enumerate(lines):
        if line.startswith('['):
            body_start = k
            break
        if ':' in line:
            key, val = line.split(':', 1)
            header[key.strip()] = val.strip()
    if body_start is None:
        raise FixtureError("no sections in %r" % name)
    body = '\n'.join(lines[body_start:]) + '\n'
    digest = hashlib.sha256(body.encode()).hexdigest()
    if header.get('checksum') != digest:
        raise FixtureError("checksum mismatch in %r" % name)
    sections = _Entries(repr(name))
    cur = None
    for line in lines[body_start:]:
        line = line.strip()
        if not line or line.startswith('#'):
            continue
        if line.startswith('[') and line.endswith(']'):
            cur = line[1:-1]
            sections[cur] = _Entries('[%s] of %r' % (cur, name))
            continue
        if '=' not in line or cur is None:
            raise FixtureError("stray line %r" % line)
        key, val = line.split('=', 1)
        sections[cur][key.strip()] = val.strip()
    return {'header': header, 'sections': sections}


def build_algebra(name, data_dir=DATA_DIR):
    """MatrixLieAlgebra from a fixture document.  Y entries may be given
    as explicit triplets or as 'transpose' plus optional correction
    triplets; generators that miss index rep_size are a FixtureError."""
    doc = load_document(name, data_dir)
    h = doc['header']
    size, dim, rank = (h.number(k, int) for k in ('rep_size', 'dim', 'rank'))
    gens = doc['sections']['generators']

    def triplets(text, key):
        return parse_triplets(text, size, '%r in %s' % (key, gens.where))

    X = [triplets(gens['X%d' % i], 'X%d' % i) for i in range(1, rank + 1)]
    Y = []
    for i, x in enumerate(X, 1):
        spec = gens['Y%d' % i]
        if spec.startswith('transpose'):
            Y.append(scombine([(1, {(c, r): v for (r, c), v in x.items()}),
                               (1, triplets(spec[len('transpose'):], 'Y%d' % i))]))
        else:
            Y.append(triplets(spec, 'Y%d' % i))
    alg = MatrixLieAlgebra(rank, X, Y, h.number('form_scale'), dim)
    if alg.size != size:
        raise FixtureError("the generators of %r have size %d, not rep_size %d"
                           % (name, alg.size, size))
    return alg


def load_frobenius(name, data_dir=DATA_DIR):
    """Potential, Euler/unity fields, flat coordinate expressions and
    stored tensors, each present when the document has its section."""
    doc = load_document(name, data_dir)
    n = doc['header'].number('rank', int)
    vm = {'%s%d' % (f, i): Poly.of(f, i) for f in 'ut' for i in range(1, n + 1)}
    sec = doc['sections']
    out = _Entries('the Frobenius data of %r' % name)
    out['rank'] = n
    if 'potential' in sec:
        out['F'] = parse_expr(sec['potential']['F'], vm)
    if 'euler' in sec:
        out['E'] = [parse_expr(sec['euler']['E%d' % i], vm)
                    for i in range(1, n + 1)]
        out['e'] = [parse_expr(sec['euler']['e%d' % i], vm)
                    for i in range(1, n + 1)]
    if 'flat_coords' in sec:
        out['t'] = [parse_expr(sec['flat_coords']['t%d' % i], vm)
                    for i in range(1, n + 1)]
    if 'tensors' in sec:
        # parsed in place, so a missing tensor stays a FixtureError
        out['tensors'] = tens = sec['tensors']
        for key, val in tens.items():
            tens[key] = parse_expr(val, vm)
    return out


def load_gammas(name, alg, data_dir=DATA_DIR):
    """Slice generators, as `liealg.Stored`: linear forms over the
    simple generators X1..Xn and the positive root vectors X_<n1n2...>."""
    sec = load_document(name, data_dir)['sections'].get('gamma')
    if sec is None:
        raise FixtureError("no gamma section in %r" % name)
    exprs = [sec['gamma%d' % i] for i in range(1, alg.n + 1)]
    # every name; parse_expr below rejects what is not an expression
    labels = set(re.findall(r'[A-Za-z_]\w*', ' '.join(exprs)))
    simple = {'X%d' % i: x for i, x in enumerate(alg.X, 1)}
    roots = {'X_' + ''.join(map(str, w)): w for w in alg.weights if min(w) >= 0 and any(w)}
    unknown = labels - simple.keys() - roots.keys()
    if unknown:
        raise FixtureError("unknown gamma name %r" % min(unknown))
    matrix_of = {lab: simple[lab] if lab in simple else alg.root_vector(roots[lab])
                 for lab in labels}
    vm = {lab: Poly.of(lab) for lab in labels}
    out = []
    for e in exprs:
        p = parse_expr(e, vm)
        if not isinstance(p, Poly):         # a constant
            raise FixtureError("gamma %r is not a linear form" % e)
        terms = []
        for m, c in p.terms.items():
            pairs = decode(m)
            if len(pairs) != 1 or pairs[0][1] != 1:
                raise FixtureError("gamma %r is not a linear form" % e)
            terms.append((c, matrix_of[pairs[0][0][0]]))
        out.append(Stored(shared(scombine(terms)), alg.size))
    return out


def load_pencil(name, data_dir=DATA_DIR):
    """load_frobenius(name) and the pencil of its potential; a singular
    eta or a unit field that is not flat is a FixtureError."""
    from . import frobenius
    fx = load_frobenius(name, data_dir)
    try:
        return fx, frobenius.pencil_from_potential(fx['F'], fx['E'], fx['e'], fx['rank'])
    except ValueError as ex:
        raise FixtureError("the potential of %r: %s" % (name, ex)) from None


@functools.lru_cache(maxsize=None)
def _fixture_tensors(directory, name):
    # keyed by the directory load_frobenius reads from; shared by every
    # call on one document, so never hand these Polys out.  Returns
    # (n, unit, tensors, their entries prepared for algebra.evaluate).
    from .dirac import tensor_entries
    fx, pen = load_pencil(name, directory)
    n = fx['rank']
    # the invariants need e = d/dt_unit: e(lam) = 1, and A21 = d A22/dt_unit
    ones = [x == 1 for x in fx['e']]
    if ones.count(True) != 1 or any(x != 0 for x, one in zip(fx['e'], ones) if not one):
        raise FixtureError("the unit field of %r is not a coordinate field" % name)
    unit = ones.index(True)
    A22 = [[None] * n for _ in range(n)]
    for key, val in fx.get('tensors', {}).items():
        if not key.startswith('A22_'):
            continue
        m = re.fullmatch('A22_([1-9])([1-9])', key)
        if m is None or int(max(m.groups())) > n:
            raise FixtureError("bad tensor key %r in %r" % (key, name))
        i, j = int(key[4]), int(key[5])
        A22[i - 1][j - 1] = A22[j - 1][i - 1] = val
    if any(x is None for row in A22 for x in row):
        raise FixtureError("incomplete A22 table in %r" % name)
    # the invariant engine works in the 'u' family
    ren = {('t', i, 0): Poly.of('u', i) for i in range(1, n + 1)}
    tensors = {key: [[(x if isinstance(x, Poly) else Poly.num(x)).subs(ren)
                      for x in row] for row in M]
               for key, M in (('g2', pen['g2']), ('g1', pen['g1']), ('A22', A22))}
    tensors['A21'] = [[tensors['A22'][i][j].diff(('u', unit + 1, 0))
                       for j in range(n)] for i in range(n)]
    return n, unit, tensors, Prepared(tensor_entries(tensors))


def fixture_invariants(name, tpoint, data_dir=DATA_DIR):
    """Central invariants at a flat-coordinate point, from the stored
    potential (leading metrics) and the stored dispersive tensors A22_ij
    (A21 is the derivative of A22 along the unit field, which must be a
    coordinate field d/dt_k).  The tensors are built and their entries
    prepared once per fixture directory and document, and each point
    runs `dirac.point_invariants` on the prepared entries.  Returns
    (roots, invariants)."""
    from .dirac import point_invariants
    n, unit, tensors, prepared = _fixture_tensors(data_dir, name)
    return point_invariants(list(tensors), prepared, n, list(tpoint), unit)

