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

from .algebra import Poly
from .liealg import mzero, madd, transpose, MatrixLieAlgebra

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


def _parse_fraction(s):
    s = s.strip()
    if '/' in s:
        a, b = s.split('/')
        return Fraction(int(a), int(b))
    return Fraction(int(s))


def parse_expr(text, varmap):
    """Expression over +,-,*,/,** with integer literals and names from
    varmap; division of constants is exact.  Returns Poly (or Fraction
    wrapped in Poly)."""
    try:
        tree = ast.parse(text.strip(), mode='eval')
    except SyntaxError as ex:
        raise FixtureError("bad expression: %s" % ex)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
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
                if not isinstance(b, Fraction) or b.denominator != 1:
                    raise FixtureError("bad exponent")
                return a ** int(b)
            if isinstance(node.op, ast.Div):
                if isinstance(b, Fraction):
                    if b == 0:
                        raise FixtureError("division by zero")
                    return a * (Fraction(1) / b)
                raise FixtureError("division by a non-constant")
        raise FixtureError("unsupported syntax %r" % node)

    return ev(tree)


def parse_triplets(text, size, scale=1):
    """'i,j,num/den; ...' -> dense Fraction matrix."""
    m = mzero(size)
    for part in text.split(';'):
        part = part.strip()
        if not part:
            continue
        i, j, c = part.split(',')
        m[int(i) - 1][int(j) - 1] += _parse_fraction(c) * scale
    return m


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
    triplets."""
    doc = load_document(name, data_dir)
    h = doc['header']
    size = int(h['rep_size'])
    dim = int(h['dim'])
    rank = int(h['rank'])
    scale = _parse_fraction(h['form_scale'])
    gens = doc['sections']['generators']
    X = [parse_triplets(gens['X%d' % i], size) for i in range(1, rank + 1)]
    Y = []
    for i in range(1, rank + 1):
        spec = gens['Y%d' % i]
        if spec.startswith('transpose'):
            m = transpose(X[i - 1])
            rest = spec[len('transpose'):].strip()
            if rest:
                m = madd(m, parse_triplets(rest, size))
        else:
            m = parse_triplets(spec, size)
        Y.append(m)
    return MatrixLieAlgebra(h['algebra'], h['type'], rank, X, Y, scale, dim)


def load_frobenius(name, data_dir=DATA_DIR):
    """Potential, Euler/unity fields, flat coordinate expressions and
    stored tensors, each present when the document has its section."""
    doc = load_document(name, data_dir)
    n = int(doc['header']['rank'])
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
    """Slice generators: linear forms over root vectors X_<n1n2...> and
    the simple generators X1..Xn."""
    sec = load_document(name, data_dir)['sections'].get('gamma')
    if sec is None:
        raise FixtureError("no gamma section in %r" % name)
    exprs = [sec['gamma%d' % i] for i in range(1, alg.n + 1)]
    # every name; parse_expr below rejects what is not an expression
    labels = set(re.findall(r'[A-Za-z_]\w*', ' '.join(exprs)))
    matrix_of = {}
    for lab in labels:
        if lab.startswith('X_'):
            matrix_of[lab] = alg.root_vector([int(c) for c in lab[2:]])
        elif lab.startswith('X'):
            matrix_of[lab] = alg.X[int(lab[1:]) - 1]
        else:
            raise FixtureError("unknown gamma name %r" % lab)
    vm = {lab: Poly.of(lab) for lab in labels}
    out = []
    for e in exprs:
        p = parse_expr(e, vm)
        g = mzero(len(alg.X[0]))
        for mono, c in (p.terms if isinstance(p, Poly) else {(): p}).items():
            if len(mono) != 1 or mono[0][1] != 1:
                raise FixtureError("gamma %r is not a linear form" % e)
            g = madd(g, matrix_of[mono[0][0][0]], c)
        out.append(g)
    return out


@functools.lru_cache(maxsize=None)
def _fixture_tensors(directory, name):
    # keyed by the directory load_frobenius reads from; shared by every
    # call on one document, so never hand these Polys out
    from . import frobenius
    fx = load_frobenius(name, directory)
    n = fx['rank']
    pen = frobenius.pencil_from_potential(fx['F'], fx['E'], fx['e'], n)
    A22 = [[None] * n for _ in range(n)]
    for key, val in fx.get('tensors', {}).items():
        if not key.startswith('A22_'):
            continue
        i, j = int(key[4]), int(key[5])
        p = val if isinstance(val, Poly) else Poly.num(val)
        A22[i - 1][j - 1] = A22[j - 1][i - 1] = p
    if any(x is None for row in A22 for x in row):
        raise FixtureError("incomplete A22 table in %r" % name)
    # the invariant engine works in the 'u' family
    ren = {('t', i, 0): Poly.of('u', i) for i in range(1, n + 1)}

    def r(p):
        p = p if isinstance(p, Poly) else Poly.num(p)
        return p.subs(ren)

    tensors = {
        'g2': [[r(pen['g2'][i][j]) for j in range(n)] for i in range(n)],
        'g1': [[r(pen['g1'][i][j]) for j in range(n)] for i in range(n)],
        'A22': [[r(A22[i][j]) for j in range(n)] for i in range(n)],
    }
    tensors['A21'] = [[tensors['A22'][i][j].diff(('u', 1, 0))
                       for j in range(n)] for i in range(n)]
    return n, tensors


def fixture_invariants(name, tpoint, data_dir=DATA_DIR):
    """Central invariants at a flat-coordinate point, from the stored
    potential (leading metrics) and the stored dispersive tensors A22_ij
    (A21 is the t1 derivative of A22).  The tensors are built once per
    fixture directory and document.  Returns (roots, invariants)."""
    from .dirac import central_invariants_dirac
    n, tensors = _fixture_tensors(data_dir, name)
    return central_invariants_dirac(tensors, n, list(tpoint))


def available(data_dir=DATA_DIR):
    return sorted(f[:-4] for f in os.listdir(data_dir) if f.endswith('.txt'))
