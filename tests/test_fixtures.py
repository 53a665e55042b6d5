"""Bundled data files: parsing, integrity, and the checks that tie the
stored tables to independent computations.

The two largest documents are only verified at the level of the
generator relations (commutators against the Cartan matrix and the
pairing normalization); closing the full bracket basis there is out of
test budget.
"""

import hashlib
import os
import shutil
from fractions import Fraction

import pytest

from dscentral.algebra import Poly
from dscentral import fixtures, frobenius, reference
from dscentral.fixtures import (FixtureError, parse_expr, parse_triplets,
                                load_document, build_algebra, load_frobenius,
                                load_gammas, fixture_invariants)
from dscentral.liealg import cartan_matrix, dense, scombine, scomm, spair


DOCUMENTS = ['e6', 'e7', 'e8', 'f4', 'g2']


def test_available_documents():
    assert sorted(f[:-4] for f in os.listdir(fixtures.DATA_DIR)
                  if f.endswith('.txt')) == DOCUMENTS


def test_checksums_verify():
    for name in DOCUMENTS:
        doc = load_document(name)
        assert 'checksum' in doc['header']


def test_tampered_document_rejected(tmp_path):
    src = os.path.join(fixtures.DATA_DIR, 'g2.txt')
    with open(src) as f:
        text = f.read()
    bad = text.replace('-7/15', '-7/16')
    with open(tmp_path / 'g2.txt', 'w') as f:
        f.write(bad)
    with pytest.raises(FixtureError):
        load_document('g2', str(tmp_path))


def write_document(directory, name, header, body):
    """A document with a valid checksum over `body`."""
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(os.path.join(directory, name + '.txt'), 'w') as f:
        f.write(header + 'checksum: %s\n' % digest + body)


def bundled_parts(name):
    """(header without the checksum line, body) of a bundled document."""
    with open(os.path.join(fixtures.DATA_DIR, name + '.txt')) as f:
        lines = f.read().splitlines(keepends=True)
    start = next(k for k, line in enumerate(lines) if line.startswith('['))
    header = ''.join(l for l in lines[:start] if not l.startswith('checksum:'))
    return header, ''.join(lines[start:])


def test_missing_document(tmp_path):
    with pytest.raises(FixtureError):
        load_document('g2', str(tmp_path))
    # a valid checksum over an incomplete body: each lookup names the gap
    write_document(tmp_path, 'f4', 'rank: 4\n', '[flat_coords]\nt1 = u1\n')
    with pytest.raises(FixtureError, match="'rep_size'"):
        build_algebra('f4', str(tmp_path))
    with pytest.raises(FixtureError, match="'t2'"):
        load_frobenius('f4', str(tmp_path))
    write_document(tmp_path, 'g2', 'rank: 2\n',
                   '[flat_coords]\nt1 = u1\nt2 = u2\n[tensors]\ng2u_11 = t1\n')
    fx = load_frobenius('g2', str(tmp_path))
    with pytest.raises(FixtureError, match="'F'"):
        fx['F']
    with pytest.raises(FixtureError, match="'A22u_11'"):
        fx['tensors']['A22u_11']


def test_parse_expr():
    vm = {'t1': Poly.of('t', 1)}
    p = parse_expr('3/4*t1**2 - t1 + 5', vm)
    t1 = Poly.of('t', 1)
    assert (p - (t1 * t1 * Fraction(3, 4) - t1 + Poly.num(5))).is_zero()


def test_parse_expr_rejects():
    with pytest.raises(FixtureError):
        parse_expr('t9', {})
    with pytest.raises(FixtureError):
        parse_expr('1.5', {})
    with pytest.raises(FixtureError):
        parse_expr('__import__("os")', {})
    with pytest.raises(FixtureError):
        parse_expr('1/0', {})


def test_parse_triplets():
    m = parse_triplets('1,2,3; 2,1,-1/2', 2)
    assert m == {(0, 1): 3, (1, 0): Fraction(-1, 2)}
    assert all(type(x) is Fraction for x in m.values())
    assert dense(m, 2) == [[Fraction(0), Fraction(3)], [Fraction(-1, 2), Fraction(0)]]
    # repeated triplets are summed, and an entry that sums to zero is dropped
    assert parse_triplets('1,1,1/2; 2,2,1; 1,1,-1/2; 2,2,1/3', 2) == {(1, 1): Fraction(4, 3)}
    for bad, why in (('1,2', 'bad triplet'), ('1,2,3,4', 'bad triplet'),
                     ('0,1,1', 'outside 1..2'), ('1,3,1', 'outside 1..2'),
                     ('-1,1,1', 'outside 1..2'), ('a,1,1', 'bad number'),
                     ('1,1,x', 'bad number'), ('1,1,1/0', 'bad number'),
                     ('1,1,1/2/3', 'bad number'), ('1,1,0.5', 'bad number')):
        with pytest.raises(FixtureError, match=why):
            parse_triplets(bad, 2, "'X1' in doc")


def test_malformed_values_name_the_key(tmp_path):
    header, body = bundled_parts('f4')
    x1 = next(l for l in body.splitlines(keepends=True) if l.startswith('X1 ='))
    cases = [
        (header.replace('rank: 4', 'rank: four'), body, build_algebra,
         "bad number 'four' in 'rank' in the header of 'f4'"),
        (header.replace('form_scale: 1/6', 'form_scale: 1/six'), body, build_algebra,
         "'form_scale' in the header"),
        (header, body.replace(x1, 'X1 = 1,2\n'), build_algebra,
         "bad triplet '1,2' in 'X1' in \\[generators\\] of 'f4'"),
        (header, body.replace(x1, 'X1 = 0,2,1\n'), build_algebra,
         "triplet '0,2,1' in 'X1' .* outside 1..26"),
        # generators that miss the last index would read as short rows
        (header.replace('rep_size: 26', 'rep_size: 27'), body, build_algebra,
         "the generators of 'f4' have size 26, not rep_size 27"),
        (header.replace('rank: 4', 'rank: four'), body, load_frobenius,
         "'rank' in the header of 'f4'"),
    ]
    for head, text, reader, why in cases:
        write_document(tmp_path, 'f4', head, text)
        with pytest.raises(FixtureError, match=why):
            reader('f4', str(tmp_path))
    # a stored tensor key outside A22_11..A22_44
    write_document(tmp_path, 'f4', header, body + 'A22_05 = 0\n')
    with pytest.raises(FixtureError, match="bad tensor key 'A22_05'"):
        fixture_invariants('f4', reference.f4_point(1, 2, Fraction(1, 2)), str(tmp_path))


# ---------------------------------------------------------------------------
# rank 4 document

@pytest.fixture(scope='module')
def f4():
    alg = build_algebra('f4')
    gammas = load_gammas('f4', alg)
    return alg, gammas


def test_f4_algebra(f4):
    alg, _ = f4
    assert alg.dim == 52
    assert alg.size == 26
    # the document labels the vertices in the opposite order
    perm = [3, 0, 2, 1]
    C = cartan_matrix('F', 4)
    got = alg.realized_cartan()
    for i in range(4):
        for j in range(4):
            assert got[i][j] == C[perm[i]][perm[j]]


def test_algebra_needs_no_name_or_type_header(f4, tmp_path):
    # 'algebra' and 'type' label a document; the reader builds the
    # algebra from the rank, the sizes and the generators alone
    header, body = bundled_parts('f4')
    lines = header.splitlines(keepends=True)
    bare = ''.join(l for l in lines if not l.startswith(('algebra:', 'type:')))
    assert len(bare.splitlines()) == len(lines) - 2
    write_document(tmp_path, 'f4', bare, body)
    alg = build_algebra('f4', str(tmp_path))
    assert alg.dim == 52
    assert alg.realized_cartan() == f4[0].realized_cartan()


def test_f4_slice(f4):
    from dscentral.dirac import slice_bases
    alg, gammas = f4
    sl = slice_bases(alg, gammas)
    assert len(sl['f']) == 48
    assert sl['exponents'] == [1, 5, 7, 11]


def test_f4_potential_is_quasihomogeneous():
    fx = load_frobenius('f4')
    EF = frobenius.vec_apply(fx['E'], fx['F'])
    assert (EF - fx['F'] * Fraction(13, 6)).is_zero()


def test_f4_eta_antidiagonal():
    fx = load_frobenius('f4')
    eta = frobenius.eta_from_potential(fx['F'], fx['e'], 4)
    for i in range(4):
        for j in range(4):
            want = Fraction(1) if i + j == 3 else Fraction(0)
            assert eta[i][j] == want


def test_f4_invariants_exact():
    # on this family the canonical coordinates stay rational
    samples = [
        (Fraction(1), 2, Fraction(1, 2)),
        (Fraction(-3), 1, Fraction(1)),
        (Fraction(2), 4, Fraction(2, 3)),
    ]
    for t1, k, t4 in samples:
        roots, cs = fixture_invariants('f4', reference.f4_point(t1, k, t4))
        assert sorted(cs) == sorted(reference.TABLE[('F', 4)])


def test_second_call_reuses_the_tables(monkeypatch, tmp_path):
    calls = []
    load = fixtures.load_frobenius

    def counting(name, data_dir):
        calls.append((data_dir, name))
        return load(name, data_dir)
    monkeypatch.setattr(fixtures, 'load_frobenius', counting)
    fixtures._fixture_tensors.cache_clear()
    try:
        t = reference.f4_point(1, 2, Fraction(1, 2))
        first = fixture_invariants('f4', t)
        assert fixture_invariants('f4', t) == first
        assert len(calls) == 1
        # another directory is another document: read and checked again
        shutil.copy(os.path.join(fixtures.DATA_DIR, 'f4.txt'),
                    tmp_path / 'f4.txt')
        assert fixture_invariants('f4', t, str(tmp_path)) == first
        assert calls[-1] == (str(tmp_path), 'f4') and len(calls) == 2
    finally:
        fixtures._fixture_tensors.cache_clear()


def test_gammas_are_linear_forms(f4, tmp_path):
    alg, gammas = f4
    header, body = bundled_parts('f4')
    gamma1 = next(l for l in body.splitlines(keepends=True) if l.startswith('gamma1 ='))
    # a sum of scaled generators is read term by term ...
    write_document(tmp_path, 'f4', header,
                   body.replace(gamma1, gamma1.rstrip('\n') + ' + 2*X1 - X1/2\n'))
    got = load_gammas('f4', alg, str(tmp_path))
    want = scombine([(1, gammas[0].entries), (Fraction(3, 2), alg.X[0])])
    assert got[0].entries == want
    assert list(got[0]) == dense(want, alg.size)
    assert [g.entries for g in got[1:]] == [g.entries for g in gammas[1:]]
    # ... and products, powers, constants and other names are not linear
    # forms over the generators and the positive root vectors
    for bad, why in (('X1*X2', 'not a linear form'), ('X1**2', 'not a linear form'),
                     ('3', 'not a linear form'), ('X1 + 1', 'not a linear form'),
                     ('X1 +', 'bad expression'), ('Y1', "unknown gamma name 'Y1'"),
                     ('X0', "unknown gamma name 'X0'"), ('X5', "unknown gamma name 'X5'"),
                     ('X01', "unknown gamma name 'X01'"),
                     ('X_9999', "unknown gamma name 'X_9999'"),
                     ('X_001', "unknown gamma name 'X_001'"),
                     ('X_0000', "unknown gamma name 'X_0000'"),
                     ('Xa', "unknown gamma name 'Xa'")):
        write_document(tmp_path, 'f4', header,
                       body.replace(gamma1, 'gamma1 = %s\n' % bad))
        with pytest.raises(FixtureError, match=why):
            load_gammas('f4', alg, str(tmp_path))


# ---------------------------------------------------------------------------
# rank 6 document

@pytest.fixture(scope='module')
def e6():
    return build_algebra('e6')


def test_e6_algebra(e6):
    assert e6.dim == 78
    assert e6.realized_cartan() == cartan_matrix('E', 6)


def _entries_digest(Es):
    """The first 16 hex digits of the sha256 of the sorted (key, repr of
    entry) pairs of each E, joined by ';'."""
    text = ';'.join(str(sorted((k, repr(x)) for k, x in E.items())) for E in Es)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize('name,size,nf,exponents,digest', [
    ('e6', 27, 72, [1, 4, 5, 7, 8, 11], '7f9079acb57c5982'),
    ('e7', 56, 126, [1, 5, 7, 9, 11, 13, 17], '98f5a34751fac91c'),
    ('e8', 248, 240, [1, 7, 11, 13, 17, 19, 23, 29], '73526bca53f9031c'),
], ids=['e6', 'e7', 'e8'])
def test_slice_exponents(e6, name, size, nf, exponents, digest):
    # E8 is the row reduction's largest input: 3 969 closure additions
    # and two 248 x 248 kernels; the digest of the duals and the f_a was
    # recorded with the dense Gauss-Jordan sweeps
    from dscentral.dirac import slice_bases
    alg = e6 if name == 'e6' else build_algebra(name)
    assert alg.size == size         # derived from the generators' entries
    sl = slice_bases(alg, load_gammas(name, alg))
    assert len(sl['f']) == nf
    assert sl['exponents'] == exponents
    assert _entries_digest(sl['gamma_ups'] + sl['f']) == digest


def test_e6_potential_checks():
    fx = load_frobenius('e6')
    EF = frobenius.vec_apply(fx['E'], fx['F'])
    assert (EF - fx['F'] * Fraction(13, 6)).is_zero()
    eta = frobenius.eta_from_potential(fx['F'], fx['e'], 6)
    for i in range(6):
        for j in range(6):
            want = Fraction(-81, 2) if i + j == 5 else Fraction(0)
            assert eta[i][j] == want


# ---------------------------------------------------------------------------
# the two large documents: generator relations only

def _parsed_generators(name):
    doc = load_document(name)
    h = doc['header']
    size = int(h['rep_size'])
    rank = int(h['rank'])
    gens = doc['sections']['generators']
    X = [parse_triplets(gens['X%d' % i], size) for i in range(1, rank + 1)]
    Y = []
    for i in range(1, rank + 1):
        spec = gens['Y%d' % i]
        if spec.startswith('transpose'):
            m = {(c, r): x for (r, c), x in X[i - 1].items()}
            rest = spec[len('transpose'):].strip()
            if rest:
                m = scombine([(1, m), (1, parse_triplets(rest, size))])
        else:
            m = parse_triplets(spec, size)
        Y.append(m)
    scale = Fraction(*([int(x) for x in h['form_scale'].split('/')] + [1])[:2])
    return h, X, Y, scale


def _check_chevalley(name, typ, rank):
    # on the entries of the generators, without building the algebra
    _, X, Y, scale = _parsed_generators(name)
    C = cartan_matrix(typ, rank)
    H = [scomm(X[i], Y[i]) for i in range(rank)]
    for i in range(rank):
        assert all(r == c for r, c in H[i]), (name, 'H%d' % (i + 1))
    for i in range(rank):
        for j in range(rank):
            got = scomm(H[i], X[j])
            want = {rc: C[i][j] * x for rc, x in X[j].items()} if C[i][j] else {}
            assert got == want, (name, i + 1, j + 1)
    for i in range(rank):
        for j in range(rank):
            want = Fraction(1) / scale if i == j else Fraction(0)
            assert spair(X[i], Y[j]) == want, (name, 'pairing', i + 1, j + 1)


def test_e7_generator_relations():
    _check_chevalley('e7', 'E', 7)


def test_e8_generator_relations():
    # 248 x 248 commutators, as entries
    _check_chevalley('e8', 'E', 8)


# ---------------------------------------------------------------------------
# full rank 4 reduction at one slice point

def test_f4_full_reduction(f4):
    from dscentral.dirac import slice_bases, numeric_pencil
    alg, gammas = f4
    sl = slice_bases(alg, gammas)
    fx = load_frobenius('f4')
    pen = frobenius.pencil_from_potential(fx['F'], fx['E'], fx['e'], 4)
    up = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]
    N = numeric_pencil(alg, sl, up)
    usub = {('u', i + 1, 0): Poly.num(v) for i, v in enumerate(up)}
    t = [x.subs(usub).constant() for x in fx['t']]
    J = [[fx['t'][i].diff(('u', k + 1, 0)).subs(usub).constant()
          for k in range(4)] for i in range(4)]

    def tr(M):
        return [[sum(J[i][k] * M[k][l] * J[j][l]
                     for k in range(4) for l in range(4))
                 for j in range(4)] for i in range(4)]

    tsub = {('t', i + 1, 0): Poly.num(v) for i, v in enumerate(t)}
    for key in ('g2', 'g1'):
        got = tr(N[key])
        want = [[pen[key][i][j].subs(tsub).constant() for j in range(4)]
                for i in range(4)]
        assert got == want, key
    # dispersive blocks: stored tables at the same point
    A22t = tr(N['A22'])
    stored = fx['tensors']
    for i in range(4):
        for j in range(i, 4):
            key = 'A22_%d%d' % (i + 1, j + 1)
            if key not in stored:
                key = 'A22_%d%d' % (j + 1, i + 1)
            want = stored[key]
            want = want if isinstance(want, Poly) else Poly.num(want)
            assert A22t[i][j] == want.subs(tsub).constant(), (i, j)
    assert all(x == 0 for row in tr(N['A12']) for x in row)
    assert all(x == 0 for row in tr(N['A11']) for x in row)
