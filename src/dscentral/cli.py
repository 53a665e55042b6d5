"""Command line front end.

Commands: compute (invariants for one algebra), table (the invariant
table with optional folding reports), coeffs (bracket coefficient
checks), verify (named check suites).

Exit codes: 0 ok, 1 value mismatch, 2 degenerate sample, 3 fixture
problem, 4 invalid configuration.
"""

import json
import random
import sys
from fractions import Fraction

import click

from .algebra import Poly
from . import (brackets, dirac, fixtures, frobenius, invariants, liealg,
               reference)

SERIES = ('A', 'B', 'C', 'D')
EXCEPTIONAL = {'G2': ('G', 2), 'F4': ('F', 4), 'E6': ('E', 6),
               'E7': ('E', 7), 'E8': ('E', 8)}


class ConfigError(Exception):
    pass


class Mismatch(Exception):
    pass


def _rat(x, decimal=None):
    f = Fraction(x)
    if decimal is not None:
        # exact: round half to even at `decimal` digits, then format
        q = round(f * 10 ** decimal)
        digits = str(abs(q)).rjust(decimal + 1, '0')
        sign = '-' if q < 0 else ''
        if not decimal:
            return sign + digits
        return '%s%s.%s' % (sign, digits[:-decimal], digits[-decimal:])
    if f.denominator == 1:
        return str(f.numerator)
    return '%d/%d' % (f.numerator, f.denominator)


def _parse_rats(text):
    out = []
    for part in text.split(','):
        part = part.strip()
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ConfigError('bad rational %r' % part)
    return out


def _emit(report, fmt, decimal):
    if fmt == 'json':
        click.echo(json.dumps(report, sort_keys=True, separators=(',', ':')))
        return
    inv = report['invariants']
    if fmt == 'tsv':
        for e in inv:
            click.echo('%s\t%s\t%s' % (e['index'], e.get('lambda', ''), e['c']))
        return
    click.echo('%s (%s)' % (report['algebra'], report['method']))
    for e in inv:
        lam = e.get('lambda')
        where = ' at lambda = %s' % lam if lam is not None else ''
        click.echo('  c_%s = %s%s' % (e['index'], e['c'], where))


def _invariant_report(algebra, method, pairs, diagnostics, decimal):
    inv = []
    for k, (lam, c) in enumerate(pairs, start=1):
        e = {'index': k, 'c': _rat(c, decimal)}
        e['lambda'] = None if lam is None else _rat(lam, decimal)
        inv.append(e)
    return {'algebra': algebra, 'method': method,
            'invariants': inv, 'diagnostics': diagnostics}


def _sample(n, seed, sample, draw):
    """Explicit --sample coordinates, or draw(rng) from the seed."""
    if sample:
        u = _parse_rats(sample)
        if len(u) != n:
            raise ConfigError('sample needs %d coordinates' % n)
        return u, {'sample': [_rat(x) for x in u]}
    u = draw(random.Random(seed))
    return u, {'seed': seed, 'sample': [_rat(x) for x in u]}


def _compute_series(series, n, seed, sample, order):
    u, diag = _sample(n, seed, sample,
                      lambda rng: invariants.random_sample(series, n, rng))
    res = invariants.central_invariants(series, n, u, K=order)
    diag['order'] = order
    return list(zip(res['lambdas'], res['c'])), diag


def _compute_g2(seed, sample):
    u, diag = _sample(2, seed, sample, reference.g2_sample)
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    roots, cs = dirac.central_invariants_dirac(tens, 2, u)
    return list(zip(roots, cs)), diag


def _compute_f4(seed, sample, fixture_dir):
    t, diag = _sample(4, seed, sample, reference.f4_sample)
    roots, cs = fixtures.fixture_invariants('f4', t, fixture_dir)
    return list(zip(roots, cs)), diag


# the option, then the environment variable (unless empty), then the
# bundled documents
fixture_dir_option = click.option(
    '--fixture-dir', envvar='DSCENTRAL_FIXTURE_DIR', default=fixtures.DATA_DIR)


@click.group()
def main():
    pass


@main.command()
@click.option('--series', type=click.Choice(SERIES), default=None)
@click.option('--rank', type=int, default=None)
@click.option('--algebra', default=None,
              help='exceptional tag: G2 or F4 (E types: --method lie only)')
@click.option('--method',
              type=click.Choice(['symbol', 'dirac', 'lie', 'fixture']),
              default=None)
@click.option('--seed', type=int, default=0)
@click.option('--sample', default=None,
              help='comma separated rational coordinates')
@click.option('--order', type=click.IntRange(min=3), default=4,
              help='epsilon order (at least 3: the defect formula reads '
                   'the delta\'\'\' block)')
@click.option('--format', 'fmt',
              type=click.Choice(['json', 'tsv', 'pretty']), default='json')
@click.option('--decimal', type=click.IntRange(min=0), default=None,
              help='exact decimals with this many digits')
@fixture_dir_option
def compute(series, rank, algebra, method, seed, sample, order, fmt,
            decimal, fixture_dir):
    """Central invariants of one algebra at a sample point."""
    if (series is None) == (algebra is None):
        raise ConfigError('give exactly one of --series or --algebra')
    if series:
        if rank is None or rank < 1 or (series != 'A' and rank < 2) \
                or (series == 'D' and rank < 3):
            raise ConfigError('bad rank for series %s' % series)
        name, typ, n, default = '%s%d' % (series, rank), series, rank, 'symbol'
    else:
        name = algebra.upper()
        if name not in EXCEPTIONAL:
            raise ConfigError('unknown algebra %r' % name)
        typ, n = EXCEPTIONAL[name]
        default = {'G2': 'dirac', 'F4': 'fixture'}.get(name, 'lie')
    method = method or default
    if method not in (default, 'lie'):
        raise ConfigError('%s methods: %s' % (
            'series' if series else name, ', '.join(dict.fromkeys((default, 'lie')))))
    if method == 'lie':
        pairs = [(None, c) for c in liealg.lie_central_invariants(typ, n)]
        diag = {'normalization': 'normalized-form'}
    elif method == 'symbol':
        pairs, diag = _compute_series(series, rank, seed, sample, order)
    elif method == 'dirac':
        pairs, diag = _compute_g2(seed, sample)
    else:
        pairs, diag = _compute_f4(seed, sample, fixture_dir)
    _emit(_invariant_report(name, method, pairs, diag, decimal), fmt, decimal)


@main.command()
@click.option('--rank', type=click.IntRange(min=2), default=4,
              help='rank for the classical rows (at least 2)')
@click.option('--check', is_flag=True)
@click.option('--fold', nargs=2, default=None,
              help='source and target diagram, e.g. --fold B3 G2')
@click.option('--format', 'fmt',
              type=click.Choice(['json', 'tsv', 'pretty']), default='tsv')
def table(rank, check, fold, fmt):
    """Invariant table in the normalized bilinear form."""
    if fold:
        src, dst = fold[0].upper(), fold[1].upper()
        if (src, dst) not in reference.FOLDINGS:
            raise ConfigError('unknown folding %s -> %s' % (src, dst))
        ftyp, frank, target = reference.FOLDINGS[(src, dst)]
        folded = liealg.fold(ftyp, frank)
        direct = liealg.lie_central_invariants(*target)
        ok = folded == direct
        click.echo('fold %s -> %s: folded %s direct %s %s'
                   % (src, dst, [_rat(c) for c in folded],
                      [_rat(c) for c in direct], 'ok' if ok else 'MISMATCH'))
        if not ok:
            raise Mismatch('folding %s -> %s' % (src, dst))
        return
    rows = [('A', rank), ('B', rank), ('C', rank), ('D', max(rank, 3)),
            ('E', 6), ('E', 7), ('E', 8), ('F', 4), ('G', 2)]
    bad = []
    out = []
    for typ, n in rows:
        cs = liealg.lie_central_invariants(typ, n)
        line = '%s%d\t%s' % (typ, n, '\t'.join(_rat(c) for c in cs))
        if check:
            ok = cs == reference.table_row(typ, n)
            line += '\t%s' % ('ok' if ok else 'MISMATCH')
            if not ok:
                bad.append('%s%d' % (typ, n))
        out.append((typ, n, cs, line))
    if fmt == 'json':
        click.echo(json.dumps(
            [{'algebra': '%s%d' % (t, n), 'invariants': [_rat(c) for c in cs]}
             for t, n, cs, _ in out], sort_keys=True, separators=(',', ':')))
    else:
        for _, _, _, line in out:
            click.echo(line)
    if bad:
        raise Mismatch('table rows differ: %s' % ', '.join(bad))


@main.command()
@click.option('--series', type=click.Choice(SERIES), required=True)
@click.option('--rank', type=int, required=True)
@click.option('--check', is_flag=True)
def coeffs(series, rank, check):
    """Bracket coefficient tables; --check compares the generating
    polynomials against the closed forms."""
    if rank < (1 if series == 'A' else 2) or (series == 'D' and rank < 3):
        raise ConfigError('bad rank')
    capital = series != 'A'
    bad = []
    for a in (1, 2):
        t = brackets.bracket_table(series, rank, a)
        for s in sorted({k[2] for k in t}):
            g = brackets.generating_poly(t, series, rank, s, capital=capital)
            click.echo('a=%d s=%d: %s' % (a, s, g))
            if not check:
                continue
            try:
                if capital:
                    ref = brackets.closed_form_capital(series, rank, a, s)
                else:
                    ref = brackets.closed_form_small(series, rank, a, s)
            except ValueError:
                continue
            ok = (g - ref).is_zero()
            click.echo('  closed form: %s' % ('ok' if ok else 'MISMATCH'))
            if not ok:
                bad.append((a, s))
    if bad:
        raise Mismatch('coefficient mismatch at %s' % bad)


def _suite_properties(rng, data_dir):
    from .symbols import Symbol
    yield 'residue identity', all(
        v == Fraction(1 - n, 2 * (n + 1))
        for n in (2, 3, 4)
        for v in invariants.residue_identity(
            sorted(rng.sample(range(-20, 20), n))))

    def rnd_symbol():
        coeffs = {}
        for _ in range(3):
            mono = Poly.num(Fraction(rng.randint(-4, 4)))
            mono = mono * Poly.of('u', 1, rng.randint(0, 1))
            k = rng.randint(-2, 2)
            coeffs[k] = coeffs.get(k, Poly()) + mono
        return Symbol.from_p_poly(coeffs, K=2)
    ok = True
    for _ in range(10):
        x, y, z = rnd_symbol(), rnd_symbol(), rnd_symbol()
        if not (x.star(y).star(z) - x.star(y.star(z))).is_zero():
            ok = False
        if not (x.adjoint().adjoint() - x).is_zero():
            ok = False
        if not (x.star(y).adjoint() - y.adjoint().star(x.adjoint())).is_zero():
            ok = False
    yield 'star product and adjoint', ok


def _suite_an(rng, data_dir):
    for n in (1, 2, 3):
        u = invariants.random_sample('A', n, rng)
        cs = invariants.central_invariants('A', n, u)['c']
        yield 'A%d invariants' % n, cs == reference.classical_invariants('A', n)


def _suite_bcd(rng, data_dir):
    for series, n in (('B', 2), ('C', 2), ('D', 3)):
        u = invariants.random_sample(series, n, rng)
        res = invariants.central_invariants(series, n, u)
        # the exceptional value sits at the extra canonical point, which
        # is the last one in the engine ordering
        yield '%s%d invariants' % (series, n), \
            res['c'] == reference.classical_invariants(series, n)


def _suite_g2(rng, data_dir):
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    fx = fixtures.load_frobenius('g2', data_dir)
    stored = fx['tensors']
    u1, u2 = Poly.of('u', 1), Poly.of('u', 2)
    names = {'g2': 'g2u', 'g1': 'g1u', 'A22': 'A22u', 'A21': 'A21u'}
    ok = True
    for key, prefix in names.items():
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            want = stored['%s_%d%d' % (prefix, i, j)]
            want = want if isinstance(want, Poly) else Poly.num(want)
            if not (tens[key][i - 1][j - 1] - want).is_zero():
                ok = False
    yield 'G2 reduced tensors', ok
    roots, cs = dirac.central_invariants_dirac(tens, 2, reference.g2_sample(rng))
    yield 'G2 invariants', sorted(cs) == sorted(reference.TABLE[('G', 2)])


def _suite_f4(rng, data_dir):
    roots, cs = fixtures.fixture_invariants('f4', reference.f4_sample(rng),
                                            data_dir)
    yield 'F4 invariants', sorted(cs) == sorted(reference.TABLE[('F', 4)])


def _suite_frobenius(rng, data_dir):
    orb = frobenius.orbit_metrics_a(2)
    pen = brackets.dispersionless_pencil('A', 2)
    p, q = ('p', 0, 0), ('q', 0, 0)
    ok = True
    for s in (1, 2):
        g = pen[('delta_prime', s)]
        for i in range(2):
            for j in range(2):
                c = g.coeffs_in(p).get(i, Poly()).coeffs_in(q).get(j, Poly())
                o = orb['g1' if s == 1 else 'g2'][i][j]
                o = o.subs({('t', k, 0): Poly.of('u', k) for k in (1, 2)})
                if not (c + o).is_zero():     # one global sign
                    ok = False
    yield 'A2 orbit pencil (up to sign)', ok
    fx = fixtures.load_frobenius('g2', data_dir)
    pen2 = frobenius.pencil_from_potential(fx['F'], fx['E'], fx['e'], 2)
    F2 = frobenius.potential_from_metrics(
        pen2['g2'], pen2['eta'], [Fraction(6), Fraction(2)], 2)
    yield 'G2 potential roundtrip', (F2 - fx['F']).is_zero()


# each suite takes (rng, data_dir), data_dir the directory of the fixture
# documents, and yields (label, ok) pairs
SUITES = {'properties': _suite_properties, 'an': _suite_an,
          'bcd': _suite_bcd, 'g2': _suite_g2, 'f4': _suite_f4,
          'frobenius': _suite_frobenius}


@main.command()
@click.argument('suite', type=click.Choice(sorted(SUITES) + ['all']))
@click.option('--seed', type=int, default=0)
@fixture_dir_option
def verify(suite, seed, fixture_dir):
    """Run a named check suite."""
    names = sorted(SUITES) if suite == 'all' else [suite]
    rng = random.Random(seed)
    failed = []
    for name in names:
        for label, ok in SUITES[name](rng, fixture_dir):
            click.echo('%s: %s' % (label, 'ok' if ok else 'FAIL'))
            if not ok:
                failed.append(label)
    if failed:
        raise Mismatch('failed: %s' % ', '.join(failed))
    click.echo('all checks passed')


def entry():
    try:
        main(standalone_mode=False)
    except invariants.DegeneratePoint as ex:
        click.echo('degenerate sample: %s' % ex, err=True)
        sys.exit(2)
    except fixtures.FixtureError as ex:
        click.echo('fixture error: %s' % ex, err=True)
        sys.exit(3)
    except ConfigError as ex:
        click.echo('invalid configuration: %s' % ex, err=True)
        sys.exit(4)
    except click.UsageError as ex:
        click.echo('invalid configuration: %s' % ex, err=True)
        sys.exit(4)
    except click.exceptions.Abort:
        sys.exit(4)
    except Mismatch as ex:
        click.echo('mismatch: %s' % ex, err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == '__main__':
    entry()
