"""Command line front end.

Commands: compute (invariants for one algebra), table (the invariant
table with optional folding reports), coeffs (bracket coefficient
checks), verify (named check suites).

Exit codes: 0 ok, 1 value mismatch, 2 degenerate sample, 3 fixture
problem, 4 invalid configuration or an aborted run.

Each command imports the package modules it runs, so start-up stays
small: a classical `compute` never loads the Lie algebra, Dirac or
fixture code, and `--help` loads none of the mathematics.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .upoly import DegeneratePoint

SERIES = ('A', 'B', 'C', 'D')
LOWEST_RANK = {'A': 1, 'B': 2, 'C': 2, 'D': 3}
EXCEPTIONAL = {'G2': ('G', 2), 'F4': ('F', 4), 'E6': ('E', 6),
               'E7': ('E', 7), 'E8': ('E', 8)}
FORMATS = ('json', 'tsv', 'pretty')


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
            shown = '%r' % part if len(part) <= 40 else \
                '%r... (%d characters)' % (part[:40], len(part))
            raise ConfigError('bad rational ' + shown)
    return out


def _emit(report, fmt):
    if fmt == 'json':
        print(json.dumps(report, sort_keys=True, separators=(',', ':')))
        return
    inv = report['invariants']
    if fmt == 'tsv':
        # the lie method has no critical values: an empty cell, not None
        for e in inv:
            lam = e['lambda']
            print('%s\t%s\t%s' % (e['index'], '' if lam is None else lam, e['c']))
        return
    print('%s (%s)' % (report['algebra'], report['method']))
    for e in inv:
        lam = e['lambda']
        where = ' at lambda = %s' % lam if lam is not None else ''
        print('  c_%s = %s%s' % (e['index'], e['c'], where))


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
    if sample is not None:
        u = _parse_rats(sample)
        if len(u) != n:
            raise ConfigError('sample needs %d coordinates' % n)
        return u, {'sample': [_rat(x) for x in u]}
    u = draw(random.Random(seed))
    return u, {'seed': seed, 'sample': [_rat(x) for x in u]}


def _fixture_dir(option):
    """The option, then the environment variable (unless empty), then
    the bundled documents."""
    if option is not None:
        return option
    from .fixtures import DATA_DIR
    return os.environ.get('DSCENTRAL_FIXTURE_DIR') or DATA_DIR


def _compute_series(series, n, seed, sample, order):
    from . import invariants
    u, diag = _sample(n, seed, sample,
                      lambda rng: invariants.random_sample(series, n, rng))
    res = invariants.central_invariants(series, n, u, K=order)
    diag['order'] = order
    return list(zip(res['lambdas'], res['c'])), diag


def _compute_g2(seed, sample):
    from . import dirac, liealg, reference
    u, diag = _sample(2, seed, sample, reference.g2_sample)
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    roots, cs = dirac.central_invariants_dirac(tens, 2, u)
    return list(zip(roots, cs)), diag


def _compute_f4(seed, sample, fixture_dir):
    from . import fixtures, reference
    t, diag = _sample(4, seed, sample, reference.f4_sample)
    roots, cs = fixtures.fixture_invariants('f4', t, _fixture_dir(fixture_dir))
    return list(zip(roots, cs)), diag


def _check_rank(series, rank):
    if rank is None or rank < LOWEST_RANK[series]:
        raise ConfigError('bad rank for series %s: the lowest allowed rank is %d'
                          % (series, LOWEST_RANK[series]))


def compute(series, rank, algebra, method, seed, sample, order, fmt,
            decimal, fixture_dir):
    """Central invariants of one algebra at a sample point."""
    if (series is None) == (algebra is None):
        raise ConfigError('give exactly one of --series or --algebra')
    if series:
        _check_rank(series, rank)
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
        from .liealg import lie_central_invariants
        pairs = [(None, c) for c in lie_central_invariants(typ, n)]
        diag = {'normalization': 'normalized-form'}
    elif method == 'symbol':
        pairs, diag = _compute_series(series, rank, seed, sample, order)
    elif method == 'dirac':
        pairs, diag = _compute_g2(seed, sample)
    else:
        pairs, diag = _compute_f4(seed, sample, fixture_dir)
    _emit(_invariant_report(name, method, pairs, diag, decimal), fmt)


def table(rank, check, fold, fmt):
    """Invariant table in the normalized bilinear form."""
    from . import liealg, reference
    if fold:
        src, dst = fold[0].upper(), fold[1].upper()
        if (src, dst) not in reference.FOLDINGS:
            raise ConfigError('unknown folding %s -> %s' % (src, dst))
        ftyp, frank, target = reference.FOLDINGS[(src, dst)]
        folded = liealg.fold(ftyp, frank)
        direct = liealg.lie_central_invariants(*target)
        ok = folded == direct
        folded, direct = [_rat(c) for c in folded], [_rat(c) for c in direct]
        if fmt == 'json':
            print(json.dumps({'source': src, 'target': dst, 'folded': folded,
                              'direct': direct, 'ok': ok},
                             sort_keys=True, separators=(',', ':')))
        else:
            print('fold %s -> %s: folded %s direct %s %s'
                  % (src, dst, folded, direct, 'ok' if ok else 'MISMATCH'))
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
        print(json.dumps(
            [{'algebra': '%s%d' % (t, n), 'invariants': [_rat(c) for c in cs]}
             for t, n, cs, _ in out], sort_keys=True, separators=(',', ':')))
    else:
        for _, _, _, line in out:
            print(line)
    if bad:
        raise Mismatch('table rows differ: %s' % ', '.join(bad))


def coeffs(series, rank, check):
    """Bracket coefficient tables, with --check against the closed forms."""
    from . import brackets
    _check_rank(series, rank)
    capital = series != 'A'
    bad = []
    second = brackets.bracket_table(series, rank, 2)
    for a, t in ((1, brackets.unit_derivative(series, second)), (2, second)):
        # --check also compares a closed form with a block the table lacks
        shown = {k[2] for k in t}
        for s in sorted(shown | ({1, 2, 3} if check else set())):
            g = brackets.generating_poly(t, series, rank, s, capital=capital)
            if s in shown:
                print('a=%d s=%d: %s' % (a, s, g))
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
            if s in shown:
                print('  closed form: %s' % ('ok' if ok else 'MISMATCH'))
            if not ok:
                bad.append((a, s))
    if bad:
        raise Mismatch('coefficient mismatch at %s' % bad)


def _suite_properties(rng, data_dir):
    from . import invariants
    from .algebra import Poly
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


def _classical_suite(algebras):
    def suite(rng, data_dir):
        from . import invariants, reference
        for series, n in algebras:
            u = invariants.random_sample(series, n, rng)
            cs = invariants.central_invariants(series, n, u)['c']
            yield '%s%d invariants' % (series, n), \
                cs == reference.classical_invariants(series, n)
    return suite


_suite_an = _classical_suite([('A', 1), ('A', 2), ('A', 3)])
# for B, C and D the exceptional value sits at the extra canonical
# point, which is the last one in the engine ordering
_suite_bcd = _classical_suite([('B', 2), ('C', 2), ('D', 3)])


def _suite_g2(rng, data_dir):
    from . import dirac, fixtures, liealg, reference
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    fx = fixtures.load_frobenius('g2', data_dir)
    stored = fx['tensors']
    names = {'g2': 'g2u', 'g1': 'g1u', 'A22': 'A22u', 'A21': 'A21u'}
    ok = True
    for key, prefix in names.items():
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            want = stored['%s_%d%d' % (prefix, i, j)]
            if not (tens[key][i - 1][j - 1] - want).is_zero():
                ok = False
    yield 'G2 reduced tensors', ok
    roots, cs = dirac.central_invariants_dirac(tens, 2, reference.g2_sample(rng))
    yield 'G2 invariants', sorted(cs) == sorted(reference.TABLE[('G', 2)])


def _suite_f4(rng, data_dir):
    from . import fixtures, reference
    roots, cs = fixtures.fixture_invariants('f4', reference.f4_sample(rng),
                                            data_dir)
    yield 'F4 invariants', sorted(cs) == sorted(reference.TABLE[('F', 4)])


def _suite_frobenius(rng, data_dir):
    from . import brackets, fixtures, frobenius
    from .algebra import Poly
    orb = frobenius.orbit_metrics_a(2)
    p, q = ('p', 0, 0), ('q', 0, 0)
    ok = True
    for s in (1, 2):
        g = brackets.closed_form_small('A', 2, s, 1)
        for i in range(2):
            for j in range(2):
                c = g.coeffs_in(p).get(i, Poly()).coeffs_in(q).get(j, Poly())
                o = orb['g1' if s == 1 else 'g2'][i][j]
                o = o.subs({('t', k, 0): Poly.of('u', k) for k in (1, 2)})
                if not (c + o).is_zero():     # one global sign
                    ok = False
    yield 'A2 orbit pencil (up to sign)', ok
    fx, pen2 = fixtures.load_pencil('g2', data_dir)
    F2 = frobenius.potential_from_metrics(
        pen2['g2'], pen2['eta'], [Fraction(6), Fraction(2)], 2)
    yield 'G2 potential roundtrip', (F2 - fx['F']).is_zero()


# each suite takes (rng, data_dir), data_dir the directory of the fixture
# documents, and yields (label, ok) pairs
SUITES = {'properties': _suite_properties, 'an': _suite_an,
          'bcd': _suite_bcd, 'g2': _suite_g2, 'f4': _suite_f4,
          'frobenius': _suite_frobenius}


def verify(suite, seed, fixture_dir):
    """Run a named check suite."""
    names = sorted(SUITES) if suite == 'all' else [suite]
    data_dir = _fixture_dir(fixture_dir)
    rng = random.Random(seed)
    failed = []
    for name in names:
        for label, ok in SUITES[name](rng, data_dir):
            print('%s: %s' % (label, 'ok' if ok else 'FAIL'))
            if not ok:
                failed.append(label)
    if failed:
        raise Mismatch('failed: %s' % ', '.join(failed))
    print('all checks passed')


# ---------------------------------------------------------------------------
# argument parsing

def _usage_error(message):
    raise ConfigError(message)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError (exit 4) instead of printing
    them and exiting 2."""
    error = staticmethod(_usage_error)


def _at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                '%d is not in the range x>=%d' % (value, low))
        return value
    return integer


def _parser():
    top = _Parser(prog='dscentral', allow_abbrev=False,
                  description='Central invariants of Drinfeld-Sokolov '
                              'bihamiltonian structures, in exact arithmetic.',
                  epilog='exit codes: 0 ok, 1 value mismatch, 2 degenerate '
                         'sample, 3 fixture problem, 4 invalid configuration')
    commands = top.add_subparsers(metavar='command', required=True)

    def command(fn):
        p = commands.add_parser(fn.__name__, allow_abbrev=False,
                                help=fn.__doc__, description=fn.__doc__)
        p.set_defaults(run=fn)
        return p

    def fixture_dir_option(p):
        p.add_argument('--fixture-dir',
                       help='directory of the fixture documents (default: '
                            '$DSCENTRAL_FIXTURE_DIR unless empty, then the '
                            'bundled ones)')

    p = command(compute)
    p.add_argument('--series', choices=SERIES)
    p.add_argument('--rank', type=int)
    p.add_argument('--algebra',
                   help='exceptional tag: G2 or F4 (E types: --method lie only)')
    p.add_argument('--method', choices=('symbol', 'dirac', 'lie', 'fixture'))
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--sample',
                   help='comma separated rational coordinates; the first '
                        'may be negative, as in --sample -1,-3')
    p.add_argument('--order', type=_at_least(3), default=4,
                   help='epsilon order (at least 3: the defect formula reads '
                        'the delta\'\'\' block)')
    p.add_argument('--format', dest='fmt', choices=FORMATS, default='json')
    p.add_argument('--decimal', type=_at_least(0),
                   help='exact decimals with this many digits')
    fixture_dir_option(p)

    p = command(table)
    p.add_argument('--rank', type=_at_least(2), default=4,
                   help='rank for the classical rows (at least 2)')
    p.add_argument('--check', action='store_true')
    p.add_argument('--fold', nargs=2, metavar=('SOURCE', 'TARGET'),
                   help='source and target diagram, e.g. --fold B3 G2')
    p.add_argument('--format', dest='fmt', choices=('json', 'tsv'), default='tsv')

    p = command(coeffs)
    p.add_argument('--series', choices=SERIES, required=True)
    p.add_argument('--rank', type=int, required=True)
    p.add_argument('--check', action='store_true')

    p = command(verify)
    p.add_argument('suite', choices=sorted(SUITES) + ['all'])
    p.add_argument('--seed', type=int, default=0)
    fixture_dir_option(p)
    return top


def _glue_sample(args):
    """'--sample -1,-3' as '--sample=-1,-3': argparse reads a word that
    starts with '-' and is not a bare number as an option, not a value."""
    out = []
    for word in args:
        if out and out[-1] == '--sample':
            out[-1] += '=' + word
        else:
            out.append(word)
    return out


def _run(args):
    ns = vars(_parser().parse_args(_glue_sample(
        sys.argv[1:] if args is None else args)))
    ns.pop('run')(**ns)


def _fail(code, what, ex=None):
    print(what if ex is None else '%s: %s' % (what, ex), file=sys.stderr)
    sys.exit(code)


def main(args=None, standalone_mode=True):
    """Run one command on `args` (default: the process arguments).

    With `standalone_mode`, every failure becomes its exit code and one
    line on stderr, a closed stdout exits 4 silently, and success exits
    0.  Without it, ConfigError, Mismatch, DegeneratePoint, FixtureError
    and the rest propagate, and --help raises SystemExit(0) after
    printing.  Either way, ints of any length print and parse."""
    if hasattr(sys, 'set_int_max_str_digits'):
        sys.set_int_max_str_digits(0)
    if not standalone_mode:
        return _run(args)
    try:
        _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout to devnull, or the exit flush fails
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(4)
    except DegeneratePoint as ex:
        _fail(2, 'degenerate sample', ex)
    except ConfigError as ex:
        _fail(4, 'invalid configuration', ex)
    except Mismatch as ex:
        _fail(1, 'mismatch', ex)
    except (KeyboardInterrupt, EOFError):
        _fail(4, 'aborted')
    except Exception as ex:
        # looked up last: a command that read no fixture cannot raise it,
        # and a classical run must not import the fixture reader
        from .fixtures import FixtureError
        if not isinstance(ex, FixtureError):
            raise
        _fail(3, 'fixture error', ex)
    sys.exit(0)


if __name__ == '__main__':
    main()
