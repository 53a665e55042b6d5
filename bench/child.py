"""Helper process for the benchmark, run with `src` on PYTHONPATH.

    python bench/child.py setup      import dscentral and finish its lazy
                                     set-up (first root find, first
                                     fixture read), then exit
    python bench/child.py validate   read candidate inputs as JSON on
                                     stdin, print one verdict list per kind

Validation runs in its own process so that no cache inside the
benchmark process (sympy's included) has seen an input before it is
timed.  Only `DegeneratePoint` rejects a candidate; any other error is
left for the timed op to report.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction


def setup():
    from dscentral import (algebra, brackets, dirac, fixtures, frobenius,  # noqa: F401
                           invariants, lax, liealg, symbols)
    invariants.canonical_coordinates('A', 2, invariants.sample_from_roots('A', 2, [1, -1]))
    fixtures.load_document('g2')


def validate(request):
    from dscentral import cli, dirac, fixtures, invariants, liealg

    def ok(fn, *args):
        try:
            fn(*args)
        except invariants.DegeneratePoint:
            return False
        return True

    def rats(xs):
        return [Fraction(x) for x in xs]

    def verify(seed):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(['verify', 'all', '--seed', str(seed)], standalone_mode=False)
            except cli.Mismatch:
                pass

    out = {}
    for kind, cands in request.items():
        if kind == 'classical':
            out[kind] = [ok(invariants.canonical_coordinates, s, n, rats(u))
                         for s, n, u in cands]
        elif kind == 'g2':
            alg = liealg.g2_algebra()
            tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
            out[kind] = [ok(dirac.central_invariants_dirac, tens, 2, rats(u)) for u in cands]
        elif kind == 'f4':
            out[kind] = [ok(fixtures.fixture_invariants, 'f4', rats(t)) for t in cands]
        elif kind == 'verify':
            out[kind] = [ok(verify, seed) for seed in cands]
        else:
            raise ValueError('unknown candidate kind %r' % kind)
    return out


if __name__ == '__main__':
    if sys.argv[1:] == ['setup']:
        setup()
    elif sys.argv[1:] == ['validate']:
        json.dump(validate(json.load(sys.stdin)), sys.stdout)
    else:
        sys.exit('usage: child.py setup|validate')
