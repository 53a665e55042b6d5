"""The four workloads: seeded inputs, one op list per pass, exact checks.

Each workload is a closed loop with one client.  All inputs are drawn
from the workload seed when the workload is built, before any timing;
degenerate draws are rejected by `child.py validate` in a separate
process.  `ops(k)` returns the fixed op list of pass k.  Each op has a
`run` thunk, the only timed part, and a `check` that compares its
output with `reference` and returns a canonical text of the checked
output (raising `CheckFailed` on any difference).
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import child
import reference as ref
from dscentral import brackets, dirac, fixtures, frobenius, invariants, liealg


class CheckFailed(Exception):
    pass


class Op:
    __slots__ = ('label', 'run', 'check', 'kind', 'probe')

    def __init__(self, label, run, check, kind='', probe=False):
        self.label, self.run, self.check = label, run, check
        self.kind, self.probe = kind, probe


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def exact(values, what='value'):
    expect(all(type(v) is Fraction for v in values),
           '%s not a Fraction: %r' % (what, [type(v).__name__ for v in values]))


def rats(xs):
    return [Fraction(x) for x in xs]


def rng_for(seed, *key):
    return random.Random('/'.join(str(k) for k in (seed,) + key))


def fmt(xs):
    return ','.join(ref.rat(x) for x in xs)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, 'src')
    env['PYTHONPATH'] = src + (os.pathsep + env['PYTHONPATH'] if env.get('PYTHONPATH') else '')
    return env


def choose_valid(root, draws, rounds=20):
    """draws: {(kind, slot): candidate generator}.  Returns the first
    candidate of each slot that the validator process accepts."""
    chosen, pending = {}, {key: next(gen) for key, gen in draws.items()}
    for _ in range(rounds):
        if not pending:
            return chosen
        keys = sorted(pending, key=repr)
        request = {}
        for kind, slot in keys:
            request.setdefault(kind, []).append(pending[(kind, slot)])
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), 'child.py'), 'validate'],
            input=json.dumps(request), capture_output=True, text=True,
            env=child_env(root), cwd=root, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError('input validation failed:\n' + proc.stderr)
        verdicts = {kind: iter(v) for kind, v in json.loads(proc.stdout).items()}
        for key in keys:
            if next(verdicts[key[0]]):
                chosen[key] = pending.pop(key)
            else:
                pending[key] = next(draws[key])
    raise RuntimeError('no nondegenerate draw for %s' % sorted(pending, key=repr))


# ---------------------------------------------------------------------------
# input draws

def classical_draws(rng, series, n, spread=12):
    """Endless candidates (series, n, u) built from drawn rational
    critical points with invariants.sample_from_roots."""
    nonzero = [x for x in range(-spread, spread + 1) if x]
    while True:
        try:
            if series == 'A':
                roots = rng.sample(range(-spread, spread + 1), n - 1)
                roots.append(-sum(roots))
                if len(set(roots)) != n:
                    continue
                u = invariants.sample_from_roots('A', n, roots, c0=rng.randint(-5, 5))
            elif series in ('B', 'C'):
                u = invariants.sample_from_roots(series, n, rng.sample(nonzero, n - 1),
                                                 c0=rng.randint(-5, 5))
            else:
                u = invariants.sample_from_roots('D', n, rng.sample(nonzero, n - 1),
                                                 u2=rng.randint(-5, 5))
        except (ValueError, invariants.DegeneratePoint):
            continue
        yield [series, n, [ref.rat(x) for x in u]]


def g2_draws(rng):
    while True:
        yield [str(rng.randint(1, 9)), str(rng.randint(-9, 9))]


def f4_draws(rng):
    """The perfect-square family on which the F4 canonical coordinates
    are rational (t3 = 0, t2 fixed by k and t4)."""
    while True:
        k = rng.randint(1, 5)
        t4 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        yield [str(rng.randint(-5, 5)), ref.rat((57 * k * k - 2736 * t4 ** 4) / 361),
               '0', ref.rat(t4)]


def slice_point(rng):
    return [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            for _ in range(4)]


def seeds(rng):
    while True:
        yield rng.randint(0, 10 ** 6)


# ---------------------------------------------------------------------------

class Workload:
    name = None
    in_process = True

    def __init__(self, seed, root):
        self.seed, self.root = seed, root
        self.inputs = None

    def inputs_digest(self):
        text = json.dumps(self.inputs, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def warm(self):
        """Lazy set-up users pay once per process, done before timing."""
        child.setup()


class Classical(Workload):
    """One op: central invariants at one exact point."""
    name = 'classical'
    POOL = 6

    def __init__(self, seed, root):
        super().__init__(seed, root)
        draws = {('classical', (k, s, n)): classical_draws(rng_for(seed, self.name, k, s, n), s, n)
                 for k in range(self.POOL) for s, n in ref.CLASSICAL}
        got = choose_valid(root, draws)
        self.inputs = [[got[('classical', (k, s, n))] for s, n in ref.CLASSICAL]
                       for k in range(self.POOL)]

    def ops(self, k):
        out = []
        for series, n, u in self.inputs[k % self.POOL]:
            u = rats(u)
            want = ref.classical_invariants(series, n)

            def check(res, want=want):
                exact(res['c'], 'invariant')
                exact(res['lambdas'], 'canonical coordinate')
                expect(res['c'] == want, 'invariants %s, want %s'
                       % (fmt(res['c']), fmt(want)))
                return '%s|%s' % (fmt(res['lambdas']), fmt(res['c']))
            out.append(Op('%s%d@%s' % (series, n, fmt(u)),
                          lambda s=series, n=n, u=u: invariants.central_invariants(s, n, u),
                          check))
        return out


class Tables(Workload):
    """One op: a symbolic bracket table and all its closed-form checks."""
    name = 'tables'
    POOL = 64

    def __init__(self, seed, root):
        super().__init__(seed, root)
        base = [(s, n, a) for s, n in ref.CLASSICAL for a in (1, 2)]
        self.inputs = []
        for k in range(self.POOL):
            order = list(base)
            rng_for(seed, self.name, k).shuffle(order)
            self.inputs.append(order)

    @staticmethod
    def run_one(series, n, a):
        capital = series != 'A'
        closed = brackets.closed_form_capital if capital else brackets.closed_form_small
        table = brackets.bracket_table(series, n, a)
        blocks = []
        for s in sorted({key[2] for key in table}):
            g = brackets.generating_poly(table, series, n, s, capital=capital)
            try:
                cf = closed(series, n, a, s)
            except ValueError:
                blocks.append((s, None))
                continue
            blocks.append((s, (g - cf).is_zero()))
        return blocks

    def ops(self, k):
        out = []
        for series, n, a in self.inputs[k % self.POOL]:
            checked, unchecked = ref.TABLE_BLOCKS[(series, n, a)]

            def check(blocks, checked=checked, unchecked=unchecked):
                expect(tuple(s for s, ok in blocks if ok is not None) == checked
                       and tuple(s for s, ok in blocks if ok is None) == unchecked,
                       'blocks %r' % (blocks,))
                bad = [s for s, ok in blocks if ok is False]
                expect(not bad, 'closed form differs at s = %r' % bad)
                return repr(blocks)
            out.append(Op('%s%d.a%d' % (series, n, a),
                          lambda s=series, n=n, a=a: self.run_one(s, n, a), check))
        return out


class Lie(Workload):
    """The matrix-model route: G2 symbolic reduction, F4 pointwise
    reduction, the F4 fixture invariants and the G2 potential."""
    name = 'lie'
    G2_PER_PASS = 4
    F4_PER_PASS = 36        # enough points that op_p50_ms is not set by a few draws

    def __init__(self, seed, root):
        # one pass takes about half a minute, so every pass runs the same inputs
        super().__init__(seed, root)
        draws = {('g2', i): g2_draws(rng_for(seed, 'g2', i)) for i in range(self.G2_PER_PASS)}
        draws.update({('f4', i): f4_draws(rng_for(seed, 'f4', i))
                      for i in range(self.F4_PER_PASS)})
        got = choose_valid(root, draws)
        self.inputs = {
            'g2': [got[('g2', i)] for i in range(self.G2_PER_PASS)],
            'f4': [got[('f4', i)] for i in range(self.F4_PER_PASS)],
            'slice': [ref.rat(x) for x in slice_point(rng_for(seed, 'slice'))],
        }
        self.g2_tensors = {key: ref.to_program(ref.parse(text), 'u')
                           for key, text in ref.G2_TENSORS.items()}
        self.g2_potential = ref.to_program(ref.parse(ref.G2_POTENTIAL), 't')
        self.f4_flat = [ref.parse(text) for text in ref.F4_FLAT]
        self.f4_pencil = {'g1': ref.symmetric(ref.F4_G1, 4), 'g2': ref.symmetric(ref.F4_G2, 4),
                          'A22': ref.symmetric(ref.F4_A22, 4)}

    # -- runs ----------------------------------------------------------------

    @staticmethod
    def g2_chain(u):
        alg = liealg.g2_algebra()
        tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
        roots, cs = dirac.central_invariants_dirac(tens, 2, u)
        return tens, roots, cs

    @staticmethod
    def g2_roundtrip():
        fx = fixtures.load_frobenius('g2')
        pen = frobenius.pencil_from_potential(fx['F'], fx['E'], fx['e'], 2)
        return frobenius.potential_from_metrics(pen['g2'], pen['eta'], ref.G2_DEGREES, 2)

    # -- checks --------------------------------------------------------------

    def check_g2(self, out):
        tens, roots, cs = out
        for (key, i, j), want in self.g2_tensors.items():
            for a, b in ((i, j), (j, i)):
                expect((tens[key][a][b] - want).is_zero(), 'G2 %s[%d][%d]' % (key, a, b))
        exact(cs, 'invariant')
        exact(roots, 'canonical coordinate')
        expect(sorted(cs) == ref.G2_INVARIANTS, 'G2 invariants %s' % fmt(cs))
        return '%s|%s|%s' % (fmt(roots), fmt(cs), sorted(
            (k, str(p)) for k, m in tens.items() for row in m for p in row))

    @staticmethod
    def check_f4_invariants(out):
        roots, cs = out
        exact(cs, 'invariant')
        exact(roots, 'canonical coordinate')
        expect(sorted(cs) == ref.F4_INVARIANTS, 'F4 invariants %s' % fmt(cs))
        return '%s|%s' % (fmt(roots), fmt(cs))

    def check_potential(self, F2):
        expect((F2 - self.g2_potential).is_zero(), 'G2 potential round trip: %s' % F2)
        return str(F2)

    @staticmethod
    def check_algebra(alg):
        expect(len(alg.basis) == 52, 'F4 basis has %d elements' % len(alg.basis))
        return 'dim=%d' % len(alg.basis)

    @staticmethod
    def check_gammas(gammas):
        expect(len(gammas) == 4 and all(len(g) == 26 and all(len(r) == 26 for r in g)
                                        for g in gammas), 'F4 slice generators shape')
        for g in gammas:
            exact([x for row in g for x in row], 'slice generator entry')
        return repr([[fmt(r) for r in g] for g in gammas])

    @staticmethod
    def check_slices(sl):
        expect(len(sl['f']) == ref.F4_SLICE_DIM, 'constraint dim %d' % len(sl['f']))
        expect(list(sl['exponents']) == ref.F4_EXPONENTS, 'exponents %r' % sl['exponents'])
        return 'f=%d exps=%r' % (len(sl['f']), sl['exponents'])

    def check_pencil(self, N, up):
        """g1, g2 equal the potential pencil and A22 the stored table after
        the Jacobian change to flat coordinates; A12, A11 vanish."""
        t = [ref.evaluate(p, up) for p in self.f4_flat]
        J = [[ref.evaluate(ref.diff(p, k), up) for k in range(4)] for p in self.f4_flat]
        for key in ('g2', 'g1', 'A22', 'A12', 'A11'):
            exact([x for row in N[key] for x in row], key + ' entry')
            got = [[sum(J[i][k] * N[key][k][l] * J[j][l] for k in range(4) for l in range(4))
                    for j in range(4)] for i in range(4)]
            if key in self.f4_pencil:
                want = [[ref.evaluate(p, t) for p in row] for row in self.f4_pencil[key]]
            else:
                want = [[0] * 4 for _ in range(4)]
            expect(got == want, 'F4 %s after the change to flat coordinates' % key)
        return repr({k: [fmt(r) for r in m] for k, m in sorted(N.items())})

    def ops(self, k):
        inp = self.inputs
        out = []
        for u in inp['g2']:
            out.append(Op('G2.dirac@' + ','.join(u), lambda u=rats(u): self.g2_chain(u),
                          self.check_g2))
        for t in inp['f4']:
            out.append(Op('F4.fixture_invariants@' + ','.join(t),
                          lambda t=rats(t): fixtures.fixture_invariants('f4', t),
                          self.check_f4_invariants))
        out.append(Op('G2.potential_roundtrip', self.g2_roundtrip, self.check_potential))
        up, state = rats(inp['slice']), {}

        def build():
            state['alg'] = fixtures.build_algebra('f4')
            return state['alg']

        def gammas():
            state['gammas'] = fixtures.load_gammas('f4', state['alg'])
            return state['gammas']

        def slices():
            state['slices'] = dirac.slice_bases(state['alg'], state['gammas'])
            return state['slices']
        out += [Op('F4.build_algebra', build, self.check_algebra),
                Op('F4.load_gammas', gammas, self.check_gammas),
                Op('F4.slice_bases', slices, self.check_slices),
                Op('F4.numeric_pencil@' + fmt(up),
                   lambda: dirac.numeric_pencil(state['alg'], state['slices'], up),
                   lambda N: self.check_pencil(N, up))]
        return out


RATIONAL = re.compile(r'-?\d+(/\d+)?$')


class Cli(Workload):
    """One op: one `python -m dscentral.cli` process, run to completion."""
    name = 'cli'
    in_process = False
    POOL = 4

    def __init__(self, seed, root):
        super().__init__(seed, root)
        draws = {('f4', k): f4_draws(rng_for(seed, 'cli-f4', k)) for k in range(self.POOL)}
        draws[('verify', 0)] = seeds(rng_for(seed, 'cli-verify'))
        got = choose_valid(root, draws)
        self.inputs = []
        for k in range(self.POOL):
            s = seeds(rng_for(seed, 'cli', k))
            cmds = [('classical', ['compute', '--series', series, '--rank', str(n),
                                   '--seed', str(next(s))], (series, n))
                    for series, n in ref.CLASSICAL]
            cmds += [('exceptional', ['compute', '--algebra', 'G2', '--seed', str(next(s))], 'G2'),
                     ('exceptional', ['compute', '--algebra', 'F4',
                                      '--sample=' + ','.join(got[('f4', k)])], 'F4'),
                     ('verify', ['verify', 'all', '--seed', str(got[('verify', 0)])], None),
                     ('table', ['table', '--check'], None),
                     ('coeffs', ['coeffs', '--series', 'C', '--rank', '4', '--check'], 4)]
            seed_k = str(next(s))
            cmds += [('contract', ['compute', '--series', series, '--rank', str(n), sample,
                                   '--seed', seed_k], None)
                     for series, n, sample in (('A', 2, '--sample=0,-2'),
                                               ('A', 2, '--sample 1,1'),
                                               ('A', 3, '--sample=1,-3,0'))]
            self.inputs.append(cmds)
        self.env = child_env(root)

    def warm(self):
        pass        # each op is a fresh process

    def launch(self, args):
        # '--sample 1,1' is one option and its value
        argv = [sys.executable, '-m', 'dscentral.cli'] + [w for a in args for w in a.split(' ')]
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    # -- checks --------------------------------------------------------------

    @staticmethod
    def last_line(text):
        lines = text.strip().splitlines()
        return lines[-1] if lines else ''

    def invariants_of(self, out):
        rc, stdout, stderr = out
        expect(rc == 0, 'exit %d: %s' % (rc, self.last_line(stderr)))
        rep = json.loads(stdout)
        cs = [e['c'] for e in rep['invariants']]
        lams = [e['lambda'] for e in rep['invariants']]
        expect(all(isinstance(x, str) and RATIONAL.match(x) for x in cs + lams),
               'not num/den strings: %r' % (cs + lams))
        return cs, lams

    def check_classical(self, out, algebra):
        cs, _ = self.invariants_of(out)
        want = [ref.rat(c) for c in ref.classical_invariants(*algebra)]
        expect(cs == want, 'invariants %s, want %s' % (cs, want))
        return out[1]

    def check_exceptional(self, out, algebra):
        cs, _ = self.invariants_of(out)
        want = ref.G2_INVARIANTS if algebra == 'G2' else ref.F4_INVARIANTS
        expect(sorted(Fraction(c) for c in cs) == want, '%s invariants %s' % (algebra, cs))
        return out[1]

    @staticmethod
    def check_verify(out):
        rc, stdout, stderr = out
        lines = stdout.strip().splitlines()
        expect(rc == 0 and lines and lines[-1] == 'all checks passed',
               'verify exit %d: %s' % (rc, Cli.last_line(stderr)))
        oks = [ln for ln in lines[:-1] if ln.endswith(': ok')]
        expect(len(oks) == len(lines) - 1 >= ref.VERIFY_MIN_CHECKS,
               'verify reported %r' % lines)
        return stdout

    @staticmethod
    def check_table(out):
        rc, stdout, stderr = out
        expect(rc == 0, 'table exit %d: %s' % (rc, Cli.last_line(stderr)))
        rows = {}
        for line in stdout.strip().splitlines():
            cells = line.split('\t')
            expect(cells[-1] == 'ok', 'table row %r' % line)
            rows[cells[0]] = cells[1:-1]
        expect(rows == ref.NORMALIZED_TABLE, 'table rows %r' % rows)
        return stdout

    @staticmethod
    def check_coeffs(out, rank):
        rc, stdout, stderr = out
        expect(rc == 0 and 'MISMATCH' not in stdout, 'coeffs exit %d: %s'
               % (rc, Cli.last_line(stderr)))
        want = sum(len(ref.TABLE_BLOCKS[('C', rank, a)][0]) for a in (1, 2))
        got = stdout.count('closed form: ok')
        expect(got == want, '%d closed-form checks, want %d' % (got, want))
        return stdout

    def check_contract(self, out):
        rc, stdout, stderr = out
        if rc == 2:
            expect(stderr.strip() and 'Traceback' not in stderr,
                   'exit 2 without a clean message: %r' % stderr[-200:])
            return 'exit 2: ' + stderr.strip()
        expect(rc == 0, 'exit %d, want 0 or 2: %s' % (rc, self.last_line(stderr)))
        cs, _ = self.invariants_of(out)
        expect(cs and all(c == '1/24' for c in cs), 'invariants %s, want 1/24' % cs)
        return stdout

    def ops(self, k):
        out = []
        for kind, args, arg in self.inputs[k % self.POOL]:
            check = {'classical': lambda o, a=arg: self.check_classical(o, a),
                     'exceptional': lambda o, a=arg: self.check_exceptional(o, a),
                     'verify': self.check_verify, 'table': self.check_table,
                     'coeffs': lambda o, a=arg: self.check_coeffs(o, a),
                     'contract': self.check_contract}[kind]
            out.append(Op(' '.join(args), lambda a=args: self.launch(a), check,
                          kind=kind, probe=kind == 'contract'))
        return out


WORKLOADS = {w.name: w for w in (Classical, Tables, Lie, Cli)}
