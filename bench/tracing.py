"""Span and counter tracing installed from outside the program.

`Tracer.install()` replaces the public functions of each dscentral layer
with timing wrappers, including the aliases other modules imported by
name and the methods of `Symbol` and `MatrixLieAlgebra`; `uninstall()`
puts the originals back.  Spans (name, start, end, parent id) are kept
in memory; the hot kernels (`Poly` arithmetic and the dense matrix
helpers) only get aggregated call counts and time.
"""

import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute path, span name): one span per call
SPANS = [
    ('brackets', 'bracket_density', 'brackets.bracket_density'),
    ('brackets', 'ibp_reduce', 'brackets.ibp_reduce'),
    ('brackets', 'bracket_table', 'brackets.bracket_table'),
    ('brackets', 'closed_form_small', 'brackets.closed_form'),
    ('brackets', 'closed_form_capital', 'brackets.closed_form'),
    ('brackets', 'generating_poly', 'brackets.generating_poly'),
    ('symbols', 'Symbol.star', 'symbols.star'),
    ('lax', 'dispersionless_symbol', 'lax.dispersionless_symbol'),
    ('invariants', 'canonical_coordinates', 'invariants.canonical_coordinates'),
    ('invariants', 'central_invariants', 'invariants.central_invariants'),
    ('liealg', 'MatrixLieAlgebra.__init__', 'liealg.algebra_init'),
    ('liealg', 'MatrixLieAlgebra.root_vector', 'liealg.root_vector'),
    ('liealg', 'MatrixLieAlgebra.realized_cartan', 'liealg.realized_cartan'),
    ('liealg', 'MatrixLieAlgebra.ad_matrix', 'liealg.ad_matrix'),
    ('liealg', 'nullspace', 'liealg.nullspace'),
    ('dirac', 'slice_bases', 'dirac.slice_bases'),
    ('dirac', 'dirac_tensors', 'dirac.dirac_tensors'),
    ('dirac', 'numeric_pencil', 'dirac.numeric_pencil'),
    ('dirac', 'central_invariants_dirac', 'dirac.central_invariants_dirac'),
    ('fixtures', 'load_document', 'fixtures.load_document'),
    ('fixtures', 'build_algebra', 'fixtures.build_algebra'),
    ('fixtures', 'load_gammas', 'fixtures.load_gammas'),
    ('fixtures', 'fixture_invariants', 'fixtures.fixture_invariants'),
    ('frobenius', 'pencil_from_potential', 'frobenius.pencil_from_potential'),
    ('frobenius', 'potential_from_metrics', 'frobenius.potential_from_metrics'),
]

# (module, attribute path, counter name): calls and time only
COUNTERS = [
    ('algebra', 'Poly.__mul__', 'algebra.poly_mul'),
    ('algebra', 'Poly.__add__', 'algebra.poly_add'),
    ('liealg', 'madd', 'liealg.madd'),
    ('liealg', 'mcomm', 'liealg.mcomm'),
    ('liealg', 'mmul', 'liealg.mmul'),
]


def _bits(x):
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _poly_terms(p):
    return len(getattr(p, 'terms', ()))


def _poly_bits(p):
    if isinstance(p, (Fraction, int)):
        return _bits(p)
    return max((_bits(c) for c in p.terms.values()), default=0)


def _matrix_bits(rows):
    return max((_poly_bits(x) for row in rows for x in row), default=0)


def _on_density(tr, dens):
    tr.sizes['brackets.bracket_density.terms_out'] += sum(_poly_terms(p) for p in dens.values())


def _on_table(tr, table):
    tr.maxsize('brackets.bracket_table.max_coeff_bits',
               max((_poly_bits(p) for p in table.values()), default=0))


def _on_slices(tr, slices):
    tr.maxsize('dirac.constraint_dim', len(slices['f']))


def _on_tensors(tr, tensors):
    tr.maxsize('dirac.max_coeff_bits', max(_matrix_bits(m) for m in tensors.values()))


SIZES = ('brackets.bracket_density.terms_out', 'brackets.bracket_table.max_coeff_bits',
         'dirac.constraint_dim', 'dirac.max_coeff_bits')

ON_RESULT = {
    'brackets.bracket_density': _on_density,
    'brackets.bracket_table': _on_table,
    'dirac.slice_bases': _on_slices,
    'dirac.dirac_tensors': _on_tensors,
    'dirac.numeric_pencil': _on_tensors,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, outermost]
        self.stack = []
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.sizes = defaultdict(int)
        self._patched = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.times.clear()
        self.sizes.clear()

    def maxsize(self, key, value):
        self.sizes[key] = max(self.sizes[key], value)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        tr, hook = self, ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            sid = len(tr.spans)
            rec = [name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1,
                   tr.depth[name] == 0]
            tr.spans.append(rec)
            tr.stack.append(sid)
            tr.depth[name] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tr.depth[name] -= 1
                tr.stack.pop()
            if hook is not None:
                hook(tr, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf_counter() - t0
                counts[name] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    @staticmethod
    def _holders():
        """Every dscentral module and every class defined in one."""
        for name, mod in list(sys.modules.items()):
            if name == 'dscentral' or name.startswith('dscentral.'):
                yield mod
                for v in list(vars(mod).values()):
                    if isinstance(v, type) and v.__module__ == name:
                        yield v

    def _replace_everywhere(self, original, replacement):
        """Swap `original` wherever a module or class holds it: aliases
        imported by name, `__radd__ = __add__` and the like."""
        for owner in self._holders():
            for key, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, key, replacement)
                    self._patched.append((owner, key, original))

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for modname, path, name in table:
                mod = importlib.import_module('dscentral.' + modname)
                obj = mod
                for part in path.split('.'):
                    obj = getattr(obj, part)
                self._replace_everywhere(obj, make(name, obj))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive time (outermost spans only) and self
        time (span time minus child spans), plus counters and sizes."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {'calls': 0, 's': 0.0, 'self_s': 0.0})
        for i, (name, t0, t1, _, outer) in enumerate(self.spans):
            rec = out[name]
            rec['calls'] += 1
            rec['self_s'] += (t1 - t0) - child[i]
            if outer:
                rec['s'] += t1 - t0
        for name, n in self.counts.items():
            out[name]['calls'] = n
            out[name]['s'] = self.times[name]
        return dict(out), dict(self.sizes)
