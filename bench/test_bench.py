"""The benchmark's own tests: python -m pytest bench"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, 'src')]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r'[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$')
UNIT = re.compile(r'[A-Za-z0-9_/%.-]{1,16}$')


def spec():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, 'run.py')] + list(args),
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_metric_names_and_units():
    s = spec()
    names = [w['name'] for w in s['workloads']]
    for m in s['end_to_end'] + s['per_layer']:
        names.append(m['name'])
        assert UNIT.match(m['unit']), m
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert set(names) >= set(workloads.WORKLOADS)


def test_smoke_untraced():
    lines = bench('--workload', 'tables', '--seed', '0', '--seconds', '1', '--trace', '0')
    out = json.loads(lines[-1])
    assert out['correct'] and out['failed'] == 0 and out['attempted'] >= 34
    assert set(out['metrics']) == {m['name'] for m in spec()['end_to_end']}
    assert all(m['value'] > 0 for m in out['metrics'].values())


def test_smoke_traced_matches_untraced():
    lines = bench('--workload', 'tables', '--seed', '0', '--seconds', '1', '--trace', '1')
    out = json.loads(lines[-1])
    assert out['correct'], lines
    assert 'traced outputs identical to untraced: yes' in lines
    assert set(out['metrics']) == {m['name'] for m in spec()['per_layer']}
    assert out['metrics']['brackets.bracket_table.calls']['value'] == 34


def test_equal_seeds_give_equal_inputs():
    a = workloads.Tables(5, ROOT)
    b = workloads.Tables(5, ROOT)
    c = workloads.Tables(6, ROOT)
    assert a.inputs_digest() == b.inputs_digest() != c.inputs_digest()


def test_corrupted_reference_counts_as_failed(monkeypatch):
    w = workloads.Tables(0, ROOT)

    def ops():
        return [op for op in w.ops(0) if op.label in ('A1.a1', 'B2.a1')]
    with Speed() as speed:
        good = run.check_pass(run.run_pass(ops(), speed))
        assert not good.failures
        monkeypatch.setitem(ref.TABLE_BLOCKS, ('A', 1, 1), ((1, 2), ()))
        bad = run.check_pass(run.run_pass(ops(), speed))
    assert [label for label, _ in bad.failures] == ['A1.a1']
    assert bad.digest != good.digest


def test_contract_probe_outcomes():
    w = workloads.Cli.__new__(workloads.Cli)
    ok = '{"invariants": [{"c": "1/24", "lambda": "1"}, {"c": "1/24", "lambda": "-1"}]}'
    assert w.check_contract((0, ok, ''))
    assert w.check_contract((2, '', 'degenerate sample: irrational critical points'))
    for out in ((1, '', 'Traceback (most recent call last):\nTypeError: x'),
                (2, '', 'Traceback (most recent call last):\nDegeneratePoint'),
                (0, ok.replace('1/24', '6004799503160663/144115188075855872'), '')):
        try:
            w.check_contract(out)
        except workloads.CheckFailed:
            continue
        raise AssertionError('accepted %r' % (out,))


def test_tracer_restores_originals():
    from dscentral import dirac, liealg
    from dscentral.algebra import Poly
    before = (Poly.__mul__, Poly.__radd__, liealg.madd, dirac.madd, dirac.nullspace)
    tr = Tracer()
    tr.install()
    try:
        assert dirac.madd is liealg.madd is not before[2]
        Poly.of('x') * Poly.of('y') + 1
    finally:
        tr.uninstall()
    assert (Poly.__mul__, Poly.__radd__, liealg.madd, dirac.madd, dirac.nullspace) == before
    spans, _ = tr.summary()
    assert spans['algebra.poly_mul']['calls'] == 1
    assert spans['algebra.poly_add']['calls'] == 1


def test_tail_percentile():
    assert run.tail(list(range(25)))[0] == 'p50'
    assert run.tail(list(range(68)))[0] == 'p75'
    assert run.tail(list(range(102)))[0] == 'p90'
    assert run.tail(list(range(10)))[0] == 'max'


def test_reference_polynomials():
    p = ref.parse('1/2*t1**2*t2 - 3*t2 + 7')
    assert ref.evaluate(p, [2, 3]) == 6 - 9 + 7
    assert ref.evaluate(ref.diff(p, 0), [2, 3]) == 6
