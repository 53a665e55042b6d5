"""Command line interface: exit codes, output contract, determinism."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dscentral
from dscentral import cli, fixtures, invariants, reference

# The directory that holds the imported package goes first on the child's
# PYTHONPATH, so the CLI under test is the code the other tests import.
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(dscentral.__file__)))


def child_env(**extra):
    env = dict(os.environ, **extra)
    rest = env.get('PYTHONPATH')
    env['PYTHONPATH'] = PKG_ROOT + (os.pathsep + rest if rest else '')
    return env


def run(*args, env=None):
    """Run the CLI's `main()` in a child interpreter; no install needed.
    `env` adds variables to the child's environment."""
    return subprocess.run([sys.executable, '-m', 'dscentral.cli'] + list(args),
                          capture_output=True, text=True,
                          env=child_env(**(env or {})))


def assert_fails(r, code):
    """r exited with `code` and said why on stderr, without a traceback."""
    assert r.returncode == code, (r.returncode, r.stderr)
    assert r.stderr.strip(), 'exit %d without a message' % code
    assert 'Traceback' not in r.stderr, r.stderr


def test_compute_series_json_schema():
    r = run('compute', '--series', 'A', '--rank', '2')
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert set(rep) == {'algebra', 'method', 'invariants', 'diagnostics'}
    assert rep['algebra'] == 'A2'
    assert rep['method'] == 'symbol'
    assert [e['c'] for e in rep['invariants']] == ['1/24', '1/24']
    for e in rep['invariants']:
        assert set(e) == {'index', 'c', 'lambda'}


def test_compute_deterministic():
    a = run('compute', '--series', 'B', '--rank', '3', '--seed', '5')
    b = run('compute', '--series', 'B', '--rank', '3', '--seed', '5')
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_compute_tsv_and_decimal():
    r = run('compute', '--series', 'A', '--rank', '1', '--format', 'tsv')
    assert r.returncode == 0
    fields = r.stdout.strip().split('\t')
    assert fields[0] == '1' and fields[2] == '1/24'
    r2 = run('compute', '--series', 'A', '--rank', '1', '--decimal', '6')
    assert r2.returncode == 0, r2.stderr
    assert '0.041667' in r2.stdout


def test_compute_tsv_lie_method_has_an_empty_lambda_cell():
    # the lie method has no critical values; JSON says null, TSV leaves
    # the cell empty and pretty leaves the "at lambda" part out
    r = run('compute', '--algebra', 'G2', '--method', 'lie', '--format', 'tsv')
    assert r.returncode == 0, r.stderr
    assert r.stdout == '1\t\t1/8\n2\t\t1/24\n'
    r = run('compute', '--algebra', 'G2', '--method', 'lie')
    assert r.returncode == 0, r.stderr
    assert [e['lambda'] for e in json.loads(r.stdout)['invariants']] == [None, None]
    r = run('compute', '--algebra', 'G2', '--method', 'lie', '--format', 'pretty')
    assert r.returncode == 0, r.stderr
    assert r.stdout == 'G2 (lie)\n  c_1 = 1/8\n  c_2 = 1/24\n'


def test_compute_lie_method():
    r = run('compute', '--series', 'C', '--rank', '3', '--method', 'lie')
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert [e['c'] for e in rep['invariants']] == ['1/12', '1/12', '1/24']
    assert rep['diagnostics']['normalization'] == 'normalized-form'


def test_compute_g2():
    r = run('compute', '--algebra', 'G2', '--seed', '3')
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep['method'] == 'dirac'
    assert sorted(e['c'] for e in rep['invariants']) == ['1/24', '1/8']


def test_compute_f4():
    r = run('compute', '--algebra', 'F4', '--seed', '1')
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep['method'] == 'fixture'
    assert sorted(e['c'] for e in rep['invariants']) == \
        ['1/12', '1/12', '1/24', '1/24']


def test_compute_e_type_lie_only():
    r = run('compute', '--algebra', 'E6')
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert [e['c'] for e in rep['invariants']] == ['1/24'] * 6
    bad = run('compute', '--algebra', 'E7', '--method', 'dirac')
    assert_fails(bad, 4)


def test_exit_code_config_errors():
    assert_fails(run('compute'), 4)
    assert_fails(run('compute', '--series', 'A', '--rank', '2',
                     '--algebra', 'G2'), 4)
    assert_fails(run('compute', '--series', 'D', '--rank', '2'), 4)
    assert_fails(run('compute', '--series', 'A', '--rank', '2',
                     '--sample', 'x,y'), 4)
    # an explicit empty sample is a bad sample, not the seeded draw
    assert_fails(run('compute', '--series', 'A', '--rank', '2', '--sample='), 4)
    assert_fails(run('compute', '--series', 'A', '--rank', '2', '--sample', ''), 4)
    assert_fails(run('compute', '--algebra', 'F4', '--sample='), 4)


def test_exit_code_bad_ranks_orders_and_digits():
    # B1 and C1 have no Cartan matrix of their own; below order 3 the
    # defect formula has no delta''' block; no negative digit count
    assert_fails(run('table', '--rank', '0'), 4)
    assert_fails(run('table', '--rank', '1'), 4)
    for order in ('1', '2'):
        assert_fails(run('compute', '--series', 'A', '--rank', '2',
                         '--order', order), 4)
    assert_fails(run('compute', '--series', 'A', '--rank', '1',
                     '--decimal', '-1'), 4)


@pytest.mark.parametrize('series,rank,lowest', [('A', 0, 1), ('B', 1, 2),
                                                ('C', 1, 2), ('D', 2, 3)])
def test_bad_rank_message_names_series_and_lowest_rank(series, rank, lowest):
    # compute and coeffs reject a rank with the same message
    want = ('invalid configuration: bad rank for series %s: '
            'the lowest allowed rank is %d\n' % (series, lowest))
    for command in ('compute', 'coeffs'):
        r = run(command, '--series', series, '--rank', str(rank))
        assert_fails(r, 4)
        assert r.stderr == want, (command, r.stderr)


def test_compute_order_3_agrees_with_4():
    a = json.loads(run('compute', '--series', 'A', '--rank', '2',
                       '--order', '3').stdout)
    b = json.loads(run('compute', '--series', 'A', '--rank', '2').stdout)
    assert a['invariants'] == b['invariants']


def test_decimal_is_exact():
    assert cli._rat(Fraction(1, 3), 20) == '0.33333333333333333333'
    assert cli._rat(Fraction(1, 24), 6) == '0.041667'
    assert cli._rat(Fraction(-2, 3), 2) == '-0.67'
    assert cli._rat(Fraction(5, 2), 0) == '2'       # half to even
    assert cli._rat(Fraction(-883601), 1) == '-883601.0'
    r = run('compute', '--series', 'A', '--rank', '1', '--decimal', '20')
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)['invariants'][0]['c'] == \
        '0.04166666666666666667'


@pytest.fixture
def digit_limit():
    """Restores Python's int/str digit limit, which `cli.main` lifts for
    the process (3.10.7 and later)."""
    before = getattr(sys, 'get_int_max_str_digits', lambda: None)()
    yield
    if before is not None:
        sys.set_int_max_str_digits(before)


def run_main(capsys, *args):
    """(exit code, stdout, stderr) of `cli.main` run in this process."""
    with pytest.raises(SystemExit) as ex:
        cli.main(list(args))
    out, err = capsys.readouterr()
    return ex.value.code, out, err


def test_long_decimals_print_in_full(capsys, digit_limit):
    # more than the 4300 digits Python turns into a string by default
    code, out, err = run_main(capsys, 'compute', '--series', 'A', '--rank', '2',
                              '--decimal', '100000')
    assert code == 0, err
    c = json.loads(out)['invariants'][0]['c']
    assert len(c) == 100002 and c.startswith('0.041666')


def test_long_sample_coordinates_are_rationals(capsys, digit_limit):
    # u2 = -3 10^k: critical points +-10^(k/2), and canonical coordinates
    # with more than 4300 digits; k = 4400 also reads a longer coordinate
    for zeros in (3000, 4400):
        u2 = '-3' + '0' * zeros
        code, out, err = run_main(capsys, 'compute', '--series', 'A', '--rank', '2',
                                  '--sample=5,' + u2)
        assert code == 0, err[:200]
        rep = json.loads(out)
        assert rep['diagnostics']['sample'] == ['5', u2]
        assert [e['c'] for e in rep['invariants']] == ['1/24', '1/24']
        assert max(len(e['lambda']) for e in rep['invariants']) > 4300


def test_bad_rational_message_is_bounded(capsys):
    value = '7' * 9999 + 'x'
    code, out, err = run_main(capsys, 'compute', '--series', 'A', '--rank', '2',
                              '--sample=1,' + value)
    assert code == 4 and out == ''
    assert err.startswith("invalid configuration: bad rational '7777")
    assert '(10000 characters)' in err and len(err) < 200, err


def test_closed_stdout_exits_4_quietly():
    # the reader closes the pipe before the child writes
    p = subprocess.Popen([sys.executable, '-m', 'dscentral.cli', 'compute',
                          '--series', 'A', '--rank', '2', '--decimal', '4000'],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=child_env())
    p.stdout.close()
    err = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait() == 4, err
    assert err == ''


def test_exit_code_degenerate_sample():
    # u2 = 0 gives a repeated critical point of p^3 + u1
    r = run('compute', '--series', 'A', '--rank', '2', '--sample', '1,0')
    assert_fails(r, 2)


def test_d_series_u1_zero_is_a_repeated_critical_point():
    # with u1 = 0 the D critical polynomial has no P^0 and no P^1 term,
    # so 0 is a double root; this is the only way to reach P = 0
    for rank, sample in (('4', '0,1,2,3'), ('3', '0,-1,-4')):
        r = run('compute', '--series', 'D', '--rank', rank, '--sample', sample)
        assert_fails(r, 2)
        assert 'repeated critical point' in r.stderr, (sample, r.stderr)


def test_irrational_critical_points_exit_2():
    # irrational (0,-2) and complex (1,1; 1,-3,0) critical points have no
    # exact canonical coordinates: a clean exit 2, never a float
    for sample, rank in (('0,-2', '2'), ('1,1', '2'), ('1,-3,0', '3')):
        r = run('compute', '--series', 'A', '--rank', rank,
                '--sample=' + sample)
        assert_fails(r, 2)
        assert 'not all rational' in r.stderr, (sample, r.stderr)
        assert r.stdout == '', (sample, r.stdout)


def test_exit_code_fixture_problem(tmp_path):
    r = run('compute', '--algebra', 'F4', '--fixture-dir', '/no/such/dir')
    assert_fails(r, 3)
    # a valid checksum over a document that lacks what the reader needs
    body = '[flat_coords]\nt1 = u1\n'
    with open(tmp_path / 'f4.txt', 'w') as f:
        f.write('rank: 4\nchecksum: %s\n%s'
                % (hashlib.sha256(body.encode()).hexdigest(), body))
    for args in (('compute', '--algebra', 'F4'), ('verify', 'f4')):
        r = run(*args, '--fixture-dir', str(tmp_path))
        assert_fails(r, 3)
        assert r.stderr.startswith('fixture error:'), (args, r.stderr)


def test_malformed_fixture_values_exit_3(tmp_path):
    from test_fixtures import bundled_parts, write_document
    header, body = bundled_parts('f4')
    cases = [
        # a header value that is not an integer
        (header.replace('rank: 4', 'rank: four'), body, "'rank'"),
        # without this term eta is singular
        (header, body.replace('F = 1/2*t1**2*t4 + ', 'F = '), 'singular'),
        # a unit field that is not flat
        (header, body.replace('e2 = 0\n', 'e2 = t2\n'), 'not flat'),
        # a flat unit field that is not a coordinate field: A21 = d A22/dt1
        # and e(lam) = 1 would both be wrong
        (header, body.replace('e1 = 1\n', 'e1 = 2\n'), 'not a coordinate field'),
        # a constant potential: eta vanishes
        (header, re.sub('(?m)^F = .*$', 'F = 1', body), 'singular'),
    ]
    for head, text, why in cases:
        assert text != body or head != header
        write_document(tmp_path, 'f4', head, text)
        for args in (('compute', '--algebra', 'F4'), ('verify', 'f4')):
            r = run(*args, '--fixture-dir', str(tmp_path))
            assert_fails(r, 3)
            assert r.stderr.startswith('fixture error:'), (args, r.stderr)
            assert why in r.stderr, (args, r.stderr)


def test_bad_exponent_or_literal_exits_3(tmp_path):
    # an exponent outside the Poly range [0, 2^14), also of a constant,
    # a product beyond that range and a chain too long to parse are
    # fixture errors, not tracebacks
    from test_fixtures import bundled_parts, write_document
    header, body = bundled_parts('f4')
    for extra in (' + t1**-1', ' + 0**-1', ' + True', ' + t2**20000', ' + 2**10**9',
                  ' + t1**16000 * t1**16000', ' + t1' * 3000):
        text = re.sub('(?m)^F = .*$', lambda m: m.group() + extra, body)
        assert text != body
        write_document(tmp_path, 'f4', header, text)
        r = run('compute', '--algebra', 'F4', '--fixture-dir', str(tmp_path))
        assert_fails(r, 3)
        assert r.stderr.startswith('fixture error:'), (extra, r.stderr)


def test_fixture_dir_resolution_order(tmp_path):
    # the option, then the environment variable, then the bundled documents
    assert_fails(run('compute', '--algebra', 'F4',
                     env={'DSCENTRAL_FIXTURE_DIR': str(tmp_path)}), 3)
    assert_fails(run('compute', '--algebra', 'F4',
                     env={'DSCENTRAL_FIXTURE_DIR': '/no/such'}), 3)
    # an empty variable is ignored
    r = run('compute', '--algebra', 'F4', env={'DSCENTRAL_FIXTURE_DIR': ''})
    assert r.returncode == 0, r.stderr
    r = run('compute', '--algebra', 'F4', '--fixture-dir', fixtures.DATA_DIR,
            env={'DSCENTRAL_FIXTURE_DIR': str(tmp_path)})
    assert r.returncode == 0, r.stderr


def test_table_check():
    r = run('table', '--check')
    assert r.returncode == 0, r.stderr
    lines = [l for l in r.stdout.splitlines() if l]
    assert len(lines) == 9
    assert all(l.endswith('ok') for l in lines)


def test_table_check_other_ranks():
    # the classical rows are derived for any rank, so every row is checked
    for rank in ('2', '3', '5'):
        r = run('table', '--check', '--rank', rank)
        assert r.returncode == 0, (rank, r.stderr)
        lines = [l for l in r.stdout.splitlines() if l]
        assert len(lines) == 9, rank
        assert all(l.endswith('\tok') for l in lines), (rank, r.stdout)


def test_table_json():
    r = run('table', '--format', 'json')
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)
    byname = {e['algebra']: e['invariants'] for e in rows}
    assert byname['G2'] == ['1/8', '1/24']
    assert byname['F4'] == ['1/24', '1/24', '1/12', '1/12']


def test_table_formats_are_json_and_tsv():
    # table has no pretty layout of its own, so the option is refused
    assert_fails(run('table', '--format', 'pretty'), 4)
    r = run('table', '--format', 'tsv')
    assert r.returncode == 0 and r.stdout == run('table').stdout, r.stderr


def test_table_fold():
    for src, dst in (('B3', 'G2'), ('E6', 'F4'), ('A7', 'C4'),
                     ('D5', 'B4'), ('D4', 'G2')):
        r = run('table', '--fold', src, dst)
        assert r.returncode == 0, (src, dst, r.stdout)
        assert 'ok' in r.stdout
    r = run('table', '--fold', 'E6', 'F4', '--format', 'json')
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        'source': 'E6', 'target': 'F4', 'ok': True,
        'folded': ['1/24', '1/24', '1/12', '1/12'],
        'direct': ['1/24', '1/24', '1/12', '1/12']}
    assert len(r.stdout.splitlines()) == 1
    assert_fails(run('table', '--fold', 'A2', 'G2'), 4)


def test_coeffs_check():
    for series, rank in (('A', 2), ('B', 2), ('D', 3)):
        r = run('coeffs', '--series', series, '--rank', str(rank), '--check')
        assert r.returncode == 0, (series, rank, r.stdout)
        assert 'MISMATCH' not in r.stdout


@pytest.mark.parametrize('block', [(1, 2), (1, 3), (2, 2)])
def test_coeffs_check_compares_the_blocks_missing_from_the_table(monkeypatch, capsys, block):
    # A1 prints a=1 s=1 and a=2 s=1, 3 only; a nonzero closed form at a
    # block the table lacks is a mismatch, and stdout does not change
    from dscentral import brackets
    from dscentral.algebra import Poly
    args = ['coeffs', '--series', 'A', '--rank', '1', '--check']
    cli.main(args, standalone_mode=False)
    want = capsys.readouterr().out
    real = brackets.closed_form_small

    def wrong(series, n, a, s):
        return Poly.of('p') if (a, s) == block else real(series, n, a, s)
    monkeypatch.setattr(brackets, 'closed_form_small', wrong)
    with pytest.raises(SystemExit) as ex:
        cli.main(args)
    assert ex.value.code == 1
    out, err = capsys.readouterr()
    assert out == want and 'MISMATCH' not in out
    assert err == 'mismatch: coefficient mismatch at [%r]\n' % (block,)


def test_verify_suites():
    for suite in ('properties', 'an', 'g2'):
        r = run('verify', suite)
        assert r.returncode == 0, (suite, r.stdout)
        assert 'FAIL' not in r.stdout
    assert_fails(run('verify', 'nope'), 4)


def test_verify_bcd_checks_the_slot_order(monkeypatch):
    # a swap of the ordinary and exceptional slots must not pass
    assert all(ok for _, ok in cli._suite_bcd(random.Random(0), fixtures.DATA_DIR))
    real = invariants.central_invariants

    def reversed_c(*args, **kwargs):
        res = real(*args, **kwargs)
        res['c'] = res['c'][::-1]
        return res
    monkeypatch.setattr(invariants, 'central_invariants', reversed_c)
    lines = dict(cli._suite_bcd(random.Random(0), fixtures.DATA_DIR))
    assert lines['B2 invariants'] is False


# stdout of fixed-seed commands, byte for byte; a refactor must keep them
GOLDEN = [
    (('compute', '--series', 'A', '--rank', '3', '--seed', '1'),
     '{"algebra":"A3","diagnostics":{"order":4,"sample":["-4","384","-104"],'
     '"seed":1},"invariants":[{"c":"1/24","index":1,"lambda":"-5636"},'
     '{"c":"1/24","index":2,"lambda":"364"},'
     '{"c":"1/24","index":3,"lambda":"-148"}],"method":"symbol"}\n'),
    (('compute', '--series', 'B', '--rank', '3', '--seed', '1'),
     '{"algebra":"B3","diagnostics":{"order":4,"sample":["-4","-144","3"],'
     '"seed":1},"invariants":[{"c":"1/12","index":1,"lambda":"828"},'
     '{"c":"1/12","index":2,"lambda":"-544"},'
     '{"c":"1/6","index":3,"lambda":"-4"}],"method":"symbol"}\n'),
    (('compute', '--series', 'C', '--rank', '3', '--seed', '1'),
     '{"algebra":"C3","diagnostics":{"order":4,"sample":["-4","-144","3"],'
     '"seed":1},"invariants":[{"c":"1/12","index":1,"lambda":"828"},'
     '{"c":"1/12","index":2,"lambda":"-544"},'
     '{"c":"1/24","index":3,"lambda":"-4"}],"method":"symbol"}\n'),
    (('compute', '--series', 'D', '--rank', '4', '--seed', '1'),
     '{"algebra":"D4","diagnostics":{"order":4,"sample":["-11664","2",'
     '"-1089","-39"],"seed":1},"invariants":['
     '{"c":"1/12","index":1,"lambda":"7211"},'
     '{"c":"1/12","index":2,"lambda":"6586"},'
     '{"c":"1/12","index":3,"lambda":"-7477"},'
     '{"c":"1/12","index":4,"lambda":"-43414"}],"method":"symbol"}\n'),
    (('compute', '--algebra', 'G2', '--seed', '0'),
     '{"algebra":"G2","diagnostics":{"sample":["7","4"],"seed":0},'
     '"invariants":[{"c":"1/8","index":1,"lambda":"-24196/125"},'
     '{"c":"1/24","index":2,"lambda":"11516/135"}],"method":"dirac"}\n'),
    (('compute', '--algebra', 'F4', '--seed', '0'),
     '{"algebra":"F4","diagnostics":{"sample":["-1","-36816/19","0","4"],'
     '"seed":0},"invariants":[{"c":"1/24","index":1,"lambda":"-883601"},'
     '{"c":"1/24","index":2,"lambda":"-883569"},'
     '{"c":"1/12","index":3,"lambda":"883567"},'
     '{"c":"1/12","index":4,"lambda":"883599"}],"method":"fixture"}\n'),
    (('table', '--check', '--format', 'json'),
     '[{"algebra":"A4","invariants":["1/24","1/24","1/24","1/24"]},'
     '{"algebra":"B4","invariants":["1/24","1/24","1/24","1/12"]},'
     '{"algebra":"C4","invariants":["1/12","1/12","1/12","1/24"]},'
     '{"algebra":"D4","invariants":["1/24","1/24","1/24","1/24"]},'
     '{"algebra":"E6","invariants":["1/24","1/24","1/24","1/24","1/24",'
     '"1/24"]},'
     '{"algebra":"E7","invariants":["1/24","1/24","1/24","1/24","1/24",'
     '"1/24","1/24"]},'
     '{"algebra":"E8","invariants":["1/24","1/24","1/24","1/24","1/24",'
     '"1/24","1/24","1/24"]},'
     '{"algebra":"F4","invariants":["1/24","1/24","1/12","1/12"]},'
     '{"algebra":"G2","invariants":["1/8","1/24"]}]\n'),
    (('table', '--fold', 'E6', 'F4'),
     "fold E6 -> F4: folded ['1/24', '1/24', '1/12', '1/12'] "
     "direct ['1/24', '1/24', '1/12', '1/12'] ok\n"),
    (('verify', 'all', '--seed', '0'),
     'A1 invariants: ok\nA2 invariants: ok\nA3 invariants: ok\n'
     'B2 invariants: ok\nC2 invariants: ok\nD3 invariants: ok\n'
     'F4 invariants: ok\nA2 orbit pencil (up to sign): ok\n'
     'G2 potential roundtrip: ok\nG2 reduced tensors: ok\n'
     'G2 invariants: ok\nresidue identity: ok\n'
     'star product and adjoint: ok\nall checks passed\n'),
    (('coeffs', '--series', 'A', '--rank', '3', '--check'),
     'a=1 s=1: 4*p_0^(0)*q_0^(0) + 4*p_0^(0)**2 + 4*q_0^(0)**2 + '
     '2*u_3^(0)\n'
     '  closed form: ok\n'
     'a=1 s=2: 2*p_0^(0) + -2*q_0^(0)\n'
     '  closed form: ok\n'
     'a=1 s=3: 2\n'
     '  closed form: ok\n'
     'a=2 s=1: 4*p_0^(0)*q_0^(0)*u_1^(0) + '
     '-1*p_0^(0)*q_0^(0)*u_3^(0)**2 + 3*p_0^(0)*q_0^(0)**2*u_2^(0) + '
     '-1/2*p_0^(0)*u_2^(0)*u_3^(0) + 3*p_0^(0)**2*q_0^(0)*u_2^(0) + '
     '2*p_0^(0)**2*q_0^(0)**2*u_3^(0) + 4*p_0^(0)**2*u_1^(0) + '
     '-1/2*q_0^(0)*u_2^(0)*u_3^(0) + 4*q_0^(0)**2*u_1^(0) + '
     '2*u_1^(0)*u_3^(0) + -3/4*u_2^(0)**2\n'
     '  closed form: ok\n'
     'a=2 s=2: 2*p_0^(0)*q_0^(0)**2*u_3^(0) + 2*p_0^(0)*u_1^(0) + '
     '1/2*p_0^(0)*u_3^(0)**2 + -2*p_0^(0)**2*q_0^(0)*u_3^(0) + '
     '-3/2*p_0^(0)**2*u_2^(0) + -2*q_0^(0)*u_1^(0) + '
     '-1/2*q_0^(0)*u_3^(0)**2 + 3/2*q_0^(0)**2*u_2^(0)\n'
     '  closed form: ok\n'
     'a=2 s=3: -4*p_0^(0)*q_0^(0)*u_3^(0) + -2*p_0^(0)*u_2^(0) + '
     '5*p_0^(0)**2*q_0^(0)**2 + 3/2*p_0^(0)**2*u_3^(0) + '
     '-2*q_0^(0)*u_2^(0) + 3/2*q_0^(0)**2*u_3^(0) + 2*u_1^(0) + '
     '3/4*u_3^(0)**2\n'
     '  closed form: ok\n'
     'a=2 s=4: 5*p_0^(0)*q_0^(0)**2 + 5/2*p_0^(0)*u_3^(0) + '
     '-5*p_0^(0)**2*q_0^(0) + -5/2*q_0^(0)*u_3^(0)\n'),
    (('coeffs', '--series', 'C', '--rank', '4', '--check'),
     'a=1 s=1: 6*P_0^(0)*Q_0^(0)*u_4^(0) + 8*P_0^(0)*Q_0^(0)**2 + '
     '4*P_0^(0)*u_3^(0) + 8*P_0^(0)**2*Q_0^(0) + '
     '6*P_0^(0)**2*u_4^(0) + 8*P_0^(0)**3 + 4*Q_0^(0)*u_3^(0) + '
     '6*Q_0^(0)**2*u_4^(0) + 8*Q_0^(0)**3 + 2*u_2^(0)\n'
     '  closed form: ok\n'
     'a=1 s=3: 38*P_0^(0)*Q_0^(0) + 31/2*P_0^(0)*u_4^(0) + '
     '46*P_0^(0)**2 + 31/2*Q_0^(0)*u_4^(0) + 46*Q_0^(0)**2 + '
     '3*u_3^(0)\n'
     '  closed form: ok\n'
     'a=2 s=1: 6*P_0^(0)*Q_0^(0)*u_1^(0)*u_4^(0) + '
     '2*P_0^(0)*Q_0^(0)*u_2^(0)*u_3^(0) + '
     '8*P_0^(0)*Q_0^(0)**2*u_1^(0) + '
     '4*P_0^(0)*Q_0^(0)**2*u_2^(0)*u_4^(0) + '
     '6*P_0^(0)*Q_0^(0)**3*u_2^(0) + 4*P_0^(0)*u_1^(0)*u_3^(0) + '
     '8*P_0^(0)**2*Q_0^(0)*u_1^(0) + '
     '4*P_0^(0)**2*Q_0^(0)*u_2^(0)*u_4^(0) + '
     '6*P_0^(0)**2*Q_0^(0)**2*u_2^(0) + '
     '2*P_0^(0)**2*Q_0^(0)**2*u_3^(0)*u_4^(0) + '
     '4*P_0^(0)**2*Q_0^(0)**3*u_3^(0) + '
     '6*P_0^(0)**2*u_1^(0)*u_4^(0) + 6*P_0^(0)**3*Q_0^(0)*u_2^(0) + '
     '4*P_0^(0)**3*Q_0^(0)**2*u_3^(0) + '
     '2*P_0^(0)**3*Q_0^(0)**3*u_4^(0) + 8*P_0^(0)**3*u_1^(0) + '
     '4*Q_0^(0)*u_1^(0)*u_3^(0) + 6*Q_0^(0)**2*u_1^(0)*u_4^(0) + '
     '8*Q_0^(0)**3*u_1^(0) + 2*u_1^(0)*u_2^(0)\n'
     '  closed form: ok\n'
     'a=2 s=3: 38*P_0^(0)*Q_0^(0)*u_1^(0) + '
     '11*P_0^(0)*Q_0^(0)*u_2^(0)*u_4^(0) + '
     '5*P_0^(0)*Q_0^(0)*u_3^(0)**2 + '
     '67/2*P_0^(0)*Q_0^(0)**2*u_2^(0) + '
     '11*P_0^(0)*Q_0^(0)**2*u_3^(0)*u_4^(0) + '
     '17*P_0^(0)*Q_0^(0)**3*u_3^(0) + 31/2*P_0^(0)*u_1^(0)*u_4^(0) + '
     '3/2*P_0^(0)*u_2^(0)*u_3^(0) + 67/2*P_0^(0)**2*Q_0^(0)*u_2^(0) + '
     '11*P_0^(0)**2*Q_0^(0)*u_3^(0)*u_4^(0) + '
     '27*P_0^(0)**2*Q_0^(0)**2*u_3^(0) + '
     '35/2*P_0^(0)**2*Q_0^(0)**2*u_4^(0)**2 + '
     '65/2*P_0^(0)**2*Q_0^(0)**3*u_4^(0) + 46*P_0^(0)**2*u_1^(0) + '
     '5/2*P_0^(0)**2*u_2^(0)*u_4^(0) + '
     '17*P_0^(0)**3*Q_0^(0)*u_3^(0) + '
     '65/2*P_0^(0)**3*Q_0^(0)**2*u_4^(0) + 42*P_0^(0)**3*Q_0^(0)**3 + '
     '7/2*P_0^(0)**3*u_2^(0) + 31/2*Q_0^(0)*u_1^(0)*u_4^(0) + '
     '3/2*Q_0^(0)*u_2^(0)*u_3^(0) + 46*Q_0^(0)**2*u_1^(0) + '
     '5/2*Q_0^(0)**2*u_2^(0)*u_4^(0) + 7/2*Q_0^(0)**3*u_2^(0) + '
     '3*u_1^(0)*u_3^(0) + 1/2*u_2^(0)**2\n'
     '  closed form: ok\n'),
    (('coeffs', '--series', 'B', '--rank', '3', '--check'),
     'a=1 s=1: 6*P_0^(0)*Q_0^(0) + 4*P_0^(0)*u_3^(0) + '
     '6*P_0^(0)**2 + 4*Q_0^(0)*u_3^(0) + 6*Q_0^(0)**2 + 2*u_2^(0)\n'
     '  closed form: ok\n'
     'a=1 s=3: 23*P_0^(0) + 23*Q_0^(0) + 6*u_3^(0)\n'
     '  closed form: ok\n'
     'a=2 s=1: 6*P_0^(0)*Q_0^(0)*u_1^(0) + '
     '2*P_0^(0)*Q_0^(0)*u_2^(0)*u_3^(0) + '
     '4*P_0^(0)*Q_0^(0)**2*u_2^(0) + 4*P_0^(0)*u_1^(0)*u_3^(0) + '
     '4*P_0^(0)**2*Q_0^(0)*u_2^(0) + '
     '2*P_0^(0)**2*Q_0^(0)**2*u_3^(0) + 6*P_0^(0)**2*u_1^(0) + '
     '4*Q_0^(0)*u_1^(0)*u_3^(0) + 6*Q_0^(0)**2*u_1^(0) + '
     '2*u_1^(0)*u_2^(0)\n'
     '  closed form: ok\n'
     'a=2 s=3: 18*P_0^(0)*Q_0^(0)*u_2^(0) + '
     '10*P_0^(0)*Q_0^(0)*u_3^(0)**2 + '
     '20*P_0^(0)*Q_0^(0)**2*u_3^(0) + 23*P_0^(0)*u_1^(0) + '
     '5*P_0^(0)*u_2^(0)*u_3^(0) + 20*P_0^(0)**2*Q_0^(0)*u_3^(0) + '
     '28*P_0^(0)**2*Q_0^(0)**2 + 8*P_0^(0)**2*u_2^(0) + '
     '23*Q_0^(0)*u_1^(0) + 5*Q_0^(0)*u_2^(0)*u_3^(0) + '
     '8*Q_0^(0)**2*u_2^(0) + 6*u_1^(0)*u_3^(0) + 2*u_2^(0)**2\n'
     '  closed form: ok\n'),
    (('coeffs', '--series', 'D', '--rank', '4', '--check'),
     'a=1 s=1: 2*P_0^(0)*Q_0^(0)*u_3^(0) + '
     '4*P_0^(0)*Q_0^(0)**2*u_4^(0) + 6*P_0^(0)*Q_0^(0)**3 + '
     '4*P_0^(0)**2*Q_0^(0)*u_4^(0) + 6*P_0^(0)**2*Q_0^(0)**2 + '
     '6*P_0^(0)**3*Q_0^(0) + 2*u_1^(0)\n'
     '  closed form: ok\n'
     'a=1 s=3: 6*P_0^(0)*Q_0^(0)*u_4^(0) + 23*P_0^(0)*Q_0^(0)**2 + '
     '23*P_0^(0)**2*Q_0^(0)\n'
     '  closed form: ok\n'
     'a=2 s=1: 6*P_0^(0)*Q_0^(0)*u_1^(0)*u_4^(0) + '
     '2*P_0^(0)*Q_0^(0)*u_2^(0)*u_3^(0) + '
     '8*P_0^(0)*Q_0^(0)**2*u_1^(0) + '
     '4*P_0^(0)*Q_0^(0)**2*u_2^(0)*u_4^(0) + '
     '6*P_0^(0)*Q_0^(0)**3*u_2^(0) + 4*P_0^(0)*u_1^(0)*u_3^(0) + '
     '8*P_0^(0)**2*Q_0^(0)*u_1^(0) + '
     '4*P_0^(0)**2*Q_0^(0)*u_2^(0)*u_4^(0) + '
     '6*P_0^(0)**2*Q_0^(0)**2*u_2^(0) + '
     '2*P_0^(0)**2*Q_0^(0)**2*u_3^(0)*u_4^(0) + '
     '4*P_0^(0)**2*Q_0^(0)**3*u_3^(0) + '
     '6*P_0^(0)**2*u_1^(0)*u_4^(0) + 6*P_0^(0)**3*Q_0^(0)*u_2^(0) + '
     '4*P_0^(0)**3*Q_0^(0)**2*u_3^(0) + '
     '2*P_0^(0)**3*Q_0^(0)**3*u_4^(0) + 8*P_0^(0)**3*u_1^(0) + '
     '4*Q_0^(0)*u_1^(0)*u_3^(0) + 6*Q_0^(0)**2*u_1^(0)*u_4^(0) + '
     '8*Q_0^(0)**3*u_1^(0) + 2*u_1^(0)*u_2^(0)\n'
     '  closed form: ok\n'
     'a=2 s=3: 28*P_0^(0)*Q_0^(0)*u_1^(0) + '
     '6*P_0^(0)*Q_0^(0)*u_2^(0)*u_4^(0) + '
     '2*P_0^(0)*Q_0^(0)*u_3^(0)**2 + '
     '23*P_0^(0)*Q_0^(0)**2*u_2^(0) + '
     '5*P_0^(0)*Q_0^(0)**2*u_3^(0)*u_4^(0) + '
     '8*P_0^(0)*Q_0^(0)**3*u_3^(0) + 11*P_0^(0)*u_1^(0)*u_4^(0) + '
     '23*P_0^(0)**2*Q_0^(0)*u_2^(0) + '
     '5*P_0^(0)**2*Q_0^(0)*u_3^(0)*u_4^(0) + '
     '18*P_0^(0)**2*Q_0^(0)**2*u_3^(0) + '
     '10*P_0^(0)**2*Q_0^(0)**2*u_4^(0)**2 + '
     '20*P_0^(0)**2*Q_0^(0)**3*u_4^(0) + 36*P_0^(0)**2*u_1^(0) + '
     '8*P_0^(0)**3*Q_0^(0)*u_3^(0) + '
     '20*P_0^(0)**3*Q_0^(0)**2*u_4^(0) + 28*P_0^(0)**3*Q_0^(0)**3 + '
     '11*Q_0^(0)*u_1^(0)*u_4^(0) + 36*Q_0^(0)**2*u_1^(0) + '
     '2*u_1^(0)*u_3^(0)\n'
     '  closed form: ok\n'),
]


def test_sample_may_start_with_a_minus():
    # argparse alone reads '-1,-3' as an option; the CLI takes it as the value
    a = run('compute', '--series', 'A', '--rank', '2', '--sample', '-1,-3')
    b = run('compute', '--series', 'A', '--rank', '2', '--sample=-1,-3')
    assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
    assert a.stdout == b.stdout
    rep = json.loads(a.stdout)
    assert rep['diagnostics']['sample'] == ['-1', '-3']
    assert [e['c'] for e in rep['invariants']] == ['1/24', '1/24']


def test_usage_errors_exit_4():
    # no command, an unknown option, an abbreviated option, a choice in
    # the wrong case
    for args in ((), ('--bogus',), ('compute', '--ser', 'A', '--rank', '2'),
                 ('compute', '--series', 'a', '--rank', '2')):
        r = run(*args)
        assert_fails(r, 4)
        assert r.stderr.startswith('invalid configuration:'), (args, r.stderr)
        assert r.stdout == '', args


def test_help_exits_0():
    r = run('--help')
    assert r.returncode == 0, r.stderr
    assert all(c in r.stdout for c in ('compute', 'table', 'coeffs', 'verify'))
    r = run('compute', '--help')
    assert r.returncode == 0, r.stderr
    assert '--sample' in r.stdout and '--fixture-dir' in r.stdout


@pytest.mark.parametrize('interrupt', [KeyboardInterrupt, EOFError])
def test_interrupt_exits_4(monkeypatch, capsys, interrupt):
    def interrupted(rng, data_dir):
        raise interrupt
        yield
    monkeypatch.setitem(cli.SUITES, 'an', interrupted)
    with pytest.raises(SystemExit) as ex:
        cli.main(['verify', 'an'])
    assert ex.value.code == 4
    err = capsys.readouterr().err
    assert err.strip() and 'Traceback' not in err


def test_in_process_errors_propagate(monkeypatch, capsys, tmp_path):
    # without standalone_mode the caller sees the exception, not an exit code
    cases = [(['compute'], cli.ConfigError),
             (['compute', '--bogus'], cli.ConfigError),
             (['compute', '--series', 'A', '--rank', '2', '--sample', '1,0'],
              invariants.DegeneratePoint),
             (['compute', '--algebra', 'F4', '--fixture-dir', str(tmp_path)],
              fixtures.FixtureError),
             (['verify', 'an'], cli.Mismatch)]
    monkeypatch.setitem(cli.SUITES, 'an', lambda rng, data_dir: [('an', False)])
    for args, error in cases:
        with pytest.raises(error):
            cli.main(args, standalone_mode=False)
    assert capsys.readouterr().err == ''


def loaded_after(args):
    """The package modules (and click, if any) that a fresh interpreter
    holds after `cli.main(args, standalone_mode=False)`."""
    script = (
        'import contextlib, io, json, sys\n'
        'from dscentral import cli\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        '    try:\n'
        '        cli.main(%r, standalone_mode=False)\n'
        '    except SystemExit as ex:\n'     # --help
        '        assert ex.code == 0, ex.code\n'
        'print(json.dumps([m for m in sys.modules\n'
        '                  if m == "click" or m.startswith("dscentral")]))\n'
        % (list(args),))
    r = subprocess.run([sys.executable, '-c', script], capture_output=True,
                       text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def test_classical_compute_imports_no_lie_or_fixture_code():
    loaded = loaded_after(['compute', '--series', 'A', '--rank', '3'])
    assert 'dscentral.invariants' in loaded
    assert not loaded & {'click', 'dscentral.liealg', 'dscentral.dirac',
                         'dscentral.fixtures', 'dscentral.frobenius',
                         'dscentral.reference'}, loaded


@pytest.mark.parametrize('algebra', ['G2', 'F4'])
def test_exceptional_compute_imports_no_symbol_code(algebra):
    # the defect formula comes from invariants, which loads no symbol code
    loaded = loaded_after(['compute', '--algebra', algebra])
    assert 'dscentral.invariants' in loaded
    assert not loaded & {'click', 'dscentral.brackets', 'dscentral.symbols',
                         'dscentral.lax'}, loaded


def test_table_imports_no_symbol_or_fixture_code():
    loaded = loaded_after(['table', '--check'])
    assert {'dscentral.liealg', 'dscentral.reference'} <= loaded
    assert not loaded & {'click', 'dscentral.brackets', 'dscentral.invariants',
                         'dscentral.fixtures'}, loaded


def test_help_imports_no_mathematics():
    assert loaded_after(['--help']) == {'dscentral', 'dscentral.cli',
                                        'dscentral.upoly'}


def test_exact_routes_run_without_sympy():
    script = (
        'import sys\n'
        'from dscentral import cli\n'
        'for args in (["compute", "--series", "A", "--rank", "3"],\n'
        '             ["compute", "--algebra", "G2"],\n'
        '             ["compute", "--algebra", "F4"],\n'
        '             ["verify", "all"]):\n'
        '    cli.main(args, standalone_mode=False)\n'
        'print("sympy" in sys.modules)\n')
    r = subprocess.run([sys.executable, '-c', script], capture_output=True,
                       text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == 'False'


def test_golden_stdout():
    for args, want in GOLDEN:
        r = run(*args)
        assert r.returncode == 0, (args, r.stderr)
        assert r.stdout == want, args


def test_golden_text_does_not_depend_on_the_variable_order():
    # a monomial packs each variable into the field it was given on first
    # use; registering the variables in reverse order first must not
    # change the printed term order
    args = ('coeffs', '--series', 'A', '--rank', '3', '--check')
    script = (
        'from dscentral import algebra, cli\n'
        'vs = [(f, i, k) for f in ("a", "b", "u") for i in range(1, 4) for k in range(7)]\n'
        'vs += [("p", 0, 0), ("q", 0, 0), ("rho", 1, 0)]\n'
        'algebra.monomial([(v, 1) for v in sorted(vs, reverse=True)])\n'
        'assert algebra._VARS[0] == ("u", 3, 6)\n'
        'cli.main(%r, standalone_mode=False)\n' % (list(args),))
    r = subprocess.run([sys.executable, '-c', script], capture_output=True,
                       text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout == dict(GOLDEN)[args]


RATIONAL = re.compile(r'-?\d+(/\d+)?')
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7))
exceptional_samples = st.one_of(
    st.tuples(st.just('G2'), st.lists(rationals, min_size=2, max_size=2)),
    st.tuples(st.just('F4'), st.lists(rationals, min_size=4, max_size=4)),
    # the perfect-square family, k and t4 zero or negative too
    st.tuples(st.just('F4'), st.builds(reference.f4_point, rationals,
                                       st.integers(-6, 6), rationals)))


@settings(max_examples=150, deadline=None)
@given(exceptional_samples)
def test_exceptional_samples_exit_0_or_2(case):
    # in process: every G2 and F4 point is a result with rational
    # invariants or a one-line refusal as a degenerate sample
    algebra, point = case
    out, err = io.StringIO(), io.StringIO()
    before = getattr(sys, 'get_int_max_str_digits', lambda: None)()
    try:
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as ex:
            cli.main(['compute', '--algebra', algebra,
                      '--sample=' + ','.join(str(x) for x in point)])
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)
    out, err = out.getvalue(), err.getvalue()
    if ex.value.code == 0:
        assert err == ''
        cs = [e['c'] for e in json.loads(out)['invariants']]
        assert len(cs) == len(point) and all(RATIONAL.fullmatch(c) for c in cs), out
    else:
        assert ex.value.code == 2, (ex.value.code, err)
        assert out == '' and err.startswith('degenerate sample: ') and err.count('\n') == 1, err
        assert 'Traceback' not in err
