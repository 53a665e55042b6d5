"""Command line interface: exit codes, output contract, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import dscentral
from dscentral import cli, fixtures, invariants

# The directory that holds the imported package goes first on the child's
# PYTHONPATH, so the CLI under test is the code the other tests import.
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(dscentral.__file__)))


def child_env(**extra):
    env = dict(os.environ, **extra)
    rest = env.get('PYTHONPATH')
    env['PYTHONPATH'] = PKG_ROOT + (os.pathsep + rest if rest else '')
    return env


def run(*args, env=None):
    """Run the CLI's `entry()` in a child interpreter; no install needed.
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


def test_table_fold():
    for src, dst in (('B3', 'G2'), ('E6', 'F4'), ('A7', 'C4'),
                     ('D5', 'B4'), ('D4', 'G2')):
        r = run('table', '--fold', src, dst)
        assert r.returncode == 0, (src, dst, r.stdout)
        assert 'ok' in r.stdout
    assert_fails(run('table', '--fold', 'A2', 'G2'), 4)


def test_coeffs_check():
    for series, rank in (('A', 2), ('B', 2), ('D', 3)):
        r = run('coeffs', '--series', series, '--rank', str(rank), '--check')
        assert r.returncode == 0, (series, rank, r.stdout)
        assert 'MISMATCH' not in r.stdout


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
]


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
