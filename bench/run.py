"""The dscentral benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload classical|tables|lie|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` and the CLI is launched as `python -m dscentral.cli` with `src`
on PYTHONPATH, so nothing needs installing.  Whole passes over the
workload's op list are repeated until S seconds have passed.  Every op
output is checked exactly against `reference.py`.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 untraced and traced passes over
the same inputs alternate and the JSON holds the per-layer metrics.
The lines before it give the same figures for a reader, with sample
counts, quartiles and every failed op.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, 'src')
SETUP_RUNS = 5
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def fail(msg):
    print('bench: ' + msg, file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# statistics

def percentile(values, p):
    """Mean of the sorted values between percentiles p - w and p + w,
    w = min(10, (100 - p) / 2).  The op mix has gaps between op kinds, and
    a single order statistic jumps from one kind to the next under small
    timing noise; the mean over the band moves smoothly."""
    xs = sorted(values)
    w = min(10, (100 - p) / 2)
    lo = min(int(len(xs) * (p - w) / 100), len(xs) - 1)
    hi = max(lo + 1, -int(-len(xs) * (p + w) // 100))
    return statistics.fmean(xs[lo:hi])


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it;
    the maximum when there are fewer than twenty samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return 'p%g' % p, percentile(values, p), n * (100 - p) / 100
    return 'max', max(values), 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# measurement

def measure_setup(workload, speed):
    """Fresh interpreter to ready, SETUP_RUNS times: for in-process
    workloads the import of dscentral plus its lazy set-up, for `cli`
    one bare `--help` process.  Returns (raw seconds, span) pairs."""
    from workloads import child_env
    if workload.in_process:
        argv = [sys.executable, os.path.join(os.path.dirname(__file__), 'child.py'), 'setup']
    else:
        argv = [sys.executable, '-m', 'dscentral.cli', '--help']
    runs = []
    for _ in range(SETUP_RUNS):
        proc, err, raw, span = speed.timed(lambda: subprocess.run(
            argv, capture_output=True, text=True, env=child_env(ROOT), cwd=ROOT, timeout=170),
            child=True)
        if err or proc.returncode != 0:
            fail('set-up process failed:\n' + (err or proc.stderr))
        runs.append((raw, span))
    return runs


class PassResult:
    def __init__(self, ops):
        self.ops = ops
        self.raw, self.spans, self.outputs, self.errors = [], [], [], []
        self.latencies = self.wall = None   # at reference speed, see scale()
        self.digest = None
        self.failures = []      # (op, reason) of gated ops
        self.probe_failures = []

    def scale(self, speed):
        self.latencies = [speed.scaled(r, s) for r, s in zip(self.raw, self.spans)]
        self.wall = sum(self.latencies)


def run_pass(ops, speed, child=False):
    """Run each op once; only the thunks are timed.  `child`: each op
    runs a child process."""
    res = PassResult(ops)
    for op in ops:
        out, err, raw, span = speed.timed(op.run, child)
        res.raw.append(raw)
        res.spans.append(span)
        res.outputs.append(out)
        res.errors.append(err)
    return res


def check_pass(res):
    from workloads import CheckFailed
    h = hashlib.sha256()
    for op, out, err in zip(res.ops, res.outputs, res.errors):
        if err is None:
            try:
                h.update(('%s=%s\n' % (op.label, op.check(out))).encode())
            except CheckFailed as ex:
                err = str(ex)
        if err is not None:
            h.update(('%s=FAILED\n' % op.label).encode())
            (res.probe_failures if op.probe else res.failures).append((op.label, err))
    res.digest = h.hexdigest()[:16]
    res.outputs = None      # free the outputs before the next pass
    return res


def timed_passes(workload, seconds, speed, tracer=None):
    """Passes until `seconds` have passed.  With a tracer, each pass over
    inputs k runs twice, untraced and traced, in alternating order."""
    untraced, traced, summaries = [], [], []
    start, k = perf_counter(), 0
    while True:
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in modes:
            if with_trace:
                tracer.reset()
                tracer.install()
                try:
                    res = run_pass(workload.ops(k), speed, not workload.in_process)
                finally:
                    tracer.uninstall()
                summaries.append(tracer.summary())
                traced.append(check_pass(res))
            else:
                untraced.append(check_pass(
                    run_pass(workload.ops(k), speed, not workload.in_process)))
        k += 1
        if perf_counter() - start >= seconds:
            return untraced, traced, summaries


# ---------------------------------------------------------------------------
# metrics

def end_to_end(setup_times, setup_raw, passes, workload):
    lat = [x for p in passes for x in p.latencies]
    walls = [p.wall for p in passes]
    name, tail_s, beyond = tail(lat)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    q1, q3 = quartiles(walls)
    metrics = {
        'setup_s': (statistics.median(setup_times), 's',
                    'median of %d fresh interpreters; raw %.4f' % (
                        len(setup_times), statistics.median(setup_raw))),
        'pass_s': (statistics.median(walls), 's',
                   'median of %d passes, q1 %.4f q3 %.4f; raw %.4f' % (
                       len(walls), q1, q3, statistics.median(sum(p.raw) for p in passes))),
        'op_p50_ms': (1000 * percentile(lat, 50), 'ms', '%d ops; raw %.4f' % (
            len(lat), 1000 * percentile([x for p in passes for x in p.raw], 50))),
        'op_tail_ms': (1000 * tail_s, 'ms', '%s of %d ops, %g beyond it'
                       % (name, len(lat), beyond)),
        'peak_rss_mb': (rss_kb / 1024, 'MB', 'peak RSS of the %s' % (
            'workload process' if workload.in_process else 'CLI child processes')),
    }
    return metrics


def per_layer(spec, summaries, setup_times, untraced, traced, workload):
    """Per-pass values: counts and sizes from the first traced pass (they
    repeat exactly for a seed), times as the median over traced passes."""
    from tracing import SIZES
    kinds = {}
    for p in untraced + traced:
        for op, dt in zip(p.ops, p.latencies):
            kinds.setdefault(op.kind, []).append(dt)

    def med(kind, scale):
        return scale * statistics.median(kinds[kind]) if kinds.get(kind) else 0.0

    first_spans, first_sizes = summaries[0]
    out = {}
    for m in spec:
        name = m['name']
        layer, _, field = name.rpartition('.')
        if name == 'cli.contract_failed':
            value = len(traced[0].probe_failures)
        elif name == 'cli.startup_ms':
            # only the cli workload's set-up runs are bare CLI processes
            value = 0.0 if workload.in_process else 1000 * statistics.median(setup_times)
        elif name.startswith('cli.'):
            value = {'cli.compute_classical_ms': med('classical', 1000),
                     'cli.compute_exceptional_ms': med('exceptional', 1000),
                     'cli.verify_s': med('verify', 1)}[name]
        elif name == 'error_rate':
            value = error_rate(traced)
        elif name == 'trace.overhead_frac':
            value = (statistics.median(p.wall for p in traced)
                     / statistics.median(p.wall for p in untraced) - 1)
        elif name == 'brackets.density_per_point':
            dens = first_spans.get('brackets.bracket_density', {}).get('calls', 0)
            pts = first_spans.get('invariants.central_invariants', {}).get('calls', 0)
            value = dens / pts if pts else 0.0
        elif name in SIZES:
            value = first_sizes.get(name, 0)
        elif field == 'calls':
            value = first_spans.get(layer, {}).get('calls', 0)
        else:
            value = statistics.median(s.get(layer, {}).get(field, 0.0) for s, _ in summaries)
        out[name] = {'value': value, 'unit': m['unit']}
    return out


def error_rate(passes):
    ops = sum(len(p.ops) for p in passes)
    bad = sum(len(p.failures) + len(p.probe_failures) for p in passes)
    return bad / ops


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, 'dscentral', '__init__.py')):
        fail('no dscentral sources under %s; run from a source checkout' % SRC)
    sys.path.insert(0, SRC)
    import dscentral
    if not os.path.abspath(dscentral.__file__).startswith(SRC + os.sep):
        fail('dscentral imported from %s, not from %s' % (dscentral.__file__, SRC))
    from workloads import WORKLOADS
    from speed import Speed
    from tracing import Tracer
    if args.workload not in WORKLOADS:
        fail('unknown workload %r; choose from %s' % (args.workload, ', '.join(WORKLOADS)))
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)

    tracer = Tracer() if args.trace else None
    # one CPU for this process and its children, so that speed samples
    # taken here describe the CPU a child ran on (see speed.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    workload.warm()
    print('workload %s  seed %d  trace %d  inputs sha256 %s'
          % (workload.name, args.seed, args.trace, workload.inputs_digest()))
    with Speed() as speed:
        setup = measure_setup(workload, speed)
        untraced, traced, summaries = timed_passes(workload, args.seconds, speed, tracer)
    setup_times = [speed.scaled(raw, span) for raw, span in setup]
    passes = untraced + traced
    for p in passes:
        p.scale(speed)
    gated = [f for p in passes for f in p.failures]
    probes = [f for p in passes for f in p.probe_failures]
    attempted = sum(1 for p in passes for op in p.ops if not op.probe)
    mismatched = [k for k, (u, t) in enumerate(zip(untraced, traced)) if u.digest != t.digest]
    for k in mismatched:
        gated.append(('pass %d' % k, 'traced outputs differ from untraced outputs'))

    print('outputs sha256 %s (first pass)' % passes[0].digest)
    if args.trace:
        print('traced outputs identical to untraced: %s'
              % ('yes' if not mismatched else 'NO, passes %s' % mismatched))
        metrics = per_layer(spec['per_layer'], summaries, setup_times, untraced, traced,
                            workload)
        for name, m in metrics.items():
            print('  %-42s %14.6g %s' % (name, m['value'], m['unit']))
    else:
        e2e = end_to_end(setup_times, [raw for raw, _ in setup], untraced, workload)
        for name, (value, unit, note) in e2e.items():
            print('  %-12s %12.4f %-3s (%s)' % (name, value, unit, note))
        metrics = {name: {'value': v, 'unit': u} for name, (v, u, _) in e2e.items()}
    all_ops = sum(len(p.ops) for p in passes)
    print('  %-12s %12.4f     (%d of %d ops failed, %d of them contract probes)'
          % ('error_rate', error_rate(passes), len(gated) + len(probes), all_ops, len(probes)))
    for label, reason in (gated + probes)[:40]:
        print('  FAILED %s: %s' % (label, reason))

    print(json.dumps({'correct': not gated, 'attempted': attempted, 'failed': len(gated),
                      'metrics': metrics}))


if __name__ == '__main__':
    main()
