"""End-to-end and per-layer benchmark of wmcvar.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
./src and its command line runs as `python -m wmcvar.cli` with ./src on
PYTHONPATH.  Nothing is installed or built.

One run:
1. generates the workload's inputs from the seed (workloads.py);
2. computes their references in a child process that does not import
   wmcvar (reference.py);
3. sets the program up (compile every CNF, build the network pipeline);
4. repeats whole rounds of the same operations while another round
   fits in --seconds, timing each operation and checking its output;
   each round also times one more set-up, whose result it drops;
5. prints one JSON line: correct, attempted, failed and the metrics.

Timings are medians.  An end-to-end time is the mean, over the
operations of one kind in a round (each target circuit, evidence set or
command), of each operation's median time in the run; setup_s is the
median set-up.  On the shared 2-vCPU VM this was written on, the load
of other tenants moves the speed of a whole run by a tenth or more, and
over paired runs the median spread less between runs than the fastest
repetition did (README.md).  With --trace 1 the set-ups and the first
half of the rounds record spans (spans.py) and the rest run untraced, to
give the tracing overhead; the spans go to
.perfbench/trace-<workload>-<seed>.json and the per-layer metrics are
printed instead.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

RTOL = 1e-9             # engine float result against a float reference
EXACT_RTOL = 1e-12      # Fraction variance against the engine's float one
QUERY_BLOCKS = 4        # runs of the cheap queries per round
HEAVY_BLOCKS = 2        # runs of the exact variance, sweep and CLI per round
CLI_TIMEOUT = 120

END_TO_END = (('setup_s', 's'), ('exp_s', 's'), ('var_s', 's'),
              ('cov_s', 's'), ('count_s', 's'), ('exact_var_s', 's'),
              ('bn_query_s', 's'), ('sweep_s', 's'), ('cli_s', 's'),
              ('peak_rss_mb', 'MB'))
PER_LAYER = (
    ('circuit.parse_vtree_s', 's'), ('circuit.parse_sdd_s', 's'),
    ('circuit.validate_s', 's'), ('circuit.normalize_s', 's'),
    ('circuit.sdd_text_s', 's'), ('circuit.nodes', 'count'),
    ('circuit.edges', 'count'),
    ('sddc.compile_s', 's'), ('sddc.place_s', 's'),
    ('sddc.clauses', 'count'), ('sddc.out_nodes', 'count'),
    ('sddc.out_edges', 'count'),
    ('weights.to_exact_s', 's'),
    ('moments.engine_init_s', 's'), ('moments.locate_groups_s', 's'),
    ('moments.exp_table_s', 's'), ('moments.cov_s', 's'),
    ('moments.pair_s', 's'), ('moments.edges_per_s', '1/s'),
    ('bayes.encode_s', 's'), ('bayes.vtree_s', 's'),
    ('bayes.compile_s', 's'), ('bayes.pipeline_init_s', 's'),
    ('bayes.query_conjoin_first_s', 's'),
    ('bayes.query_conjoin_repeat_s', 's'), ('bayes.query_zero_s', 's'),
    ('bayes.sweep_param_s', 's'), ('bayes.params', 'count'),
    ('bayes.props', 'count'), ('bayes.circuit_nodes', 'count'),
    ('reductions.count_s', 's'), ('reductions.ite_circuit_s', 's'),
    ('reductions.ite_check_s', 's'),
    ('cli.startup_s', 's'), ('cli.parse_ms', 'ms'),
    ('cli.preprocess_ms', 'ms'), ('cli.query_ms', 'ms'),
    ('cli.compile_ms', 'ms'))


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a reference failed)."""


def load_program():
    """Import wmcvar from ./src of the checkout, and nothing else."""
    src = ROOT / 'src'
    if not (src / 'wmcvar' / '__init__.py').is_file():
        raise BenchError('no wmcvar sources under %s' % src)
    sys.path.insert(0, str(src))
    import wmcvar
    from wmcvar import bayes, circuit, moments, reductions, sddc, weights
    if src.resolve() not in Path(wmcvar.__file__).resolve().parents:
        raise BenchError('wmcvar imported from %s, not from %s'
                         % (wmcvar.__file__, src))
    return SimpleNamespace(bayes=bayes, circuit=circuit, moments=moments,
                           reductions=reductions, sddc=sddc, weights=weights)


def references(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / 'reference.py'), '--workload', workload,
         '--seed', str(seed)], cwd=ROOT, capture_output=True, text=True,
        timeout=CLI_TIMEOUT)
    if proc.returncode:
        raise BenchError('reference.py failed:\n' + proc.stderr)
    return json.loads(proc.stdout)


# ---- checks -----------------------------------------------------------------


def near(got, ref, scale=0.0, rtol=RTOL):
    """None when got is a finite float within rtol of ref; the tolerance
    is relative to |ref| + |scale|, scale being the size of the terms a
    covariance subtracts (E[W_f] E[W_g])."""
    if not isinstance(got, float) or not math.isfinite(got):
        return 'not a finite float: %r' % (got,)
    if abs(got - ref) > rtol * (abs(ref) + abs(scale)):
        return 'got %r, reference %r' % (got, ref)
    return None


def near_var(got, ref, mean):
    if got == 0 or ref == 0:
        return 'variance is 0'
    return near(got, ref, mean * mean)


# ---- the benchmark ----------------------------------------------------------


class Bench:
    def __init__(self, program, inputs, refs, tracer, workdir):
        self.P = program
        self.inputs = inputs
        self.refs = refs
        self.tr = tracer
        self.dir = workdir
        self.samples = {}           # metric -> {op attrs: [seconds]}
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.queried = set()        # evidence sets already conditioned
        self.last_var = {}          # target -> float variance this round
        self.zero_var0 = None       # zero_weights variance of evidence set 0
        env = dict(os.environ)
        env['PYTHONPATH'] = os.pathsep.join(
            [str(ROOT / 'src')] + ([env['PYTHONPATH']]
                                   if env.get('PYTHONPATH') else []))
        self.env = env

    # ---- operations ---------------------------------------------------------

    def op(self, metric, span, fn, check, annotate=None, **attrs):
        """Run, time and check one operation.  An operation that raises
        counts as failed; one whose output fails its check makes the run
        incorrect."""
        self.attempted += 1
        try:
            with self.tr.span(span, **attrs) as rec:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
                if annotate is not None:
                    annotate(rec, out)
        except Exception:                   # noqa: BLE001 - counted, reported
            self.failed += 1
            sys.stderr.write('perfbench: %s failed\n%s'
                             % (span, traceback.format_exc()))
            return None
        if metric is not None:
            key = tuple(sorted((k, v) for k, v in attrs.items()
                               if k != 'first'))
            self.samples.setdefault(metric, {}).setdefault(key, []).append(dt)
        problem = check(out)
        if problem:
            self.wrong.append('%s %s: %s' % (span, attrs, problem))
        return out

    def setup(self):
        """Everything before the first query: compile every CNF, build
        the network pipeline."""
        P, inp = self.P, self.inputs
        net = inp['network']
        bn = P.bayes.BayesNet.from_json(net['net'])
        with self.tr.span('bayes.pipeline_init'):
            pipe = P.bayes.MarginalPipeline(bn, net['encoding'])
        cn = inp['cnfs']
        if cn['vtree'] == 'network':
            vt, wm, n = pipe.vt, pipe.wm, pipe.cnf.n_vars
            clause_lists = [
                pipe.cnf.clauses + [(-x,) for x in
                                    pipe.layout.excluded_indicators(
                                        P.bayes.Evidence(bn, ev))]
                for ev in cn['evidence']]
        else:
            n = cn['n']
            vt = P.circuit.Vtree.right_linear(n)
            wm = P.weights.WeightModel({v: P.weights.VarMoments(*m)
                                        for v, m in cn['weights'].items()})
            clause_lists = cn['clauses']
        circuits = [P.sddc.compile_cnf(P.sddc.Cnf(n, cl), vt)
                    for cl in clause_lists]
        ite = inp['ite']
        ite_vt = P.circuit.Vtree.balanced(ite['n'])
        ite_pair = [P.sddc.compile_cnf(P.sddc.Cnf(ite['n'], cl), ite_vt)
                    for cl in ite['clauses']]
        return SimpleNamespace(bn=bn, pipe=pipe, vt=vt, wm=wm, n=n,
                               circuits=circuits, ite=ite_pair)

    def prepare(self, st):
        """Write the command line's input files (not timed)."""
        P, d = self.P, self.dir
        # moment operations run on every CNF, except the second chain CNF,
        # which only serves as the covariance partner
        st.targets = [0] if self.inputs['cnfs']['vtree'] == 'right_linear' \
            else range(len(st.circuits))
        st.vtree_text = st.vt.to_text()
        st.vtree_file = d / 'circuit.vtree'
        st.vtree_file.write_text(st.vtree_text)
        st.sdd_text = P.circuit.sdd_text(st.circuits[0])
        weights = st.wm.to_json()
        for v in range(1, st.n + 1):
            m = st.wm.vars.get(v, st.wm.default)
            weights['variables'].setdefault(
                str(v), {f: float(getattr(m, f)) for f in
                         ('muP', 'muN', 'varP', 'varN', 'covPN')})
        st.weights_file = d / 'weights.json'
        st.weights_file.write_text(json.dumps(weights))
        st.ite_vtree_file = d / 'ite.vtree'
        st.ite_vtree_file.write_text(st.ite[0].vt.to_text())
        st.ite_sdd_file = d / 'ite.sdd'
        st.ite_sdd_file.write_text(P.circuit.sdd_text(st.ite[0]))
        if self.inputs['cnfs']['vtree'] == 'network':
            st.net_file = d / 'network.json'
            st.net_file.write_text(json.dumps(self.inputs['network']['net']))
            st.ev_file = d / 'evidence.json'
            st.ev_file.write_text(
                json.dumps(self.inputs['network']['evidence'][0]))
            st.sdd_file = d / 'circuit.sdd'
            st.sdd_file.write_text(st.sdd_text)
        else:
            st.cnf_file = d / 'circuit.cnf'
            st.cnf_file.write_text(P.sddc.Cnf(
                st.n, self.inputs['cnfs']['clauses'][0]).to_dimacs())
            st.sdd_file = d / 'compiled.sdd'

    def engine(self, st):
        gv = self.P.moments.locate_group_vnodes(st.vt, st.wm)
        return self.P.moments.MomentEngine(st.vt, st.wm, gv)

    def cli(self, args):
        proc = subprocess.run([sys.executable, '-m', 'wmcvar.cli']
                              + [str(a) for a in args],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT)
        if proc.returncode:
            raise RuntimeError('wmcvar %s exited with %d: %s'
                               % (args[0], proc.returncode, proc.stderr))
        stages = json.loads(proc.stderr.strip().splitlines()[-1])
        out = proc.stdout.strip().splitlines()[-1]
        return json.loads(out), stages

    def round(self, st):
        """One round: the cheap query block (exp, var, cov and count on
        every target, the network queries) QUERY_BLOCKS times and the
        heavy block (exact variance on every target, the sweep, the CLI
        commands) HEAVY_BLOCKS times, interleaved, then the load and the
        selector identity.  The heavy operations fit the fewest
        repetitions in a run, and a CLI command's time varies most from
        one repetition to the next, so they repeat within a round."""
        for k in range(max(QUERY_BLOCKS, HEAVY_BLOCKS)):
            if k < QUERY_BLOCKS:
                self.queries(st)
            if k < HEAVY_BLOCKS:
                self.exact_var(st)
                self.sweep(st)
                self.cli_round(st)
        self.load(st)
        self.ite_check(st)

    def queries(self, st):
        P, rc = self.P, self.refs['cnfs']
        for i in st.targets:
            eng = self.engine(st)
            self.op('exp_s', 'op.exp', lambda: eng.exp(st.circuits[i]),
                    lambda x: near(x, rc['exp'][i]), target=i)
        for i in st.targets:
            eng = self.engine(st)
            self.last_var[i] = self.op(
                'var_s', 'op.var', lambda: eng.var(st.circuits[i]),
                lambda x: near_var(x, rc['var'][i], rc['exp'][i]), target=i)
        for k, (i, j) in enumerate(self.inputs['cnfs']['cov_pairs']):
            eng = self.engine(st)
            self.op('cov_s', 'op.cov',
                    lambda: eng.cov(st.circuits[i], st.circuits[j]),
                    lambda x: near(x, rc['cov'][k],
                                   rc['exp'][i] * rc['exp'][j]), pair=k)
        for i in st.targets:
            self.op('count_s', 'reductions.count',
                    lambda: P.reductions.count_via_variance(st.circuits[i]),
                    lambda x: None if x == rc['count'][i]
                    else 'count %r, reference %r' % (x, rc['count'][i]),
                    target=i)
        rn = self.refs['network']
        for e, ev in enumerate(self.inputs['network']['evidence']):
            for method in ('conjoin', 'zero_weights'):
                first = method == 'conjoin' and e not in self.queried
                ref = rn['queries'][e]
                got = self.op(
                    'bn_query_s', 'bayes.query',
                    lambda: st.pipe.moments(ev, method),
                    lambda r: near(r['mean'], ref['mean'])
                    or near_var(r['variance'], ref['var'], ref['mean']),
                    method=method, first=first, evidence=e)
                if method == 'conjoin':
                    self.queried.add(e)
                elif e == 0 and got is not None:
                    self.zero_var0 = got['variance']

    def exact_var(self, st):
        P, rc = self.P, self.refs['cnfs']
        for i in st.targets:
            def exact_var():
                wx = st.wm.to_exact()
                gv = P.moments.locate_group_vnodes(st.vt, wx)
                return P.moments.MomentEngine(st.vt, wx, gv).var(
                    st.circuits[i])

            def check_exact(x, i=i):
                if not isinstance(x, Fraction):
                    return 'not a Fraction: %r' % (x,)
                fl = self.last_var.get(i)
                if fl is None or abs(fl - x) > EXACT_RTOL * abs(x):
                    return 'float variance %r vs exact %s' % (fl, float(x))
                return near_var(float(x), rc['var'][i], rc['exp'][i])

            self.op('exact_var_s', 'op.exact_var', exact_var, check_exact,
                    target=i)

    def load(self, st):
        P = self.P

        def load():
            text = P.circuit.sdd_text(st.circuits[0])
            vt = P.circuit.parse_vtree(st.vtree_text)
            return P.circuit.validate(P.circuit.parse_sdd(text, vt))

        def check_load(rep):
            want = 'verified' if st.vt.n_vars <= 20 else 'assumed'
            if not (rep.ok and rep.decomposable and rep.structured
                    and rep.determinism == want):
                return 'validation report %r' % (rep,)
            return None

        self.op(None, 'op.load', load, check_load)

    def ite_check(self, st):
        self.op(None, 'reductions.ite_check',
                lambda: self.P.reductions.ite_cov_identity_check(*st.ite),
                lambda r: None if r['residual'] == 0
                else 'selector identity residual %r' % (r['residual'],))

    def sweep(self, st):
        rn = self.refs['network']
        net = self.inputs['network']
        labels = {p[0]: '%d,%d,%d' % p[1:] for p in st.pipe.parameters()}
        mean0 = rn['queries'][0]['mean']
        base = self.zero_var0

        def check_sweep(rows):
            if len(rows) != len(labels) + 1:
                return '%d rows for %d parameters' % (len(rows), len(labels))
            if [r['variance'] for r in rows] != \
                    sorted(r['variance'] for r in rows):
                return 'rows not ascending'
            for r in rows:
                if r['parameter'] == '(none)':
                    if r['variance'] != base:
                        return '(none) row %r, query variance %r' % (
                            r['variance'], base)
                    continue
                ref = rn['sweep'][labels[r['parameter']]]
                bad = near_var(r['variance'], ref, mean0)
                if bad:
                    return '%s: %s' % (r['parameter'], bad)
                if net['encoding'] == 'enc2' \
                        and r['variance'] > base * (1 + EXACT_RTOL):
                    return '%s: shrunk variance above baseline' % (
                        r['parameter'],)
            return None

        self.op('sweep_s', 'bayes.sweep',
                lambda: st.pipe.sweep(net['evidence'][0],
                                      workloads.SWEEP_FACTOR),
                check_sweep, params=len(labels))

    def cli_round(self, st):
        rc = self.refs['cnfs']
        network = self.inputs['cnfs']['vtree'] == 'network'

        def annotate(rec, out):
            rec['stages'] = out[1]

        if network:
            net = self.inputs['network']
            ref = self.refs['network']['queries'][0]
            self.op('cli_s', 'cli.run',
                    lambda: self.cli(['bn', st.net_file, '--evidence',
                                      st.ev_file, '--encoding',
                                      net['encoding']]),
                    lambda o: near(o[0]['results']['mean'], ref['mean'])
                    or near_var(o[0]['results']['variance'], ref['var'],
                                ref['mean']),
                    annotate, command='bn')
        else:
            self.op('cli_s', 'cli.run',
                    lambda: self.cli(['compile', st.cnf_file, '--vtree',
                                      st.vtree_file, '--out', st.sdd_file]),
                    lambda o: None if st.sdd_file.read_text() == st.sdd_text
                    else 'compiled file differs from sdd_text of the '
                         'in-process compile',
                    annotate, command='compile')
        self.op('cli_s', 'cli.run',
                lambda: self.cli(['variance', st.sdd_file, '--vtree',
                                  st.vtree_file, '--weights',
                                  st.weights_file]),
                lambda o: near_var(o[0]['results']['variance'], rc['var'][0],
                                   rc['exp'][0]),
                annotate, command='variance')
        # `wmcvar count` re-validates with the default 20-variable
        # determinism limit and then refuses to enumerate, so it exits 3 on
        # every circuit file above 20 variables: it runs on the small
        # selector-identity circuit, where it also checks determinism
        # exhaustively
        m, n = self.refs['ite']['count'], self.refs['ite']['n_vars']

        def check_count(o):
            res = o[0]['results']
            if res['count'] != m:
                return 'count %r, reference %r' % (res['count'], m)
            if Fraction(res['variance']) != m * (4 ** n - m):
                return 'counting variance is not m(4^n - m)'
            return None

        self.op('cli_s', 'cli.run',
                lambda: self.cli(['count', st.ite_sdd_file, '--vtree',
                                  st.ite_vtree_file]),
                check_count, annotate, command='count')

    # ---- metrics ------------------------------------------------------------

    def end_to_end(self, setup_times):
        out = {'setup_s': statistics.median(setup_times)}
        for name, _ in END_TO_END:
            if name in ('setup_s', 'peak_rss_mb'):
                continue
            per_op = self.samples.get(name)
            out[name] = statistics.fmean(
                statistics.median(v) for v in per_op.values()) \
                if per_op else None
        out['peak_rss_mb'] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def per_layer(self, st, spans):
        out = tracing.layer_metrics(spans)
        main = [st.circuits[i] for i in st.targets]
        out['circuit.nodes'] = statistics.median(
            len(c.reachable()) for c in main)
        out['circuit.edges'] = statistics.median(c.n_edges for c in main)
        out['bayes.params'] = len(st.pipe.parameters())
        out['bayes.props'] = st.pipe.layout.n_vars
        out['bayes.circuit_nodes'] = len(st.pipe.circuit.reachable())
        return out


def run(workload, seed, seconds, traced):
    program = load_program()
    inputs = workloads.make(workload, seed)
    t0 = time.perf_counter()
    refs = references(workload, seed)
    sys.stderr.write('perfbench: references in %.2fs\n'
                     % (time.perf_counter() - t0))
    tracer = tracing.Tracer()
    if traced:
        tracer.install(program)
    work = ROOT / '.perfbench'
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix='run-', dir=work))
    try:
        bench = Bench(program, inputs, refs, tracer, tmp)
        setup_times = []

        def timed_setup():
            gc.collect()
            t = time.perf_counter()
            st = bench.setup()
            setup_times.append(time.perf_counter() - t)
            return st

        tracer.phase, tracer.enabled = 'setup', traced
        st = timed_setup()
        tracer.enabled = False
        bench.prepare(st)

        round_times = {True: [], False: []}
        lap_times = []              # set-up plus round
        start = time.perf_counter()
        r = 0
        while True:
            # traced runs: traced rounds for the first half, then untraced
            on = traced and (len(round_times[True]) < 2
                             or time.perf_counter() - start < seconds / 2)
            tracer.phase, tracer.enabled = 'round%d' % r, on
            lap = time.perf_counter()
            timed_setup()
            gc.collect()
            t = time.perf_counter()
            bench.round(st)
            round_times[on].append(time.perf_counter() - t)
            lap_times.append(time.perf_counter() - lap)
            r += 1
            # stop before a round that would end past --seconds
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(lap_times) > seconds \
                    and (not traced or round_times[False]):
                break
        tracer.enabled = False
        sys.stderr.write('perfbench: rounds %s s, set-ups %s s\n' % (
            ' '.join('%.2f' % x
                     for x in round_times[True] + round_times[False]),
            ' '.join('%.2f' % x for x in setup_times)))

        if traced:
            spans = tracer.dump()
            tracer.uninstall()
            metrics = bench.per_layer(st, spans)
            units = dict(PER_LAYER)
            # the first traced round also conditions the circuits
            traced_rounds = round_times[True][1:] or round_times[True]
            overhead = min(traced_rounds) / min(round_times[False]) - 1
            path = work / ('trace-%s-%d.json' % (workload, seed))
            path.write_text(json.dumps({
                'workload': workload, 'seed': seed,
                'overhead': overhead, 'round_times': round_times,
                'self_s': tracing.self_totals(spans),
                'metrics': metrics, 'spans': spans}))
            sys.stderr.write('perfbench: %d spans in %s; tracing overhead '
                             '%+.1f%% per round\n'
                             % (len(spans), path, 100 * overhead))
        else:
            metrics = bench.end_to_end(setup_times)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in bench.wrong:
        sys.stderr.write('perfbench: WRONG %s\n' % problem)
    missing = [m for m in units if metrics.get(m) is None]
    if missing:
        raise BenchError('no samples for %s' % ', '.join(missing))
    return {'correct': not bench.wrong, 'attempted': bench.attempted,
            'failed': bench.failed,
            'metrics': {m: {'value': metrics[m], 'unit': u}
                        for m, u in units.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description='wmcvar benchmark')
    ap.add_argument('--workload', required=True, choices=workloads.WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        sys.stderr.write('perfbench: %s\n' % e)
        return 2
    sys.stdout.write(json.dumps(result) + '\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
