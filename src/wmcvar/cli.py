"""Command line front end.

Every subcommand prints one JSON report per run on stdout with a stable
key order and floats at 17 significant digits, so identical invocations
are byte-identical.  Timings (milliseconds per stage) go to stderr as a
separate JSON line, keeping the stdout artifact reproducible; --timings
copies them into the report for convenience at the cost of that guarantee.

expect, variance, covariance and bn compute in floats, or in rationals
with --exact; count, entails and ite-check are always exact.  The
two-circuit commands take --vtree2 for the second circuit's vtree file,
which must hold the same vtree as --vtree.

Exit codes: 0 success, 1 generic, 2 malformed input, 3 structural
validation, 4 weight mismatch, 5 vtree mismatch, 6 evidence mismatch.
"""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from .errors import (ValidationError, VtreeMismatchError, WeightError,
                     WmcvarError)

# Each command imports the modules it uses when it runs, so a command
# loads only its own part of the package.


# ---- reproducible JSON ------------------------------------------------------


def _jnum(x):
    if isinstance(x, bool):
        return 'true' if x else 'false'
    if isinstance(x, float):
        return format(x, '.17g')
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return json.dumps(str(x))
    return None


def _jtext(x):
    n = _jnum(x)
    if n is not None:
        return n
    if x is None:
        return 'null'
    if isinstance(x, dict):
        return '{%s}' % ','.join('%s:%s' % (json.dumps(str(k)), _jtext(v))
                                 for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return '[%s]' % ','.join(_jtext(v) for v in x)
    return json.dumps(x)


def _emit(obj, stream=None):
    (stream or sys.stdout).write(_jtext(obj) + '\n')


# ---- input plumbing ---------------------------------------------------------


def _read(path):
    try:
        with open(path, 'rb') as fh:
            return fh.read()
    except OSError as e:
        raise WmcvarError('cannot read %s: %s' % (path, e)) from None


class _Run:
    """Collects input hashes and stage timings for one invocation."""

    def __init__(self, command):
        self.command = command
        self.inputs = {}
        self.timings = {}
        self._t = time.perf_counter()

    def stage(self, name):
        now = time.perf_counter()
        self.timings[name] = self.timings.get(name, 0.0) \
            + (now - self._t) * 1e3
        self._t = now

    def read(self, role, path):
        data = _read(path)
        self.inputs[role] = {'path': path,
                             'sha256': hashlib.sha256(data).hexdigest()}
        return data.decode('utf-8')

    def report(self, results, mode=None, timings=False):
        out = {'command': self.command, 'inputs': self.inputs}
        if mode:
            out['mode'] = mode
        out['results'] = results
        if timings:
            out['timings_ms'] = self.timings
        return out


def _load_vtree(run, path):
    from .circuit import parse_vtree
    return parse_vtree(run.read('vtree', path))


def _load_circuits(run, args, vt):
    """The command's circuits over vt: circuit, then circuit2 if it takes
    two.  A --vtree2 naming another file must hold the same bytes."""
    from .circuit import parse_sdd, validate
    other = getattr(args, 'vtree2', None)
    if other is not None and other != args.vtree:
        if _read(other) != _read(args.vtree):
            raise VtreeMismatchError('circuits name different vtree files')
        run.inputs['vtree2'] = {'path': other,
                                'sha256': run.inputs['vtree']['sha256']}
    out = []
    roles = ('circuit', 'circuit2') if hasattr(args, 'circuit2') \
        else ('circuit',)
    for role in roles:
        c = parse_sdd(run.read(role, getattr(args, role)), vt)
        rep = validate(c, determinism_limit=args.validate_determinism)
        if not rep.ok:
            raise ValidationError('; '.join(rep.problems) or
                                  'circuit failed validation')
        out.append(c)
    return out


def _load_weights(run, path, n_vars, exact):
    from .weights import WeightModel
    wm = WeightModel.from_json(run.read('weights', path), exact=exact)
    wm.validate_for(n_vars)
    missing = [v for v in range(1, n_vars + 1) if v not in wm.vars]
    if missing:
        raise WeightError('no weights for variables %s'
                          % ', '.join(map(str, missing)))
    return wm


def _finish(run, args, results, mode):
    """Print the report, then the stage timings to stderr."""
    _emit(run.report(results, mode, args.timings))
    _emit(run.timings, sys.stderr)
    return 0


# ---- subcommands ------------------------------------------------------------

# subcommand -> MomentEngine method
MOMENTS = {'expect': 'exp', 'variance': 'var', 'covariance': 'cov'}


def cmd_moment(args):
    from .moments import MomentEngine, locate_group_vnodes
    run = _Run(args.cmd)
    vt = _load_vtree(run, args.vtree)
    circuits = _load_circuits(run, args, vt)
    wm = _load_weights(run, args.weights, vt.n_vars, args.exact)
    run.stage('parse')
    eng = MomentEngine(vt, wm, locate_group_vnodes(vt, wm))
    run.stage('preprocess')
    val = getattr(eng, MOMENTS[args.cmd])(*circuits)
    run.stage('query')
    return _finish(run, args, {args.cmd: val, 'over': 'all'},
                   {'exact': bool(args.exact)})


def cmd_count(args):
    from .reductions import count_and_variance
    run = _Run('count')
    vt = _load_vtree(run, args.vtree)
    c, = _load_circuits(run, args, vt)
    run.stage('parse')
    # _load_circuits ran the exhaustive determinism check already, and
    # its structure walk, which count's validate and the engine reuse
    count, var = count_and_variance(c, determinism_limit=0)
    denom = 4 ** vt.n_vars - 1
    run.stage('query')
    return _finish(run, args, {'count': count, 'variance': Fraction(var),
                               'ratio': Fraction(var, denom), 'over': 'all'},
                   {'exact': True})


def cmd_entails(args):
    from .reductions import entails_via_cov
    run = _Run('entails')
    vt = _load_vtree(run, args.vtree)
    f, g = _load_circuits(run, args, vt)
    run.stage('parse')
    ans = entails_via_cov(f, g, determinism_limit=0)
    run.stage('query')
    return _finish(run, args, {'entails': bool(ans)}, {'exact': True})


def cmd_ite_check(args):
    from .reductions import ite_cov_identity_check
    run = _Run('ite-check')
    vt = _load_vtree(run, args.vtree)
    f, g = _load_circuits(run, args, vt)
    wm = None
    if args.weights:
        wm = _load_weights(run, args.weights, vt.n_vars, exact=True)
    run.stage('parse')
    r = ite_cov_identity_check(f, g, wm, determinism_limit=0)
    run.stage('query')
    return _finish(run, args, {'lhs': _frac(r['lhs']), 'rhs': _frac(r['rhs']),
                               'residual': _frac(r['residual']),
                               'over': 'all'},
                   {'exact': True})


def _frac(x):
    return x if isinstance(x, float) else Fraction(x)


def cmd_compile(args):
    from .circuit import sdd_text
    from .sddc import Cnf, compile_cnf
    run = _Run('compile')
    cnf = Cnf.from_dimacs(run.read('cnf', args.cnf))
    vt = _load_vtree(run, args.vtree)
    run.stage('parse')
    c = compile_cnf(cnf, vt, node_budget=args.budget)
    run.stage('compile')
    text = sdd_text(c)
    with open(args.out, 'w') as fh:
        fh.write(text)
    run.stage('write')
    return _finish(run, args, {'nodes': len(c.reachable()),
                               'edges': c.n_edges, 'out': args.out}, None)


def cmd_bn(args):
    from .bayes import BayesNet, Evidence, MarginalPipeline
    run = _Run('bn')
    bn = BayesNet.from_json(run.read('network', args.network))
    evidence = Evidence(bn)
    if args.evidence:
        evidence = Evidence.from_json(bn, run.read('evidence', args.evidence))
    run.stage('parse')
    method = 'zero_weights' if args.method == 'zero' else args.method
    pipe = MarginalPipeline(bn, args.encoding, node_budget=args.budget,
                            exact=args.exact)
    run.stage('compile')
    got = pipe.moments(evidence, method)
    run.stage('query')
    results = {'mean': got['mean'], 'variance': got['variance'],
               'over': 'all', 'encoding': args.encoding, 'method': method}
    if args.sweep:
        # in exact mode a float factor would turn every row into a float
        factor = Fraction(str(args.factor)) if args.exact else args.factor
        rows = pipe.sweep(evidence, factor=factor, method=method)
        run.stage('sweep')
        if args.csv:
            out = ['parameter,variance']
            out += ['%s,%s' % (json.dumps(r['parameter']),
                               _jnum(r['variance']))
                    for r in rows]
            sys.stdout.write('\n'.join(out) + '\n')
            _emit(run.timings, sys.stderr)
            return 0
        results['sweep'] = [{'parameter': r['parameter'],
                             'variance': r['variance']} for r in rows]
    return _finish(run, args, results, {'exact': bool(args.exact)})


# ---- parser -----------------------------------------------------------------

BUDGET_HELP = ('compilation node budget: unique-table nodes, intermediate '
               'results included (default 1e6)')


def _parser():
    p = argparse.ArgumentParser(
        prog='wmcvar',
        description='Moments of weighted model counts over st-d-DNNF '
                    'circuits, counting/entailment reductions, and '
                    'Bayesian-network marginal variance.')
    sub = p.add_subparsers(dest='cmd', required=True)

    def common(sp, circuits=1, weights=True):
        sp.add_argument('circuit', help='SDD-format circuit file')
        if circuits == 2:
            sp.add_argument('circuit2', help='second circuit file')
        sp.add_argument('--vtree', required=True, help='vtree file')
        if circuits == 2:
            sp.add_argument('--vtree2',
                            help='vtree file named by the second circuit; '
                                 'must match --vtree')
        if weights:
            sp.add_argument('--weights', required=True,
                            help='weight-moment JSON')
            sp.add_argument('--exact', action='store_true',
                            help='exact rational arithmetic')
        sp.add_argument('--validate-determinism', type=int, default=20,
                        metavar='N',
                        help='exhaustively check determinism up to N '
                             'variables (default 20)')
        sp.add_argument('--timings', action='store_true',
                        help='include timings in the stdout report '
                             '(breaks byte-identical output)')

    for name, circuits, help_ in (
            ('expect', 1, 'expected weighted model count'),
            ('variance', 1, 'variance of the WMC'),
            ('covariance', 2, 'covariance of two WMCs')):
        sp = sub.add_parser(name, help=help_)
        common(sp, circuits)
        sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser('count', help='model count via the variance '
                                      'reduction (exact)')
    common(sp, weights=False)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser('entails', help='sentential entailment via '
                                        'covariance (exact)')
    common(sp, circuits=2, weights=False)
    sp.set_defaults(func=cmd_entails)

    sp = sub.add_parser('ite-check', help='selector covariance identity '
                                          'residual')
    common(sp, circuits=2, weights=False)
    sp.add_argument('--weights', help='weight-moment JSON '
                                      '(default: counting weights)')
    sp.set_defaults(func=cmd_ite_check)

    sp = sub.add_parser('compile', help='compile DIMACS CNF to an '
                                        'SDD-format circuit')
    sp.add_argument('cnf', help='DIMACS CNF file')
    sp.add_argument('--vtree', required=True)
    sp.add_argument('--out', required=True, help='output circuit file')
    sp.add_argument('--budget', type=int, default=10 ** 6,
                    help=BUDGET_HELP)
    sp.add_argument('--timings', action='store_true')
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser('bn', help='Bayesian-network marginal moments')
    sp.add_argument('network', help='network JSON file')
    sp.add_argument('--evidence', help='evidence JSON file')
    sp.add_argument('--encoding', choices=('enc1', 'enc2'), default='enc2')
    sp.add_argument('--method', choices=('conjoin', 'zero', 'zero_weights'),
                    default='conjoin')
    sp.add_argument('--sweep', action='store_true',
                    help='rank parameters by variance after shrinking each')
    sp.add_argument('--factor', type=float, default=0.1,
                    help='variance shrink factor for --sweep (default 0.1)')
    sp.add_argument('--csv', action='store_true',
                    help='emit the sweep table as CSV instead of JSON')
    sp.add_argument('--exact', action='store_true')
    sp.add_argument('--budget', type=int, default=10 ** 6,
                    help=BUDGET_HELP)
    sp.add_argument('--timings', action='store_true')
    sp.set_defaults(func=cmd_bn)

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except WmcvarError as e:
        sys.stderr.write('error: %s\n' % e)
        return e.exit_code


if __name__ == '__main__':
    sys.exit(main())
