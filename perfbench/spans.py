"""Spans around the calls into each layer of wmcvar, kept in memory.

A span is (id, name, start, end, parent, phase, attrs).  The benchmark
opens spans around its own calls into the program, and in traced mode
`Tracer.install` also wraps the program's functions at the module and
class attributes through which the layers call each other (for example
`wmcvar.bayes.compile_cnf` and `MomentEngine.exp_table`), so inner calls
get spans without changing the program's files.  Everything is undone by
`Tracer.uninstall`.

A per-layer time is the mean over one phase's spans (the initial set-up
and each round are phases), and then, as for the end-to-end metrics, the
fastest phase.
"""

import contextlib
import functools
import statistics
import time

_NULL = contextlib.nullcontext({})


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self.enabled = False
        self._stack = []
        self._undo = []

    # ---- recording ---------------------------------------------------------

    def _open(self, name, attrs):
        rec = {'id': len(self.spans), 'name': name,
               'parent': self._stack[-1] if self._stack else None,
               'phase': self.phase, 'start': time.perf_counter(),
               'end': None, 'attrs': attrs}
        self.spans.append(rec)
        self._stack.append(rec['id'])
        return rec

    def _close(self, rec):
        rec['end'] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def _span(self, name, attrs):
        rec = self._open(name, attrs)
        try:
            yield rec['attrs']
        finally:
            self._close(rec)

    def span(self, name, **attrs):
        """Context manager yielding the span's attribute dict (a throwaway
        dict when tracing is off)."""
        if not self.enabled:
            return _NULL
        return self._span(name, attrs)

    # ---- wrapping the program's call boundaries -----------------------------

    def wrap(self, owner, attr, name, attrs=None):
        """Replace owner.attr by a wrapper that records a span per call.
        attrs(args, result) adds attributes once the span has ended."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            rec = self._open(name, {})
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec['attrs'].update(attrs(args, out))
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self, program):
        """Wrap the layer boundaries of the imported wmcvar modules."""
        circuit, sddc, moments = program.circuit, program.sddc, program.moments
        bayes, reductions, weights = (program.bayes, program.reductions,
                                      program.weights)
        self.wrap(circuit, 'parse_vtree', 'circuit.parse_vtree')
        self.wrap(circuit, 'parse_sdd', 'circuit.parse_sdd')
        self.wrap(circuit, 'sdd_text', 'circuit.sdd_text')
        for mod in (circuit, reductions):
            self.wrap(mod, 'validate', 'circuit.validate')
        for mod in (sddc, bayes):
            self.wrap(mod, 'normalize', 'circuit.normalize')
            self.wrap(mod, 'compile_cnf', 'sddc.compile',
                      lambda a, out: {'clauses': len(a[0].clauses),
                                      'out_nodes': len(out.reachable()),
                                      'out_edges': out.n_edges})
        self.wrap(circuit.Vtree, 'deepest_containing',
                  'circuit.deepest_containing')
        self.wrap(sddc.SddBuilder, 'to_circuit', 'sddc.to_circuit')
        self.wrap(weights.WeightModel, 'to_exact', 'weights.to_exact')
        engine = moments.MomentEngine
        self.wrap(engine, '__init__', 'moments.engine_init')
        self.wrap(engine, 'exp_table', 'moments.exp_table')
        self.wrap(engine, 'cov', 'moments.cov',
                  lambda a, out: {'edges': a[1].n_edges + a[2].n_edges})
        for mod in (moments, bayes, reductions):
            self.wrap(mod, 'locate_group_vnodes', 'moments.locate_groups')
        self.wrap(bayes, 'enc1', 'bayes.encode')
        self.wrap(bayes, 'enc2', 'bayes.encode')
        self.wrap(bayes, 'condition1_vtree', 'bayes.vtree')
        self.wrap(reductions, 'ite_circuit', 'reductions.ite_circuit')

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- figures ------------------------------------------------------------

    def dump(self):
        return [dict(s, dur=s['end'] - s['start']) for s in self.spans]


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans."""
    out = {s['id']: s['end'] - s['start'] for s in spans}
    for s in spans:
        if s['parent'] is not None:
            out[s['parent']] -= s['end'] - s['start']
    return out


def phase_min(samples, best=min):
    """samples: (phase, value) pairs -> the best (least, by default),
    over phases, of the mean of each phase's values; None when there are
    none."""
    by_phase = {}
    for phase, v in samples:
        by_phase.setdefault(phase, []).append(v)
    if not by_phase:
        return None
    return best(statistics.fmean(vs) for vs in by_phase.values())


def layer_metrics(spans):
    """Per-layer times (seconds per call) derived from the spans."""
    by_id = {s['id']: s for s in spans}

    def dur(s):
        return s['end'] - s['start']

    def named(name, parent=None):
        return [s for s in spans if s['name'] == name
                and (parent is None or s['parent'] is not None
                     and by_id[s['parent']]['name'] == parent)]

    def per_call(name, parent=None):
        return phase_min((s['phase'], dur(s)) for s in named(name, parent))

    out = {}
    for metric, name in (
            ('circuit.parse_vtree_s', 'circuit.parse_vtree'),
            ('circuit.parse_sdd_s', 'circuit.parse_sdd'),
            ('circuit.validate_s', 'circuit.validate'),
            ('circuit.normalize_s', 'circuit.normalize'),
            ('circuit.sdd_text_s', 'circuit.sdd_text'),
            ('sddc.compile_s', 'sddc.compile'),
            ('weights.to_exact_s', 'weights.to_exact'),
            ('moments.engine_init_s', 'moments.engine_init'),
            ('moments.locate_groups_s', 'moments.locate_groups'),
            ('moments.exp_table_s', 'moments.exp_table'),
            ('moments.cov_s', 'moments.cov'),
            ('bayes.encode_s', 'bayes.encode'),
            ('bayes.vtree_s', 'bayes.vtree'),
            ('bayes.pipeline_init_s', 'bayes.pipeline_init'),
            ('reductions.count_s', 'reductions.count'),
            ('reductions.ite_circuit_s', 'reductions.ite_circuit'),
            ('reductions.ite_check_s', 'reductions.ite_check')):
        out[metric] = per_call(name)
    out['bayes.compile_s'] = per_call('sddc.compile', 'bayes.pipeline_init')

    # clause placement: the deepest_containing calls made by one compile
    place = {}
    for s in named('circuit.deepest_containing', 'sddc.compile'):
        place[s['parent']] = place.get(s['parent'], 0.0) + dur(s)
    out['sddc.place_s'] = phase_min((by_id[p]['phase'], t)
                                    for p, t in place.items())

    # the pair pass: a covariance call's self time, i.e. without the
    # expectation tables of its operands (its only traced children)
    selfs = self_times(spans)
    covs = named('moments.cov')
    out['moments.pair_s'] = phase_min((s['phase'], selfs[s['id']])
                                      for s in covs)
    out['moments.edges_per_s'] = phase_min(
        ((s['phase'], s['attrs']['edges'] / selfs[s['id']]) for s in covs),
        best=max)

    queries = named('bayes.query')
    for metric, pick in (
            ('bayes.query_conjoin_first_s',
             lambda a: a['method'] == 'conjoin' and a['first']),
            ('bayes.query_conjoin_repeat_s',
             lambda a: a['method'] == 'conjoin' and not a['first']),
            ('bayes.query_zero_s', lambda a: a['method'] == 'zero_weights')):
        out[metric] = phase_min((s['phase'], dur(s)) for s in queries
                                if pick(s['attrs']))
    out['bayes.sweep_param_s'] = phase_min(
        (s['phase'], dur(s) / s['attrs']['params'])
        for s in named('bayes.sweep'))

    compiles = named('sddc.compile')
    for metric, key in (('sddc.clauses', 'clauses'),
                        ('sddc.out_nodes', 'out_nodes'),
                        ('sddc.out_edges', 'out_edges')):
        vals = [s['attrs'][key] for s in compiles]
        out[metric] = statistics.median(vals) if vals else None

    runs = named('cli.run')
    out['cli.startup_s'] = phase_min(
        (s['phase'], dur(s) - sum(s['attrs']['stages'].values()) / 1e3)
        for s in runs)
    for stage in ('parse', 'preprocess', 'query', 'compile'):
        out['cli.%s_ms' % stage] = phase_min(
            (s['phase'], s['attrs']['stages'][stage]) for s in runs
            if stage in s['attrs']['stages'])
    return out


def self_totals(spans):
    """Span name -> total self time, for the trace file."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        out[s['name']] = out.get(s['name'], 0.0) + selfs[s['id']]
    return dict(sorted(out.items()))
