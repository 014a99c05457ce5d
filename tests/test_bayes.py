import json
from fractions import Fraction

import pytest
from numpy.testing import assert_allclose

from conftest import seeded

from wmcvar.bayes import (BayesNet, Evidence, MarginalPipeline, brute_marginal,
                          demo_networks, enc1, enc2, marginal_moments,
                          sensitivity_sweep)
from wmcvar.circuit import Circuit, normalize
from wmcvar.errors import (EvidenceError, FormatError, ValidationError,
                           WeightError)
from wmcvar.moments import MomentEngine, locate_group_vnodes
from wmcvar.oracle import enumerate_models, oracle_var
from wmcvar.sddc import compile_cnf, condition1_vtree
from wmcvar.weights import Group, VarMoments, WeightModel


def conditioned_circuit(pipe, ev):
    return pipe._circuit_for(pipe._resolve(ev))


def forbid_true(c, banned_vars):
    """Referee for conditioning: a plain copy of c with the positive leaves
    of the banned variables replaced by FALSE, then normalized."""
    out = Circuit(c.vt)
    out.deterministic_by_construction = c.deterministic_by_construction
    m = {0: 0, 1: 1}
    for i in sorted(c.reachable()):
        k = c.kind[i]
        if k == 'L':
            if c.lit[i] > 0 and c.lit[i] in banned_vars:
                m[i] = 0
            else:
                m[i] = out.literal(c.lit[i])
        elif k == 'A':
            m[i] = out.conj(tuple(m[x] for x in c.children[i]))
        elif k == 'O':
            m[i] = out.disj(tuple(m[x] for x in c.children[i]))
    out.root = m[c.root]
    return normalize(out)


def scaled_wm(pipe, i, c, j, factor):
    """The pipeline's weights with one parameter's variance times factor
    and its covariances with group mates times the square root."""
    root = factor ** 0.5
    pid = pipe.theta_id(i, c, j)
    wm = pipe.wm
    vars_ = dict(wm.vars)
    m = vars_[pid]
    vars_[pid] = VarMoments(m.muP, m.muN, m.varP * factor,
                            m.varN * factor, m.covPN * factor)
    groups = []
    for g in wm.groups:
        if pid in g.members:
            at = g.members.index(pid)
            cov = tuple(tuple(
                x * factor if a == b == at
                else x * root if at in (a, b) else x
                for b, x in enumerate(row))
                for a, row in enumerate(g.cov))
            groups.append(Group(g.members, cov))
        else:
            groups.append(g)
    return WeightModel(vars_, groups, wm.default)


def resolve_sweep(pipe, ev, factor, method):
    """Referee for MarginalPipeline.sweep: one full re-solve per parameter,
    as label -> variance, with the baseline under "(none)"."""
    out = {'(none)': pipe.moments(ev, method)['variance']}
    for label, i, c, j in pipe.parameters():
        wm = scaled_wm(pipe, i, c, j, factor)
        out[label] = pipe.moments(ev, method, wm)['variance']
    return out


class TestBayesNet:
    def test_demo_networks_load(self):
        nets = demo_networks()
        assert set(nets) >= {'chain2', 'collider3', 'sprinkler4', 'alarm5',
                             'multival2'}
        alarm = nets['alarm5']
        got = alarm.parents[alarm.var_index('Alarm')]
        assert tuple(alarm.names[p] for p in got) \
            == ('Burglary', 'Earthquake')

    def test_cpt_columns_sum_to_one(self):
        for bn in demo_networks().values():
            for i in range(len(bn.names)):
                for c in range(bn.n_configs(i)):
                    s = sum(bn.cpts[i][j][c] for j in range(bn.k(i)))
                    assert_allclose(s, 1.0, rtol=1e-12)

    def test_bad_column_rejected(self):
        doc = {'variables': [{'name': 'A', 'values': ['t', 'f'],
                              'parents': [], 'cpt': [[0.4], [0.4]]}]}
        with pytest.raises(ValidationError):
            BayesNet.from_json(json.dumps(doc))

    def test_unknown_parent_rejected(self):
        doc = {'variables': [{'name': 'A', 'values': ['t', 'f'],
                              'parents': ['Z'], 'cpt': [[0.4], [0.6]]}]}
        with pytest.raises(FormatError):
            BayesNet.from_json(json.dumps(doc))


class TestEvidence:
    def test_lookup(self):
        bn = demo_networks()['chain2']
        ev = Evidence(bn, {'B': 't'})
        assert ev.fixed == {bn.var_index('B'): 0}

    def test_unknown_variable(self):
        bn = demo_networks()['chain2']
        with pytest.raises(EvidenceError):
            Evidence(bn, {'Q': 't'})

    def test_unknown_value(self):
        bn = demo_networks()['chain2']
        with pytest.raises(EvidenceError):
            Evidence(bn, {'B': 'perhaps'})


class TestEncodings:
    def test_enc2_model_count(self):
        # models = joint assignments, lifted once per parameter prop whose
        # parent configuration is not the realized one
        bn = demo_networks()['chain2']
        cnf, wm, layout = enc2(bn)
        c = compile_cnf(cnf, condition1_vtree(layout.var_blocks))
        # chain2: 4 joints; B leaves one of its two configs free each time
        assert len(enumerate_models(c)) == 4 * 2
        assert cnf.n_vars == 7

    def test_enc1_models_are_joints(self):
        bn = demo_networks()['multival2']
        cnf, wm, layout = enc1(bn)
        c = compile_cnf(cnf, condition1_vtree(layout.var_blocks))
        # parameters are fully determined by the indicators
        assert len(enumerate_models(c)) == 3 * 2

    def test_enc1_group_per_config(self):
        bn = demo_networks()['multival2']
        cnf, wm, layout = enc1(bn)
        # one correlated block for A, one per parent value of B
        assert len(wm.groups) == 1 + 3

    def test_parameter_names(self):
        bn = demo_networks()['chain2']
        pipe = MarginalPipeline(bn, 'enc2')
        labels = sorted(p[0] for p in pipe.parameters())
        assert labels == ['Pr(A=t)', 'Pr(B=t|A=f)', 'Pr(B=t|A=t)']


class TestMarginals:
    def test_means_match_brute_force(self):
        for name, bn in demo_networks().items():
            pipe = MarginalPipeline(bn, 'enc1' if name == 'multival2'
                                    else 'enc2')
            last = len(bn.names) - 1
            ev = Evidence(bn, {bn.names[last]: bn.values[last][0]})
            want = brute_marginal(bn, ev)
            for method in ('conjoin', 'zero_weights'):
                got = pipe.moments(ev, method)
                assert_allclose(got['mean'], want, rtol=1e-10,
                                err_msg='%s/%s' % (name, method))

    def test_methods_agree(self):
        for name, bn in demo_networks().items():
            enc = 'enc1' if name == 'multival2' else 'enc2'
            pipe = MarginalPipeline(bn, enc)
            ev = Evidence(bn, {bn.names[0]: bn.values[0][-1]})
            a = pipe.moments(ev, 'conjoin')
            b = pipe.moments(ev, 'zero_weights')
            assert_allclose(a['mean'], b['mean'], rtol=1e-12)
            assert_allclose(a['variance'], b['variance'], rtol=1e-12,
                            atol=1e-18)

    def test_encodings_agree_on_binary(self):
        for name in ('chain2', 'collider3', 'sprinkler4', 'alarm5'):
            bn = demo_networks()[name]
            last = len(bn.names) - 1
            ev = Evidence(bn, {bn.names[last]: bn.values[last][0]})
            a = marginal_moments(bn, ev, encoding='enc1')
            b = marginal_moments(bn, ev, encoding='enc2')
            assert_allclose(a['mean'], b['mean'], rtol=1e-9)
            assert_allclose(a['variance'], b['variance'], rtol=1e-9,
                            atol=1e-15)

    def test_empty_evidence_normalized(self):
        for name, bn in demo_networks().items():
            enc = 'enc1' if name == 'multival2' else 'enc2'
            got = MarginalPipeline(bn, enc).moments()
            assert_allclose(got['mean'], 1.0, atol=1e-12)
            assert abs(got['variance']) <= 1e-12

    def test_variance_against_oracle_small(self):
        # small prop counts allow the enumeration oracle as a referee
        for name, enc in (('chain2', 'enc2'), ('collider3', 'enc2'),
                          ('multival2', 'enc1')):
            bn = demo_networks()[name]
            pipe = MarginalPipeline(bn, enc)
            last = len(bn.names) - 1
            ev = Evidence(bn, {bn.names[last]: bn.values[last][0]})
            got = pipe.moments(ev, 'conjoin')
            c = conditioned_circuit(pipe, ev)
            assert_allclose(got['variance'], oracle_var(c, pipe.wm),
                            rtol=1e-9, err_msg=name)

    def test_conditioning_matches_referee(self):
        # exact moments of the conditioned circuit agree with those of the
        # referee copy on every single-variable evidence
        for name, bn in demo_networks().items():
            encs = ('enc1',) if name == 'multival2' else ('enc1', 'enc2')
            for enc in encs:
                pipe = MarginalPipeline(bn, enc, exact=True)
                gv = locate_group_vnodes(pipe.vt, pipe.wm) \
                    if pipe.wm.groups else None
                eng = MomentEngine(pipe.vt, pipe.wm, gv)
                for i, nm in enumerate(bn.names):
                    for val in bn.values[i]:
                        excluded = pipe._resolve({nm: val})
                        got = pipe._circuit_for(excluded)
                        want = forbid_true(pipe.circuit, set(excluded))
                        assert eng.exp(got) == eng.exp(want)
                        assert eng.var(got) == eng.var(want)

    def test_multi_variable_evidence(self):
        bn = demo_networks()['collider3']
        ev = Evidence(bn, {'A': 't', 'C': 'f'})
        pipe = MarginalPipeline(bn, 'enc2')
        got = pipe.moments(ev)
        assert_allclose(got['mean'], brute_marginal(bn, ev), rtol=1e-10)
        c = conditioned_circuit(pipe, ev)
        assert_allclose(got['variance'], oracle_var(c, pipe.wm), rtol=1e-9)

    def test_exact_mode(self):
        bn = demo_networks()['chain2']
        got = marginal_moments(bn, Evidence(bn, {'B': 't'}), exact=True)
        assert isinstance(got['mean'], Fraction)
        assert_allclose(float(got['mean']), 0.52, rtol=1e-12)

    def test_degenerate_row_retains_agreement(self):
        # Pr(Wet=yes | off, no) = 0 exactly; that parameter must carry no
        # spread and both methods must keep agreeing around it
        bn = demo_networks()['sprinkler4']
        ev = Evidence(bn, {'Wet': 'yes'})
        pipe = MarginalPipeline(bn, 'enc2')
        got = pipe.moments(ev)
        assert_allclose(got['mean'], brute_marginal(bn, ev), rtol=1e-10)
        other = pipe.moments(ev, 'zero_weights')
        assert_allclose(got['variance'], other['variance'], rtol=1e-12)


def explicit_chain2(params=None, groups=None, cpt_b=None):
    """The README's two-node network under explicit uncertainty."""
    return {'variables': [
        {'name': 'A', 'values': ['t', 'f'], 'parents': [],
         'cpt': [[0.3], [0.7]]},
        {'name': 'B', 'values': ['t', 'f'], 'parents': ['A'],
         'cpt': cpt_b or [[0.8, 0.4], [0.2, 0.6]]}],
        'uncertainty': {'params': params or {}, 'groups': groups or {}}}


class TestExplicitUncertainty:
    # Pr(B=t) = a b + (1 - a) 0.4 = 0.4 + a (b - 0.4) with a = Pr(A=t),
    # b = Pr(B=t | A=t) independent, E a = 0.3, Var a = 0.01, E b = 0.8,
    # Var b = 0.02: mean 0.52 and variance E[a^2] E[(b - 0.4)^2] - 0.12^2
    # = 0.10 * 0.18 - 0.0144 = 0.0036
    PARAMS = {'A': {'var': 0.01}, 'B|t': {'var': 0.02}}

    def test_params_by_hand(self):
        bn = BayesNet.from_json(json.dumps(explicit_chain2(self.PARAMS)))
        got = MarginalPipeline(bn, 'enc2').moments({'B': 't'})
        assert got['mean'] == pytest.approx(0.52, abs=1e-12)
        assert got['variance'] == pytest.approx(0.0036, abs=1e-12)

    def test_enc1_uses_group_matrix(self):
        groups = {'A': [[0.01, -0.01], [-0.01, 0.01]],
                  'B|t': [[0.02, -0.02], [-0.02, 0.02]]}
        bn = BayesNet.from_json(json.dumps(explicit_chain2(groups=groups)))
        pipe = MarginalPipeline(bn, 'enc1')
        assert sorted(g.cov for g in pipe.wm.groups) \
            == sorted(tuple(map(tuple, m)) for m in groups.values())
        got = pipe.moments({'B': 't'})
        assert got['mean'] == pytest.approx(0.52, abs=1e-12)
        assert got['variance'] == pytest.approx(0.0036, abs=1e-12)

    def test_degenerate_entry_with_variance(self):
        doc = explicit_chain2({'B|t': {'var': 0.01}},
                              cpt_b=[[1.0, 0.4], [0.0, 0.6]])
        with pytest.raises(WeightError, match='degenerate'):
            BayesNet.from_json(json.dumps(doc))

    def test_enc2_reads_group_matrix(self):
        # the README network: B|f has only a matrix, whose [0][0] entry is
        # the variance of enc2's parameter for that column
        groups = {'B|f': [[0.03, -0.03], [-0.03, 0.03]]}
        bn = BayesNet.from_json(json.dumps(explicit_chain2(self.PARAMS,
                                                           groups)))
        got = {enc: MarginalPipeline(bn, enc).moments({'B': 't'})
               for enc in ('enc1', 'enc2')}
        assert got['enc1']['variance'] == pytest.approx(0.0186, abs=1e-12)
        for key in ('mean', 'variance'):
            assert got['enc2'][key] == pytest.approx(got['enc1'][key],
                                                     abs=1e-12)

    def test_params_and_group_must_agree(self):
        groups = {'B|f': [[0.03, -0.03], [-0.03, 0.03]]}
        agree = dict(self.PARAMS, **{'B|f': {'var': 0.03}})
        bn = BayesNet.from_json(json.dumps(explicit_chain2(agree, groups)))
        assert bn.param_variance(1, 1) == 0.03
        clash = dict(self.PARAMS, **{'B|f': {'var': 0.01}})
        bn = BayesNet.from_json(json.dumps(explicit_chain2(clash, groups)))
        with pytest.raises(WeightError, match=r"'B\|f'"):
            MarginalPipeline(bn, 'enc2')

    def test_json_round_trip(self):
        groups = {'B|f': [[0.03, -0.03], [-0.03, 0.03]]}
        doc = explicit_chain2(self.PARAMS, groups)
        bn = BayesNet.from_json(json.dumps(doc))
        assert bn.to_json() == doc
        again = BayesNet.from_json(json.dumps(bn.to_json()))
        for encoding in ('enc1', 'enc2'):
            assert MarginalPipeline(again, encoding).moments({'B': 't'}) \
                == MarginalPipeline(bn, encoding).moments({'B': 't'})
        # exact CPTs: no uncertainty is read or written
        del doc['uncertainty']
        bn = BayesNet.from_json(json.dumps(doc))
        assert bn.uncertainty == ('theta', float('inf'))
        assert bn.to_json() == doc


class TestSweep:
    def test_rows_sorted_and_complete(self):
        bn = demo_networks()['chain2']
        ev = Evidence(bn, {'B': 't'})
        rows = sensitivity_sweep(bn, ev, factor=0.1)
        assert rows[-1]['parameter'] == '(none)'
        vs = [r['variance'] for r in rows]
        assert vs == sorted(vs)
        assert len(rows) == 3 + 1

    def test_factor_one_is_baseline(self):
        bn = demo_networks()['chain2']
        ev = Evidence(bn, {'B': 't'})
        base = marginal_moments(bn, ev, method='zero_weights')['variance']
        for r in sensitivity_sweep(bn, ev, factor=1.0):
            assert_allclose(r['variance'], base, rtol=1e-12)

    @pytest.mark.parametrize('method', ['conjoin', 'zero_weights'])
    @pytest.mark.parametrize('name,encoding,ev', [
        ('chain2', 'enc2', {'B': 't'}),
        ('collider3', 'enc2', {'C': 't'}),
        ('alarm5', 'enc2', {'JohnCalls': 't'}),
        ('alarm5', 'enc1', {'JohnCalls': 't'}),
        ('sprinkler4', 'enc1', {'Wet': 'yes'}),
        ('multival2', 'enc1', {'B': 'yes'}),
    ])
    def test_matches_resolve_referee(self, name, encoding, ev, method):
        bn = demo_networks()[name]
        pipe = MarginalPipeline(bn, encoding)
        want = resolve_sweep(pipe, ev, 0.1, method)
        got = {r['parameter']: r['variance']
               for r in pipe.sweep(ev, 0.1, method)}
        assert got.keys() == want.keys()
        assert got['(none)'] == pipe.moments(ev, method)['variance']
        for label, v in want.items():
            assert_allclose(got[label], v, rtol=1e-12, atol=0)

    @pytest.mark.parametrize('method', ['conjoin', 'zero_weights'])
    def test_exact_matches_resolve_referee(self, method):
        bn = demo_networks()['alarm5']
        ev = {'JohnCalls': 't'}
        pipe = MarginalPipeline(bn, 'enc2', exact=True)
        factor = Fraction(1, 10)
        want = resolve_sweep(pipe, ev, factor, method)
        rows = pipe.sweep(ev, factor, method)
        assert all(isinstance(r['variance'], Fraction) for r in rows)
        assert {r['parameter']: r['variance'] for r in rows} == want

    def test_exact_group_rows_stay_rational(self):
        # the square root of 1/4 is rational, so grouped rows stay exact;
        # the referee's float square root makes it close, not equal
        bn = demo_networks()['multival2']
        ev = {'B': 'yes'}
        pipe = MarginalPipeline(bn, 'enc1', exact=True)
        want = resolve_sweep(pipe, ev, Fraction(1, 4), 'zero_weights')
        rows = pipe.sweep(ev, Fraction(1, 4))
        assert all(isinstance(r['variance'], Fraction) for r in rows)
        for r in rows:
            assert_allclose(float(r['variance']),
                            float(want[r['parameter']]), rtol=1e-12)

    def test_shrinking_reduces_variance(self):
        bn = demo_networks()['alarm5']
        ev = Evidence(bn, {'JohnCalls': 't'})
        base = marginal_moments(bn, ev, method='zero_weights')['variance']
        rows = sensitivity_sweep(bn, ev, factor=0.1)
        assert all(r['variance'] <= base * (1 + 1e-9) for r in rows)
        # at least one parameter matters
        assert rows[0]['variance'] < base * 0.999

    @pytest.mark.parametrize('method', ['conjoin', 'zero_weights'])
    def test_one_expectation_table_per_query(self, monkeypatch, method):
        # a query's mean needs its one table; the sweep needs none, also
        # where the model has correlated groups (enc1's multi-valued
        # parameters), whose guard is in the pair plan
        seen = []
        table = MomentEngine.exp_table

        def counted(self, c):
            seen.append(c)
            return table(self, c)

        monkeypatch.setattr(MomentEngine, 'exp_table', counted)
        bn = demo_networks()['alarm5']
        ev = {'JohnCalls': 't'}
        for encoding in ('enc1', 'enc2'):
            pipe = MarginalPipeline(bn, encoding)
            c = pipe._query(ev, method)[0]
            for query, want in ((pipe.moments, [c]), (pipe.sweep, [])):
                seen.clear()
                query(ev, method=method)
                assert seen == want

    def test_bad_factor(self):
        bn = demo_networks()['chain2']
        with pytest.raises(ValidationError):
            sensitivity_sweep(bn, factor=0.0)


def count_engines(monkeypatch):
    """The weight model of every MomentEngine built from now on."""
    built = []
    init = MomentEngine.__init__

    def counted(self, vt, wm, group_vnodes=None):
        built.append(wm)
        init(self, vt, wm, group_vnodes)

    monkeypatch.setattr(MomentEngine, '__init__', counted)
    return built


def binary(bn):
    return all(bn.k(i) == 2 for i in range(len(bn.names)))


class TestKeptEngines:
    """A pipeline keeps one engine for its own model and one per evidence
    set's zero model; every answer is the one a fresh pipeline gives."""

    @pytest.mark.parametrize('encoding', ['enc1', 'enc2'])
    def test_one_engine_per_model(self, monkeypatch, encoding):
        built = count_engines(monkeypatch)
        pipe = MarginalPipeline(demo_networks()['alarm5'], encoding)
        evs = [{'JohnCalls': 't'}, {'Burglary': 'f', 'MaryCalls': 't'}]
        for ev in evs:
            for method in ('conjoin', 'zero_weights'):
                for _ in range(2):
                    pipe.moments(ev, method)
            pipe.sweep(ev)
        excluded = {pipe._resolve(ev) for ev in evs} - {()}
        assert len(built) == 1 + len(excluded) == 3
        assert built[0] is pipe.wm
        for ev in evs:
            for method in ('conjoin', 'zero_weights'):
                pipe.moments(ev, method)
                pipe.sweep(ev, method=method)
        pipe.moments()
        assert len(built) == 3

    def test_callers_model_is_not_kept(self, monkeypatch):
        built = count_engines(monkeypatch)
        pipe = MarginalPipeline(demo_networks()['alarm5'], 'enc2')
        wm = scaled_wm(pipe, 0, 0, 0, 0.5)
        ev = {'JohnCalls': 't'}
        for method in ('conjoin', 'zero_weights'):
            for _ in range(2):
                del built[:]
                got = pipe.moments(ev, method, wm)
                assert len(built) == 1
                fresh = MarginalPipeline(demo_networks()['alarm5'], 'enc2')
                assert repr(got) == repr(fresh.moments(ev, method, wm))
        assert pipe._engines == {}
        assert all(zero is None for _, zero in pipe._conditioned.values())

    @pytest.mark.parametrize('exact', [False, True])
    def test_answers_do_not_depend_on_order(self, exact):
        # one pipeline answers every query and sweep, each twice, in a
        # shuffled order; a fresh pipeline answers each alone
        rng = seeded('kept-order-%s' % exact)
        factor = Fraction(1, 4) if exact else 0.1
        seen = 0
        for name, bn in demo_networks().items():
            first, last = 0, len(bn.names) - 1
            evs = [None, {bn.names[first]: bn.values[first][-1]},
                   {bn.names[last]: bn.values[last][0]},
                   {bn.names[first]: bn.values[first][0],
                    bn.names[last]: bn.values[last][-1]}]
            for encoding in ('enc1', 'enc2') if binary(bn) else ('enc1',):
                asks = [(kind, e, method) for kind in ('moments', 'sweep')
                        for e in range(len(evs))
                        for method in ('conjoin', 'zero_weights')] * 2
                rng.shuffle(asks)
                pipe = MarginalPipeline(bn, encoding, exact=exact)
                alone = {}
                for kind, e, method in asks:
                    key = kind, e, method
                    if key not in alone:
                        fresh = MarginalPipeline(bn, encoding, exact=exact)
                        alone[key] = repr(self.ask(fresh, key, evs, factor))
                    got = self.ask(pipe, key, evs, factor)
                    assert repr(got) == alone[key], (name, encoding, key)
                seen += 1
        assert seen == 9

    @staticmethod
    def ask(pipe, key, evs, factor):
        kind, e, method = key
        if kind == 'moments':
            return pipe.moments(evs[e], method)
        return pipe.sweep(evs[e], factor, method)
