import argparse
import json
from fractions import Fraction

import pytest
from numpy.testing import assert_allclose

from conftest import complementary_weights, example_circuit
from wmcvar.bayes import BayesNet, Evidence, MarginalPipeline
from wmcvar.circuit import Circuit, Vtree, sdd_text
from wmcvar import cli
from wmcvar.cli import main
from wmcvar.moments import var_wmc
from wmcvar.oracle import enumerate_models
from wmcvar.sddc import Cnf, SddBuilder, compile_cnf
from wmcvar.weights import Group, VarMoments, WeightModel


@pytest.fixture(scope='module')
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp('cli')
    c = example_circuit()
    (d / 'ex.vtree').write_text(c.vt.to_text())
    (d / 'ex.sdd').write_text(sdd_text(c))

    b = SddBuilder(c.vt)
    cube = b.true
    for n in (b.literal(1), b.literal(2), b.neg(b.literal(3)), b.literal(4)):
        cube = b.apply(cube, n, 'and')
    (d / 'x.sdd').write_text(sdd_text(b.to_circuit(cube)))

    wm = complementary_weights(4, 0.5, 0.01)
    (d / 'w.json').write_text(json.dumps(wm.to_json()))
    (d / 'w_missing.json').write_text(json.dumps(
        {'variables': {'1': wm.to_json()['variables']['1']}, 'groups': []}))

    (d / 'f.cnf').write_text('p cnf 4 3\n2 0\n-3 4 0\n1 3 0\n')

    import importlib.resources as res
    net = res.files('wmcvar.data').joinpath('chain2.json').read_text()
    (d / 'net.json').write_text(net)
    (d / 'ev.json').write_text('{"B": "t"}')
    (d / 'ev_bad.json').write_text('{"B": "maybe"}')
    (d / 'other.vtree').write_text(
        'vtree 7\nL 0 1\nL 1 3\nI 2 0 1\nL 3 2\nL 4 4\nI 5 3 4\nI 6 2 5\n')
    return d


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_expect(self, files, capsys):
        code, out, err = run(capsys, 'expect', files / 'ex.sdd',
                             '--vtree', files / 'ex.vtree',
                             '--weights', files / 'w.json')
        assert code == 0
        doc = json.loads(out)
        assert_allclose(doc['results']['expect'], 0.1875, rtol=1e-12)
        assert doc['command'] == 'expect'
        assert set(doc['inputs']) == {'vtree', 'circuit', 'weights'}
        json.loads(err)  # timings always go to stderr as one JSON line

    def test_byte_identical_reruns(self, files, capsys):
        args = ('variance', files / 'ex.sdd', '--vtree', files / 'ex.vtree',
                '--weights', files / 'w.json')
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_exact_variance_fraction(self, files, capsys):
        code, out, _ = run(capsys, 'variance', files / 'ex.sdd',
                           '--vtree', files / 'ex.vtree',
                           '--weights', files / 'w.json', '--exact')
        doc = json.loads(out)
        assert doc['results']['variance'] == '196551/100000000'

    def test_rational_string_weights(self, files, capsys, tmp_path):
        # "1/3" is exact under --exact and its nearest float otherwise
        m = {'muP': '1/3', 'muN': '2/3', 'varP': '1/90', 'varN': '1/90',
             'covPN': '-1/90'}
        w = tmp_path / 'w_rat.json'
        w.write_text(json.dumps({'variables': {str(v): m
                                               for v in range(1, 5)}}))
        third = VarMoments(Fraction(1, 3), Fraction(2, 3), Fraction(1, 90),
                           Fraction(1, 90), Fraction(-1, 90))
        want = var_wmc(example_circuit(),
                       WeightModel({v: third for v in range(1, 5)}))
        args = ('variance', files / 'ex.sdd', '--vtree', files / 'ex.vtree',
                '--weights', w)
        code, out, _ = run(capsys, *args, '--exact')
        assert code == 0
        assert json.loads(out)['results']['variance'] == str(want)
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert_allclose(json.loads(out)['results']['variance'], float(want),
                        rtol=1e-12)

    def test_exact_zero_is_rational(self, files, capsys, tmp_path):
        # an unsatisfiable circuit's moments are Fraction zeros, printed
        # as rationals like every other exact result
        f = tmp_path / 'false.sdd'
        f.write_text('sdd 1\nF 0\n')
        for cmd in ('expect', 'variance'):
            code, out, _ = run(capsys, cmd, f, '--vtree', files / 'ex.vtree',
                               '--weights', files / 'w.json', '--exact')
            assert code == 0
            assert ('"%s":"0"' % cmd) in out

    def test_covariance(self, files, capsys):
        code, out, _ = run(capsys, 'covariance', files / 'ex.sdd',
                           files / 'x.sdd', '--vtree', files / 'ex.vtree',
                           '--weights', files / 'w.json')
        assert code == 0
        assert 'covariance' in json.loads(out)['results']

    def test_count(self, files, capsys):
        code, out, _ = run(capsys, 'count', files / 'ex.sdd',
                           '--vtree', files / 'ex.vtree')
        doc = json.loads(out)
        assert doc['results']['count'] == 3
        assert doc['results']['variance'] == '759'   # 3 * (4^4 - 3)
        assert doc['results']['ratio'] == '253/85'

    def test_count_above_determinism_limit(self, capsys, tmp_path):
        # x_v | -x_{v+1} over 30 variables: the 31 monotone assignments
        vt = Vtree.right_linear(30)
        c = compile_cnf(Cnf(30, [(v, -(v + 1)) for v in range(1, 30)]), vt)
        (tmp_path / 'chain.vtree').write_text(vt.to_text())
        (tmp_path / 'chain.sdd').write_text(sdd_text(c))
        code, out, err = run(capsys, 'count', tmp_path / 'chain.sdd',
                             '--vtree', tmp_path / 'chain.vtree')
        assert code == 0, err
        assert json.loads(out)['results']['count'] == 31

    def test_entails_both_ways(self, files, capsys):
        _, out, _ = run(capsys, 'entails', files / 'x.sdd', files / 'ex.sdd',
                        '--vtree', files / 'ex.vtree')
        assert json.loads(out)['results']['entails'] is True
        _, out, _ = run(capsys, 'entails', files / 'ex.sdd', files / 'x.sdd',
                        '--vtree', files / 'ex.vtree')
        assert json.loads(out)['results']['entails'] is False

    def test_ite_check_residual_zero(self, files, capsys):
        _, out, _ = run(capsys, 'ite-check', files / 'ex.sdd',
                        files / 'x.sdd', '--vtree', files / 'ex.vtree')
        doc = json.loads(out)
        assert doc['results']['residual'] == '0'
        assert doc['results']['lhs'] == doc['results']['rhs']

    def test_timings_flag_adds_key(self, files, capsys):
        _, out, _ = run(capsys, 'expect', files / 'ex.sdd',
                        '--vtree', files / 'ex.vtree',
                        '--weights', files / 'w.json', '--timings')
        assert 'timings_ms' in json.loads(out)


class TestCompile:
    def test_round_trip(self, files, capsys, tmp_path):
        out_sdd = tmp_path / 'out.sdd'
        code, out, _ = run(capsys, 'compile', files / 'f.cnf',
                           '--vtree', files / 'ex.vtree', '--out', out_sdd)
        assert code == 0
        assert json.loads(out)['results']['nodes'] > 0
        code, out, _ = run(capsys, 'expect', out_sdd,
                           '--vtree', files / 'ex.vtree',
                           '--weights', files / 'w.json')
        # (2) & (-3|4) & (1|3) has 4 of 16 models at weight 1/16
        assert_allclose(json.loads(out)['results']['expect'], 0.25,
                        rtol=1e-12)


class TestBn:
    def test_marginal(self, files, capsys):
        code, out, _ = run(capsys, 'bn', files / 'net.json',
                           '--evidence', files / 'ev.json')
        doc = json.loads(out)
        assert_allclose(doc['results']['mean'], 0.52, rtol=1e-12)
        assert doc['results']['method'] == 'conjoin'

    def test_zero_weights_alias(self, files, capsys):
        _, out, _ = run(capsys, 'bn', files / 'net.json',
                        '--evidence', files / 'ev.json', '--method', 'zero')
        assert json.loads(out)['results']['method'] == 'zero_weights'

    def test_sweep_json(self, files, capsys):
        _, out, _ = run(capsys, 'bn', files / 'net.json',
                        '--evidence', files / 'ev.json', '--sweep')
        rows = json.loads(out)['results']['sweep']
        assert rows[-1]['parameter'] == '(none)'
        assert len(rows) == 4

    def test_sweep_csv(self, files, capsys):
        _, out, _ = run(capsys, 'bn', files / 'net.json',
                        '--evidence', files / 'ev.json', '--sweep', '--csv')
        lines = out.strip().splitlines()
        assert lines[0] == 'parameter,variance'
        assert len(lines) == 5

    def test_exact_sweep_csv_is_rational(self, files, capsys):
        code, out, _ = run(capsys, 'bn', files / 'net.json',
                           '--evidence', files / 'ev.json', '--exact',
                           '--sweep', '--csv', '--factor', '0.1')
        assert code == 0
        bn = BayesNet.from_json((files / 'net.json').read_text())
        ev = Evidence.from_json(bn, (files / 'ev.json').read_text())
        want = MarginalPipeline(bn, 'enc2', exact=True).sweep(
            ev, factor=Fraction(1, 10), method='conjoin')
        lines = out.strip().splitlines()
        assert len(lines) == len(want) + 1
        for line, row in zip(lines[1:], want):
            label, var = line.rsplit(',', 1)
            assert json.loads(label) == row['parameter']
            # a quoted rational, never a float
            assert isinstance(json.loads(var), str)
            assert Fraction(json.loads(var)) == row['variance']
            assert isinstance(row['variance'], Fraction)

    def test_jobs_is_gone(self, files, capsys):
        with pytest.raises(SystemExit) as e:
            run(capsys, 'bn', files / 'net.json', '--sweep', '--jobs', '2')
        assert e.value.code == 2


@pytest.mark.parametrize('command', ['count', 'entails', 'ite-check'])
def test_exact_is_gone_from_always_exact_commands(files, capsys, command):
    # these commands compute in rationals whatever the flags say
    second = () if command == 'count' else (files / 'x.sdd',)
    with pytest.raises(SystemExit) as e:
        run(capsys, command, files / 'ex.sdd', *second,
            '--vtree', files / 'ex.vtree', '--exact')
    assert e.value.code == 2


class TestValidation:
    def test_count_checks_determinism_once(self, capsys, tmp_path,
                                           monkeypatch):
        # the loader's exhaustive check is the only pass over the
        # 2^12 assignments; the count reuses its verdict
        n = 12
        vt = Vtree.right_linear(n)
        c = compile_cnf(Cnf(n, [(v, v + 1) for v in range(1, n)]), vt)
        (tmp_path / 'c.vtree').write_text(vt.to_text())
        (tmp_path / 'c.sdd').write_text(sdd_text(c))
        m = len(enumerate_models(c))
        passes = []
        blocks = Circuit.truth_blocks

        def counted(self, *args, **kw):
            passes.append(1)
            return blocks(self, *args, **kw)

        monkeypatch.setattr(Circuit, 'truth_blocks', counted)
        code, out, _ = run(capsys, 'count', tmp_path / 'c.sdd',
                           '--vtree', tmp_path / 'c.vtree')
        assert code == 0
        assert json.loads(out)['results']['count'] == m
        assert len(passes) == 1

    @pytest.mark.parametrize('command, results', [
        ('variance', {'variance': 0.00196551, 'over': 'all'}),
        ('covariance', {'covariance': 0.0009630100000000001, 'over': 'all'}),
        ('count', {'count': 3, 'variance': '759', 'ratio': '253/85',
                   'over': 'all'})], ids=['variance', 'covariance', 'count'])
    def test_each_circuit_walked_once(self, files, capsys, monkeypatch,
                                      command, results):
        # the loader's validate walks each circuit's structure and keeps
        # its verdict; the engine, and count's own validate, read it
        walks = []
        reachable = Circuit.reachable
        monkeypatch.setattr(Circuit, 'reachable',
                            lambda c: walks.append(c) or reachable(c))
        sdds = [files / 'ex.sdd'] + (
            [files / 'x.sdd'] if command == 'covariance' else [])
        weights = [] if command == 'count' else ['--weights', files / 'w.json']
        code, out, _ = run(capsys, command, *sdds, '--vtree',
                           files / 'ex.vtree', *weights)
        assert code == 0
        assert json.loads(out)['results'] == results
        assert len(walks) == len({id(c) for c in walks}) == len(sdds)


NET = {'variables': [
    {'name': 'A', 'values': ['t', 'f'], 'parents': [], 'cpt': [[0.3], [0.7]]},
    {'name': 'B', 'values': ['t', 'f'], 'parents': ['A'],
     'cpt': [[0.8, 0.4], [0.2, 0.6]]}]}


def net(top=(), **first):
    """NET with top-level keys and the first variable's fields replaced."""
    doc = json.loads(json.dumps(NET))
    doc['variables'][0].update(first)
    doc.update(top)
    return doc


class TestExitCodes:
    @pytest.mark.parametrize('kind, doc, code', [
        ('cnf', 'p cnf x 1\n1 0\n', 2),
        ('weights', {'variables': [1, 2]}, 2),
        ('network', net(cpt='ab'), 2),
        ('network', net(cpt=[['x'], [0.5]]), 2),
        ('network', net({'variables': 5}), 2),
        ('network', net({'variables': [5]}), 2),
        ('network', net({'uncertainty': {'theta': 'abc'}}), 2),
        ('network', net({'uncertainty': {'params': {'A': 5}}}), 2),
        ('network', net({'uncertainty': {'params': {'A': {'var': 'x'}}}}), 2),
        ('network', net({'uncertainty': {'groups': {'A': 5}}}), 2),
        ('network', net(values=['t', 't']), 3),
        # non-finite numbers, which Python's json reads
        ('weights', {'variables': {'1': {'varP': float('nan')}}}, 2),
        ('network', net({'uncertainty': {'theta': float('nan')}}), 2),
        ('network', net({'uncertainty': {'theta': 10 ** 400}}), 2),
        ('network', net(cpt=[[float('inf')], [0.5]]), 2),
        ('network', net({'uncertainty': {'params': {
            'A': {'var': float('nan')}}}}), 2),
        ('network', net({'uncertainty': {'groups': {
            'A': [[float('-inf')]]}}}), 2),
    ], ids=['dimacs-header', 'weight-variables-list', 'cpt-text',
            'cpt-entry-text', 'variables-int', 'variable-entry-int',
            'theta-text', 'params-entry-int', 'params-var-text',
            'groups-entry-int', 'duplicate-values', 'weight-nan',
            'theta-nan', 'theta-past-float-range', 'cpt-entry-inf',
            'params-var-nan', 'groups-entry-inf'])
    def test_malformed_input_exit_code(self, files, capsys, tmp_path, kind,
                                       doc, code):
        # a typed error and its exit code, never a traceback
        path = tmp_path / 'input'
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = {'cnf': ['compile', path, '--vtree', files / 'ex.vtree',
                        '--out', tmp_path / 'out.sdd'],
                'weights': ['expect', files / 'ex.sdd', '--vtree',
                            files / 'ex.vtree', '--weights', path],
                'network': ['bn', path]}[kind]
        got, out, err = run(capsys, *argv)
        assert got == code and out == ''
        assert err.startswith('error:') and 'Traceback' not in err

    def test_malformed_input_is_2(self, files, capsys, tmp_path):
        bad = tmp_path / 'bad.sdd'
        bad.write_text('garbage\n')
        code, _, err = run(capsys, 'expect', bad,
                           '--vtree', files / 'ex.vtree',
                           '--weights', files / 'w.json')
        assert code == 2 and 'error:' in err

    @pytest.mark.parametrize('value', ['true', '"one third"', '"1/0"', 'NaN',
                                       'Infinity', '-Infinity', '1e400',
                                       '"1e400"', pytest.param(
                                           '1' + '0' * 400,
                                           id='int-past-float-range')])
    def test_non_numeric_weight_is_2(self, files, capsys, tmp_path, value):
        # booleans are not read as 1/0, strings must be rationals, and no
        # mode takes a value that a float cannot hold
        good = (files / 'w.json').read_text()
        w = tmp_path / 'w_bad.json'
        w.write_text(good.replace('"muP": 0.5', '"muP": ' + value, 1))
        assert w.read_text() != good
        for exact in ((), ('--exact',)):
            code, _, err = run(capsys, 'variance', files / 'ex.sdd',
                               '--vtree', files / 'ex.vtree',
                               '--weights', w, *exact)
            assert code == 2 and 'weight' in err

    @pytest.mark.parametrize('members', [[1.9, 2], ['x', 2], '12'])
    def test_bad_group_members_is_2(self, files, capsys, tmp_path, members):
        doc = json.loads((files / 'w.json').read_text())
        doc['groups'] = [{'members': members, 'cov': [[0, 0], [0, 0]]}]
        w = tmp_path / 'w_group.json'
        w.write_text(json.dumps(doc))
        code, _, err = run(capsys, 'variance', files / 'ex.sdd',
                           '--vtree', files / 'ex.vtree', '--weights', w)
        assert code == 2 and 'members' in err

    @pytest.mark.parametrize('command', ['compile', 'bn'])
    def test_compile_budget_is_3(self, files, capsys, command):
        if command == 'compile':
            argv = ['compile', files / 'f.cnf', '--vtree',
                    files / 'ex.vtree', '--out', files / 'budget.sdd']
        else:
            argv = ['bn', files / 'net.json']
        code, out, err = run(capsys, *argv, '--budget', 3)
        assert code == 3
        assert '3-node budget' in err and 'Traceback' not in err
        assert out == ''

    def test_invalid_circuit_is_3(self, files, capsys, tmp_path):
        vt = tmp_path / 'two.vtree'
        vt.write_text('vtree 3\nL 0 1\nL 1 2\nI 2 0 1\n')
        dup = tmp_path / 'dup.sdd'
        dup.write_text('sdd 3\nL 0 0 1\nT 1\nD 2 2 2 0 1 0 1\n')
        # an or-node of TRUE children alone: no variable, never deterministic
        always = tmp_path / 'always.sdd'
        always.write_text('sdd 3\nT 0\nT 1\nD 2 2 2 0 1 1 0\n')
        w = tmp_path / 'w2.json'
        w.write_text(json.dumps(complementary_weights(2, .5, .01).to_json()))
        weights = ('--weights', w)
        for argv, want in (
                (('expect', dup) + weights, ''),
                (('expect', always, '--validate-determinism', 0) + weights,
                 'has no variable'),
                (('variance', always, '--validate-determinism', 0) + weights,
                 'has no variable'),
                (('count', always, '--validate-determinism', 0),
                 'has no variable')):
            code, out, err = run(capsys, *argv, '--vtree', vt)
            assert code == 3 and want in err and out == ''

    def test_nondeterministic_count_is_3(self, capsys, tmp_path):
        vt = tmp_path / 'two.vtree'
        vt.write_text('vtree 3\nL 0 1\nL 1 2\nI 2 0 1\n')
        dup = tmp_path / 'dup.sdd'
        dup.write_text('sdd 3\nL 0 0 1\nT 1\nD 2 2 2 0 1 0 1\n')
        code, _, err = run(capsys, 'count', dup, '--vtree', vt,
                           '--validate-determinism', '0')
        assert code == 3 and 'deterministic' in err

    @pytest.mark.parametrize('command', ['variance', 'covariance'])
    @pytest.mark.parametrize('exact', [(), ('--exact',)],
                             ids=['float', 'exact'])
    def test_group_contract_is_3(self, files, capsys, tmp_path, command,
                                 exact):
        # (-1 | -2) leaves a member of the group {1, 2} free at its vnode
        vt = Vtree.from_nested(((1, 2), (3, 4)))
        assert vt.to_text() == (files / 'ex.vtree').read_text()
        paths = []
        for name, clauses in (('free', [(-1, -2)]), ('fixed', [(1,), (-2,)])):
            paths.append(tmp_path / (name + '.sdd'))
            paths[-1].write_text(sdd_text(compile_cnf(Cnf(4, clauses), vt)))
        cov = ((0.021, -0.021), (-0.021, 0.021))
        wm = WeightModel({1: VarMoments(0.3, 1.0, 0.021, 0.0, 0.0),
                          2: VarMoments(0.7, 1.0, 0.021, 0.0, 0.0),
                          3: VarMoments(0.4, 0.6, 0.02, 0.02, -0.02),
                          4: VarMoments(0.9, 0.1, 0.005, 0.005, -0.005)},
                         groups=(Group((1, 2), cov),))
        w = tmp_path / 'w_grouped.json'
        w.write_text(json.dumps(wm.to_json()))
        circuits = paths if command == 'covariance' else paths[:1]
        code, out, err = run(capsys, command, *circuits, '--vtree',
                             files / 'ex.vtree', '--weights', w, *exact)
        assert code == 3 and out == ''
        assert 'node at a group vnode must fix every member of the group' \
            in err and 'Traceback' not in err

    def test_missing_weights_is_4(self, files, capsys):
        code, _, err = run(capsys, 'expect', files / 'ex.sdd',
                           '--vtree', files / 'ex.vtree',
                           '--weights', files / 'w_missing.json')
        assert code == 4 and 'variables' in err

    @pytest.mark.parametrize('command', ['covariance', 'entails',
                                         'ite-check'])
    def test_vtree_mismatch_is_5(self, files, capsys, command):
        weights = ('--weights', files / 'w.json') \
            if command == 'covariance' else ()
        code, out, err = run(capsys, command, files / 'ex.sdd',
                             files / 'x.sdd', '--vtree', files / 'ex.vtree',
                             '--vtree2', files / 'other.vtree', *weights)
        assert code == 5 and 'different vtree' in err
        assert out == ''

    def test_same_vtree2_file_is_recorded(self, files, capsys, tmp_path):
        copy = tmp_path / 'copy.vtree'
        copy.write_text((files / 'ex.vtree').read_text())
        code, out, _ = run(capsys, 'ite-check', files / 'ex.sdd',
                           files / 'x.sdd', '--vtree', files / 'ex.vtree',
                           '--vtree2', copy)
        assert code == 0
        doc = json.loads(out)
        assert doc['inputs']['vtree2']['sha256'] \
            == doc['inputs']['vtree']['sha256']
        assert doc['results']['residual'] == '0'

    def test_unknown_uncertainty_key_is_4(self, files, capsys, tmp_path):
        doc = json.loads((files / 'net.json').read_text())
        doc['uncertainty'] = {'params': {'C|t': {'var': 0.01}}}
        net = tmp_path / 'net_bad.json'
        net.write_text(json.dumps(doc))
        code, out, err = run(capsys, 'bn', net)
        assert code == 4 and 'C|t' in err
        assert out == ''

    def test_enc2_params_group_conflict_is_4(self, files, capsys,
                                            tmp_path):
        # a column whose params entry and group matrix disagree on the
        # variance of its first value
        doc = json.loads((files / 'net.json').read_text())
        doc['uncertainty'] = {'params': {'B|f': {'var': 0.01}},
                              'groups': {'B|f': [[0.03, -0.03],
                                                 [-0.03, 0.03]]}}
        net = tmp_path / 'net_conflict.json'
        net.write_text(json.dumps(doc))
        code, out, err = run(capsys, 'bn', net, '--encoding', 'enc2')
        assert code == 4 and 'B|f' in err
        assert out == ''

    def test_bad_evidence_is_6(self, files, capsys):
        code, _, err = run(capsys, 'bn', files / 'net.json',
                           '--evidence', files / 'ev_bad.json')
        assert code == 6

    def test_unreadable_file_is_1(self, files, capsys, tmp_path):
        code, _, err = run(capsys, 'expect', tmp_path / 'nope.sdd',
                           '--vtree', files / 'ex.vtree',
                           '--weights', files / 'w.json')
        assert code == 1


def recorded_reads(argv):
    """Run one command on a namespace that notes every attribute the
    command reads after parsing; return the names read."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli._parser().parse_args([str(a) for a in argv],
                                    namespace=Recording())
    reads.clear()
    assert args.func(args) == 0
    return reads


def test_every_option_is_read(files, capsys, tmp_path):
    # an option that no run of its command reads parses and does nothing
    sub, = [a for a in cli._parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in sp._actions} - {'help'}
             for name, sp in sub.choices.items()}
    vtree = ('--vtree', files / 'ex.vtree')
    weights = ('--weights', files / 'w.json')
    network = (files / 'net.json', '--evidence', files / 'ev.json')
    matrix = [
        ('expect', files / 'ex.sdd', *vtree, *weights),
        ('variance', files / 'ex.sdd', *vtree, *weights),
        ('covariance', files / 'ex.sdd', files / 'x.sdd', *vtree,
         *weights),
        ('count', files / 'ex.sdd', *vtree),
        ('entails', files / 'x.sdd', files / 'ex.sdd', *vtree),
        ('ite-check', files / 'ex.sdd', files / 'x.sdd', *vtree),
        ('compile', files / 'f.cnf', *vtree, '--out', tmp_path / 'o.sdd'),
        ('bn', *network, '--sweep'),
        ('bn', *network, '--sweep', '--csv'),
    ]
    read = {name: set() for name in dests}
    for argv in matrix:
        read[argv[0]] |= recorded_reads(argv)
    capsys.readouterr()
    assert all(read.values())
    unread = sorted('%s: %s' % (name, dest)
                    for name in dests
                    for dest in dests[name] - read[name] - {'func', 'cmd'})
    assert unread == []
