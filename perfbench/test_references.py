"""The benchmark's references against wmcvar's brute-force oracle.

A wrong reference could pass a wrong engine, so each one is checked here
on instances small enough to enumerate, against wmcvar.oracle and
bayes.brute_marginal (neither uses the circuit engine).  Run with

    python -m pytest perfbench -q
"""

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / 'src'))

import reference  # noqa: E402
import workloads  # noqa: E402
from wmcvar import oracle  # noqa: E402
from wmcvar.bayes import (BayesNet, Evidence, brute_marginal,  # noqa: E402
                          enc1, enc2)
from wmcvar.weights import Group, VarMoments, WeightModel  # noqa: E402

REL = 1e-12


def models(clauses, n):
    """Satisfying assignments as bitmasks (bit v-1 is variable v)."""
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        a = sum(b << i for i, b in enumerate(bits))
        if all(any(((a >> (abs(x) - 1)) & 1) == (x > 0) for x in cl)
               for cl in clauses):
            out.append(a)
    return sorted(out)


def weight_model(weights):
    return WeightModel({v: VarMoments(*m) for v, m in weights.items()})


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-300)


@pytest.mark.parametrize('seed', range(4))
def test_chain_references(seed):
    rng = random.Random(seed)
    n = 9
    f, g = workloads.chain_cnf(n, rng), workloads.chain_cnf(n, rng)
    weights = workloads.var_moments(n, rng)
    wm = weight_model(weights)
    mf, mg = models(f, n), models(g, n)
    assert reference.chain_exp(f, n, None) == len(mf)
    e_f = reference.chain_exp(f, n, weights)
    e_g = reference.chain_exp(g, n, weights)
    assert close(e_f, oracle.oracle_exp(mf, wm, n))
    assert close(reference.chain_pair(f, f, n, weights) - e_f * e_f,
                 oracle.oracle_var(mf, wm, n))
    assert close(reference.chain_pair(f, g, n, weights) - e_f * e_g,
                 oracle.oracle_cov(mf, mg, wm, n))


@pytest.mark.parametrize('seed', range(4))
def test_brute_sat(seed):
    rng = random.Random(seed)
    n = 9
    f = workloads.regular_3cnf(n, 4, rng)
    assert reference.brute_sat(f, n).nonzero()[0].tolist() == models(f, n)


def test_cnf_references():
    rng = random.Random(7)
    n = 8
    cnfs = {'n': n, 'vtree': 'right_linear',
            'clauses': [workloads.chain_cnf(n, rng) for _ in range(2)],
            'weights': workloads.var_moments(n, rng), 'cov_pairs': [(0, 1)]}
    refs = reference.cnf_references(cnfs)
    wm = weight_model(cnfs['weights'])
    ms = [models(c, n) for c in cnfs['clauses']]
    for i, m in enumerate(ms):
        assert refs['count'][i] == len(m)
        assert close(refs['exp'][i], oracle.oracle_exp(m, wm, n))
        assert close(refs['var'][i], oracle.oracle_var(m, wm, n))
    assert close(refs['cov'][0], oracle.oracle_cov(ms[0], ms[1], wm, n))


# ---- networks ---------------------------------------------------------------


def small_networks():
    rng = random.Random(3)
    yield (workloads._network(workloads.window_parents(3, 3, 2), 2, rng),
           'enc2')
    yield (workloads._network([[], [0], [1]], 2, rng), 'enc2')
    yield (workloads._network(workloads.window_parents(2, 2, 1), 3, rng),
           'enc1')


def encoded(net, encoding, evidence):
    """Models of the encoding conjoined with the evidence, and its weight
    model, both from wmcvar.bayes."""
    bn = BayesNet.from_json(net)
    cnf, wm, layout = (enc2 if encoding == 'enc2' else enc1)(bn)
    units = [(-x,) for x in layout.excluded_indicators(Evidence(bn, evidence))]
    sat = reference.brute_sat(cnf.clauses + units, cnf.n_vars)
    return bn, sat.nonzero()[0].tolist(), wm, layout, cnf.n_vars


def scaled(wm, pid, factor):
    """The sweep's shrink of one parameter: its own variance times the
    factor, its covariances with group mates times the square root."""
    vars_ = dict(wm.vars)
    m = vars_[pid]
    vars_[pid] = VarMoments(m.muP, m.muN, m.varP * factor, m.varN * factor,
                            m.covPN * factor)
    groups = []
    for g in wm.groups:
        if pid in g.members:
            at = g.members.index(pid)
            cov = tuple(tuple(x * (factor if a == b == at else
                                   math.sqrt(factor) if at in (a, b) else 1)
                              for b, x in enumerate(row))
                        for a, row in enumerate(g.cov))
            g = Group(g.members, cov)
        groups.append(g)
    return WeightModel(vars_, groups, wm.default)


@pytest.mark.parametrize('net,encoding', list(small_networks()))
def test_network_references(net, encoding):
    ref = reference.Net(net)
    last = net['variables'][-1]
    first = net['variables'][0]
    evs = [{last['name']: last['values'][-1]},
           {first['name']: first['values'][0],
            last['name']: last['values'][0]}]
    for ev in evs + [{}]:
        bn, ms, wm, layout, n = encoded(net, encoding, ev)
        assert ref.count(ev, encoding) == len(ms)
        assert ref.n_props(encoding) == n
        mean = ref.mean(ev)
        assert close(mean, brute_marginal(bn, ev))
        assert close(mean, oracle.oracle_exp(ms, wm, n))
        assert math.isclose(ref.variance(ev), oracle.oracle_var(ms, wm, n),
                            rel_tol=1e-9, abs_tol=1e-15)
    bn, m0, wm, layout, n = encoded(net, encoding, evs[0])
    _, m1, _, _, _ = encoded(net, encoding, evs[1])
    cov = ref.pair(evs[0], evs[1]) - ref.mean(evs[0]) * ref.mean(evs[1])
    assert close(cov, oracle.oracle_cov(m0, m1, wm, n))
    sweep = ref.sweep(evs[0], encoding, 0.1)
    assert len(sweep) == ref.n_params(encoding)
    for key, var in sweep.items():
        i, c, j = map(int, key.split(','))
        want = oracle.oracle_var(m0, scaled(wm, layout.theta[(i, c, j)], 0.1),
                                 n)
        assert math.isclose(var, want, rel_tol=1e-9, abs_tol=1e-15)


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make(w, 5) == workloads.make(w, 5)
        assert workloads.make(w, 5) != workloads.make(w, 6)
