"""Acceptance gate: one test per shipped guarantee, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; every check also asserts, so a plain pytest run fails loudly.
"""

import os
import time
from fractions import Fraction

from numpy.testing import assert_allclose

from conftest import (complementary_weights, example_circuit,
                      example_variance, random_circuit, random_cnf,
                      random_vtree, random_weights, seeded)
from wmcvar.bayes import (Evidence, MarginalPipeline, brute_marginal,
                          demo_networks, marginal_moments)
from wmcvar.circuit import Vtree
from wmcvar.moments import cov_wmc, exp_wmc, var_wmc
from wmcvar.oracle import enumerate_models, oracle_cov, oracle_var
from wmcvar.reductions import count_via_variance, ite_cov_identity_check
from wmcvar.sddc import Cnf, compile_cnf
from wmcvar.weights import VarMoments, WeightModel, counting_weights


def report(num, name, detail):
    print('criterion %d (%s): PASS -- %s' % (num, name, detail))


def test_01_example_reproduction():
    t0 = time.perf_counter()
    c = example_circuit()
    points = ((0.5, 0.01), (0.3, 0.04), (0.9, 0.001))
    for mu, s2 in points:
        wm = complementary_weights(4, mu, s2)
        assert_allclose(exp_wmc(c, wm), mu ** 2 - mu ** 4, rtol=1e-10)
        assert_allclose(var_wmc(c, wm), example_variance(mu, s2),
                        rtol=1e-10)
    dt = time.perf_counter() - t0
    assert dt < 1.0, 'took %.2fs' % dt
    report(1, 'example reproduction',
           'mean and variance polynomials at %d points, %.3fs' %
           (len(points), dt))


def test_02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = seeded('acceptance-oracle')
    done = 0
    while done < 200:
        n = rng.randint(2, 10)
        c = random_circuit(rng, n)
        if len(enumerate_models(c)) > 500:
            continue        # keep the quadratic referee affordable
        wm = random_weights(rng, n)
        assert_allclose(var_wmc(c, wm), oracle_var(c, wm),
                        rtol=1e-9, atol=1e-12)
        g = compile_cnf(random_cnf(rng, n, max_clauses=3), c.vt)
        assert_allclose(cov_wmc(c, g, wm), oracle_cov(c, g, wm),
                        rtol=1e-9, atol=1e-12)
        done += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0, 'took %.2fs' % dt
    report(2, 'oracle equivalence',
           '%d circuits, variance and covariance within 1e-9, %.1fs'
           % (done, dt))


def test_03_counting_reduction():
    t0 = time.perf_counter()
    rng = seeded('acceptance-count')
    cw = counting_weights().to_exact()
    for trial in range(200):
        n = rng.randint(2, 14)
        c = random_circuit(rng, n)
        want = len(enumerate_models(c))
        got = count_via_variance(c)
        assert got == want, (trial, got, want)
        var = var_wmc(c, cw)
        assert isinstance(var, (int, Fraction))
        denom = 4 ** n - 1
        ratio = Fraction(var, denom)
        assert got - 1 < ratio <= got
    dt = time.perf_counter() - t0
    assert dt < 60.0, 'took %.2fs' % dt
    report(3, 'counting reduction',
           '200 functions up to 14 variables counted exactly, '
           'ratio always in (count-1, count], %.1fs' % dt)


def test_04_selector_identity():
    t0 = time.perf_counter()
    rng = seeded('acceptance-ite')
    for trial in range(100):
        n = rng.randint(2, 8)
        vt = random_vtree(rng, n)
        f = compile_cnf(random_cnf(rng, n), vt)
        g = compile_cnf(random_cnf(rng, n), vt)
        r = ite_cov_identity_check(f, g)
        assert r['residual'] == 0, (trial, r)
    dt = time.perf_counter() - t0
    assert dt < 30.0, 'took %.2fs' % dt
    report(4, 'selector covariance identity',
           '100 pairs, rational residual exactly 0, %.1fs' % dt)


def test_05_bn_normalization():
    nets = demo_networks()
    checked = []
    for name, bn in sorted(nets.items()):
        binary = all(bn.k(i) == 2 for i in range(len(bn.names)))
        # the binary encoding only exists for binary networks; the one
        # multi-valued demo gets the same check under the general encoding
        enc = 'enc2' if binary else 'enc1'
        got = MarginalPipeline(bn, enc).moments()
        assert abs(got['mean'] - 1.0) <= 1e-12, (name, got)
        assert abs(got['variance']) <= 1e-12, (name, got)
        checked.append(name)
    report(5, 'network normalization',
           'empty evidence gives mean 1, variance 0 on: %s'
           % ', '.join(checked))


def test_06_pipeline_cross_checks():
    nets = demo_networks()
    pairs = methods = brute = 0
    for name, bn in sorted(nets.items()):
        binary = all(bn.k(i) == 2 for i in range(len(bn.names)))
        enc = 'enc2' if binary else 'enc1'
        pipe = MarginalPipeline(bn, enc)
        cases = [{bn.names[i]: bn.values[i][j]}
                 for i in range(len(bn.names)) for j in range(bn.k(i))]
        cases.append({bn.names[0]: bn.values[0][0],
                      bn.names[-1]: bn.values[-1][-1]})
        for assign in cases:
            ev = Evidence(bn, assign)
            a = pipe.moments(ev, 'conjoin')
            b = pipe.moments(ev, 'zero_weights')
            assert abs(a['mean'] - b['mean']) <= 1e-12
            assert abs(a['variance'] - b['variance']) <= 1e-12
            methods += 1
            want = brute_marginal(bn, ev)
            assert abs(a['mean'] - want) <= 1e-12
            brute += 1
            if binary:
                other = marginal_moments(bn, ev, encoding='enc1')
                assert_allclose(a['mean'], other['mean'], rtol=1e-9)
                assert_allclose(a['variance'], other['variance'],
                                rtol=1e-9, atol=1e-15)
                pairs += 1
    report(6, 'pipeline cross-checks',
           '%d method agreements, %d encoding agreements, '
           '%d joint-summation matches' % (methods, pairs, brute))


def chain_circuit(n):
    vt = Vtree.right_linear(n)
    return compile_cnf(Cnf(n, [(v, v + 1) for v in range(1, n)]), vt)


def time_variance(c, wm):
    best = float('inf')
    for _ in range(3):
        t0 = time.perf_counter()
        var_wmc(c, wm)
        best = min(best, time.perf_counter() - t0)
    return best


def test_07_performance_scaling():
    times = {}
    for target, n in ((1000, 170), (2000, 340), (4000, 680), (8000, 1360)):
        c = chain_circuit(n)
        assert c.n_edges >= target, (target, c.n_edges)
        wm = WeightModel({v: VarMoments(0.7, 0.3, 0.05, 0.02, -0.01)
                          for v in range(1, n + 1)})
        times[target] = time_variance(c, wm)
    assert times[4000] < 1.0, times
    assert times[8000] < 2.0, times
    for small, big in ((1000, 2000), (2000, 4000), (4000, 8000)):
        ratio = times[big] / max(times[small], 1e-9)
        assert ratio <= 6.0, (small, big, times)
    report(7, 'performance scaling',
           'variance on >=4000 edges in %.3fs; doubling ratios %s'
           % (times[4000],
              ['%.2f' % (times[b] / times[a])
               for a, b in ((1000, 2000), (2000, 4000), (4000, 8000))]))


def test_08_external_experiment_substitution():
    # the published 70-network experiment needs data this package cannot
    # ship; the README must carry the recipe for rerunning the sweep on
    # user-supplied exports instead
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, 'README.md')) as fh:
        readme = fh.read()
    assert 'bnRep' in readme
    assert '--sweep' in readme
    assert 'wmcvar bn' in readme
    report(8, 'external experiment substitution',
           'README documents the bnRep export recipe for the sweep')
