from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (complementary_weights, example_circuit,
                      example_variance, random_circuit, random_cnf,
                      random_vtree, random_weights, seeded)
from wmcvar.circuit import FALSE, TRUE, Vtree, parse_sdd, sdd_text
from wmcvar.errors import CorrelationScopeError
from wmcvar.moments import (MomentEngine, cov_wmc, exp_wmc,
                            locate_group_vnodes, var_gradient, var_wmc)
from wmcvar.oracle import enumerate_models, oracle_cov, oracle_exp, oracle_var
from wmcvar.sddc import Cnf, SddBuilder, compile_cnf
from wmcvar.weights import Group, VarMoments, WeightModel


class TestExamplePins:
    """Frozen closed forms for the three-model example function."""

    def test_expectation_polynomial(self):
        c = example_circuit()
        for mu in (0.5, 0.3, 0.9):
            wm = complementary_weights(4, mu, 0.01)
            assert_allclose(exp_wmc(c, wm), mu ** 2 - mu ** 4, rtol=1e-12)

    def test_variance_polynomial(self):
        c = example_circuit()
        for mu, s2 in ((0.5, 0.01), (0.3, 0.04), (0.9, 0.001)):
            wm = complementary_weights(4, mu, s2)
            assert_allclose(var_wmc(c, wm), example_variance(mu, s2),
                            rtol=1e-10)

    def test_exact_variance_is_rational(self):
        c = example_circuit()
        wm = complementary_weights(4, Fraction(1, 2),
                                   Fraction(1, 100)).to_exact()
        got = var_wmc(c, wm)
        assert got == Fraction(196551, 10 ** 8)


class TestAgainstOracle:
    def test_expectation(self):
        rng = seeded('moments-exp')
        for _ in range(40):
            c = random_circuit(rng, rng.randint(2, 8))
            wm = random_weights(rng, c.vt.n_vars)
            assert_allclose(exp_wmc(c, wm), oracle_exp(c, wm), rtol=1e-9)

    def test_variance(self):
        rng = seeded('moments-var')
        for _ in range(40):
            c = random_circuit(rng, rng.randint(2, 8))
            wm = random_weights(rng, c.vt.n_vars)
            assert_allclose(var_wmc(c, wm),
                            oracle_var(c, wm), rtol=1e-9, atol=1e-12)

    def test_covariance(self):
        rng = seeded('moments-cov')
        for _ in range(30):
            n = rng.randint(2, 7)
            f = random_circuit(rng, n)
            g = compile_cnf(Cnf(n, [tuple(v if rng.random() < .5 else -v
                                          for v in rng.sample(
                                              range(1, n + 1),
                                              rng.randint(1, n)))]), f.vt)
            wm = random_weights(rng, n)
            assert_allclose(cov_wmc(f, g, wm),
                            oracle_cov(f, g, wm), rtol=1e-9, atol=1e-12)

    def test_exact_rational_agreement(self):
        rng = seeded('moments-exact')
        for _ in range(15):
            c = random_circuit(rng, rng.randint(2, 6))
            wm = random_weights(rng, c.vt.n_vars, exact=True)
            assert var_wmc(c, wm) == oracle_var(c, wm, exact=True)


class TestEngine:
    def test_engine_matches_functions(self):
        rng = seeded('engine-cache')
        c = random_circuit(rng, 6)
        g = random_circuit(rng, 6)
        wm = random_weights(rng, 6)
        # rebase g onto c's vtree by recompiling is overkill here; just use
        # two queries on the same circuit plus an expectation
        eng = MomentEngine(c.vt, wm)
        assert_allclose(eng.exp(c), exp_wmc(c, wm), rtol=1e-12)
        assert_allclose(eng.var(c), var_wmc(c, wm), rtol=1e-12)
        assert_allclose(eng.cov(c, c), var_wmc(c, wm), rtol=1e-12)

    def test_cov_self_is_var(self):
        rng = seeded('cov-self')
        for _ in range(10):
            c = random_circuit(rng, rng.randint(2, 7))
            wm = random_weights(rng, c.vt.n_vars)
            assert_allclose(cov_wmc(c, c, wm), var_wmc(c, wm), rtol=1e-9)

    def test_parsed_constant_elements(self):
        # sdd_text writes decision elements with TRUE/FALSE subs, which
        # parse_sdd keeps as conjunctions with a constant child; the pair
        # pass must see through them
        rng = seeded('parsed-constant-elements')
        seen = 0
        for _ in range(25):
            n = rng.randint(2, 7)
            vt = random_vtree(rng, n)
            f, g = (parse_sdd(sdd_text(compile_cnf(random_cnf(rng, n), vt)),
                              vt) for _ in range(2))
            seen += sum(1 for c in (f, g) for i in c.reachable()
                        if c.kind[i] == 'A'
                        and set(c.children[i]) & {FALSE, TRUE})
            wm = random_weights(rng, n)
            assert_allclose(cov_wmc(f, g, wm), oracle_cov(f, g, wm),
                            rtol=1e-9, atol=1e-12)
            assert_allclose(var_wmc(f, wm), oracle_var(f, wm),
                            rtol=1e-9, atol=1e-12)
        assert seen > 0

    def test_each_split_pair_resolved_once(self, monkeypatch):
        # a pair waiting for its dependencies keeps the parts it split
        # into, so _split never runs twice on one pair
        rng = seeded('split-once')
        n = 12
        clauses = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, n + 1), 3))
                   for _ in range(24)]
        c = compile_cnf(Cnf(n, clauses), Vtree.balanced(n))
        wm = random_weights(rng, n)
        calls = []
        split = MomentEngine._split

        def counted(self, circuit, x, anc):
            calls.append((x, anc))
            return split(self, circuit, x, anc)

        monkeypatch.setattr(MomentEngine, '_split', counted)
        got = var_wmc(c, wm)
        # one pair's resolution splits its two operands back to back
        pairs = [(a, b, anc) for (a, anc), (b, _) in zip(calls[::2],
                                                        calls[1::2])]
        assert len(pairs) > 100
        assert len(calls) == 2 * len(set(pairs))
        assert_allclose(got, oracle_var(c, wm), rtol=1e-9, atol=1e-12)


class TestGroupedWeights:
    def make_grouped(self, theta=10.0):
        # variables 1,2 form one correlated block on vtree ((1,2),(3,4))
        vt = Vtree.from_nested(((1, 2), (3, 4)))
        ps = (0.3, 0.7)
        cov = tuple(tuple((ps[i] * (1 - ps[i]) if i == j
                           else -ps[i] * ps[j]) / theta
                          for j in range(2)) for i in range(2))
        wm = WeightModel(
            {1: VarMoments(ps[0], 1.0, cov[0][0], 0.0, 0.0),
             2: VarMoments(ps[1], 1.0, cov[1][1], 0.0, 0.0),
             3: VarMoments(0.4, 0.6, 0.02, 0.02, -0.02),
             4: VarMoments(0.9, 0.1, 0.005, 0.005, -0.005)},
            groups=(Group((1, 2), cov),))
        return vt, wm

    def test_group_vnode_location(self):
        vt, wm = self.make_grouped()
        gv = locate_group_vnodes(vt, wm)
        (vnode, gi), = gv.items()
        assert vt.scope[vnode] == 0b00110
        assert gi == 0

    def grouped_circuit(self, vt, rng):
        """Both block members pinned down by the free variables, with at
        most one true per model -- the shape the parameter encodings emit."""
        b = SddBuilder(vt)

        def pick():
            base = rng.choice([b.literal(3), b.literal(4),
                               b.apply(b.literal(3), b.literal(4), 'and'),
                               b.apply(b.literal(3), b.literal(4), 'or')])
            return b.neg(base) if rng.random() < 0.5 else base

        def eq(a, m):
            return b.apply(b.apply(a, m, 'and'),
                           b.apply(b.neg(a), b.neg(m), 'and'), 'or')

        m = pick()
        f = b.apply(eq(b.literal(1), m), eq(b.literal(2), b.neg(m)), 'and')
        if rng.random() < 0.5:
            f = b.apply(f, b.clause(rng.choice([(3,), (-3, 4), (4, 3)])),
                        'and')
        return b.to_circuit(f)

    def test_variance_matches_oracle(self):
        vt, wm = self.make_grouped()
        gv = locate_group_vnodes(vt, wm)
        rng = seeded('grouped-var')
        for _ in range(20):
            c = self.grouped_circuit(vt, rng)
            assert_allclose(var_wmc(c, wm, gv), oracle_var(c, wm),
                            rtol=1e-9, atol=1e-12)

    def test_covariance_matches_oracle(self):
        vt, wm = self.make_grouped()
        gv = locate_group_vnodes(vt, wm)
        rng = seeded('grouped-cov')
        for _ in range(12):
            f = self.grouped_circuit(vt, rng)
            g = self.grouped_circuit(vt, rng)
            assert_allclose(cov_wmc(f, g, wm, gv), oracle_cov(f, g, wm),
                            rtol=1e-9, atol=1e-12)

    def test_two_members_true_refused(self):
        vt, wm = self.make_grouped()
        gv = locate_group_vnodes(vt, wm)
        both = compile_cnf(Cnf(4, [(1,), (2,)]), vt)
        with pytest.raises(CorrelationScopeError):
            var_wmc(both, wm, gv)

    def test_free_member_refused(self):
        # a lift would have to range over one correlated member alone
        vt, wm = self.make_grouped()
        gv = locate_group_vnodes(vt, wm)
        c = compile_cnf(Cnf(4, [(1,), (-2,), (3, 4)]), vt)
        free = compile_cnf(Cnf(4, [(3, 4)]), vt)
        assert_allclose(var_wmc(c, wm, gv), oracle_var(c, wm), rtol=1e-9)
        with pytest.raises(CorrelationScopeError):
            var_wmc(free, wm, gv)

    def test_group_needs_matching_vnode(self):
        # no vnode scope equals {1,2} in a right-linear tree rooted at 1
        vt = Vtree.from_nested((1, (2, (3, 4))))
        _, wm = self.make_grouped()
        with pytest.raises(CorrelationScopeError):
            locate_group_vnodes(vt, wm)


class TestVarGradient:
    # Var is degree 1 in each second moment, so raising one by 1 moves
    # Var by exactly its partial

    def test_partials_are_exact_differences(self):
        rng = seeded('var-gradient')
        fields = ('varP', 'varN', 'covPN')
        for _ in range(15):
            c = random_circuit(rng, rng.randint(2, 6))
            wm = random_weights(rng, c.vt.n_vars, exact=True)
            var, dvar, dgroups = var_gradient(c, wm)
            assert var == var_wmc(c, wm) and dgroups == []
            for x in range(1, c.vt.n_vars + 1):
                for k, name in enumerate(fields):
                    m = wm.vars[x]
                    bumped = WeightModel({**wm.vars, x: replace(
                        m, **{name: getattr(m, name) + 1})})
                    assert var_wmc(c, bumped) - var == dvar[x][k]

    def test_float_value_is_bit_identical(self):
        rng = seeded('var-gradient-float')
        for _ in range(15):
            c = random_circuit(rng, rng.randint(2, 7))
            wm = random_weights(rng, c.vt.n_vars)
            assert var_gradient(c, wm)[0] == var_wmc(c, wm)

    def test_group_partials(self):
        vt, wm = TestGroupedWeights().make_grouped()
        wm = wm.to_exact()
        gv = locate_group_vnodes(vt, wm)
        rng = seeded('var-gradient-group')
        for _ in range(10):
            c = TestGroupedWeights().grouped_circuit(vt, rng)
            var, _, dgroups = var_gradient(c, wm, gv)
            assert var == var_wmc(c, wm, gv)
            (g,) = wm.groups
            for a in range(2):
                for b in range(a, 2):
                    cov = [list(row) for row in g.cov]
                    cov[a][b] += 1
                    if a != b:
                        cov[b][a] += 1
                    bumped = WeightModel(wm.vars, [Group(g.members, cov)])
                    want = dgroups[0][a][b] + (dgroups[0][b][a] if a != b
                                               else 0)
                    assert var_wmc(c, bumped, gv) - var == want


class TestAlgebraicProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_complement_partitions_total(self, seed):
        """f and its negation split the all-true-constant moments."""
        rng = seeded('hyp-%d' % seed)
        n = rng.randint(2, 6)
        vt = Vtree.balanced(n)
        b = SddBuilder(vt)
        node = b.clause(tuple(v if rng.random() < .5 else -v
                              for v in rng.sample(range(1, n + 1),
                                                  rng.randint(1, n))))
        f = b.to_circuit(node)
        nf = b.to_circuit(b.neg(node))
        wm = random_weights(rng, n)
        total_mean = 1.0
        for v in range(1, n + 1):
            m = wm.moments(v)
            total_mean *= m.muP + m.muN
        assert_allclose(exp_wmc(f, wm) + exp_wmc(nf, wm), total_mean,
                        rtol=1e-9, atol=1e-12)
        # Var(W_f + W_nf) must equal Var of the constant-true count
        lhs = (var_wmc(f, wm) + var_wmc(nf, wm)
               + 2 * cov_wmc(f, nf, wm))
        second = 1.0
        for v in range(1, n + 1):
            m = wm.moments(v)
            second *= (m.varP + m.muP ** 2) + (m.varN + m.muN ** 2) \
                + 2 * (m.covPN + m.muP * m.muN)
        assert_allclose(lhs, second - total_mean ** 2, rtol=1e-8, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_zero_spread_collapses_to_wmc(self, seed):
        rng = seeded('hyp-z-%d' % seed)
        c = random_circuit(rng, rng.randint(2, 6))
        n = c.vt.n_vars
        wm = WeightModel({v: VarMoments(rng.uniform(0, 1),
                                        rng.uniform(0, 1), 0.0, 0.0, 0.0)
                          for v in range(1, n + 1)})
        assert var_wmc(c, wm) == pytest.approx(0.0, abs=1e-15)
        assert_allclose(exp_wmc(c, wm), oracle_exp(c, wm), rtol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_cov_symmetry(self, seed):
        rng = seeded('hyp-s-%d' % seed)
        n = rng.randint(2, 6)
        f = random_circuit(rng, n)
        g = compile_cnf(Cnf(n, [tuple(v if rng.random() < .5 else -v
                                      for v in rng.sample(range(1, n + 1),
                                                          1))]), f.vt)
        wm = random_weights(rng, n)
        assert_allclose(cov_wmc(f, g, wm), cov_wmc(g, f, wm), rtol=1e-10)
