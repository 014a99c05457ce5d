import gc
import sys
import time
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (complementary_weights, example_circuit,
                      example_variance, outcome, random_circuit, random_cnf,
                      random_gates, random_shape_vtree, random_vtree,
                      random_weights, scopes, seeded)
from wmcvar.bayes import BayesNet, MarginalPipeline, demo_networks
from wmcvar.circuit import (BOTTOM, FALSE, TRUE, Circuit, Vtree, parse_sdd,
                            rebuild, sdd_text, validate)
from wmcvar.errors import CorrelationScopeError, ValidationError
from wmcvar.moments import (GROUP, LEAF, LIFT, OR, SPLIT, ZERO,
                            MomentEngine, cov_wmc, exp_wmc,
                            locate_group_vnodes, var_gradient, var_wmc)
from wmcvar.oracle import enumerate_models, oracle_cov, oracle_exp, oracle_var
from wmcvar.reductions import (count_via_variance, entails_via_cov,
                               ite_cov_identity_check)
from wmcvar.sddc import Cnf, SddBuilder, compile_cnf
from wmcvar.weights import Group, VarMoments, WeightModel, counting_weights


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
        # sdd_text writes decision elements with TRUE/FALSE primes or subs;
        # parse_sdd folds them away, and the moments stay those of the
        # models
        rng = seeded('parsed-constant-elements')
        seen = 0
        for _ in range(25):
            n = rng.randint(2, 7)
            vt = random_vtree(rng, n)
            texts = [sdd_text(compile_cnf(random_cnf(rng, n), vt))
                     for _ in range(2)]
            for t in texts:
                lines = [ln.split() for ln in t.splitlines()[1:]]
                consts = {ln[1] for ln in lines if ln[0] in 'TF'}
                seen += sum(1 for ln in lines if ln[0] == 'D'
                            for ref in ln[4:] if ref in consts)
            f, g = (parse_sdd(t, vt) for t in texts)
            for c in (f, g):
                assert not any(set(c.children[i]) & {FALSE, TRUE}
                               for i in c.reachable() if c.kind[i] in 'AO')
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
        assert scopes(vt)[vnode] == 0b00110
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


def grouped_model():
    return TestGroupedWeights().make_grouped()


def three_member_model():
    """Group (1, 2, 3) gathered at vnode 5 of ((1, (2, 3)), 4)."""
    vt = Vtree.from_nested(((1, (2, 3)), 4))
    ps = (0.2, 0.3, 0.5)
    cov = tuple(tuple((p * (1 - p) if i == j else -p * q) / 10
                      for j, q in enumerate(ps)) for i, p in enumerate(ps))
    # member 2's negative weight is 0, so the expectation of a node with
    # literal -2 is 0 and needs no lift over a free member
    ms = {v: VarMoments(ps[v - 1], float(v != 2), cov[v - 1][v - 1], 0.0,
                        0.0) for v in (1, 2, 3)}
    ms[4] = VarMoments(0.4, 0.6, 0.02, 0.02, -0.02)
    return vt, WeightModel(ms, groups=(Group((1, 2, 3), cov),))


def grouped_run(gv, *clause_sets, model=grouped_model):
    """cov of the circuits compiled from clause_sets (var of one) under
    model(), grouped_model by default, with group vnodes gv (located when
    None)."""
    vt, wm = model()
    eng = MomentEngine(vt, wm, locate_group_vnodes(vt, wm) if gv is None
                       else gv)
    cs = [compile_cnf(Cnf(vt.n_vars, cls), vt) for cls in clause_sets]
    return eng.cov(cs[0], cs[-1])


def free_member():
    # members 1 and 2 at their vnode, member 3 left free
    vt, wm = three_member_model()
    c = Circuit(vt)
    c.root = c.conj((c.literal(1), c.literal(-2)))
    return MomentEngine(vt, wm, locate_group_vnodes(vt, wm)).var(c)


def branches_differ():
    # (1 & -2) | (-1 & -2): each branch fixes both members, but they set
    # member 1 differently, so the or-node leaves it free and no group
    # record stands for it
    vt, wm = grouped_model()
    c = Circuit(vt)
    c.root = c.disj((c.conj((c.literal(1), c.literal(-2))),
                     c.conj((c.literal(-1), c.literal(-2)))))
    return MomentEngine(vt, wm, locate_group_vnodes(vt, wm)).var(c)


@pytest.mark.parametrize('run, want', [
    pytest.param(lambda: grouped_run({7: 0}, [(1,)]),
                 (ValidationError,
                  'vtree node 7 does not gather group 0 exactly'),
                 id='vnode-gathers-more'),
    pytest.param(lambda: grouped_run({99: 0}, [(1,)]),
                 (ValidationError,
                  'vtree node 99 does not gather group 0 exactly'),
                 id='unknown-vnode'),
    pytest.param(lambda: grouped_run({5: 3}, [(1,)]),
                 (ValidationError,
                  'vtree node 5 does not gather group 3 exactly'),
                 id='unknown-group'),
    pytest.param(lambda: locate_group_vnodes(
        Vtree.from_nested((1, (2, (3, 4)))), grouped_model()[1]),
                 (CorrelationScopeError,
                  'no vtree node gathers group 0 exactly'),
                 id='no-vnode-gathers'),
    pytest.param(free_member,
                 (CorrelationScopeError,
                  'node at a group vnode must fix every member of the group'),
                 id='member-left-free'),
    pytest.param(lambda: grouped_run(None, [(1,), (2,)]),
                 (CorrelationScopeError,
                  'node sets two members of a correlated group true; '
                  'covariance of such a block is not expressible'),
                 id='two-members-true'),
    pytest.param(lambda: grouped_run(None, [(1,)], [(2,)]),
                 (CorrelationScopeError,
                  'covariance decomposes inside a correlated group at vnode '
                  '3; gather the group under a registered vnode and keep '
                  'its members fixed by every node there'),
                 id='cov-inside-group'),
    pytest.param(lambda: grouped_run(None, [(3, 4)]),
                 (CorrelationScopeError,
                  'adjustment over vtree node 7 spans correlated variables; '
                  'the circuit does not fix them here'),
                 id='lift-over-group'),
    # an or-node at the group vnode whose children leave a member free:
    # an or-node fixes only what every child fixes
    pytest.param(lambda: grouped_run(None, [(-1, -2)]),
                 (CorrelationScopeError,
                  'node at a group vnode must fix every member of the group'),
                 id='or-leaves-member-free'),
    # the same inside a branch of weight 0 (member 2's muN and varN are
    # 0): the contract is on structure, whatever the weights
    pytest.param(lambda: grouped_run(None, [(-1,), (-2, -3)],
                                     model=three_member_model),
                 (CorrelationScopeError,
                  'node at a group vnode must fix every member of the group'),
                 id='zero-weight-branch-leaves-member-free'),
    pytest.param(branches_differ,
                 (CorrelationScopeError,
                  'node at a group vnode must fix every member of the group'),
                 id='or-branches-differ-on-member'),
])
def test_group_checks(run, want):
    # the errors of the checks that compare a vnode's variables with a
    # correlated group's
    assert outcome(run) == want


def test_or_leaves_member_free_everywhere():
    # the plan refuses this shape (see test_group_checks) in every query
    # that runs the pair pass, with no expectation table built before it
    vt, wm = grouped_model()
    gv = locate_group_vnodes(vt, wm)
    bad, fixed = (compile_cnf(Cnf(vt.n_vars, cls), vt)
                  for cls in ([(-1, -2)], [(1,), (-2,)]))
    want = (CorrelationScopeError,
            'node at a group vnode must fix every member of the group')
    for model in (wm, wm.to_exact()):
        eng = MomentEngine(vt, model, gv)
        assert outcome(lambda: eng.var(fixed)) != want
        for run in (lambda: eng.exp_var(bad), lambda: eng.cov(bad, fixed),
                    lambda: eng.cov(fixed, bad),
                    lambda: var_gradient(bad, model, gv)):
            assert outcome(run) == want


def test_lift_over_group_everywhere():
    # a circuit that leaves the group free needs a lift over it: every
    # query that runs the pair pass refuses it with the same message, on
    # the call that builds the plan and on the call that reuses it
    vt, wm = grouped_model()
    gv = locate_group_vnodes(vt, wm)
    bad, other, true = (compile_cnf(Cnf(vt.n_vars, cls), vt)
                        for cls in ([(3, 4)], [(-3,), (4,)], []))
    assert true.root == TRUE
    want = (CorrelationScopeError,
            'adjustment over vtree node 7 spans correlated variables; the '
            'circuit does not fix them here')
    for model in (wm, wm.to_exact()):
        eng = MomentEngine(vt, model, gv)
        for run in (lambda: eng.var(bad), lambda: eng.cov(bad, other),
                    lambda: eng.cov(other, bad), lambda: eng.exp_var(bad),
                    lambda: var_gradient(bad, model, gv),
                    lambda: eng.var(true)):
            for _ in range(2):
                assert outcome(run) == want


def test_lift_over_group_refused_at_build(monkeypatch):
    # the build refuses that lift, its own checks done: no plan is kept,
    # and none is evaluated, on the first call or any repeat
    vt, wm = grouped_model()
    gv = locate_group_vnodes(vt, wm)
    bad, other = (compile_cnf(Cnf(vt.n_vars, cls), vt)
                  for cls in ([(3, 4)], [(-3,), (4,)]))
    evaluated = []
    evaluate = MomentEngine._evaluate
    monkeypatch.setattr(MomentEngine, '_evaluate', lambda self, plan: (
        evaluated.append(plan) or evaluate(self, plan)))
    for model in (wm, wm.to_exact()):
        eng = MomentEngine(vt, model, gv)
        for run in (lambda: eng.var(bad), lambda: eng.cov(bad, other),
                    lambda: eng.cov(other, bad), lambda: eng.exp_var(bad),
                    lambda: var_gradient(bad, model, gv)):
            for _ in range(3):
                assert outcome(run) == (
                    CorrelationScopeError,
                    'adjustment over vtree node 7 spans correlated '
                    'variables; the circuit does not fix them here')
                assert evaluated == []
                assert len(bad.plans) == len(other.plans) == 0


@pytest.mark.parametrize('model', [grouped_model, three_member_model])
def test_false_circuit_needs_no_lift(model):
    # FALSE's record (0, 0) at BOTTOM is read without a lift, so a lift
    # the model refuses (TRUE's above) is never asked for
    vt, wm = model()
    gv = locate_group_vnodes(vt, wm)
    false = compile_cnf(Cnf(vt.n_vars, [(1,), (-1,)]), vt)
    assert false.root == FALSE
    for m, zero in ((wm, '0.0'), (wm.to_exact(), 'Fraction(0, 1)')):
        eng = MomentEngine(vt, m, gv)
        for _ in range(2):
            assert repr(eng.var(false)) == zero
            assert repr(eng.exp_var(false)) == '(%s, %s)' % (zero, zero)
            var, dvar, dgroups = var_gradient(false, m, gv)
            assert repr(var) == zero
            assert not any(any(d) for d in dvar[1:])
            assert not any(any(map(any, rows)) for rows in dgroups)


def test_false_partner_is_zero():
    # Cov(W_f, 0) = 0: the plan resolves the root pair without reading f
    vt, wm = grouped_model()
    gv = locate_group_vnodes(vt, wm)
    bad, false = (compile_cnf(Cnf(vt.n_vars, cls), vt)
                  for cls in ([(-1, -2)], [(1,), (-1,)]))
    assert false.root == FALSE
    for model, zero in ((wm, '0.0'), (wm.to_exact(), 'Fraction(0, 1)')):
        eng = MomentEngine(vt, model, gv)
        assert repr(eng.cov(bad, false)) == repr(eng.cov(false, bad)) == zero


def test_false_partner_of_a_free_group_is_zero():
    # Cov(W_c, 0) = 0 also where c leaves the group free, so that a lift
    # of c's records over it is refused: a pair with FALSE sits at BOTTOM
    # whatever its other node, and its (0, 0) is read without a lift, in
    # either order, on the call that builds the plan and on a repeat
    vt, wm = grouped_model()
    gv = locate_group_vnodes(vt, wm)
    for model, zero in ((wm, '0.0'), (wm.to_exact(), 'Fraction(0, 1)')):
        c, false = (compile_cnf(Cnf(vt.n_vars, cls), vt)
                    for cls in ([(3, 4)], [(1,), (-1,)]))
        assert false.root == FALSE
        assert oracle_cov(c, false, model) == oracle_cov(false, c, model) == 0
        eng = MomentEngine(vt, model, gv)
        for _ in range(2):
            assert repr(eng.cov(false, c)) == repr(eng.cov(c, false)) == zero
        assert outcome(lambda: eng.var(c)) == (
            CorrelationScopeError,
            'adjustment over vtree node 7 spans correlated variables; the '
            'circuit does not fix them here')


@pytest.mark.parametrize('model', [grouped_model, three_member_model])
def test_grouped_cnfs_match_oracle(model):
    # every grouped var and cov the engine returns on random CNFs (up to 4
    # clauses of 1-3 literals) is the oracle's; every refusal is typed.
    # Under three_member_model the first CNF has models setting members 1
    # and 3 true: the oracle refuses it, so the engine must too
    vt, wm = model()
    gv = locate_group_vnodes(vt, wm)
    rng = seeded('grouped-cnfs-' + model.__name__)
    cnfs = [Cnf(4, [(-2, -4), (1, -3, 4), (-2,)])] + [
        random_cnf(rng, 4, max_clauses=4) for _ in range(120)]
    cs = [compile_cnf(cnf, vt) for cnf in cnfs]
    seen = set()
    for exact in (False, True):
        m = wm.to_exact() if exact else wm
        for f, g in zip(cs, cs[1:] + cs[:1]):
            for run, want in ((lambda: var_wmc(f, m, gv),
                               lambda: oracle_var(f, m)),
                              (lambda: cov_wmc(f, g, m, gv),
                               lambda: oracle_cov(f, g, m))):
                try:
                    got = run()
                except CorrelationScopeError:
                    seen.add('refused')
                    continue
                seen.add('accepted')
                if exact:
                    assert got == want()
                else:
                    assert_allclose(got, want(), rtol=1e-9, atol=1e-12)
    assert seen == {'refused', 'accepted'}


def rational_moments(rng, q, q2):
    """Moments of one variable: means over q, second moments over q2."""
    def r(lo, hi, den):
        return Fraction(rng.randint(lo * den, hi * den), den)
    return VarMoments(r(-1, 2, q), r(-1, 2, q), r(0, 1, q2), r(0, 1, q2),
                      r(-1, 1, q2))


# distinct per-variable denominators; second moments sometimes over a
# denominator whose prime factors the first moments' lack
DENOMS = (3, 7, 10, 16, 9, 11, 25, 12)
DENOMS2 = (1, 2, 5, 49, 27)


def rational_weights(rng, n):
    return WeightModel({x: rational_moments(
        rng, DENOMS[x - 1], DENOMS[x - 1] * rng.choice(DENOMS2))
        for x in range(1, n + 1)})


def chain_variance(signs, ms):
    """Var of the chain CNF whose clause v is (a·x_v ∨ b·x_{v+1}), with
    (a, b) = signs[v - 1], by transfer matrices over Fractions: states are
    the values of x_v in one model (mean) or in a pair of models (second
    moment)."""
    n = len(signs) + 1

    def mu(x, s):
        return ms[x].muP if s else ms[x].muN

    def m2(x, s, t):
        m = ms[x]
        if s != t:
            return m.covPN + m.muP * m.muN
        return m.varP + m.muP ** 2 if s else m.varN + m.muN ** 2

    def ok(v, s, t):
        a, b = signs[v - 1]
        return s == (a > 0) or t == (b > 0)

    e1 = {s: mu(1, s) for s in (0, 1)}
    e2 = {(s, t): m2(1, s, t) for s in (0, 1) for t in (0, 1)}
    for v in range(1, n):
        e1 = {t: mu(v + 1, t) * sum(e1[s] for s in (0, 1) if ok(v, s, t))
              for t in (0, 1)}
        e2 = {(t, u): m2(v + 1, t, u) * sum(
                  e2[s, r] for s in (0, 1) for r in (0, 1)
                  if ok(v, s, t) and ok(v, r, u))
              for t in (0, 1) for u in (0, 1)}
    return sum(e2.values()) - sum(e1.values()) ** 2


class TestExactIntegers:
    """Exact mode runs on scaled ints; results must equal the Fraction
    referees exactly and keep the model's numeric type."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_exact_oracle(self, seed):
        rng = seeded('exact-int-%d' % seed)
        n = rng.randint(2, 6)
        f = random_circuit(rng, n)
        g = compile_cnf(random_cnf(rng, n), f.vt)
        wm = rational_weights(rng, n)
        assert exp_wmc(f, wm) == oracle_exp(f, wm)
        assert var_wmc(f, wm) == oracle_var(f, wm, exact=True)
        assert cov_wmc(f, g, wm) == oracle_cov(f, g, wm, exact=True)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_groups_match_exact_oracle(self, seed):
        rng = seeded('exact-int-group-%d' % seed)
        vt = Vtree.from_nested(((1, 2), (3, 4)))
        m1, m2 = (replace(rational_moments(rng, q, q), varN=0, covPN=0)
                  for q in (3, 7))
        c01 = Fraction(rng.randint(-5, 5), 5)
        cov = ((m1.varP, c01), (c01, Fraction(rng.randint(0, 10), 49)))
        wm = WeightModel({1: m1, 2: m2,
                          3: rational_moments(rng, 10, 20),
                          4: rational_moments(rng, 16, 16 * 27)},
                         groups=(Group((1, 2), cov),))
        gv = locate_group_vnodes(vt, wm)
        f = TestGroupedWeights().grouped_circuit(vt, rng)
        g = TestGroupedWeights().grouped_circuit(vt, rng)
        assert exp_wmc(f, wm, gv) == oracle_exp(f, wm)
        assert var_wmc(f, wm, gv) == oracle_var(f, wm, exact=True)
        assert cov_wmc(f, g, wm, gv) == oracle_cov(f, g, wm, exact=True)

    def test_result_types(self):
        # float model -> float, int model -> int, any Fraction -> Fraction,
        # also for the constant circuits whose moments are exact zeros
        vt = Vtree.right_linear(3)
        circuits = [compile_cnf(Cnf(3, cl), vt)
                    for cl in ([(1, -2), (2, 3)], [(1,), (-1,)], [(1, -1)])]
        assert [c.kind[c.root] for c in circuits[1:]] == ['F', 'T']
        fl = complementary_weights(3, 0.5, 0.01)
        ex = WeightModel({1: VarMoments(Fraction(1, 3), 1, 0, 0, 0)})
        for wm, kind in ((fl, float), (counting_weights(), int),
                         (ex, Fraction), (fl.to_exact(), Fraction)):
            for c in circuits:
                eng = MomentEngine(vt, wm)
                for got in (eng.exp(c), eng.var(c), eng.cov(c, circuits[0])):
                    assert type(got) is kind, (wm, c.kind[c.root], got)

    def test_long_chain_distinct_primes(self):
        # 300 variables, each with its own prime denominator: one global
        # scale would have ~3,000-bit factors per variable; per-variable
        # scales keep the pass fast
        n = 300
        primes = [p for p in range(2, 2000)
                  if all(p % k for k in range(2, int(p ** .5) + 1))][:n]
        rng = seeded('exact-prime-chain')
        ms = {x: VarMoments(*(Fraction(rng.randint(1, p - 1), p)
                              for _ in range(4)),
                            Fraction(-rng.randint(0, p - 1), 2 * p))
              for x, p in zip(range(1, n + 1), primes)}
        wm = WeightModel(ms)
        signs = [(rng.choice((1, -1)), rng.choice((1, -1)))
                 for _ in range(n - 1)]
        clauses = [(a * v, b * (v + 1)) for v, (a, b) in enumerate(signs, 1)]
        c = compile_cnf(Cnf(n, clauses), Vtree.right_linear(n))
        t = time.perf_counter()
        got = var_wmc(c, wm)
        elapsed = time.perf_counter() - t
        assert got == chain_variance(signs, ms)
        assert elapsed < 10     # per-variable scales: well under a second

    def test_float_agrees_on_long_chain(self):
        # the first large-circuit bound on float against exact mode
        n = 400
        rng = seeded('exact-float-chain')
        ms = {}
        for x in range(1, n + 1):
            vp, vn = rng.randint(2, 9) / 1000, rng.randint(2, 9) / 1000
            ms[x] = VarMoments(rng.randint(60, 75) / 100,
                               rng.randint(60, 75) / 100, vp, vn,
                               -min(vp, vn) / 2)
        wm = WeightModel(ms)
        clauses = [(v * rng.choice((1, -1)), (v + 1) * rng.choice((1, -1)))
                   for v in range(1, n)]
        c = compile_cnf(Cnf(n, clauses), Vtree.right_linear(n))
        ex = wm.to_exact()
        for fl, exact in ((exp_wmc(c, wm), exp_wmc(c, ex)),
                          (var_wmc(c, wm), var_wmc(c, ex))):
            assert isinstance(exact, Fraction) and exact != 0
            assert abs(Fraction(fl) - exact) <= abs(exact) / 10 ** 12


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

    def test_zero_group_entry_partial(self):
        # a zero off-diagonal entry still gets its partial, pa*pb times
        # the adjoint of each block that reads it
        vt, wm = TestGroupedWeights().make_grouped()
        wm = wm.to_exact()
        (g,) = wm.groups

        def off_diagonal(x):
            return WeightModel(wm.vars, [Group(g.members, (
                (g.cov[0][0], x), (x, g.cov[1][1])))])

        wm, bumped = off_diagonal(0), off_diagonal(1)
        gv = locate_group_vnodes(vt, wm)
        rng = seeded('var-gradient-zero-entry')
        moved = 0
        for _ in range(10):
            c = TestGroupedWeights().grouped_circuit(vt, rng)
            var, _, dgroups = var_gradient(c, wm, gv)
            step = var_wmc(c, bumped, gv) - var
            assert step == dgroups[0][0][1] + dgroups[0][1][0]
            moved += step != 0
        assert moved


def second_moment_bumps(wm, xs):
    """(key, model) for wm with one second moment raised by 1: field k of
    each ungrouped variable x in xs as key (x, k); entry [a][b], a <= b,
    of group gi as key (gi, a, b), raised on both sides of the diagonal."""
    for x in xs:
        if wm.group_of(x) is None:
            m = wm.moments(x)
            for k, name in enumerate(('varP', 'varN', 'covPN')):
                yield (x, k), WeightModel(
                    {**wm.vars, x: replace(m, **{name: getattr(m, name) + 1})},
                    wm.groups, wm.default)
    for gi, g in enumerate(wm.groups):
        for a in range(len(g.members)):
            for b in range(a, len(g.members)):
                cov = [list(row) for row in g.cov]
                cov[a][b] += 1
                cov[b][a] += a != b
                groups = list(wm.groups)
                groups[gi] = Group(g.members, cov)
                yield (gi, a, b), WeightModel(wm.vars, groups, wm.default)


def claimed_step(key, dvar, dgroups):
    """What var_gradient says the bump named by key moves Var by."""
    if len(key) == 2:
        return dvar[key[0]][key[1]]
    gi, a, b = key
    return dgroups[gi][a][b] + (dgroups[gi][b][a] if a != b else 0)


class TestGradientLongLifts:
    """Partials through lifts across many vtree levels, where a sub sits
    far below its conjunction's right child: the transposed walk carries
    their adjoints down each lift's path to the vv of every sibling."""

    @staticmethod
    def longest_lift(c):
        vt, best = c.vt, 0
        for i in c.reachable():
            if c.kind[i] == 'A':
                v = c.dnode[i]
                for side, ch in zip((vt.left[v], vt.right[v]),
                                    c.children[i]):
                    best = max(best, vt.depth[c.dnode[ch]] - vt.depth[side])
        return best

    @staticmethod
    def check_sample(c, wm, every=7):
        var, dvar, _ = var_gradient(c, wm)
        assert var == var_wmc(c, wm)
        xs = range(1, c.vt.n_vars + 1, every)
        for key, bumped in second_moment_bumps(wm, xs):
            assert var_wmc(c, bumped) - var == claimed_step(key, dvar, [])

    def test_strided_chain_right_linear(self):
        # clauses link x_i to x_{i+5}; the four variables between are free
        rng = seeded('long-lift-chain')
        n = 120
        cnf = Cnf(n, [tuple(v if rng.random() < 0.5 else -v
                            for v in (i, i + 5)) for i in range(1, n - 4, 5)])
        c = compile_cnf(cnf, Vtree.right_linear(n))
        assert self.longest_lift(c) >= 4
        self.check_sample(c, random_weights(rng, n, exact=True))

    def test_constants(self):
        # Var of TRUE is the lift of the (TRUE, TRUE) pair from the empty
        # anchor to the root: Var of W_true over every variable
        rng = seeded('long-lift-constants')
        n = 12
        vt = random_shape_vtree(rng, n)
        wm = random_weights(rng, n, exact=True)
        for clauses in ([], [(1,), (-1,)]):
            c = compile_cnf(Cnf(n, clauses), vt)
            assert c.kind[c.root] == ('T' if not clauses else 'F')
            self.check_sample(c, wm, every=1)

    def test_sparse_cnf_random_vtree(self):
        # 10 clauses over 12 of 60 variables: the other 48 are free
        rng = seeded('long-lift-random')
        n = 60
        for _ in range(2):
            vt = random_shape_vtree(rng, n)
            vs = rng.sample(range(1, n + 1), 12)
            c = compile_cnf(Cnf(n, [
                tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(vs, 3)) for _ in range(10)]), vt)
            assert self.longest_lift(c) >= 4
            self.check_sample(c, random_weights(rng, n, exact=True))


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


class PairRuleReferee(MomentEngine):
    """The covariance pass as it was before the memo held anchors: tuple
    keys, a lifting closure that recomputes each pair's lca, a split that
    finds a conjunction's orientation by ancestor tests, and leaf records
    read off the literals' signs, and group blocks that loop over the
    members per pair.  It applies the same record rule, each pair's
    (covariance, mean product), in the same order, so its results must be
    identical."""

    def cov(self, f, g):
        vt = self.vt
        lca, left, right = vt.lca, vt.left, vt.right
        fd, gd = f.dnode, g.dnode
        gmask = self.wm.grouped_mask
        scope = scopes(vt)
        same = f is g
        memo = {}
        patt = {}

        def key(a, b):
            return (b, a) if same and b < a else (a, b)

        def lifted(w, a, b):
            # a pair with FALSE sits at BOTTOM, whatever its other node
            v = BOTTOM if FALSE in (a, b) else lca(fd[a], gd[b])
            return self._up(w, v, *memo[key(a, b)])

        def leaf(a, b):
            if f.kind[a] not in 'TL' or g.kind[b] not in 'TL':
                raise ValidationError(
                    'node pair (%d, %d) does not decompose at a vtree leaf'
                    % (a, b))
            sa, sb = f.lit[a], g.lit[b]
            m = self.mom[abs(sa or sb)]
            pa, na, pb, nb = sa >= 0, sa <= 0, sb >= 0, sb <= 0
            c = 0
            for on, x in ((pa and pb, m.varP), (na and nb, m.varN),
                          (pa and nb, m.covPN), (na and pb, m.covPN)):
                if on:
                    c = c + x
            return c, (m.muP + m.muN if pa and na else m.muP if pa
                       else m.muN) \
                * (m.muP + m.muN if pb and nb else m.muP if pb else m.muN)

        root = (f.root, g.root)
        stack = [(*root, None)]
        while stack:
            a, b, plan = stack.pop()
            k = key(a, b)
            if plan is None:
                if k in memo:
                    continue
                da, db = fd[a], gd[b]
                anc = lca(da, db)
                if a == FALSE or b == FALSE or anc == BOTTOM:
                    memo[k] = 0, int(a != FALSE and b != FALSE)
                    continue
                if gmask and scope[anc] & gmask:
                    blk = self._group_members(f, a, g, b, anc, patt)
                    if blk is not None:
                        ja, jb, pab, m = self._block(*blk)
                        memo[k] = pab * self.gcov[blk[0]][ja][jb], m
                        continue
                vl = vr = 0
                if da == anc and f.kind[a] == 'O':
                    deps = [(ch, b) for ch in f.children[a]]
                elif db == anc and g.kind[b] == 'O':
                    deps = [(a, ch) for ch in g.children[b]]
                elif left[anc] == 0:
                    memo[k] = leaf(a, b)
                    continue
                else:
                    vl, vr = left[anc], right[anc]
                    (al, ar), (bl, br) = (self._split(f, a, anc),
                                          self._split(g, b, anc))
                    deps = [(al, bl), (ar, br)]
                need = [(x, y, None) for x, y in deps if key(x, y) not in memo]
                if need:
                    stack.append((a, b, (deps, vl, vr, anc)))
                    stack.extend(need)
                    continue
            else:
                deps, vl, vr, anc = plan
            if vl:
                (al, bl), (ar, br) = deps
                cl, ml = lifted(vl, al, bl)
                cr, mr = lifted(vr, ar, br)
                memo[k] = cl * cr + cl * mr + ml * cr, ml * mr
            else:
                c = m = 0
                for x, y in deps:
                    cx, mx = lifted(anc, x, y)
                    c, m = c + cx, m + mx
                memo[k] = c, m

        self.pairs = len(memo)
        return self._result(lifted(vt.root, *root)[0], 2)

    def _block(self, gi, ja, jb):
        """(ja, jb, pab, mab) for a pair at group gi's vnode whose nodes
        force members ja and jb true (-1: none): its covariance is
        pab * gcov[gi][ja][jb] (pab = ja = jb = 0 where one forces none)
        and mab its nodes' mean product."""
        mom, members = self.mom, self.wm.groups[gi].members
        pa = pb = 1
        for j, x in enumerate(members):
            mn = mom[x].muN
            if j != ja:
                pa = pa * mn
            if j != jb:
                pb = pb * mn
        mab = (pa if ja < 0 else pa * mom[members[ja]].muP) \
            * (pb if jb < 0 else pb * mom[members[jb]].muP)
        if ja < 0 or jb < 0:
            return 0, 0, 0, mab
        return ja, jb, pa * pb, mab

    def _up(self, w, v, c, m):
        """Lift a record (c, m), both over Var(v), to ancestor vnode w."""
        if v == w:
            return c, m
        if v == BOTTOM and m == 0:
            return 0, 0         # a FALSE operand: no W_true factor to share
        ea, va = self._lift(v, w)
        return va * c + va * m + ea * ea * c, ea * ea * m

    def _split(self, c, x, anc):
        vt = self.vt
        vl, vr = vt.left[anc], vt.right[anc]
        d = c.dnode[x]
        if d != anc:
            return (x, TRUE) if vt.is_ancestor(vl, d) else (TRUE, x)
        p, s = c.children[x]
        if vt.is_ancestor(vl, c.dnode[p]) and vt.is_ancestor(vr, c.dnode[s]):
            return p, s
        return s, p


def same_as_referee(vt, wm, f, g=None, gv=None):
    """cov(f, g) (var(f) without g) on the engine and on the referee:
    the same repr and the same number of resolved pairs."""
    eng, ref = MomentEngine(vt, wm, gv), PairRuleReferee(vt, wm, gv)
    got = eng.var(f) if g is None else eng.cov(f, g)
    want = ref.var(f) if g is None else ref.cov(f, g)
    assert repr(got) == repr(want)
    assert eng.pairs == ref.pairs > 0
    # once more, on the plan the first call left on f
    eng = MomentEngine(vt, wm, gv)
    got = eng.var(f) if g is None else eng.cov(f, g)
    assert repr(got) == repr(want)
    assert eng.pairs == ref.pairs
    return eng.pairs


REFEREE_DENOMS = (3, 7, 10, 16, 9, 11, 25, 12, 13, 5, 17, 8, 19, 6)


class TestPairRuleReferee:
    """The covariance pass against the pair rule it replaced."""

    @pytest.mark.parametrize('shape', ['right_linear', 'balanced', 'random'])
    def test_random_circuits(self, shape):
        rng = seeded('referee-' + shape)
        pairs = 0
        for _ in range(6):
            n = rng.randint(4, 14)
            vt = (Vtree.right_linear(n) if shape == 'right_linear' else
                  Vtree.balanced(n) if shape == 'balanced' else
                  random_vtree(rng, n))
            f, g = (compile_cnf(Cnf(n, [
                tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, n + 1), 3))
                for _ in range(rng.randint(n, 2 * n))]), vt)
                for _ in range(2))
            # a parsed copy numbers its nodes differently
            parsed = parse_sdd(sdd_text(f), vt)
            rational = WeightModel({x: rational_moments(
                rng, REFEREE_DENOMS[x - 1],
                REFEREE_DENOMS[x - 1] * rng.choice(DENOMS2))
                for x in range(1, n + 1)})
            for wm in (random_weights(rng, n), counting_weights(),
                       rational):
                for a, b in ((f, None), (parsed, None), (f, g),
                             (g, parsed)):
                    pairs += same_as_referee(vt, wm, a, b)
        assert pairs > 10000

    def test_grouped_models(self):
        vt, wm = TestGroupedWeights().make_grouped()
        gv = locate_group_vnodes(vt, wm)
        rng = seeded('referee-grouped')
        for model in (wm, wm.to_exact()):
            for _ in range(6):
                f = TestGroupedWeights().grouped_circuit(vt, rng)
                g = TestGroupedWeights().grouped_circuit(vt, rng)
                same_as_referee(vt, model, f, None, gv)
                same_as_referee(vt, model, f, g, gv)

    def test_var_gradient(self):
        # exact partials are bump differences of the referee's variance;
        # float partials stay within 1e-13 of the largest exact partial of
        # the case (measured worst over 280 such cases: 8e-16)
        rng = seeded('referee-gradient')
        cases = []
        for _ in range(6):
            c = random_circuit(rng, rng.randint(3, 9))
            for exact in (False, True):
                cases.append((c, random_weights(rng, c.vt.n_vars, exact),
                              None))
        vt, wm = TestGroupedWeights().make_grouped()
        cases.append((TestGroupedWeights().grouped_circuit(vt, rng), wm,
                      locate_group_vnodes(vt, wm)))
        for c, wm, gv in cases:
            ex = wm.to_exact()
            var = PairRuleReferee(c.vt, ex, gv).var(c)
            want = {key: PairRuleReferee(c.vt, m, gv).var(c) - var
                    for key, m in second_moment_bumps(
                        ex, range(1, c.vt.n_vars + 1))}
            _, dvar, dgroups = var_gradient(c, ex, gv)
            assert want == {key: claimed_step(key, dvar, dgroups)
                            for key in want}
            var, dvar, dgroups = var_gradient(c, wm, gv)
            if isinstance(var, float):
                tol = max(map(abs, want.values())) / 10 ** 13
                for key, step in want.items():
                    assert abs(Fraction(claimed_step(key, dvar, dgroups))
                               - step) <= tol

    @pytest.mark.parametrize('encoding', ['enc1', 'enc2'])
    def test_demo_networks(self, encoding):
        seen = 0
        for name, bn in demo_networks().items():
            if encoding == 'enc2' and any(bn.k(i) != 2
                                          for i in range(len(bn.names))):
                continue
            last = len(bn.names) - 1
            evidence = {bn.names[last]: bn.values[last][0]}
            for exact in (False, True):
                pipe = MarginalPipeline(bn, encoding, exact=exact)
                for method in ('conjoin', 'zero_weights'):
                    c, wm, gv = pipe._query(evidence, method)
                    same_as_referee(pipe.vt, wm, c, None, gv)
                    c0, _, _ = pipe._query(None, method)
                    same_as_referee(pipe.vt, wm, c0, c, gv)
            seen += 1
        assert seen >= (5 if encoding == 'enc1' else 3)


def windowed_network(n, rng):
    """A binary network in which X_i has parents X_{i-3} and X_{i-1} (those
    that exist), with CPT entries in hundredths."""
    variables = []
    for i in range(n):
        parents = sorted({max(0, i - 3), i - 1}) if i else []
        cols = [rng.randint(5, 95) for _ in range(2 ** len(parents))]
        variables.append({'name': 'X%d' % i, 'values': ['t', 'f'],
                          'parents': ['X%d' % p for p in parents],
                          'cpt': [[p / 100 for p in cols],
                                  [(100 - p) / 100 for p in cols]]})
    return BayesNet.from_json({'variables': variables,
                               'uncertainty': {'theta': 20.0}})


def count_builds(monkeypatch):
    """The (f, g) of every plan MomentEngine builds from now on."""
    built = []
    plan = MomentEngine._plan

    def counted(self, f, g):
        built.append((f, g))
        return plan(self, f, g)

    monkeypatch.setattr(MomentEngine, '_plan', counted)
    return built


def plan_records(plan):
    """(anchor, kind, arguments) of each record of a plan, in order; an
    OR's arguments are its reads, without the fan-in written around them."""
    codes, args, _, _ = plan
    out, o = [], 0
    for code in codes:
        kind = code & 7
        if kind == OR:
            m = args[o]
            assert args[o + m + 1] == m
            out.append((code >> 3, kind, tuple(args[o + 1:o + m + 1])))
            o += m + 2
        else:
            k = {ZERO: 1, GROUP: 3, LEAF: 2, SPLIT: 2, LIFT: 2}[kind]
            out.append((code >> 3, kind, tuple(args[o:o + k])))
            o += k
    assert o == len(args)
    return out


def lifted_reads(recs):
    """The reads of LIFT records among plan_records' ORs and SPLITs."""
    return [j for _, kind, reads in recs if kind in (OR, SPLIT)
            for j in reads if recs[j][1] == LIFT]


class TestPlan:
    """Each circuit pair's plan is built once, kept on f and keyed by what
    it depends on: the partner, both roots and the group layout."""

    def test_one_build_per_pair(self, monkeypatch):
        rng = seeded('plan-once')
        n = 10
        vt = Vtree.balanced(n)
        f, g = (compile_cnf(random_cnf(rng, n, max_clauses=2 * n), vt)
                for _ in range(2))
        wm = random_weights(rng, n)
        zero = WeightModel({**{x: wm.moments(x) for x in range(1, n + 1)},
                            3: VarMoments(0, 1, 0, 0, 0)})
        gvt, gwm = TestGroupedWeights().make_grouped()
        grouped = TestGroupedWeights().grouped_circuit(gvt, rng)
        gv = locate_group_vnodes(gvt, gwm)
        built = count_builds(monkeypatch)
        for model in (wm, wm.to_exact(), counting_weights(), zero):
            eng = MomentEngine(vt, model)
            eng.var(f)
            eng.exp_var(f)
            eng.cov(f, g)
            MomentEngine(vt, model).cov(f, g)
            var_gradient(f, model)
        for model in (gwm, gwm.to_exact()):
            MomentEngine(gvt, model, gv).var(grouped)
            var_gradient(grouped, model, gv)
        assert built == [(f, f), (f, g), (grouped, grouped)]

    def test_new_root_new_plan(self, monkeypatch):
        rng = seeded('plan-root')
        n = 9
        vt = random_vtree(rng, n)
        f, g = (compile_cnf(random_cnf(rng, n, max_clauses=2 * n), vt)
                for _ in range(2))
        wm = random_weights(rng, n)
        models = (wm, wm.to_exact())

        def answers(c):
            out = []
            for model in models:
                eng = MomentEngine(vt, model)
                out.append((repr(eng.var(c)), eng.pairs))
            return out

        first, r1 = answers(f), f.root
        built = count_builds(monkeypatch)
        f.root = rebuild(g, f)      # f now holds g's SDD too
        assert answers(f) == answers(g)
        assert len(built) == 2      # one for f, one for g
        f.root = r1                 # one plan per layout: rebuilt
        assert answers(f) == first
        assert len(built) == 3
        assert len(f.plans) == len(f.plans[f]) == 1

    def test_member_order_is_layout(self, monkeypatch):
        # the same group vnode with the members listed the other way
        # round: another plan, and the same variance
        vt, wm = TestGroupedWeights().make_grouped()
        (members, cov), = ((g.members, g.cov) for g in wm.groups)
        flipped = WeightModel(wm.vars, [Group(
            members[::-1], tuple(row[::-1] for row in cov[::-1]))])
        gv = locate_group_vnodes(vt, wm)
        assert locate_group_vnodes(vt, flipped) == gv
        f = TestGroupedWeights().grouped_circuit(vt, seeded('plan-members'))
        built = count_builds(monkeypatch)
        a = MomentEngine(vt, wm.to_exact(), gv).var(f)
        b = MomentEngine(vt, flipped.to_exact(), gv).var(f)
        assert a == b
        assert len(built) == 2
        # both stay: alternating layouts builds nothing more
        MomentEngine(vt, wm, gv).var(f)
        MomentEngine(vt, flipped, gv).var(f)
        assert len(built) == 2

    def test_failed_build_keeps_nothing(self):
        # two members true at the group vnode: the build raises every time
        vt, wm = grouped_model()
        c = compile_cnf(Cnf(vt.n_vars, [(1,), (2,)]), vt)
        for _ in range(2):
            with pytest.raises(CorrelationScopeError, match='two members'):
                MomentEngine(vt, wm, locate_group_vnodes(vt, wm)).var(c)
            assert len(c.plans) == 0

    def test_partner_not_kept_alive(self):
        rng = seeded('plan-weak')
        vt = Vtree.balanced(6)
        f, g = (compile_cnf(random_cnf(rng, 6), vt) for _ in range(2))
        MomentEngine(vt, random_weights(rng, 6)).cov(f, g)
        assert len(f.plans) == 1
        dead = weakref.ref(g)
        del g
        gc.collect()
        assert dead() is None
        assert len(f.plans) == 0

    def test_bytes_per_pair(self):
        # flat int arrays of record reads: about 15 bytes per pair
        rng = seeded('plan-bytes')
        n = 400
        vt = Vtree.right_linear(n)
        f, g = (compile_cnf(Cnf(n, [tuple(v if rng.random() < 0.5 else -v
                                          for v in (x, x + 1))
                                    for x in range(1, n)]), vt)
                for _ in range(2))
        eng = MomentEngine(vt, random_weights(rng, n))
        eng.var(f)
        pairs = eng.pairs
        eng.cov(f, g)
        pairs += eng.pairs
        kept = sum(sys.getsizeof(a) for plans in f.plans.values()
                   for _, plan in plans.values() for a in plan)
        assert len(g.plans) == 0
        assert kept <= 20 * pairs, (kept, pairs)

    def test_network_bytes_per_pair(self):
        # a network plan reads many records through lifts: each distinct
        # lifted read costs one LIFT record, and each distinct lift one
        # (v, w) pair, counted here too (about 19.2 bytes per pair)
        pipe = MarginalPipeline(windowed_network(8, seeded('net-bytes')))
        c, wm, gv = pipe._query({'X7': 't'}, 'zero_weights')
        eng = MomentEngine(pipe.vt, wm, gv)
        eng.var(c)
        (_, plan), = c.plans[c].values()
        assert len(lifted_reads(plan_records(plan))) > eng.pairs / 4
        kept = sum(map(sys.getsizeof, plan[:3])) \
            + sum(map(sys.getsizeof, plan[2]))
        assert kept <= 20 * eng.pairs, (kept, eng.pairs)

    def test_each_lift_once_per_evaluation(self, monkeypatch):
        # a warm query asks _lift once per distinct lift its reads need,
        # the roots' read included: no lift is made outside the plan
        assert not hasattr(MomentEngine, '_up')
        calls = []
        lift = MomentEngine._lift

        def counted(self, v, w):
            calls.append((v, w))
            return lift(self, v, w)
        monkeypatch.setattr(MomentEngine, '_lift', counted)
        for name in ('exp_table', '_top'):  # exp_var's expectation side
            method = getattr(MomentEngine, name)

            def uncounted(self, *args, method=method):
                seen = calls[:]
                try:
                    return method(self, *args)
                finally:
                    calls[:] = seen
            monkeypatch.setattr(MomentEngine, name, uncounted)
        for exact in (False, True):
            pipe = MarginalPipeline(demo_networks()['alarm5'], 'enc2',
                                    exact=exact)
            c, wm, gv = pipe._query({'JohnCalls': 't'}, 'conjoin')
            c0, _, _ = pipe._query(None, 'conjoin')
            eng = MomentEngine(pipe.vt, wm, gv)
            for run in (lambda: eng.var(c), lambda: eng.cov(c, c0),
                        lambda: eng.cov(c0, c), lambda: eng.exp_var(c),
                        lambda: var_gradient(c, wm, gv)):
                run()               # builds or reuses the plan
                calls.clear()
                run()
                assert len(set(calls)) > 5
                assert len(calls) == len(set(calls)), calls

    def test_last_record_reads_the_roots(self):
        # every plan ends with an OR of fan-in 1 at the vtree root whose
        # one read is the roots' pair: it lifts exactly when that pair's
        # record sits below the vtree root, and never for FALSE's (0, 0),
        # which sits at BOTTOM whatever the other root
        rng = seeded('plan-last')
        seen = set()
        for _ in range(12):
            n = rng.randint(3, 8)
            vt = random_vtree(rng, n)
            wm = random_weights(rng, n)
            cs = [compile_cnf(cnf, vt) for cnf in (
                Cnf(n, []), Cnf(n, [(1,), (-1,)]), Cnf(n, [(n,)]),
                random_cnf(rng, n), random_cnf(rng, n, max_clauses=2))]
            for f in cs:
                for g in cs:
                    MomentEngine(vt, wm).cov(f, g)
                    (_, plan), = f.plans[g].values()
                    codes, args, lifts, _ = plan
                    recs = plan_records(plan)
                    assert codes[-1] == vt.root << 3 | OR
                    assert args[-1] == args[-3] == 1
                    # the roots' record, read through a LIFT written
                    # just before the last record when it lifts
                    j = args[-2]
                    assert j == len(codes) - 2
                    lift = recs[j][1] == LIFT
                    if lift:
                        j, s = recs[j][2]
                        assert j == len(codes) - 3
                    v = recs[j][0]
                    false = FALSE in (f.root, g.root)
                    assert v == (BOTTOM if false else
                                 vt.lca(f.dnode[f.root], g.dnode[g.root]))
                    assert lift == (v != vt.root and not false)
                    if lift:
                        assert lifts[s] == (v, vt.root)
                    seen.add((v == BOTTOM, false, lift))
        assert seen == {(True, True, False), (True, False, True),
                        (False, False, True), (False, False, False)}

    def test_one_lift_per_distinct_read(self):
        # every read is a record id: a pair's record where the reader
        # needs it (or FALSE's, at BOTTOM), else the one LIFT of that
        # record to that anchor, which reads a pair's record, not a LIFT
        # and not FALSE's
        rng = seeded('plan-lifts')
        vt, wm = grouped_model()
        grouped = [(vt, wm, locate_group_vnodes(vt, wm),
                    TestGroupedWeights().grouped_circuit(vt, rng))
                   for _ in range(4)]
        pipe = MarginalPipeline(windowed_network(6, rng))
        net = [(pipe.vt, wm, gv, c) for c, wm, gv in (
            pipe._query({'X5': 't'}, 'zero_weights'),
            pipe._query({'X2': 'f'}, 'conjoin'))]
        plain = []
        for _ in range(10):
            n = rng.randint(3, 9)
            vt = random_vtree(rng, n)
            plain.append((vt, random_weights(rng, n), None,
                          compile_cnf(random_cnf(rng, n), vt)))
        kinds, count = set(), 0
        for vt, wm, gv, c in grouped + net + plain:
            eng = MomentEngine(vt, wm, gv)
            eng.var(c)
            (_, plan), = c.plans[c].values()
            codes, args, lifts, pairs = plan
            recs = plan_records(plan)
            ups = [r for _, kind, r in recs if kind == LIFT]
            assert len(set(ups)) == len(ups)
            assert pairs == eng.pairs == len(recs) - len(ups) - 1
            assert sorted({s for _, s in ups}) == list(range(len(lifts)))
            false = {i for i, r in enumerate(recs)
                     if r == (BOTTOM, ZERO, (0,))}
            for i, (w, kind, reads) in enumerate(recs):
                if kind == LIFT:
                    j, s = reads
                    v = recs[j][0]
                    assert j < i and lifts[s] == (v, w)
                    assert recs[j][1] != LIFT and j not in false
                    assert v != w and vt.is_ancestor(w, v)
                elif kind in (OR, SPLIT):
                    need = (w,) * len(reads) if kind == OR else \
                        (vt.left[w], vt.right[w])
                    for j, u in zip(reads, need):
                        assert j < i
                        assert recs[j][0] == u or j in false
                kinds.add(kind)
            count += len(ups)
        assert kinds == {ZERO, GROUP, LEAF, OR, SPLIT, LIFT}
        assert count > 100

    def test_network_reads_lifts_many_times(self):
        # a windowed network reads the same lifted records again and
        # again: each is computed once for all of its readers
        pipe = MarginalPipeline(windowed_network(8, seeded('net-lifts')))
        c, wm, gv = pipe._query(None, 'zero_weights')
        MomentEngine(pipe.vt, wm, gv).var(c)
        (_, plan), = c.plans[c].values()
        recs = plan_records(plan)
        ups = sum(kind == LIFT for _, kind, _ in recs)
        assert len(lifted_reads(recs)) > 2 * ups > 0

    def test_sweep_after_zero_weights_query(self, monkeypatch):
        built = count_builds(monkeypatch)
        ev = {'JohnCalls': 't'}
        for encoding in ('enc1', 'enc2'):
            pipe = MarginalPipeline(demo_networks()['alarm5'], encoding)
            pipe.moments(ev, 'zero_weights')
            del built[:]
            pipe.sweep(ev)
            assert built == []


def count_tables(monkeypatch):
    """The circuit of every expectation table MomentEngine builds from now
    on."""
    seen = []
    table = MomentEngine.exp_table

    def counted(self, c):
        seen.append(c)
        return table(self, c)

    monkeypatch.setattr(MomentEngine, 'exp_table', counted)
    return seen


def malformed(shape):
    """A circuit on Vtree.balanced(3) whose root conjunction is ternary or
    overlaps its own child."""
    c = Circuit(Vtree.balanced(3))
    l1, l2, l3 = (c.literal(x) for x in (1, 2, 3))
    c.root = (c.conj((l1, l2, l3)) if shape == 'ternary'
              else c.conj((l1, c.disj((l1, c.literal(-2))))))
    return c


def engine_rule(c):
    """The engine's verdict on c's structure, read off variable sets: None,
    or the refusal of the first reachable node that breaks the rule: an
    or-node with no variable, or a conjunction that is not binary or whose
    children's variables do not lie under the left and the right child of
    the vnode over its own variables."""
    vt, sc, under = c.vt, scopes(c), scopes(c.vt)
    seen, stack = set(), [c.root]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(c.children[i])
    for i in sorted(seen):
        chs = c.children[i]
        if c.kind[i] == 'O' and not sc[i]:
            return 'or-node %d has no variable' % i
        if c.kind[i] != 'A':
            continue
        if len(chs) != 2:
            return 'conjunction %d is not binary; normalize first' % i
        v = vt.deepest_containing(sc[i])
        if sc[chs[0]] & ~under[vt.left[v]] or sc[chs[1]] & ~under[vt.right[v]]:
            return 'conjunction %d does not split at its vnode' % i
    return None


def structure_corpus(rng):
    """Random gates over random vtrees of 1-5 variables, compiled CNFs,
    hand-built faults, and conjunctions over an or-node of TRUE (at
    BOTTOM)."""
    out = [random_gates(rng, rng.randint(1, 5), range(1, 13))
           for _ in range(200)]
    out += [random_circuit(rng, rng.randint(2, 7)) for _ in range(30)]
    out += [malformed('ternary'), malformed('overlapping')]
    for vt, build in (
            (Vtree.from_nested(((1, 2), 3)),    # splits on no vnode
             lambda c: c.conj((c.disj((c.literal(1), c.literal(3))),
                               c.literal(2)))),
            (Vtree.balanced(2),
             lambda c: c.conj((c.disj((TRUE, TRUE)), c.literal(1)))),
            (Vtree.right_linear(1),
             lambda c: c.conj((c.disj((TRUE, TRUE)),) * 2))):
        c = Circuit(vt)
        c.root = build(c)
        out.append(c)
    return out


class TestStructureCheck:
    """A circuit's structure is checked once per root and kept on it
    (Circuit.checked); with or without correlated groups only exp and
    exp_var build an expectation table."""

    def test_validate_and_engine_share_the_walk(self):
        # validate reports a circuit structured exactly when the engine's
        # walk passes it; otherwise its first problem names the node the
        # walk refuses
        rng = seeded('shared-walk')
        for c in structure_corpus(rng):
            eng = MomentEngine(c.vt, random_weights(rng, c.vt.n_vars))
            # under its root, any node of c as a moved root, its root again
            for root in (c.root, rng.randrange(len(c)), c.root):
                c.root = root
                rule = engine_rule(c)
                for limit in (0, 20):
                    c.checked = None
                    got = [validate(c, limit)]
                    answer = repr(outcome(lambda: eng.var(c)))
                    got.append(validate(c, limit))
                    c.checked = None
                    assert repr(outcome(lambda: eng.var(c))) == answer
                    got.append(validate(c, limit))
                    assert got == [got[0]] * 3
                    assert got[0].structured == (rule is None)
                    if rule is None:
                        assert c.checked[:2] == (c.root, [
                            i for i in c.reachable() if i > TRUE])
                        continue
                    assert outcome(c.checked_nodes) == (ValidationError, rule)
                    assert c.checked is None
                    assert got[0].problems[0].split()[1] == rule.split()[1]
                    # an or-node with no variable is never deterministic
                    if limit and rule.endswith('has no variable'):
                        assert got[0].determinism == 'refuted'

    def test_warm_reductions_walk_nothing(self, monkeypatch):
        rng = seeded('warm-reductions')
        vt = Vtree.balanced(6)
        f, g = (compile_cnf(random_cnf(rng, 6), vt) for _ in range(2))
        runs = (lambda: count_via_variance(f), lambda: entails_via_cov(f, g),
                lambda: ite_cov_identity_check(f, g))
        for run in runs:
            run()
        walks = []
        reachable = Circuit.reachable
        monkeypatch.setattr(Circuit, 'reachable', lambda c: walks.append(
            (sys._getframe(1).f_code.co_name, c in (f, g))) or reachable(c))
        for run in runs:
            run()
        # the selector construction copies f and g into a new circuit and
        # checks that: neither validate nor the engine walks f or g again
        assert walks == [('rebuild', True), ('rebuild', True),
                         ('checked_nodes', False)]

    def test_tables_without_groups(self, monkeypatch):
        rng = seeded('tables-no-groups')
        n = 8
        vt = Vtree.balanced(n)
        plain = [compile_cnf(random_cnf(rng, n, max_clauses=2 * n), vt)
                 for _ in range(2)] + [random_weights(rng, n), None]
        gvt, gwm = grouped_model()
        grouped = [TestGroupedWeights().grouped_circuit(gvt, rng)
                   for _ in range(2)] + [gwm, locate_group_vnodes(gvt, gwm)]
        seen = count_tables(monkeypatch)
        for f, g, wm, gv in (plain, grouped):
            eng = MomentEngine(f.vt, wm, gv)
            for run, want in ((lambda: eng.var(f), []),
                              (lambda: eng.cov(f, g), []),
                              (lambda: count_via_variance(f), []),
                              (lambda: var_gradient(f, wm, gv), []),
                              (lambda: eng.exp(f), [f]),
                              (lambda: eng.exp_var(g), [g])):
                seen.clear()
                run()
                assert seen == want

    def test_checked_once_per_root(self, monkeypatch):
        rng = seeded('checked-once')
        vt = Vtree.balanced(6)
        f, g = (compile_cnf(random_cnf(rng, 6), vt) for _ in range(2))
        eng = MomentEngine(vt, random_weights(rng, 6))
        eng.cov(f, g)
        assert f.checked[0] == f.root and g.checked[0] == g.root
        walks = []
        reachable = Circuit.reachable
        monkeypatch.setattr(Circuit, 'reachable',
                            lambda c: walks.append(c) or reachable(c))
        eng.var(f)
        eng.exp_var(g)
        eng.cov(g, f)
        assert walks == []

    @pytest.mark.parametrize('shape, want', [
        ('ternary', 'conjunction 5 is not binary; normalize first'),
        ('overlapping', 'conjunction 7 does not split at its vnode')])
    def test_structural_errors(self, shape, want):
        c = malformed(shape)
        g = Circuit(c.vt)
        g.root = g.conj((g.literal(1), g.literal(2)))
        eng = MomentEngine(c.vt, random_weights(seeded('malformed'), 3))
        for run in (lambda: eng.var(c), lambda: eng.cov(c, g),
                    lambda: eng.cov(g, c), lambda: eng.exp(c)):
            for _ in range(2):      # a check that raises keeps nothing
                assert outcome(run) == (ValidationError, want)
        assert c.checked is None
        assert len(c.plans) == len(g.plans) == 0

    def test_new_root_checked_again(self):
        rng = seeded('checked-root')
        vt = Vtree.balanced(3)
        f, g = (compile_cnf(random_cnf(rng, 3), vt) for _ in range(2))
        wm = random_weights(rng, 3)
        eng = MomentEngine(vt, wm)
        first, r1 = eng.exp_var(f), f.root
        f.root = f.conj(tuple(f.literal(x) for x in (1, 2, 3)))
        for run in (lambda: eng.var(f), lambda: eng.exp(f)):
            assert outcome(run) == (
                ValidationError,
                'conjunction %d is not binary; normalize first' % f.root)
        f.root = rebuild(g, f)      # nodes the first root did not reach
        assert eng.exp_var(f) == eng.exp_var(g)
        assert f.checked[0] == f.root
        f.root = r1
        assert eng.exp_var(f) == first
