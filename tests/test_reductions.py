from fractions import Fraction

import pytest

from conftest import random_circuit, random_cnf, random_vtree, seeded
from wmcvar.circuit import Circuit, Vtree, parse_sdd, parse_vtree, sdd_text
from wmcvar.errors import ValidationError
from wmcvar.moments import var_wmc
from wmcvar.oracle import enumerate_models
from wmcvar.reductions import (count_via_variance, entails_via_cov,
                               ite_circuit, ite_cov_identity_check)
from wmcvar.sddc import Cnf, compile_cnf
from wmcvar.weights import VarMoments, WeightModel, counting_weights


class TestCounting:
    def test_random_circuits_exact(self):
        rng = seeded('count-circuits')
        for _ in range(60):
            c = random_circuit(rng, rng.randint(2, 9))
            assert count_via_variance(c) == len(enumerate_models(c))

    def test_sandwich(self):
        # a function with m models has counting variance m(4^n - m)
        rng = seeded('count-sandwich')
        for _ in range(40):
            c = random_circuit(rng, rng.randint(2, 8))
            n = c.vt.n_vars
            var = var_wmc(c, counting_weights().to_exact())
            m = len(enumerate_models(c))
            assert var == m * (4 ** n - m)

    def test_model_lists(self):
        # counting straight from a model list goes through the oracle
        assert count_via_variance([3, 5, 9], n=4) == 3
        assert count_via_variance([], n=4) == 0
        assert count_via_variance(list(range(16)), n=4) == 16

    def test_full_and_empty_circuits(self):
        vt = Vtree.balanced(3)
        assert count_via_variance(compile_cnf(Cnf(3, []), vt)) == 8
        assert count_via_variance(
            compile_cnf(Cnf(3, [(1,), (-1,)]), vt)) == 0

    def test_nondeterministic_circuit_raises(self):
        # x1 twice under one or-node; with the exhaustive check off the
        # engine runs, and its variance fits no model count
        vt = parse_vtree('vtree 3\nL 0 1\nL 1 2\nI 2 0 1\n')
        c = parse_sdd('sdd 3\nL 0 0 1\nT 1\nD 2 2 2 0 1 0 1\n', vt)
        assert count_via_variance(c) == 2       # refuted: oracle fallback
        with pytest.raises(ValidationError, match='deterministic'):
            count_via_variance(c, determinism_limit=0)


class TestEntailment:
    def test_against_model_subset(self):
        rng = seeded('entails')
        hits = 0
        for _ in range(60):
            n = rng.randint(2, 7)
            vt = random_vtree(rng, n)
            f = compile_cnf(random_cnf(rng, n), vt)
            g = compile_cnf(random_cnf(rng, n, max_clauses=2), vt)
            want = set(enumerate_models(f)) <= set(enumerate_models(g))
            assert entails_via_cov(f, g) == want
            hits += want
        assert 0 < hits < 60  # both outcomes exercised

    def test_conjunction_entails_conjunct(self):
        vt = Vtree.balanced(4)
        fg = compile_cnf(Cnf(4, [(1, 2), (3,)]), vt)
        g = compile_cnf(Cnf(4, [(1, 2)]), vt)
        assert entails_via_cov(fg, g)
        assert not entails_via_cov(g, fg)

    def test_structurally_equal_vtrees_accepted(self):
        # distinct Vtree objects with the same shape must interoperate
        f = compile_cnf(Cnf(3, [(1, 2)]), Vtree.balanced(3))
        g = compile_cnf(Cnf(3, [(1, 2), (3,)]), Vtree.balanced(3))
        assert f.vt is not g.vt
        assert entails_via_cov(g, f)

    def test_mismatched_vtrees_fall_back(self):
        # different shapes cannot share the circuit engine, but the
        # reduction still answers through enumeration
        f = compile_cnf(Cnf(4, [(1,), (2,)]), Vtree.balanced(4))
        g = compile_cnf(Cnf(4, [(1,)]), Vtree.right_linear(4))
        assert entails_via_cov(f, g)
        assert not entails_via_cov(g, f)

    def test_deep_vtrees_of_separate_objects(self):
        # two 1,200-deep right-linear vtree objects: neither comparing
        # them nor extending one by the selector recurses per level
        n = 1200
        f = compile_cnf(Cnf(n, [(1,), (-600, 601), (n,)]),
                        Vtree.right_linear(n))
        g = compile_cnf(Cnf(n, [(-600, 601), (n,)]), Vtree.right_linear(n))
        assert f.vt is not g.vt
        assert entails_via_cov(f, g) and not entails_via_cov(g, f)
        assert ite_cov_identity_check(f, g)['residual'] == 0

    def test_unstructured_circuit_falls_back(self):
        # rebasing g onto f's vtree cannot binarize a conjunction whose
        # child straddles the split; the reductions enumerate instead
        f = compile_cnf(Cnf(4, [(1, 2)]), Vtree.balanced(4))
        g = Circuit(Vtree.balanced(4))
        x = {v: g.literal(v) for v in range(1, 5)}
        g.root = g.conj((g.conj((x[1], x[3])), x[2], x[4]))
        assert entails_via_cov(g, f) and not entails_via_cov(f, g)
        assert ite_cov_identity_check(f, g)['residual'] == 0


class TestIte:
    def test_selector_semantics(self):
        rng = seeded('ite-sem')
        for _ in range(25):
            n = rng.randint(2, 6)
            vt = random_vtree(rng, n)
            f = compile_cnf(random_cnf(rng, n), vt)
            g = compile_cnf(random_cnf(rng, n), vt)
            h, z = ite_circuit(f, g)
            assert z == n + 1
            got = set(enumerate_models(h))
            want = {m | (1 << n) for m in enumerate_models(f)}
            want |= set(enumerate_models(g))
            assert got == want

    def test_identity_counting_weights(self):
        rng = seeded('ite-counting')
        for _ in range(30):
            n = rng.randint(2, 6)
            vt = random_vtree(rng, n)
            f = compile_cnf(random_cnf(rng, n), vt)
            g = compile_cnf(random_cnf(rng, n), vt)
            r = ite_cov_identity_check(f, g)
            assert r['residual'] == 0
            assert isinstance(r['lhs'], (int, Fraction))

    def test_identity_arbitrary_rational_weights(self):
        # the identity holds for any exact weights on the original
        # variables, not only the counting ones
        rng = seeded('ite-arbitrary')
        for _ in range(20):
            n = rng.randint(2, 5)
            vt = random_vtree(rng, n)
            f = compile_cnf(random_cnf(rng, n), vt)
            g = compile_cnf(random_cnf(rng, n), vt)
            wm = WeightModel({v: VarMoments(
                Fraction(rng.randint(-4, 8), 8),
                Fraction(rng.randint(-4, 8), 8),
                Fraction(rng.randint(0, 6), 16),
                Fraction(rng.randint(0, 6), 16),
                Fraction(rng.randint(-2, 2), 16))
                for v in range(1, n + 1)})
            r = ite_cov_identity_check(f, g, wm)
            assert r['residual'] == 0, (r, n)

    def test_covariance_recovered(self):
        # lhs of the identity equals the engine covariance
        from wmcvar.moments import cov_wmc
        rng = seeded('ite-recover')
        for _ in range(10):
            n = rng.randint(2, 5)
            vt = random_vtree(rng, n)
            f = compile_cnf(random_cnf(rng, n), vt)
            g = compile_cnf(random_cnf(rng, n), vt)
            cw = counting_weights().to_exact()
            r = ite_cov_identity_check(f, g)
            assert r['lhs'] == cov_wmc(f, g, cw)

    def test_one_engine_per_vtree(self, monkeypatch):
        # entails reads var and cov from one engine; the identity reads
        # f's and g's moments from one and h's from a second, over the
        # vtree extended by the selector
        from wmcvar import moments, reductions
        made = []

        class Counting(moments.MomentEngine):
            def __init__(self, vt, *args):
                super().__init__(vt, *args)
                made.append(vt)

        monkeypatch.setattr(reductions, 'MomentEngine', Counting)
        n = 6
        f = compile_cnf(Cnf(n, [(1, 2), (-3, 4)]), Vtree.right_linear(n))
        g = compile_cnf(Cnf(n, [(1, 2)]), Vtree.right_linear(n))
        assert entails_via_cov(f, g)
        assert len(made) == 1 and made[0] is f.vt
        del made[:]
        assert ite_cov_identity_check(f, g)['residual'] == 0
        assert len(made) == 2 and made[0] is f.vt
        assert made[1].n_vars == n + 1

    def test_selector_collision_rejected(self):
        f = compile_cnf(Cnf(3, [(1,)]), Vtree.balanced(3))
        g = compile_cnf(Cnf(3, [(2,)]), f.vt)
        with pytest.raises(ValidationError):
            ite_cov_identity_check(f, g, z=2)


def test_repeat_count_enumerates_once(monkeypatch):
    # validate keeps its exhaustive determinism verdict with the
    # structure's, per root: eight counts of a parsed circuit, which is
    # not deterministic by construction, enumerate its 2^16 assignments
    # once
    n = 16
    vt = Vtree.right_linear(n)
    compiled = compile_cnf(Cnf(n, [(v, v + 1) for v in range(1, n)]), vt)
    c = parse_sdd(sdd_text(compiled), parse_vtree(vt.to_text()))
    assert not c.deterministic_by_construction
    want = count_via_variance(compiled)
    passes = []
    blocks = Circuit.truth_blocks
    monkeypatch.setattr(Circuit, 'truth_blocks', lambda self, *a, **kw: (
        passes.append(self) or blocks(self, *a, **kw)))
    assert [count_via_variance(c) for _ in range(8)] == [want] * 8
    assert passes == [c]
