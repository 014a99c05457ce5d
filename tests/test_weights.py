import json
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wmcvar import weights
from wmcvar.errors import FormatError, WeightError
from wmcvar.weights import (Group, VarMoments, WeightModel, beta_variance,
                            counting_weights, dirichlet_group_moments,
                            group_cov_from_probs, selector_weights)


class TestSpecialMoments:
    def test_counting(self):
        m = counting_weights().default
        assert (m.muP, m.muN) == (1, 1)
        assert (m.varP, m.varN, m.covPN) == (3, 3, -1)

    def test_selector(self):
        m = selector_weights()
        assert (m.muP, m.muN) == (1, 1)
        assert (m.varP, m.varN, m.covPN) == (3, 3, -3)

    def test_counting_per_model_variance(self):
        # a single model's weight: mean 1, second moment 4^n
        m = counting_weights().default
        e2_true = m.varP + m.muP ** 2
        e2_false = m.varN + m.muN ** 2
        for n in range(1, 6):
            second = e2_true ** n
            assert second == 4 ** n
            assert e2_false ** n == 4 ** n


class TestBeta:
    def test_variance_formula(self):
        assert_allclose(beta_variance(0.3, 20), 0.3 * 0.7 / 20)
        assert beta_variance(Fraction(1, 4), 8) == Fraction(3, 128)

    def test_degenerate(self):
        assert beta_variance(0.0, 10) == 0.0
        assert beta_variance(1.0, 10) == 0.0


class TestDirichlet:
    def test_moments_match_closed_form(self):
        alphas = (2.0, 3.0, 5.0)
        s = sum(alphas)
        means, cov = dirichlet_group_moments(alphas)
        assert_allclose(means, [a / s for a in alphas])
        for i in range(3):
            for j in range(3):
                ai, aj = alphas[i], alphas[j]
                if i == j:
                    want = ai * (s - ai) / (s * s * (s + 1))
                else:
                    want = -ai * aj / (s * s * (s + 1))
                assert_allclose(cov[i][j], want)

    def test_group_cov_from_probs(self):
        ps = (0.2, 0.5, 0.3)
        theta = 10
        cov = np.array(group_cov_from_probs(ps, theta))
        for i in range(3):
            for j in range(3):
                want = ps[i] * (1 - ps[i]) if i == j else -ps[i] * ps[j]
                assert_allclose(cov[i][j], want / theta, rtol=1e-12)
        # same shape as a Dirichlet with pseudo-count theta, rescaled
        _, dir_cov = dirichlet_group_moments(tuple(p * theta for p in ps))
        assert_allclose(cov, np.array(dir_cov) * (theta + 1) / theta,
                        rtol=1e-12)
        # rows of a probability vector sum to 1, so covariances cancel
        assert_allclose(cov.sum(axis=0), 0, atol=1e-15)
        assert min(np.linalg.eigvalsh(cov)) > -1e-12

    def test_degenerate_rows_zeroed(self):
        cov = np.array(group_cov_from_probs((0.0, 1.0), 5))
        assert_allclose(cov, 0, atol=0)


class TestWeightModel:
    def test_default_and_override(self):
        wm = WeightModel({2: VarMoments(0.5, 0.5, 0.01, 0.01, -0.01)})
        assert wm.moments(1).muP == 1
        assert wm.moments(2).muP == 0.5

    def test_json_round_trip(self):
        wm = WeightModel(
            {1: VarMoments(0.3, 0.7, 0.02, 0.02, -0.02),
             2: VarMoments(1, 1, 3, 3, -1)},
            groups=(Group((1, 2), ((0.01, -0.005), (-0.005, 0.01))),))
        again = WeightModel.from_json(json.dumps(wm.to_json()))
        assert again.moments(1) == wm.moments(1)
        assert again.moments(2) == wm.moments(2)
        assert len(again.groups) == 1
        assert again.groups[0].members == (1, 2)

    def test_to_exact(self):
        wm = WeightModel({1: VarMoments(0.5, 0.5, 0.25, 0.25, -0.25)})
        ex = wm.to_exact()
        m = ex.moments(1)
        assert isinstance(m.muP, Fraction) and m.muP == Fraction(1, 2)
        assert m.covPN == Fraction(-1, 4)

    def test_to_exact_converts_each_value_once(self, monkeypatch):
        seen = []

        def counted(x):
            seen.append(x)
            return Fraction(str(x)) if isinstance(x, float) else Fraction(x)

        monkeypatch.setattr(weights, 'to_fraction', counted)
        m = VarMoments(0.5, 0.25, 0.01, 0.01, -0.01)
        wm = WeightModel({v: m for v in range(1, 50)},
                         groups=(Group((1, 2), ((0.01, 0), (0, 0.01))),))
        ex = wm.to_exact()
        # 0.5, 0.25, 0.01, -0.01 and the int 0 of the group; the default's
        # ints 1 and 0
        assert sorted(map(repr, seen)) == sorted(
            map(repr, [0.5, 0.25, 0.01, -0.01, 0, 1]))
        assert ex.moments(7).varP == Fraction(1, 100)
        assert ex.groups[0].cov[0][1] == 0

    def test_json_rational_strings(self):
        doc = {'variables': {'1': {'muP': '1/3', 'muN': '2/3',
                                   'varP': '1/90', 'covPN': 0.5}},
               'groups': [{'members': [1, 2],
                           'cov': [['1/90', '-1/7'], ['-1/7', 0.25]]}]}
        ex = WeightModel.from_json(doc, exact=True)
        m = ex.vars[1]
        assert (m.muP, m.muN, m.varP, m.varN, m.covPN) == (
            Fraction(1, 3), Fraction(2, 3), Fraction(1, 90), 0,
            Fraction(1, 2))
        assert all(type(x) is Fraction for x in (m.muP, m.varN, m.covPN))
        assert ex.groups[0].cov[0][1] == Fraction(-1, 7)
        fl = WeightModel.from_json(doc)
        assert fl.vars[1].muP == float(Fraction(1, 3))
        assert fl.groups[0].cov == ((1 / 90, -1 / 7), (-1 / 7, 0.25))
        assert type(fl.vars[1].covPN) is float

    @pytest.mark.parametrize('bad', [True, False, 'one third', '1/0',
                                     None, [1]])
    def test_json_rejects_non_numbers(self, bad):
        for exact in (False, True):
            with pytest.raises(FormatError):
                WeightModel.from_json(
                    {'variables': {'1': {'muP': bad}}}, exact=exact)

    @pytest.mark.parametrize('members, cov', [
        ([1.9, 2], [[0, 0], [0, 0]]),      # not truncated to 1
        ([True, 2], [[0, 0], [0, 0]]),     # not read as 1
        (['x', 2], [[0, 0], [0, 0]]),
        (['1', 2], [[0, 0], [0, 0]]),
        ('12', [[0, 0], [0, 0]]),
        ({'1': 2}, [[0, 0], [0, 0]]),
        ([1, 2], 'cov'),
        ([1, 2], [0, 0]),
        ([1, 2], None),
    ])
    def test_json_rejects_bad_groups(self, members, cov):
        doc = {'variables': {'1': {'varN': 0}, '2': {'varN': 0}},
               'groups': [{'members': members, 'cov': cov}]}
        for exact in (False, True):
            with pytest.raises(FormatError):
                WeightModel.from_json(doc, exact=exact)

    def test_grouped_vars_need_degenerate_negative(self):
        # group covariance only speaks about the positive weights, so the
        # negative side must be deterministic
        wm = WeightModel(
            {1: VarMoments(0.2, 1, 0.0, 0.1, 0.0),
             2: VarMoments(0.8, 1, 0.0, 0.0, 0.0)},
            groups=(Group((1, 2), ((0.01, -0.01), (-0.01, 0.01))),))
        with pytest.raises(WeightError):
            wm.validate_for(2)

    def test_group_member_without_moments(self):
        wm = WeightModel(groups=(Group((1, 9), ((0, 0), (0, 0))),))
        with pytest.raises(WeightError):
            wm.validate_for(3)

    def test_overlapping_groups_rejected(self):
        g1 = Group((1, 2), ((0, 0), (0, 0)))
        g2 = Group((2, 3), ((0, 0), (0, 0)))
        with pytest.raises(WeightError):
            WeightModel({v: VarMoments(0.5, 1, 0, 0, 0) for v in (1, 2, 3)},
                        groups=(g1, g2))
