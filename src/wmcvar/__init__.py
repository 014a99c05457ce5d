"""Moments of weighted model counts over structured d-DNNF circuits."""

from .circuit import (BOTTOM, FALSE, TRUE, Circuit, Vtree, normalize,
                      parse_sdd, parse_vtree, sdd_text, validate)
from .errors import (CompileBudgetError, CorrelationScopeError, EvidenceError,
                     FormatError, ValidationError, VtreeMismatchError,
                     WeightError, WmcvarError)
from .moments import (MomentEngine, cov_wmc, exp_wmc, locate_group_vnodes,
                      var_wmc)
from .oracle import enumerate_models, oracle_cov, oracle_exp, oracle_var
from .reductions import (count_via_variance, entails_via_cov, ite_circuit,
                         ite_cov_identity_check)
from .sddc import Cnf, SddBuilder, compile_cnf, condition1_vtree
from .weights import (Group, VarMoments, WeightModel, beta_variance,
                      counting_weights, dirichlet_group_moments,
                      group_cov_from_probs, selector_weights)

__all__ = [
    'BOTTOM', 'FALSE', 'TRUE', 'Circuit', 'Vtree', 'normalize', 'parse_sdd',
    'parse_vtree', 'sdd_text', 'validate',
    'CompileBudgetError', 'CorrelationScopeError', 'EvidenceError',
    'FormatError', 'ValidationError', 'VtreeMismatchError', 'WeightError',
    'WmcvarError',
    'Group', 'VarMoments', 'WeightModel', 'beta_variance', 'counting_weights',
    'dirichlet_group_moments', 'group_cov_from_probs', 'selector_weights',
    'MomentEngine', 'cov_wmc', 'exp_wmc', 'locate_group_vnodes', 'var_wmc',
    'enumerate_models', 'oracle_cov', 'oracle_exp', 'oracle_var',
    'count_via_variance', 'entails_via_cov', 'ite_circuit',
    'ite_cov_identity_check',
    'Cnf', 'SddBuilder', 'compile_cnf', 'condition1_vtree',
]
