"""Moments of weighted model counts over structured d-DNNF circuits.

The names below are imported from their modules on first use (PEP 562),
so that `import wmcvar.cli` loads only what a command needs.
"""

import importlib

_EXPORTS = {
    'circuit': ('BOTTOM', 'FALSE', 'TRUE', 'Circuit', 'Vtree', 'normalize',
                'parse_sdd', 'parse_vtree', 'sdd_text', 'validate'),
    'errors': ('CompileBudgetError', 'CorrelationScopeError', 'EvidenceError',
               'FormatError', 'ValidationError', 'VtreeMismatchError',
               'WeightError', 'WmcvarError'),
    'weights': ('Group', 'VarMoments', 'WeightModel', 'beta_variance',
                'counting_weights', 'dirichlet_group_moments',
                'group_cov_from_probs', 'selector_weights'),
    'moments': ('MomentEngine', 'cov_wmc', 'exp_wmc', 'locate_group_vnodes',
                'var_wmc'),
    'oracle': ('enumerate_models', 'oracle_cov', 'oracle_exp', 'oracle_var'),
    'reductions': ('count_via_variance', 'entails_via_cov', 'ite_circuit',
                   'ite_cov_identity_check'),
    'sddc': ('Cnf', 'SddBuilder', 'compile_cnf', 'condition1_vtree'),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError('module %r has no attribute %r'
                             % (__name__, name))
    value = getattr(importlib.import_module('.' + mod, __name__), name)
    globals()[name] = value
    return value
