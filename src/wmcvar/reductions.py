"""Model counting and entailment recovered from weight moments.

Under the integer counting weights (both polarity means 1, both variances
3, polarity covariance -1) the weight of a total assignment has mean 1 and
variance 4^n - 1, and the weights of two distinct assignments covary by
exactly -1.  A function with m models therefore satisfies

    Var(W_f) = m (4^n - 1) - m (m - 1) = m (4^n - m),

and because 0 <= m <= 2^n the ratio Var / (4^n - 1) always lands in the
half-open interval (m - 1, m], so the count is its ceiling.  The covariance
of two counts plays the same role for the conjunction:
Cov(W_f, W_g) = |A ∩ B| 4^n - |A||B|, whose ceiling over 4^n - 1 is
|A ∩ B|; comparing it with the count of f decides f ⊨ g.

The third construction goes the other way: one fresh selector variable z
with mean-one weights of variance 3 and polarity covariance -3 turns the
pair (f, g) into the single circuit h = (z ∧ f) ∨ (¬z ∧ g), and

    Cov(W_f, W_g) = Var(W_f) + Var(W_g) - Var(W_h)/4 + 3(E[W_f]-E[W_g])²/4

holds for arbitrary weights on the original variables, so a variance
procedure already answers covariance queries.

Everything here is exact: integer weights keep the engine in integer
arithmetic, and ceilings are taken with rational floor division.  These
functions demonstrate the constructions at desk scale -- the unstructured
fallback enumerates models and is no faster than brute force.
"""

from fractions import Fraction

from .circuit import Circuit, Vtree, rebuild, validate
from .errors import ValidationError
from .moments import cov_wmc, exp_wmc, locate_group_vnodes, var_wmc
# the enumeration fallbacks import the oracle where they run
from .weights import WeightModel, counting_weights, selector_weights


def _ceil_ratio(num, den):
    return int(-((-num) // den))


def _nvars(f, n):
    if isinstance(f, Circuit):
        if n is not None and n != f.vt.n_vars:
            raise ValidationError('variable count disagrees with circuit')
        return f.vt.n_vars
    if n is None:
        raise ValidationError('model lists need an explicit variable count')
    return n


def _engine_ok(c, determinism_limit):
    # any ok report, 'assumed' determinism included, as for the CLI's
    # variance command: the caller picks the exhaustive-check limit, and
    # count_and_variance rejects a variance no model count explains
    return validate(c, determinism_limit=determinism_limit).ok


def count_and_variance(f, n=None, determinism_limit=20):
    """(model count of f, Var(W_f) under counting weights), from one
    variance pass: the count is ceil(Var(W_f) / (4^n - 1)).  f may be a
    circuit or an iterable of model bitmasks (then n is required).
    Circuits are validated with the given exhaustive determinism limit."""
    wm = counting_weights()
    n = _nvars(f, n)
    if isinstance(f, Circuit) and _engine_ok(f, determinism_limit):
        var = var_wmc(f, wm)
    else:
        from .oracle import oracle_var
        var = oracle_var(f, wm, n=n)
    count = _ceil_ratio(var, 4 ** n - 1)
    if not (0 <= count <= 2 ** n and var == count * (4 ** n - count)):
        raise ValidationError(
            'counting variance %s is not m(4^n - m) for any model count m; '
            'the circuit is likely not deterministic' % var)
    return count, var


def count_via_variance(f, n=None, determinism_limit=20):
    """Model count of f as ceil(Var(W_f) / (4^n - 1)) under counting
    weights; see count_and_variance."""
    return count_and_variance(f, n, determinism_limit)[0]


def entails_via_cov(f, g, n=None, determinism_limit=20):
    """Decide f |= g by comparing the model count of f against the count
    of f ∧ g, the latter read off Cov(W_f, W_g) under counting weights.
    Circuits are validated with the given exhaustive determinism limit."""
    wm = counting_weights()
    n = _nvars(f, _nvars(g, n))
    g2 = _shared_vtree(f, g) \
        if isinstance(f, Circuit) and isinstance(g, Circuit) else None
    if g2 is not None and _engine_ok(f, determinism_limit) \
            and _engine_ok(g2, determinism_limit):
        var_f = var_wmc(f, wm)
        cov_fg = cov_wmc(f, g2, wm)
    else:
        from .oracle import oracle_cov, oracle_var
        var_f = oracle_var(f, wm, n=n)
        cov_fg = oracle_cov(f, g, wm, n=n)
    denom = 4 ** n - 1
    return _ceil_ratio(var_f, denom) == _ceil_ratio(cov_fg, denom)


# ---- the selector construction ---------------------------------------------


def _same_shape(a, b):
    """True when vtrees a and b are one tree over the same variables."""
    stack = [(a.root, b.root)]
    while stack:
        u, w = stack.pop()
        if a.var[u] != b.var[w]:    # internal nodes have var 0
            return False
        if a.left[u]:
            stack += ((a.left[u], b.left[w]), (a.right[u], b.right[w]))
    return True


def _shared_vtree(f, g):
    """g rebased onto f's vtree object when the trees agree, else None.
    None too when g has a conjunction rebuild cannot binarize: the
    callers then fall back to enumeration, as for any circuit that
    fails validation."""
    if f.vt is g.vt:
        return g
    if not _same_shape(f.vt, g.vt):
        return None
    g2 = Circuit(f.vt)
    try:
        g2.root = rebuild(g, g2)
    except ValidationError:
        return None
    g2.deterministic_by_construction = g.deterministic_by_construction
    return g2


def ite_circuit(f, g):
    """(z ∧ f) ∨ (¬z ∧ g) over the vtree extended with a fresh selector z
    as the left child of a new root.  Returns (h, z)."""
    if not (isinstance(f, Circuit) and isinstance(g, Circuit)):
        raise ValidationError('selector construction needs circuits')
    vt = f.vt
    if vt is not g.vt and not _same_shape(vt, g.vt):
        raise ValidationError('circuits must share a vtree')
    z, n = vt.n_vars + 1, vt.n_nodes
    vt2 = Vtree(vt.left + [0, n + 1], vt.right + [0, n], vt.var + [z, 0])
    h = Circuit(vt2)
    rf = rebuild(f, h)
    rg = rebuild(g, h)
    h.root = h.disj((h.conj((h.literal(z), rf)),
                     h.conj((h.literal(-z), rg))))
    # the two branches disagree on z, so the new or-node is deterministic
    h.deterministic_by_construction = (f.deterministic_by_construction
                                       and g.deterministic_by_construction)
    return h, z


def _quarter(x):
    if isinstance(x, float):
        return x / 4
    return Fraction(x, 4)


def ite_cov_identity_check(f, g, wm=None, n=None, z=None,
                           determinism_limit=20):
    """Evaluate both sides of the selector identity and report the gap.

    lhs = Cov(W_f, W_g); rhs rebuilds it from the variances of f, g and of
    h = (z ∧ f) ∨ (¬z ∧ g) plus the squared mean gap.  With int or Fraction
    weights the residual is exactly zero.  wm defaults to counting weights;
    it covers the original variables only, the selector's moments are fixed
    by the construction.  Circuits are validated with the given
    exhaustive determinism limit.
    """
    wm = counting_weights() if wm is None else wm
    n = _nvars(f, _nvars(g, n))
    if z is not None:
        if 1 <= z <= n:
            raise ValidationError(
                'selector variable %d collides with the function variables'
                % z)
        if z != n + 1:
            raise ValidationError('selector must be the next variable id')
    z = n + 1
    wm_z = WeightModel({**wm.vars, z: selector_weights()},
                       wm.groups, wm.default)

    g2 = _shared_vtree(f, g) \
        if isinstance(f, Circuit) and isinstance(g, Circuit) else None
    if g2 is not None and _engine_ok(f, determinism_limit) \
            and _engine_ok(g2, determinism_limit):
        g = g2
        gv = locate_group_vnodes(f.vt, wm) if wm.groups else None
        e_f, e_g = exp_wmc(f, wm, gv), exp_wmc(g, wm, gv)
        v_f, v_g = var_wmc(f, wm, gv), var_wmc(g, wm, gv)
        lhs = cov_wmc(f, g, wm, gv)
        h, _ = ite_circuit(f, g)
        gv2 = locate_group_vnodes(h.vt, wm_z) if wm_z.groups else None
        v_h = var_wmc(h, wm_z, gv2)
    else:
        from .oracle import (enumerate_models, oracle_cov, oracle_exp,
                             oracle_var)
        mf = enumerate_models(f) if isinstance(f, Circuit) else list(f)
        mg = enumerate_models(g) if isinstance(g, Circuit) else list(g)
        mh = [a | (1 << n) for a in mf] + list(mg)
        e_f, e_g = oracle_exp(mf, wm, n), oracle_exp(mg, wm, n)
        v_f, v_g = oracle_var(mf, wm, n), oracle_var(mg, wm, n)
        lhs = oracle_cov(mf, mg, wm, n)
        v_h = oracle_var(mh, wm_z, n + 1)
    gap = e_f - e_g
    rhs = v_f + v_g - _quarter(v_h) + 3 * _quarter(gap * gap)
    return {'lhs': lhs, 'rhs': rhs, 'residual': lhs - rhs}
