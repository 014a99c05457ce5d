"""Brute-force reference for weighted-model-count moments.

Enumerates models explicitly and sums per-assignment-pair covariances, so
it is independent of the circuit engine: the only shared inputs are the
model set and the weight moments.  Intended for small variable counts.

For one pair of total assignments a, b the covariance of their weights is
accumulated one independent block at a time (a block being a single
variable, or a whole correlated group) with the multiplicative recurrence

    C <- (c + ma*mb) * C + c * EA * EB;   EA <- ma * EA;  EB <- mb * EB

where c is the covariance and ma, mb are the means of the block's weight
factors under a and b.  Within a correlated group only pairwise second
moments of positive weights exist, so each assignment may set at most one
group member true; negative weights of members are deterministic.
"""

from .circuit import Circuit
from .errors import ValidationError

_PAIR_BUDGET = 1 << 22


def enumerate_models(c, max_vars=24):
    """All satisfying total assignments of a circuit as bitmasks (bit v-1
    is variable v), ascending."""
    out = []
    root = c.root
    for start, tabs in c.truth_blocks(max_vars=max_vars):
        # bit j of the root's table, read from the reversed binary string
        out.extend(start + j for j, b in enumerate(bin(tabs[root])[::-1])
                   if b == '1')
    return out


def _models_of(f, n):
    if isinstance(f, Circuit):
        if n is not None and n != f.vt.n_vars:
            raise ValidationError('variable count disagrees with circuit')
        return enumerate_models(f), f.vt.n_vars
    if n is None:
        raise ValidationError('model lists need an explicit variable count')
    return list(f), n


def _is_exact(wm):
    vals = [getattr(wm.default, f) for f in
            ('muP', 'muN', 'varP', 'varN', 'covPN')]
    for m in wm.vars.values():
        vals += [m.muP, m.muN, m.varP, m.varN, m.covPN]
    for g in wm.groups:
        for row in g.cov:
            vals += list(row)
    return not any(isinstance(v, float) for v in vals)


def _group_tokens(models, wm, gi):
    """For each model: (index of the true member or -1, product of negative
    means over the false members)."""
    g = wm.groups[gi]
    toks, prods = [], []
    for a in models:
        tok = -1
        prod = 1
        for j, v in enumerate(g.members):
            if (a >> (v - 1)) & 1:
                if tok >= 0:
                    raise ValidationError(
                        'assignment sets two members of a correlated group '
                        'true; joint moments beyond pairs are unavailable')
                tok = j
            else:
                prod = prod * wm.moments(v).muN
        toks.append(tok)
        prods.append(prod)
    return toks, prods


def oracle_exp(f, wm, n=None):
    """Expected weighted model count by explicit enumeration."""
    models, n = _models_of(f, n)
    total = 0
    gset = wm.grouped_mask
    gidx = sorted({wm.group_of(v)[0] for v in range(1, n + 1)
                   if (gset >> v) & 1})
    per_group = [_group_tokens(models, wm, gi) for gi in gidx]
    for mi, a in enumerate(models):
        w = 1
        for v in range(1, n + 1):
            if (gset >> v) & 1:
                continue
            m = wm.moments(v)
            w = w * (m.muP if (a >> (v - 1)) & 1 else m.muN)
        for gi, (toks, prods) in zip(gidx, per_group):
            mu = 1 if toks[mi] < 0 \
                else wm.moments(wm.groups[gi].members[toks[mi]]).muP
            w = w * prods[mi] * mu
        total = total + w
    return total


def oracle_cov(f, g, wm, n=None, exact=None):
    """Covariance of two weighted model counts over the same variable set,
    by summation over all model pairs."""
    mf, n = _models_of(f, n)
    mg, n2 = _models_of(g, n)
    if n2 != n:
        raise ValidationError('circuits range over different variable sets')
    if exact is None:
        exact = _is_exact(wm)
    if len(mf) * len(mg) > _PAIR_BUDGET:
        raise ValidationError('oracle model-pair budget exceeded')
    if not mf or not mg:
        return 0 if exact else 0.0
    if exact:
        return _cov_exact(mf, mg, wm, n)
    return _cov_float(mf, mg, wm, n)


def oracle_var(f, wm, n=None, exact=None):
    models, n = _models_of(f, n)
    return oracle_cov(models, models, wm, n, exact)


def _blocks(wm, n):
    """Independent blocks: ungrouped variables, then whole groups."""
    gset = wm.grouped_mask
    singles = [v for v in range(1, n + 1) if not (gset >> v) & 1]
    gidx = sorted({wm.group_of(v)[0] for v in range(1, n + 1)
                   if (gset >> v) & 1})
    return singles, gidx


def _cov_exact(mf, mg, wm, n):
    singles, gidx = _blocks(wm, n)
    mom = {v: wm.moments(v) for v in range(1, n + 1)}
    gtok_f = {gi: _group_tokens(mf, wm, gi) for gi in gidx}
    gtok_g = {gi: _group_tokens(mg, wm, gi) for gi in gidx}
    gmu = {}
    for gi in gidx:
        members = wm.groups[gi].members
        gmu[gi] = [wm.moments(v).muP for v in members]

    total = 0
    for ia, a in enumerate(mf):
        for ib, b in enumerate(mg):
            C = 0
            EA = 1
            EB = 1
            for v in singles:
                m = mom[v]
                ta = (a >> (v - 1)) & 1
                tb = (b >> (v - 1)) & 1
                if ta:
                    ma, c = m.muP, (m.varP if tb else m.covPN)
                else:
                    ma, c = m.muN, (m.covPN if tb else m.varN)
                mb = m.muP if tb else m.muN
                C = (c + ma * mb) * C + c * EA * EB
                EA = EA * ma
                EB = EB * mb
            for gi in gidx:
                toks_f, prods_f = gtok_f[gi]
                toks_g, prods_g = gtok_g[gi]
                ja, jb = toks_f[ia], toks_g[ib]
                pa, pb = prods_f[ia], prods_g[ib]
                mua = gmu[gi][ja] if ja >= 0 else 1
                mub = gmu[gi][jb] if jb >= 0 else 1
                ma = pa * mua
                mb = pb * mub
                if ja >= 0 and jb >= 0:
                    c = pa * pb * wm.groups[gi].cov[ja][jb]
                else:
                    c = 0
                C = (c + ma * mb) * C + c * EA * EB
                EA = EA * ma
                EB = EB * mb
            total = total + C
    return total


def _cov_float(mf, mg, wm, n):
    import numpy as np
    singles, gidx = _blocks(wm, n)
    Mf = _model_matrix(mf, n)
    Mg = _model_matrix(mg, n)

    P = np.ones((len(mf), len(mg)))
    ef = np.ones(len(mf))
    eg = np.ones(len(mg))
    for v in singles:
        m = wm.moments(v)
        muP, muN = float(m.muP), float(m.muN)
        vP, vN, cPN = float(m.varP), float(m.varN), float(m.covPN)
        af = Mf[:, v - 1][:, None]
        bg = Mg[:, v - 1][None, :]
        covm = np.where(af, np.where(bg, vP, cPN), np.where(bg, cPN, vN))
        ma = np.where(af, muP, muN)
        mb = np.where(bg, muP, muN)
        P *= covm + ma * mb
        ef *= ma[:, 0]
        eg *= mb[0, :]
    for gi in gidx:
        members = wm.groups[gi].members
        k = len(members)
        toks_f, prods_f = _group_tokens(mf, wm, gi)
        toks_g, prods_g = _group_tokens(mg, wm, gi)
        tf = np.asarray(toks_f) + 1
        tg = np.asarray(toks_g) + 1
        pf = np.asarray([float(x) for x in prods_f])
        pg = np.asarray([float(x) for x in prods_g])
        mu = np.array([1.0] + [float(wm.moments(v).muP) for v in members])
        # second-moment table over (none, member 1..k)
        E2 = np.outer(mu, mu)
        cov = np.array([[float(x) for x in row]
                        for row in wm.groups[gi].cov])
        E2[1:, 1:] += cov
        P *= (pf[:, None] * pg[None, :]) * E2[np.ix_(tf, tg)]
        ef *= pf * mu[tf]
        eg *= pg * mu[tg]
    return float((P - np.outer(ef, eg)).sum())


def _model_matrix(models, n):
    import numpy as np
    masks = np.asarray(models, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
            ).astype(bool)
