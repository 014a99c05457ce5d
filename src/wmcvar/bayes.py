"""Bayesian networks -> weighted model counting with uncertain parameters.

A network is encoded as a CNF over indicator variables (one per
variable/value pair, constrained so exactly one per variable holds) and
parameter variables whose weights carry the CPT entries.  Two encodings are
provided.  The binary-only one ("enc2") uses a single parameter variable
per parent configuration with P = Pr(first value | config), N = 1 - P, and
second moments sigma^2_P = sigma^2_N = -sigma_PN, so P + N is constant and
the total probability mass has exactly zero variance.  The general one
("enc1") uses one parameter variable per value with N = 1 deterministic
and the per-configuration positive weights gathered in a correlated group
whose covariance matrix follows the Dirichlet pattern (or is supplied
explicitly).

Marginals of partial assignments come out of the compiled circuit in two
interchangeable ways: conditioning the circuit itself (replace excluded
indicator leaves by false and renormalize the structure), or zeroing the
positive weights of excluded indicators and reusing the same circuit.

The vtree handed to the compiler keeps each variable's parameter blocks
and indicator block in dedicated subtrees, which is what makes the moment
engine's correlated-group interception applicable to the result.
"""

import itertools
import json
import math
from fractions import Fraction

from .circuit import normalize
from .errors import (EvidenceError, FormatError, ValidationError, WeightError)
from .moments import MomentEngine, locate_group_vnodes, var_gradient
from .sddc import Cnf, compile_cnf, condition1_vtree
from .weights import (Group, VarMoments, WeightModel, beta_variance,
                      group_cov_from_probs)

_CPT_TOL = 1e-9


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _rows(x, what):
    """x if it is a list of lists of numbers, else FormatError."""
    if not isinstance(x, list) or not all(
            isinstance(row, list) and all(map(_is_number, row)) for row in x):
        raise FormatError('%s must be a list of rows of numbers' % what)
    return x


class BayesNet:
    """Discrete network: variable names, value lists, parent sets, CPTs.

    cpts[i][j][c] is Pr(variable i takes its j-th value | c-th parent
    configuration); configurations enumerate parent value tuples with the
    last parent varying fastest.  uncertainty is ('theta', t) for the
    pseudo-count model or ('explicit', params, groups) with per-parameter
    entries keyed like "B|a1,c2" (variable name, then parent value names).
    """

    def __init__(self, names, values, parents, cpts, uncertainty):
        self.names = list(names)
        self.values = [tuple(v) for v in values]
        self.parents = [tuple(p) for p in parents]
        self.cpts = cpts
        self.uncertainty = uncertainty
        self._index = {nm: i for i, nm in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValidationError('duplicate variable names')
        self.validate()

    # ---- shape ------------------------------------------------------------

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise EvidenceError('unknown variable %r' % name) from None

    def k(self, i):
        return len(self.values[i])

    def n_configs(self, i):
        out = 1
        for p in self.parents[i]:
            out *= self.k(p)
        return out

    def configs(self, i):
        """Parent value-index tuples, last parent fastest."""
        ranges = [range(self.k(p)) for p in self.parents[i]]
        return list(itertools.product(*ranges)) if ranges else [()]

    def config_key(self, i, c):
        pat = self.configs(i)[c]
        if not pat:
            return self.names[i]
        vals = ','.join(self.values[p][j]
                        for p, j in zip(self.parents[i], pat))
        return '%s|%s' % (self.names[i], vals)

    def topo_order(self):
        indeg = [len(self.parents[i]) for i in range(len(self.names))]
        kids = [[] for _ in self.names]
        for i, ps in enumerate(self.parents):
            for p in ps:
                kids[p].append(i)
        ready = [i for i, d in enumerate(indeg) if d == 0]
        out = []
        while ready:
            i = ready.pop()
            out.append(i)
            for ch in kids[i]:
                indeg[ch] -= 1
                if indeg[ch] == 0:
                    ready.append(ch)
        if len(out) != len(self.names):
            raise ValidationError('parent graph has a cycle')
        return out

    def validate(self):
        n = len(self.names)
        if not (len(self.values) == len(self.parents) == len(self.cpts) == n):
            raise ValidationError('variable table lengths disagree')
        for i in range(n):
            if self.k(i) < 2:
                raise ValidationError('variable %s needs at least two values'
                                      % self.names[i])
            if len(set(self.values[i])) != self.k(i):
                raise ValidationError('variable %s has duplicate values'
                                      % self.names[i])
            for p in self.parents[i]:
                if not 0 <= p < n:
                    raise ValidationError('parent index out of range')
            cpt = self.cpts[i]
            if len(cpt) != self.k(i) \
                    or any(len(row) != self.n_configs(i) for row in cpt):
                raise ValidationError('CPT of %s has the wrong shape'
                                      % self.names[i])
            for c in range(self.n_configs(i)):
                col = sum(cpt[j][c] for j in range(self.k(i)))
                if abs(col - 1) > _CPT_TOL:
                    raise ValidationError(
                        'CPT column %d of %s sums to %r' %
                        (c, self.names[i], col))
                for j in range(self.k(i)):
                    if not 0 <= cpt[j][c] <= 1:
                        raise ValidationError('CPT entry out of [0, 1]')
        self.topo_order()
        mode = self.uncertainty[0]
        if mode == 'theta':
            if self.uncertainty[1] <= 0:
                raise ValidationError('theta must be positive')
        elif mode == 'explicit':
            self._check_explicit()
        else:
            raise ValidationError('unknown uncertainty mode %r' % (mode,))

    def _check_explicit(self):
        _, params, groups = self.uncertainty
        keys = {self.config_key(i, c)
                for i in range(len(self.names))
                for c in range(self.n_configs(i))}
        for key, entry in params.items():
            if key not in keys:
                raise WeightError('uncertainty entry %r matches no '
                                  'variable/configuration' % key)
            if set(entry) - {'var'}:
                raise WeightError('bad uncertainty entry for %r' % key)
        for key, mat in groups.items():
            if key not in keys:
                raise WeightError('group entry %r matches no '
                                  'variable/configuration' % key)
            i = self.var_index(key.split('|')[0])
            k = self.k(i)
            if len(mat) != k or any(len(row) != k for row in mat):
                raise WeightError('group matrix for %r must be %dx%d'
                                  % (key, k, k))
        # degenerate parameters carry no uncertainty
        for i in range(len(self.names)):
            for c in range(self.n_configs(i)):
                key = self.config_key(i, c)
                p1 = self.cpts[i][0][c]
                if p1 in (0, 1) and params.get(key, {}).get('var', 0) != 0:
                    raise WeightError(
                        'parameter %r is degenerate; its variance must be 0'
                        % key)
                mat = groups.get(key)
                if mat is None:
                    continue
                for j in range(self.k(i)):
                    if self.cpts[i][j][c] in (0, 1) \
                            and any(x != 0 for x in mat[j]):
                        raise WeightError(
                            'value %d of %r is degenerate; its covariance '
                            'row must be 0' % (j, key))

    # ---- per-parameter second moments --------------------------------------

    def param_variance(self, i, c):
        """Variance of Pr(first value | config c) -- the enc2 parameter.

        An explicit column takes its params entry, else the [0][0] entry
        of its group matrix; the two must agree when both are given.
        """
        p1 = self.cpts[i][0][c]
        if self.uncertainty[0] == 'theta':
            return beta_variance(p1, self.uncertainty[1])
        _, params, groups = self.uncertainty
        key = self.config_key(i, c)
        entry, mat = params.get(key), groups.get(key)
        if mat is None:
            return entry['var'] if entry else 0
        if entry is not None and entry.get('var', 0) != mat[0][0]:
            raise WeightError(
                'params and groups give %r different variances' % key)
        return mat[0][0]

    def group_cov(self, i, c):
        """Covariance matrix of the value probabilities at one config."""
        ps = [self.cpts[i][j][c] for j in range(self.k(i))]
        if self.uncertainty[0] == 'theta':
            return group_cov_from_probs(ps, self.uncertainty[1])
        mat = self.uncertainty[2].get(self.config_key(i, c))
        if mat is not None:
            return tuple(tuple(row) for row in mat)
        v = self.param_variance(i, c)
        if v == 0 or self.k(i) != 2:
            return tuple(tuple(0 for _ in ps) for _ in ps)
        # a binary explicit variance transfers to the complementary pair
        return ((v, -v), (-v, v))

    # ---- JSON --------------------------------------------------------------

    @staticmethod
    def from_json(obj):
        if isinstance(obj, (str, bytes)):
            try:
                obj = json.loads(obj)
            except ValueError as e:
                raise FormatError('bad network JSON: %s' % e) from None
        if not isinstance(obj, dict) \
                or not isinstance(obj.get('variables'), list):
            raise FormatError('network JSON must have a "variables" list')
        unknown = set(obj) - {'variables', 'uncertainty'}
        if unknown:
            raise FormatError('unknown network JSON keys: %s'
                              % ', '.join(sorted(unknown)))
        raw = obj['variables']
        for entry in raw:
            if not isinstance(entry, dict) \
                    or set(entry) - {'name', 'values', 'parents', 'cpt'} \
                    or not isinstance(entry.get('name'), str) \
                    or not isinstance(entry.get('values'), list) \
                    or not isinstance(entry.get('parents', []), list):
                raise FormatError('bad variable entry in network JSON')
        order = {entry['name']: i for i, entry in enumerate(raw)}
        names, values, parents, cpts = [], [], [], []
        for entry in raw:
            names.append(entry['name'])
            values.append(tuple(str(v) for v in entry['values']))
            try:
                parents.append(tuple(order[p]
                                     for p in entry.get('parents', ())))
            except (KeyError, TypeError):
                raise FormatError('unknown parent in %r' % entry['name']) \
                    from None
            cpt = _rows(entry.get('cpt'), 'cpt of %r' % entry['name'])
            cpts.append([list(map(float, row)) for row in cpt])
        unc = obj.get('uncertainty') or {'theta': float('inf')}
        if not isinstance(unc, dict):
            raise FormatError('uncertainty must be an object')
        if 'theta' in unc:
            if set(unc) != {'theta'}:
                raise FormatError('theta excludes other uncertainty keys')
            if not _is_number(unc['theta']):
                raise FormatError('theta must be a number')
            uncertainty = ('theta', float(unc['theta']))
        else:
            if set(unc) - {'params', 'groups'}:
                raise FormatError('unknown uncertainty keys')
            params = unc.get('params') or {}
            groups = unc.get('groups') or {}
            if not isinstance(params, dict) or not all(
                    isinstance(e, dict) and _is_number(e.get('var', 0))
                    for e in params.values()):
                raise FormatError('uncertainty params must map CPT columns '
                                  'to {"var": number}')
            if not isinstance(groups, dict):
                raise FormatError('uncertainty groups must be an object')
            for key, mat in groups.items():
                _rows(mat, 'group matrix %r' % key)
            uncertainty = ('explicit', dict(params), dict(groups))
        return BayesNet(names, values, parents, cpts, uncertainty)

    def to_json(self):
        out = {'variables': [
            {'name': self.names[i], 'values': list(self.values[i]),
             'parents': [self.names[p] for p in self.parents[i]],
             'cpt': [list(row) for row in self.cpts[i]]}
            for i in range(len(self.names))]}
        if self.uncertainty[0] == 'theta':
            out['uncertainty'] = {'theta': self.uncertainty[1]}
        else:
            out['uncertainty'] = {'params': self.uncertainty[1],
                                  'groups': self.uncertainty[2]}
        return out


class Evidence:
    """Partial assignment, held as variable index -> value index."""

    def __init__(self, bn, assignment=None):
        self.bn = bn
        self.fixed = {}
        for name, val in (assignment or {}).items():
            i = bn.var_index(name)
            if str(val) not in bn.values[i]:
                raise EvidenceError('variable %r has no value %r'
                                    % (name, val))
            if i in self.fixed:
                raise EvidenceError('two values for variable %r' % name)
            self.fixed[i] = bn.values[i].index(str(val))

    @staticmethod
    def from_json(bn, obj):
        if isinstance(obj, (str, bytes)):
            try:
                obj = json.loads(obj)
            except ValueError as e:
                raise FormatError('bad evidence JSON: %s' % e) from None
        if not isinstance(obj, dict):
            raise FormatError('evidence JSON must be an object')
        return Evidence(bn, obj)


class Layout:
    """Propositional variable ids for one encoding of one network.

    Ids are grouped per network variable: first the parameter ids of each
    parent configuration (a contiguous block per configuration), then the
    indicator ids -- exactly the shape condition1_vtree consumes.
    """

    def __init__(self, bn, kind):
        self.bn = bn
        self.kind = kind
        self.lam = {}
        self.theta = {}
        self.names = {}
        self.var_blocks = []
        nxt = 1
        for i in range(len(bn.names)):
            blocks = []
            per_value = bn.k(i) if kind == 'enc1' else 1
            for c in range(bn.n_configs(i)):
                block = []
                for j in range(per_value):
                    self.theta[(i, c, j)] = nxt
                    self.names[nxt] = 'Pr(%s=%s%s)' % (
                        bn.names[i], bn.values[i][j],
                        self._cond(i, c))
                    block.append(nxt)
                    nxt += 1
                blocks.append(block)
            lams = []
            for j in range(bn.k(i)):
                self.lam[(i, j)] = nxt
                self.names[nxt] = '[%s=%s]' % (bn.names[i], bn.values[i][j])
                lams.append(nxt)
                nxt += 1
            self.var_blocks.append((blocks, lams))
        self.n_vars = nxt - 1

    def _cond(self, i, c):
        pat = self.bn.configs(i)[c]
        if not pat:
            return ''
        return '|' + ','.join('%s=%s' % (self.bn.names[p],
                                         self.bn.values[p][j])
                              for p, j in zip(self.bn.parents[i], pat))

    def excluded_indicators(self, evidence):
        """Indicator ids ruled out by the evidence."""
        out = []
        for i, j_star in sorted(evidence.fixed.items()):
            out.extend(self.lam[(i, j)] for j in range(self.bn.k(i))
                       if j != j_star)
        return out


def enc2(bn):
    """Binary encoding: one parameter variable per parent configuration."""
    for i in range(len(bn.names)):
        if bn.k(i) != 2:
            raise ValidationError(
                'variable %s has %d values; the binary encoding needs 2'
                % (bn.names[i], bn.k(i)))
    layout = Layout(bn, 'enc2')
    clauses = []
    moments = {}
    for i in range(len(bn.names)):
        l1, l2 = layout.lam[(i, 0)], layout.lam[(i, 1)]
        clauses.append((l1, l2))
        clauses.append((-l1, -l2))
        for c, pat in enumerate(bn.configs(i)):
            rho = layout.theta[(i, c, 0)]
            ctx = [-layout.lam[(p, j)]
                   for p, j in zip(bn.parents[i], pat)]
            clauses.append(tuple(ctx + [-rho, l1]))
            clauses.append(tuple(ctx + [rho, l2]))
            p1 = bn.cpts[i][0][c]
            s2 = bn.param_variance(i, c)
            moments[rho] = VarMoments(p1, 1 - p1, s2, s2, -s2)
    cnf = Cnf(layout.n_vars, clauses)
    return cnf, WeightModel(moments), layout


def enc1(bn):
    """General encoding: per-value parameter variables in correlated groups."""
    layout = Layout(bn, 'enc1')
    clauses = []
    moments = {}
    groups = []
    for i in range(len(bn.names)):
        k = bn.k(i)
        lams = [layout.lam[(i, j)] for j in range(k)]
        clauses.append(tuple(lams))
        for a in range(k):
            for b in range(a + 1, k):
                clauses.append((-lams[a], -lams[b]))
        for c, pat in enumerate(bn.configs(i)):
            ctx = [layout.lam[(p, j)] for p, j in zip(bn.parents[i], pat)]
            cov = bn.group_cov(i, c)
            members = []
            for j in range(k):
                th = layout.theta[(i, c, j)]
                members.append(th)
                clauses.append(tuple([-x for x in ctx] + [-lams[j], th]))
                for x in ctx:
                    clauses.append((-th, x))
                clauses.append((-th, lams[j]))
                moments[th] = VarMoments(bn.cpts[i][j][c], 1, cov[j][j], 0, 0)
            if any(x != 0 for row in cov for x in row):
                groups.append(Group(tuple(members), cov))
    cnf = Cnf(layout.n_vars, clauses)
    return cnf, WeightModel(moments, groups), layout


class MarginalPipeline:
    """Compiled network ready for repeated marginal queries.

    Compilation happens once per encoding; queries swap evidence, method
    and weight model freely on top of the same circuit.
    """

    def __init__(self, bn, encoding='enc2', node_budget=10 ** 6,
                 exact=False):
        if encoding not in ('enc1', 'enc2'):
            raise ValidationError('unknown encoding %r' % encoding)
        self.bn = bn
        self.encoding = encoding
        self.cnf, self.wm, self.layout = \
            (enc1 if encoding == 'enc1' else enc2)(bn)
        if exact:
            self.wm = self.wm.to_exact()
        self.vt = condition1_vtree(self.layout.var_blocks)
        self.circuit = compile_cnf(self.cnf, self.vt, node_budget)
        self._conditioned = {}

    def _resolve(self, evidence):
        if evidence is None:
            evidence = Evidence(self.bn)
        elif not isinstance(evidence, Evidence):
            evidence = Evidence(self.bn, evidence)
        return tuple(self.layout.excluded_indicators(evidence))

    def _circuit_for(self, excluded):
        if not excluded:
            return self.circuit
        c = self._conditioned.get(excluded)
        if c is None:
            # only positive leaves of an excluded indicator become false;
            # its negative leaves stay, so the indicator remains in the
            # support with every model putting it on the negative-weight
            # side.  (Dropping it from the support instead would make the
            # moment engine lift a free P+N factor over its vtree leaf.)
            # Relies on every model's subtree touching each excluded
            # indicator through a literal leaf, which the exactly-one
            # indicator blocks guarantee.
            c = normalize(self.circuit, set(excluded))
            self._conditioned[excluded] = c
        return c

    def _query(self, evidence, method, wm=None):
        """Circuit, weight model and group vnodes answering a marginal
        query for the evidence by the given method."""
        wm = self.wm if wm is None else wm
        excluded = self._resolve(evidence)
        if method == 'conjoin':
            c = self._circuit_for(excluded)
        elif method in ('zero_weights', 'zero'):
            c = self.circuit
            if excluded:
                zero = {v: VarMoments(0, 1, 0, 0, 0) for v in excluded}
                wm = WeightModel({**wm.vars, **zero}, wm.groups, wm.default)
        else:
            raise ValidationError('unknown method %r' % method)
        gv = locate_group_vnodes(self.vt, wm) if wm.groups else None
        return c, wm, gv

    def moments(self, evidence=None, method='conjoin', wm=None):
        """Mean and variance of the marginal probability of the evidence."""
        c, wm, gv = self._query(evidence, method, wm)
        eng = MomentEngine(self.vt, wm, gv)
        return {'mean': eng.exp(c), 'variance': eng.var(c)}

    # ---- sensitivity ------------------------------------------------------

    def parameters(self):
        """(label, variable, config) of every CPT parameter, enc2 order."""
        out = []
        for i in range(len(self.bn.names)):
            for c in range(self.bn.n_configs(i)):
                if self.encoding == 'enc2':
                    out.append((self.layout.names[self.theta_id(i, c, 0)],
                                i, c, 0))
                else:
                    for j in range(self.bn.k(i)):
                        out.append((self.layout.names[self.theta_id(i, c, j)],
                                    i, c, j))
        return out

    def theta_id(self, i, c, j=0):
        return self.layout.theta[(i, c, j)]

    def sweep(self, evidence=None, factor=0.1, method='zero_weights'):
        """Marginal variance after shrinking each parameter's variance by
        the given factor (covariances with its group mates shrink by the
        square root).  Rows come back ascending by variance, with the
        unmodified baseline labelled "(none)".

        Var is affine in each parameter's second moments, so every row
        follows exactly from the baseline variance and its gradient
        (moments.var_gradient): one forward and one backward pass in all.
        """
        if not 0 < factor <= 1:
            raise ValidationError('factor must be in (0, 1]')
        c, wm, gv = self._query(evidence, method)
        base, dvar, dgroups = var_gradient(c, wm, gv)
        root = _sqrt(factor)
        rows = [{'parameter': '(none)', 'variance': base}]
        for label, i, k, j in self.parameters():
            pid = self.theta_id(i, k, j)
            at = wm.group_of(pid)
            if at is None:
                m, d = wm.moments(pid), dvar[pid]
                delta = (factor - 1) * (d[0] * m.varP + d[1] * m.varN
                                        + d[2] * m.covPN)
            else:
                gi, a = at
                cov, g = wm.groups[gi].cov, dgroups[gi]
                off = sum(g[a][b] * cov[a][b] + g[b][a] * cov[b][a]
                          for b in range(len(cov)) if b != a)
                delta = (factor - 1) * g[a][a] * cov[a][a] \
                    + (root - 1) * off
            rows.append({'parameter': label, 'variance': base + delta})
        rows.sort(key=lambda r: (float(r['variance']), r['parameter']))
        return rows


def _sqrt(x):
    """Square root, exact for a Fraction of two perfect squares."""
    if isinstance(x, Fraction):
        n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if n * n == x.numerator and d * d == x.denominator:
            return Fraction(n, d)
    return x ** 0.5


def marginal_moments(bn, evidence=None, method='conjoin', encoding='enc2',
                     exact=False):
    return MarginalPipeline(bn, encoding, exact=exact).moments(evidence,
                                                               method)


def sensitivity_sweep(bn, evidence=None, factor=0.1, encoding='enc2',
                      method='zero_weights'):
    return MarginalPipeline(bn, encoding).sweep(evidence, factor, method)


def demo_networks():
    """Name -> BayesNet for the networks shipped with the package."""
    from importlib import resources
    out = {}
    for res in resources.files('wmcvar.data').iterdir():
        if res.name.endswith('.json'):
            out[res.name[:-5]] = BayesNet.from_json(res.read_text())
    return dict(sorted(out.items()))


def brute_marginal(bn, evidence=None):
    """Marginal probability by full joint enumeration (test oracle)."""
    fixed = evidence.fixed if isinstance(evidence, Evidence) \
        else {bn.var_index(k): bn.values[bn.var_index(k)].index(str(v))
              for k, v in (evidence or {}).items()}
    n = len(bn.names)
    total = 0.0
    for assign in itertools.product(*(range(bn.k(i)) for i in range(n))):
        if any(assign[i] != j for i, j in fixed.items()):
            continue
        p = 1.0
        for i in range(n):
            pat = tuple(assign[p_] for p_ in bn.parents[i])
            c = bn.configs(i).index(pat)
            p *= bn.cpts[i][assign[i]][c]
        total += p
    return total
