"""Per-variable weight moments, correlated groups, and their JSON form.

Every propositional variable x carries a pair of random weights (P_x, N_x),
one per polarity, described by first and second moments: muP, muN, varP,
varN, covPN.  Weight pairs of distinct variables are independent unless the
variables are members of the same declared group, in which case their
positive weights are jointly distributed with a given covariance matrix.
Negative weights of grouped variables must be deterministic, since no joint
moments are tracked for them.

Values may be ints, floats, or fractions.Fraction.  Exact rational runs
store Fractions here; the moment engine rescales them onto plain ints.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError, WeightError

_FIELDS = ('muP', 'muN', 'varP', 'varN', 'covPN')


@dataclass(frozen=True)
class VarMoments:
    muP: float = 1
    muN: float = 1
    varP: float = 0
    varN: float = 0
    covPN: float = 0


@dataclass(frozen=True)
class Group:
    members: tuple      # variable ids, length >= 2
    cov: tuple          # covariance matrix of the positive weights, row tuples

    @property
    def mask(self):
        """The members as a variable bitset."""
        m = 0
        for x in self.members:
            m |= 1 << x
        return m


_DEFAULT = VarMoments()


def to_fraction(x):
    """x as an exact Fraction: a float through its shortest decimal form
    (0.1 becomes 1/10), a string as a rational ("1/3", "0.25")."""
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


class WeightModel:
    """Moment table for all variables, with an optional shared default."""

    def __init__(self, moments=None, groups=(), default=_DEFAULT):
        self.vars = dict(moments or {})
        self.groups = [g if isinstance(g, Group)
                       else Group(tuple(g[0]), tuple(map(tuple, g[1])))
                       for g in groups]
        self.default = default
        self._index = {}
        self.grouped_mask = 0
        for gi, g in enumerate(self.groups):
            for j, v in enumerate(g.members):
                if v in self._index:
                    raise WeightError('variable %d in two groups' % v)
                self._index[v] = (gi, j)
                self.grouped_mask |= 1 << v

    def moments(self, v):
        m = self.vars.get(v, self.default)
        at = self._index.get(v)
        if at is not None:
            gi, j = at
            diag = self.groups[gi].cov[j][j]
            if m.varP != diag:
                m = VarMoments(m.muP, m.muN, diag, m.varN, m.covPN)
        return m

    def group_of(self, v):
        return self._index.get(v)

    def cov_pp(self, a, b):
        """Covariance of the positive weights of two variables."""
        if a == b:
            return self.moments(a).varP
        ga, gb = self._index.get(a), self._index.get(b)
        if ga is not None and gb is not None and ga[0] == gb[0]:
            return self.groups[ga[0]].cov[ga[1]][gb[1]]
        return 0

    def to_exact(self):
        """Copy with every value converted to an exact Fraction.

        Floats go through their shortest decimal representation, so 0.1
        becomes exactly 1/10.  Each distinct value is converted once.
        """
        memo = {}

        def conv(x):
            k = (type(x), x)
            q = memo.get(k)
            if q is None:
                q = memo[k] = to_fraction(x)
            return q

        vars_ = {v: VarMoments(*(conv(getattr(m, f)) for f in _FIELDS))
                 for v, m in self.vars.items()}
        groups = [Group(g.members, tuple(tuple(conv(x) for x in row)
                                         for row in g.cov))
                  for g in self.groups]
        default = VarMoments(*(conv(getattr(self.default, f))
                               for f in _FIELDS))
        return WeightModel(vars_, groups, default)

    def validate_for(self, n_vars):
        for v in self.vars:
            if not 1 <= v <= n_vars:
                raise WeightError('weight entry for unknown variable %d' % v)
        for g in self.groups:
            k = len(g.members)
            if k < 2:
                raise WeightError('groups need at least two members')
            if len(g.cov) != k or any(len(row) != k for row in g.cov):
                raise WeightError('group covariance must be %dx%d' % (k, k))
            for i in range(k):
                for j in range(i):
                    if g.cov[i][j] != g.cov[j][i]:
                        raise WeightError('group covariance not symmetric')
            for v in g.members:
                if not 1 <= v <= n_vars:
                    raise WeightError('group member %d unknown' % v)
                m = self.vars.get(v, self.default)
                if m.varN != 0 or m.covPN != 0:
                    raise WeightError(
                        'grouped variable %d must have a deterministic '
                        'negative weight' % v)

    # ---- JSON ------------------------------------------------------------

    @staticmethod
    def from_json(obj, exact=False):
        if isinstance(obj, (str, bytes)):
            import json
            try:
                obj = json.loads(obj)
            except ValueError as e:
                raise FormatError('bad weight JSON: %s' % e) from None
        if not isinstance(obj, dict):
            raise FormatError('weight JSON must be an object')
        unknown = set(obj) - {'variables', 'groups'}
        if unknown:
            raise FormatError('unknown weight JSON keys: %s'
                              % ', '.join(sorted(unknown)))

        def conv(x):
            if isinstance(x, bool) or not isinstance(x, (int, float, str)):
                raise FormatError('weight values must be numbers or '
                                  'rational strings, not %r' % (x,))
            if isinstance(x, str):
                try:
                    q = to_fraction(x)
                except (ValueError, ZeroDivisionError):
                    raise FormatError('bad rational weight value %r'
                                      % x) from None
                return q if exact else float(q)
            return to_fraction(x) if exact else x

        variables = obj.get('variables') or {}
        if not isinstance(variables, dict) \
                or not isinstance(obj.get('groups') or [], list):
            raise FormatError('weight JSON "variables" must be an object '
                              'and "groups" a list')
        moments = {}
        for key, entry in variables.items():
            try:
                v = int(key)
            except ValueError:
                raise FormatError('bad variable id %r' % key) from None
            if not isinstance(entry, dict) or set(entry) - set(_FIELDS):
                raise FormatError('bad moment entry for variable %s' % key)
            kw = {f: conv(entry[f]) for f in _FIELDS if f in entry}
            moments[v] = VarMoments(**{**{f: conv(d) for f, d in
                                          zip(_FIELDS, (1, 1, 0, 0, 0))}, **kw})
        groups = []
        for entry in obj.get('groups') or ():
            if not isinstance(entry, dict) \
                    or set(entry) - {'members', 'cov'} \
                    or 'members' not in entry or 'cov' not in entry:
                raise FormatError('bad group entry in weight JSON')
            members, cov = entry['members'], entry['cov']
            if not isinstance(members, list) or not all(
                    type(v) is int for v in members):
                raise FormatError('group members must be a list of '
                                  'variable ids, not %r' % (members,))
            if not isinstance(cov, list) or not all(
                    isinstance(row, list) for row in cov):
                raise FormatError('group cov must be a list of rows, not %r'
                                  % (cov,))
            members = tuple(members)
            cov = tuple(tuple(conv(x) for x in row) for row in cov)
            groups.append(Group(members, cov))
        return WeightModel(moments, groups)

    def to_json(self):
        return {
            'variables': {
                str(v): {f: float(getattr(m, f)) for f in _FIELDS}
                for v, m in sorted(self.vars.items())
            },
            'groups': [
                {'members': list(g.members),
                 'cov': [[float(x) for x in row] for row in g.cov]}
                for g in self.groups
            ],
        }


def counting_weights():
    """Weights under which every total assignment's weight has mean 1 and
    variance 4^n - 1 over n variables, while distinct assignments covary
    by exactly -1.  Integer-valued, hence exact in any numeric mode."""
    return WeightModel(default=VarMoments(1, 1, 3, 3, -1))


def selector_weights():
    """Moments for the fresh selector variable of the if-then-else
    covariance identity: mean-one weights with variance 3 and polarity
    covariance -3 (so P + N has variance zero)."""
    return VarMoments(1, 1, 3, 3, -3)


def beta_variance(p, theta):
    """Variance of a CPT entry under the pseudo-count model: p(1-p)/theta,
    and exactly zero for degenerate entries."""
    if p == 0 or p == 1:
        return 0 * p
    return p * (1 - p) / theta


def dirichlet_group_moments(alphas):
    """Means and covariance matrix of a Dirichlet vector given pseudocounts."""
    a0 = sum(alphas)
    if a0 <= 0:
        raise WeightError('pseudocounts must have a positive sum')
    means = tuple(a / a0 for a in alphas)
    k = len(alphas)
    cov = tuple(tuple(
        (alphas[i] * (a0 - alphas[i]) if i == j else -alphas[i] * alphas[j])
        / (a0 * a0 * (a0 + 1))
        for j in range(k)) for i in range(k))
    return means, cov


def group_cov_from_probs(ps, theta):
    """Covariance matrix for a normalized probability vector whose entries
    carry variance p(1-p)/theta and pairwise covariance -p_i p_j / theta.

    Matches dirichlet_group_moments with pseudocounts (theta-1) * p when
    those are positive, and degrades gracefully for 0/1 entries (their rows
    are zero, keeping the matrix PSD)."""
    k = len(ps)

    def cell(i, j):
        if ps[i] in (0, 1) or ps[j] in (0, 1):
            return 0 * ps[i]
        if i == j:
            return ps[i] * (1 - ps[i]) / theta
        return -ps[i] * ps[j] / theta

    return tuple(tuple(cell(i, j) for j in range(k)) for i in range(k))
