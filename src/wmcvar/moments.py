"""Expectation, variance, and covariance of weighted model counts.

Given an st-d-DNNF circuit over a vtree and per-variable weight moments,
computes the first two moments of the weighted model count W_f in a single
bottom-up pass per circuit plus one traversal over node pairs.

Every intermediate value is anchored to a vtree node: the pair (v, x)
means "x is the moment of W taken over exactly the variables of v", with
v = 0 standing for the empty variable set.  Moving an anchored value up to
an ancestor vnode w multiplies in the moments of W_true over
Var(w) \\ Var(v); since weights of distinct variables are independent,
those factors depend only on (w, v) and are precomputed along root paths
(the ea/va tables below).

The covariance pass is a recurrence over node pairs (a, b): a is a node
of f, b a node of g, and the constants FALSE and TRUE are the same ids in
both.  Each pair is resolved at anc = lca(d(a), d(b)), its covariance
over Var(anc), by the first rule that applies:
  - a or b is FALSE, or anc is BOTTOM (both TRUE): 0;
  - anc is a registered group vnode: read from the group covariance;
  - an or-node sits at anc: the sum over its children of the child
    pairs' covariances, each lifted to anc;
  - anc is a vtree leaf: the covariance of two weights of one variable;
  - otherwise both operands split into (left, right) parts under anc.
    An and-node at anc gives its two children in their stored order,
    which Circuit.conj makes (left, right); any other node goes whole to
    the side that contains it, with TRUE on the other side.  With cl,
    cr the part pairs' lifted covariances and el, er the products of
    their lifted expectations, Cov = cl*cr + cl*er + el*cr.
This is the pairwise product of circuits over one vtree (Vergari et al.,
"A Compositional Atlas of Tractable Circuit Operations", NeurIPS 2021),
taken on centred moments.  Circuits must be in the normal form that
Circuit.conj and Circuit.disj build (see circuit.py): no conjunction has
a constant child, so each one splits at its own vnode.  The pass memoizes
each pair as (anc, Cov); a lift reads the pair's anchor from there.

Correlated groups (positive weights of several variables jointly
distributed) break the independence that the adjustment tables rely on.
They are supported under a structural contract: the vtree gathers each
group under one vnode (registered via `group_vnodes`), and every circuit
node anchored at that vnode fixes the truth value of all members with at
most one member true.  Covariances of such blocks are then read directly
from the group covariance matrix, and any adjustment whose span would
touch a grouped variable raises CorrelationScopeError instead of silently
using moments that the model cannot express.

Exact models run on plain ints.  Each variable x gets one scale d_x: a
multiple of its first moments' denominators whose square every second
moment's denominator divides (members of a group share one d_g, which
also covers the group's covariance entries).  The engine stores first
moments times d_x, second moments times d_x^2 and group covariances
times d_g^2.  The recurrences are multilinear with one moment factor per
variable, so every anchored expectation over Var(v) is then an int over
S(v) = prod of d_x for x in Var(v), and every covariance an int over
S(v)^2.  exp and cov divide by S(root) or S(root)^2 once, at the end; no
Fraction is formed before that.  Float models, int models and tape
values take d_x = 1 and pass through.
"""

import math
from fractions import Fraction
from itertools import chain

from .circuit import BOTTOM, FALSE, TRUE
from .errors import (CorrelationScopeError, ValidationError,
                     VtreeMismatchError)
from .weights import Group, VarMoments, WeightModel


class MomentEngine:
    """Moment computations for circuits sharing one vtree and weight model.

    The constructor does O(n) work (per-variable moments and the W_true
    tables); adjustment tables are filled lazily per anchor vnode.
    Results take the model's type: float if any value is a float, else
    Fraction if any is a Fraction (computed on scaled ints, see the module
    docstring), else the values' own type (ints stay ints).
    """

    def __init__(self, vt, wm, group_vnodes=None):
        wm.validate_for(vt.n_vars)
        self.vt = vt
        self.wm = wm
        self.group_vnodes = dict(group_vnodes or {})
        for v, gi in self.group_vnodes.items():
            if vt.scope[v] != wm.groups[gi].mask:
                raise ValidationError(
                    'vtree node %d does not gather group %d exactly' % (v, gi))
        # gcov: group covariances, scaled like mom; scale: S(root) of an
        # exact model, else None
        self.mom, self.gcov, self.kind, d = _moments_of(wm, vt.n_vars)
        self.scale = None if d is None else math.prod(d)
        self.guard_mask = wm.grouped_mask

        # W_true moments per vnode.  Above a correlated group these
        # recurrences are not valid; such entries are never read because
        # _guard refuses any span touching guard_mask.
        ev = [1] * (vt.n_nodes + 1)
        vv = [0] * (vt.n_nodes + 1)
        for v in range(1, vt.n_nodes + 1):
            l, r = vt.left[v], vt.right[v]
            if l:
                ev[v] = ev[l] * ev[r]
                vv[v] = (vv[l] * vv[r] + vv[l] * ev[r] * ev[r]
                         + ev[l] * ev[l] * vv[r])
            else:
                m = self.mom[vt.var[v]]
                ev[v] = m.muP + m.muN
                vv[v] = m.varP + m.varN + 2 * m.covPN
        self.ev = ev
        self.vv = vv
        self._adj = {}          # anchor vnode -> {ancestor: (ea, va)}
        self.pairs = 0          # node pairs the last cov resolved

    # ---- adjustment tables -------------------------------------------------

    def _table(self, v):
        t = self._adj.get(v)
        if t is None:
            vt, ev, vv = self.vt, self.ev, self.vv
            t = {v: (1, 0)}
            ea, va = 1, 0
            w = v
            while w != vt.root:
                p = vt.parent[w]
                sib = vt.right[p] if vt.left[p] == w else vt.left[p]
                et, vtm = ev[sib], vv[sib]
                va = va * vtm + va * et * et + ea * ea * vtm
                ea = ea * et
                t[p] = (ea, va)
                w = p
            self._adj[v] = t
        return t

    def _guard(self, w, v):
        # span Var(w) \ Var(v) must not touch correlated variables: W_true
        # over such a span has moments outside the pairwise model
        if self.guard_mask:
            span = self.vt.scope[w] & ~(self.vt.scope[v] if v else 0)
            if span & self.guard_mask:
                raise CorrelationScopeError(
                    'adjustment over vtree node %d spans correlated '
                    'variables; the circuit does not fix them here' % w)

    def adj_exp(self, w, e):
        """Lift an anchored expectation (v, x) to ancestor vnode w."""
        v, val = e
        if v == w or val == 0:
            return val
        self._guard(w, v)
        if v == BOTTOM:
            return self.ev[w] * val
        pair = self._table(v).get(w)
        if pair is None:
            raise ValidationError('vnode %d is not an ancestor of %d' % (w, v))
        return pair[0] * val

    def adj_cov(self, w, cv, ef, eg):
        """Lift an anchored covariance to ancestor vnode w.

        cv = (v, c) is Cov of the two counts over Var(v); ef, eg are the
        anchored expectations of the operands, each anchored at a
        descendant of v (or at 0).
        """
        v, val = cv
        if v == w:
            return val
        if v == BOTTOM:
            # both operands are constants on Var(v); all covariance over
            # Var(w) comes from the shared W_true factor
            if ef[1] == 0 or eg[1] == 0:
                return 0
            self._guard(w, BOTTOM)
            return self.vv[w] * ef[1] * eg[1]
        self._guard(w, v)
        pair = self._table(v).get(w)
        if pair is None:
            raise ValidationError('vnode %d is not an ancestor of %d' % (w, v))
        ea, va = pair
        a = self.adj_exp(v, ef)
        b = self.adj_exp(v, eg)
        return va * val + va * a * b + ea * ea * val

    # ---- expectations --------------------------------------------------------

    def exp_table(self, c):
        """Anchored expectation (d(alpha), E[W_alpha]) for every node."""
        if c.vt is not self.vt:
            raise VtreeMismatchError('circuit was built on a different vtree')
        vt, mom = self.vt, self.mom
        e = [None] * len(c)
        e[FALSE] = (BOTTOM, 0)
        e[TRUE] = (BOTTOM, 1)
        for i in c.reachable():
            if i <= TRUE:
                continue
            k = c.kind[i]
            v = c.dnode[i]
            if k == 'L':
                m = mom[abs(c.lit[i])]
                e[i] = (v, m.muP if c.lit[i] > 0 else m.muN)
            elif k == 'O':
                r = 0
                for ch in c.children[i]:
                    r = r + self.adj_exp(v, e[ch])
                e[i] = (v, r)
            elif k == 'A':
                chs = c.children[i]
                if len(chs) != 2:
                    raise ValidationError(
                        'conjunction %d is not binary; normalize first' % i)
                el, er = e[chs[0]], e[chs[1]]
                vl, vr = vt.left[v], vt.right[v]
                if not (vt.is_ancestor(vl, el[0])
                        and vt.is_ancestor(vr, er[0])):
                    raise ValidationError(
                        'conjunction %d does not split at its vnode' % i)
                e[i] = (v, self.adj_exp(vl, el) * self.adj_exp(vr, er))
            else:
                raise ValidationError('unknown node kind %r' % k)
        return e

    def exp(self, c):
        """E[W_c] over the full variable set of the vtree."""
        e = self.exp_table(c)
        return self._result(self.adj_exp(self.vt.root, e[c.root]), 1)

    def _result(self, x, power):
        # x is over S(root)**power in exact mode; an int from a float
        # model is an exact zero of a constant
        if self.scale is not None:
            return Fraction(x, self.scale ** power)
        return float(x) if self.kind is float and type(x) is int else x

    # ---- covariances -----------------------------------------------------------

    def cov(self, f, g):
        """Cov(W_f, W_g) over the full variable set (f, g share the vtree).

        Resolves node pairs (a, b), a of f and b of g, bottom-up by the
        pair rule of the module docstring, with an explicit stack.  memo
        maps a * len(g) + b (the smaller id first when f is g: Cov is
        symmetric) to (anc, the pair's covariance over Var(anc)); self.pairs
        is its size after the last call.
        """
        if f.vt is not self.vt or g.vt is not self.vt:
            raise VtreeMismatchError('circuits were built on a different vtree')
        vt = self.vt
        lca, left, right, scope = vt.lca, vt.left, vt.right, vt.scope
        fd, gd, fk, gk = f.dnode, g.dnode, f.kind, g.kind
        gmask = self.guard_mask
        same = f is g
        ef = self.exp_table(f)
        eg = ef if same else self.exp_table(g)
        adj_exp, adj_cov, split = self.adj_exp, self.adj_cov, self._split
        n = len(g)
        memo = {}
        patt = {}                   # circuit -> _member_pattern's bitsets

        ra, rb = f.root, g.root
        rk = rb * n + ra if same and rb < ra else ra * n + rb
        # entries (a, b, key, plan): plan is None until the pair's rule has
        # been evaluated, then (deps, vl, vr, anc) while deps resolve
        stack = [(ra, rb, rk, None)]
        while stack:
            a, b, k, plan = stack.pop()
            if plan is None:
                if k in memo:
                    continue
                da, db = fd[a], gd[b]
                anc = lca(da, db)
                if a == FALSE or b == FALSE or anc == BOTTOM:
                    memo[k] = (anc, 0)
                    continue
                if gmask and scope[anc] & gmask:
                    r = self._group_block(f, a, g, b, anc, patt)
                    if r is not None:
                        memo[k] = (anc, r)
                        continue
                vl = vr = 0         # stay 0 when an or-node is expanded
                if da == anc and fk[a] == 'O':
                    deps = [(x, b, b * n + x if same and b < x else x * n + b)
                            for x in f.children[a]]
                elif db == anc and gk[b] == 'O':
                    deps = [(a, y, y * n + a if same and y < a else a * n + y)
                            for y in g.children[b]]
                elif left[anc] == 0:
                    memo[k] = (anc, self._leaf_pair(f, a, g, b))
                    continue
                else:
                    vl, vr = left[anc], right[anc]
                    (al, ar), (bl, br) = split(f, a, anc), split(g, b, anc)
                    deps = ((al, bl, bl * n + al if same and bl < al
                             else al * n + bl),
                            (ar, br, br * n + ar if same and br < ar
                             else ar * n + br))
                need = [(x, y, kk, None) for x, y, kk in deps
                        if kk not in memo]
                if need:
                    stack.append((a, b, k, (deps, vl, vr, anc)))
                    stack.extend(need)
                    continue
            else:
                deps, vl, vr, anc = plan
            # lifts to a value's own anchor are read inline
            if vl:
                (al, bl, kl), (ar, br, kr) = deps
                x, y = ef[al], eg[bl]
                el = (x[1] if x[0] == vl else adj_exp(vl, x)) \
                    * (y[1] if y[0] == vl else adj_exp(vl, y))
                x, y = ef[ar], eg[br]
                er = (x[1] if x[0] == vr else adj_exp(vr, x)) \
                    * (y[1] if y[0] == vr else adj_exp(vr, y))
                x = memo[kl]
                cl = x[1] if x[0] == vl else adj_cov(vl, x, ef[al], eg[bl])
                x = memo[kr]
                cr = x[1] if x[0] == vr else adj_cov(vr, x, ef[ar], eg[br])
                memo[k] = (anc, cl * cr + cl * er + el * cr)
            else:
                r = 0
                for p, q, kk in deps:
                    x = memo[kk]
                    r = r + (x[1] if x[0] == anc
                             else adj_cov(anc, x, ef[p], eg[q]))
                memo[k] = (anc, r)

        self.pairs = len(memo)
        return self._result(adj_cov(vt.root, memo[rk], ef[ra], eg[rb]), 2)

    def var(self, f):
        return self.cov(f, f)

    def _split(self, c, x, anc):
        """(left, right) parts of node x of c at the internal vnode anc.

        A conjunction at anc gives its two children, stored left first;
        any other node goes whole to the side that contains it, with TRUE
        on the other side.
        """
        vt = self.vt
        d = c.dnode[x]
        if d != anc:
            return (x, TRUE) if vt.is_ancestor(vt.left[anc], d) else (TRUE, x)
        return c.children[x]

    def _leaf_pair(self, f, a, g, b):
        # Cov of two single-variable counts: split each operand into the
        # polarities it admits and sum the per-polarity weight covariances.
        # TRUE admits both; its lit is 0.
        if f.kind[a] not in 'TL' or g.kind[b] not in 'TL':
            raise ValidationError(
                'node pair (%d, %d) does not decompose at a vtree leaf'
                % (a, b))
        sa, sb = f.lit[a], g.lit[b]
        m = self.mom[abs(sa or sb)]
        r = 0
        if sa >= 0 and sb >= 0:
            r = r + m.varP
        if sa <= 0 and sb <= 0:
            r = r + m.varN
        if sa >= 0 and sb <= 0:
            r = r + m.covPN
        if sa <= 0 and sb >= 0:
            r = r + m.covPN
        return r

    # ---- correlated group blocks ----------------------------------------------

    def _group_block(self, f, a, g, b, anc, patt):
        """Direct covariance for a pair anchored at a registered group vnode.

        Returns None if anc sits above every group (normal recursion
        applies); raises if the pair decomposes inside a correlated block
        in a shape the moment model cannot express.
        """
        vt, wm = self.vt, self.wm
        gi = self.group_vnodes.get(anc)
        if gi is not None and f.dnode[a] == anc and g.dnode[b] == anc:
            grp = wm.groups[gi]
            ja = self._member_pattern(f, a, gi, patt)
            jb = self._member_pattern(g, b, gi, patt)
            if ja < 0 or jb < 0:
                return 0
            cpp = self.gcov[gi][ja][jb]
            if cpp == 0:
                return 0
            pa = pb = 1
            for j, x in enumerate(grp.members):
                mn = self.mom[x].muN
                if j != ja:
                    pa = pa * mn
                if j != jb:
                    pb = pb * mn
            return pa * pb * cpp
        sc = vt.scope[anc]
        if sc & ~self.guard_mask:
            return None             # anc spans more than grouped variables
        for grp in wm.groups:
            if sc & ~grp.mask == 0:
                raise CorrelationScopeError(
                    'covariance decomposes inside a correlated group at '
                    'vnode %d; gather the group under a registered vnode '
                    'and keep its members fixed by every node there' % anc)
        return None                 # spans several groups but nothing else

    def _member_pattern(self, c, i, gi, patt):
        """Index of the member forced true under node i of c, -1 if none.
        patt[c] holds, per node of c, the grouped variables a positive
        literal under it sets true, filled children first once per c."""
        g = self.wm.groups[gi]
        if c.scope[i] != g.mask:    # constants too: their scope is empty
            raise CorrelationScopeError(
                'node at a group vnode must fix every member of the group')
        t = patt.get(c)
        if t is None:
            t = patt[c] = [0] * len(c)
            gm = self.guard_mask
            for j, chs in enumerate(c.children):
                if c.kind[j] == 'L':
                    t[j] = (1 << c.lit[j]) & gm if c.lit[j] > 0 else 0
                else:
                    for ch in chs:
                        t[j] |= t[ch]
        got = t[i]
        if got == 0:
            return -1
        if got & (got - 1):
            raise CorrelationScopeError(
                'node sets two members of a correlated group true; '
                'covariance of such a block is not expressible')
        return g.members.index(got.bit_length() - 1)


def _moments_of(wm, n):
    """Moments of variables 1..n and group covariances of wm, on scaled
    ints for an exact model: (mom, gcov, kind, d).

    kind is float if a value is a float (the scan stops there), else
    Fraction if one is a Fraction, else None (ints, tape values).  For a
    Fraction model d[x - 1] is variable x's scale d_x, shared as d_g by a
    group's members; mom[x] then holds x's first moments times d_x and its
    second moments times d_x**2, gcov[gi] group gi's covariances times
    d_g**2.  Otherwise d is None and the values are returned as they are.
    """
    mom = [None] + [wm.moments(x) for x in range(1, n + 1)]
    gcov = [g.cov for g in wm.groups]
    kind = None
    for row in chain(((m.muP, m.muN, m.varP, m.varN, m.covPN)
                      for m in mom[1:]),
                     (row for cov in gcov for row in cov)):
        for x in row:
            t = type(x)
            if t is Fraction:
                kind = Fraction
            elif t is float or t is not int and isinstance(x, float):
                return mom, gcov, float, None
    if kind is not Fraction:
        return mom, gcov, kind, None

    def grow(s, qs):
        # multiply in the part of each q that s*s lacks, so q divides s*s
        for q in qs:
            s *= q // math.gcd(q, s * s)
        return s

    d = [grow(math.lcm(m.muP.denominator, m.muN.denominator),
              (m.varP.denominator, m.varN.denominator, m.covPN.denominator))
         for m in mom[1:]]
    for g in wm.groups:
        dg = grow(math.lcm(*(d[x - 1] for x in g.members)),
                  (q.denominator for row in g.cov for q in row))
        for x in g.members:
            d[x - 1] = dg

    def up(q, s):
        return q.numerator * (s // q.denominator)

    out = [None]
    for m, s in zip(mom[1:], d):
        s2 = s * s
        out.append(VarMoments(up(m.muP, s), up(m.muN, s), up(m.varP, s2),
                              up(m.varN, s2), up(m.covPN, s2)))
    gcov = [tuple(tuple(up(q, d[g.members[0] - 1] ** 2) for q in row)
                  for row in g.cov) for g in wm.groups]
    return out, gcov, Fraction, d


# ---- convenience wrappers -----------------------------------------------------

def exp_wmc(c, wm, group_vnodes=None):
    return MomentEngine(c.vt, wm, group_vnodes).exp(c)


def var_wmc(c, wm, group_vnodes=None):
    return MomentEngine(c.vt, wm, group_vnodes).var(c)


def cov_wmc(f, g, wm, group_vnodes=None):
    return MomentEngine(f.vt, wm, group_vnodes).cov(f, g)


def locate_group_vnodes(vt, wm):
    """Map each weight-model group to the vtree node gathering exactly it."""
    out = {}
    for gi, g in enumerate(wm.groups):
        v = vt.deepest_containing(g.mask)
        if v == BOTTOM or vt.scope[v] != g.mask:
            raise CorrelationScopeError(
                'no vtree node gathers group %d exactly' % gi)
        out[v] = gi
    return out


# ---- gradient of the variance ------------------------------------------------

class _Rev:
    """Reverse-mode scalar: a value and its node on a tape.

    Node k fills entries 4k..4k+3 of the tape, a flat list: a, da, b, db,
    the node numbers of up to two operands (-1 for none) and the partial
    derivatives of the node's value in them.  Only + and * are defined:
    they are the operations MomentEngine.var applies to second moments.
    Comparisons go by value, so code that tests moments against numbers
    behaves as it does on plain values.
    """

    __slots__ = ('val', 'at', 'tape')

    def __init__(self, val, tape, a=-1, da=0, b=-1, db=0):
        self.val = val
        self.at = len(tape) >> 2
        self.tape = tape
        tape += (a, da, b, db)

    def __add__(self, o):
        if type(o) is _Rev:
            return _Rev(self.val + o.val, self.tape, self.at, 1, o.at, 1)
        return _Rev(self.val + o, self.tape, self.at, 1)

    __radd__ = __add__

    def __mul__(self, o):
        if type(o) is _Rev:
            return _Rev(self.val * o.val, self.tape,
                        self.at, o.val, o.at, self.val)
        return _Rev(self.val * o, self.tape, self.at, o)

    __rmul__ = __mul__

    def __eq__(self, o):
        return self.val == (o.val if type(o) is _Rev else o)


def var_gradient(c, wm, group_vnodes=None):
    """Var[W_c] and its partial derivatives in every second moment.

    Returns (var, dvar, dgroups).  dvar[x] holds the partials in variable
    x's varP, varN and covPN (dvar[0] is None); for a grouped variable
    varP is its group's diagonal entry, so the first partial repeats that
    entry's.  dgroups[gi][a][b] is the partial in entry [a][b] of group
    gi's covariance matrix; an entry equal to zero reads as zero, since
    the engine skips zero group covariances.

    Var is multilinear, with degree 1, in each variable's second-moment
    table and in each group's matrix, so these partials give Var exactly
    after any change to one variable's or one group's second moments.
    They come from one run of MomentEngine.var over reverse-mode scalars
    and one backward walk over the tape it records.  An exact model's tape
    runs on the engine's scaled ints: Var is then read off as an int over
    S^2 and each partial as an int over S^2 / d^2, with S the product of
    all variable scales and d the scale of the moment's variable or group.
    """
    n = c.vt.n_vars
    wm.validate_for(n)
    mom, gcov, _, d = _moments_of(wm, n)
    tape = []
    groups = [Group(g.members, tuple(tuple(_Rev(x, tape) for x in row)
                                     for row in cov))
              for g, cov in zip(wm.groups, gcov)]
    vars_ = {}
    for x in range(1, n + 1):
        m = mom[x]
        at = wm.group_of(x)
        vp = groups[at[0]].cov[at[1]][at[1]] if at else _Rev(m.varP, tape)
        vars_[x] = VarMoments(m.muP, m.muN, vp, _Rev(m.varN, tape),
                              _Rev(m.covPN, tape))
    var = MomentEngine(c.vt, WeightModel(vars_, groups), group_vnodes).var(c)

    adj = [0] * (len(tape) >> 2)
    if type(var) is _Rev:
        adj[var.at] = 1
        for i in range(var.at, -1, -1):
            g = adj[i]
            if g:
                a, da, b, db = tape[4 * i:4 * i + 4]
                if a >= 0:
                    adj[a] += g * da
                    if b >= 0:
                        adj[b] += g * db
        var = var.val
    dvar = [None] + [(adj[m.varP.at], adj[m.varN.at], adj[m.covPN.at])
                     for m in (vars_[x] for x in range(1, n + 1))]
    dgroups = [tuple(tuple(adj[x.at] for x in row) for row in g.cov)
               for g in groups]
    if d is not None:
        s2 = math.prod(d) ** 2
        var = Fraction(var, s2)

        def per(parts, s):
            q = s2 // (s * s)
            return tuple(Fraction(p, q) for p in parts)

        dvar = [None] + [per(dvar[x], d[x - 1]) for x in range(1, n + 1)]
        dgroups = [tuple(per(row, d[g.members[0] - 1]) for row in rows)
                   for g, rows in zip(wm.groups, dgroups)]
    return var, dvar, dgroups
