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

Correlated groups (positive weights of several variables jointly
distributed) break the independence that the adjustment tables rely on.
They are supported under a structural contract: the vtree gathers each
group under one vnode (registered via `group_vnodes`), and every circuit
node anchored at that vnode fixes the truth value of all members with at
most one member true.  Covariances of such blocks are then read directly
from the group covariance matrix, and any adjustment whose span would
touch a grouped variable raises CorrelationScopeError instead of silently
using moments that the model cannot express.
"""

from .circuit import BOTTOM, FALSE, TRUE
from .errors import (CorrelationScopeError, ValidationError,
                     VtreeMismatchError, WmcvarError)
from .weights import Group, VarMoments, WeightModel

_CONST = 2                      # tag side for shared constants
_TTRUE = (_CONST, TRUE)
_TFALSE = (_CONST, FALSE)
_ETRUE = (BOTTOM, 1)


class MomentEngine:
    """Moment computations for circuits sharing one vtree and weight model.

    The constructor does O(n) work (per-variable moments and the W_true
    tables); adjustment tables are filled lazily per anchor vnode.
    Arithmetic is generic: with an exact WeightModel (ints / Fractions)
    every result is exact.
    """

    def __init__(self, vt, wm, group_vnodes=None):
        wm.validate_for(vt.n_vars)
        self.vt = vt
        self.wm = wm
        self.group_vnodes = dict(group_vnodes or {})
        for v, gi in self.group_vnodes.items():
            mask = 0
            for x in wm.groups[gi].members:
                mask |= 1 << x
            if vt.scope[v] != mask:
                raise ValidationError(
                    'vtree node %d does not gather group %d exactly' % (v, gi))
        self.mom = [None] + [wm.moments(x) for x in range(1, vt.n_vars + 1)]
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
        for i in sorted(c.reachable()):
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
                c1, c2 = chs
                v1, v2 = e[c1][0], e[c2][0]
                if v1 == BOTTOM or v2 == BOTTOM:
                    # a constant factor adds no variables
                    e[i] = (v, e[c1][1] * e[c2][1])
                else:
                    vl, vr = vt.left[v], vt.right[v]
                    if vt.is_ancestor(vl, v1) and vt.is_ancestor(vr, v2):
                        r = self.adj_exp(vl, e[c1]) * self.adj_exp(vr, e[c2])
                    elif vt.is_ancestor(vl, v2) and vt.is_ancestor(vr, v1):
                        r = self.adj_exp(vl, e[c2]) * self.adj_exp(vr, e[c1])
                    else:
                        raise ValidationError(
                            'conjunction %d does not split at its vnode' % i)
                    e[i] = (v, r)
            else:
                raise ValidationError('unknown node kind %r' % k)
        return e

    def exp(self, c):
        """E[W_c] over the full variable set of the vtree."""
        e = self.exp_table(c)
        return self.adj_exp(self.vt.root, e[c.root])

    # ---- covariances -----------------------------------------------------------

    def cov(self, f, g):
        """Cov(W_f, W_g) over the full variable set (f, g share the vtree)."""
        if f.vt is not self.vt or g.vt is not self.vt:
            raise VtreeMismatchError('circuits were built on a different vtree')
        vt = self.vt
        lca = vt.lca
        gmask = self.guard_mask
        same = f is g
        etab_f = self.exp_table(f)
        etab_g = etab_f if same else self.exp_table(g)
        circs = (f, g)
        etabs = (etab_f, etab_g)

        def mk(side, nid):
            if nid <= TRUE:
                return (_CONST, nid)
            return (0 if same else side, nid)

        def strip(t):
            # see through conjunctions with a constant factor; they anchor
            # at the surviving factor's vnode and carry the same moments
            while t[0] != _CONST and circs[t[0]].kind[t[1]] == 'A':
                chs = circs[t[0]].children[t[1]]
                if len(chs) != 2:
                    break
                a, b = chs
                if a == FALSE or b == FALSE:
                    return _TFALSE
                if a == TRUE:
                    t = mk(t[0], b)
                elif b == TRUE:
                    t = mk(t[0], a)
                else:
                    break
            return t

        def ee(t):
            if t[0] == _CONST:
                return (BOTTOM, t[1])          # TRUE -> 1, FALSE -> 0
            return etabs[t[0]][t[1]]

        def dn(t):
            return BOTTOM if t[0] == _CONST else circs[t[0]].dnode[t[1]]

        def kd(t):
            if t[0] == _CONST:
                return 'T' if t[1] == TRUE else 'F'
            return circs[t[0]].kind[t[1]]

        def canon(p):
            return p if p[0] <= p[1] else (p[1], p[0])

        def orient(vl, vr, t1, t2, what):
            d1, d2 = dn(t1), dn(t2)
            if vt.is_ancestor(vl, d1) and vt.is_ancestor(vr, d2):
                return t1, t2
            if vt.is_ancestor(vl, d2) and vt.is_ancestor(vr, d1):
                return t2, t1
            raise ValidationError(what + ' does not split at the pair vnode')

        memo = {}
        patt = {}                   # tag -> bitmask of positive group members
        ra, rb = strip(mk(0, f.root)), strip(mk(1, g.root))
        stack = [(ra, rb)]
        while stack:
            ta, tb = stack.pop()
            key = canon((ta, tb))
            if key in memo:
                continue
            ka, kb = kd(ta), kd(tb)
            if ka == 'F' or kb == 'F':
                memo[key] = 0
                continue
            da, db = dn(ta), dn(tb)
            anc = lca(da, db)
            if anc == BOTTOM:
                memo[key] = 0
                continue

            if gmask and vt.scope[anc] & gmask:
                r = self._group_block(ta, tb, anc, da, db, patt, circs)
                if r is not None:
                    memo[key] = r
                    continue

            if anc != da and anc != db:
                # operands live strictly inside opposite branches of anc
                if not vt.is_ancestor(vt.left[anc], da):
                    ta, tb = tb, ta
                    da, db = db, da
                k1, k2 = canon((ta, _TTRUE)), canon((_TTRUE, tb))
                need = [p for p in (k1, k2) if p not in memo]
                if need:
                    stack.append((ta, tb))
                    stack.extend(need)
                    continue
                ancl, ancr = vt.left[anc], vt.right[anc]
                ea_, eb_ = ee(ta), ee(tb)
                el = self.adj_exp(ancl, ea_) * self.adj_exp(ancl, _ETRUE)
                er = self.adj_exp(ancr, _ETRUE) * self.adj_exp(ancr, eb_)
                cl = self.adj_cov(ancl, (da, memo[k1]), ea_, _ETRUE)
                cr = self.adj_cov(ancr, (db, memo[k2]), _ETRUE, eb_)
                memo[key] = cl * cr + cl * er + el * cr
                continue

            if ka in 'TL' and kb in 'TL':
                # same leaf vnode: covariance of two weights of one variable
                memo[key] = self._leaf_pair(ta, tb, ka, kb, circs)
                continue

            if (anc == db and anc != da) or \
                    (da == db and kb == 'O' and ka != 'O'):
                ta, tb = tb, ta
                da, db = db, da
                ka, kb = kb, ka

            if ka == 'O':
                deps = [(strip(mk(ta[0], ch)), tb)
                        for ch in circs[ta[0]].children[ta[1]]]
                need = [p for p in map(canon, deps) if p not in memo]
                if need:
                    stack.append((ta, tb))
                    stack.extend(need)
                    continue
                eb_ = ee(tb)
                r = 0
                for tc, _ in deps:
                    r = r + self.adj_cov(anc,
                                         (lca(dn(tc), db), memo[canon((tc, tb))]),
                                         ee(tc), eb_)
                memo[key] = r
                continue

            if ka == 'A':
                chs = circs[ta[0]].children[ta[1]]
                if len(chs) != 2:
                    raise ValidationError(
                        'conjunction %d is not binary; normalize first' % ta[1])
                ancl, ancr = vt.left[anc], vt.right[anc]
                al, ar = orient(ancl, ancr,
                                strip(mk(ta[0], chs[0])),
                                strip(mk(ta[0], chs[1])), 'conjunction')
                if db == anc:
                    bchs = circs[tb[0]].children[tb[1]]
                    if len(bchs) != 2:
                        raise ValidationError(
                            'conjunction %d is not binary; normalize first'
                            % tb[1])
                    bl, br = orient(ancl, ancr,
                                    strip(mk(tb[0], bchs[0])),
                                    strip(mk(tb[0], bchs[1])), 'conjunction')
                elif vt.is_ancestor(ancl, db):
                    bl, br = tb, _TTRUE
                else:
                    bl, br = _TTRUE, tb
                kl, kr = canon((al, bl)), canon((ar, br))
                need = [p for p in (kl, kr) if p not in memo]
                if need:
                    stack.append((ta, tb))
                    stack.extend(need)
                    continue
                eal, ebl, ear, ebr = ee(al), ee(bl), ee(ar), ee(br)
                el = self.adj_exp(ancl, eal) * self.adj_exp(ancl, ebl)
                er = self.adj_exp(ancr, ear) * self.adj_exp(ancr, ebr)
                cl = self.adj_cov(ancl, (lca(dn(al), dn(bl)), memo[kl]),
                                  eal, ebl)
                cr = self.adj_cov(ancr, (lca(dn(ar), dn(br)), memo[kr]),
                                  ear, ebr)
                memo[key] = cl * cr + cl * er + el * cr
                continue

            raise ValidationError(
                'node pair (%r, %r) does not decompose at vnode %d'
                % (ta, tb, anc))

        anc = lca(dn(ra), dn(rb))
        return self.adj_cov(vt.root, (anc, memo[canon((ra, rb))]),
                            ee(ra), ee(rb))

    def var(self, f):
        return self.cov(f, f)

    def _leaf_pair(self, ta, tb, ka, kb, circs):
        # Cov of two single-variable counts: split each operand into the
        # polarities it admits and sum the per-polarity weight covariances.
        def pols(t, k):
            if k == 'T':
                return True, True, None
            sl = circs[t[0]].lit[t[1]]
            return sl > 0, sl < 0, abs(sl)

        pa, na, va_ = pols(ta, ka)
        pb, nb, vb_ = pols(tb, kb)
        m = self.mom[va_ if va_ is not None else vb_]
        r = 0
        if pa and pb:
            r = r + m.varP
        if na and nb:
            r = r + m.varN
        if pa and nb:
            r = r + m.covPN
        if na and pb:
            r = r + m.covPN
        return r

    # ---- correlated group blocks ----------------------------------------------

    def _group_block(self, ta, tb, anc, da, db, patt, circs):
        """Direct covariance for a pair anchored at a registered group vnode.

        Returns None if anc sits above every group (normal recursion
        applies); raises if the pair decomposes inside a correlated block
        in a shape the moment model cannot express.
        """
        vt, wm = self.vt, self.wm
        gi = self.group_vnodes.get(anc)
        if gi is not None and da == anc and db == anc:
            g = wm.groups[gi]
            ja = self._member_pattern(ta, gi, patt, circs)
            jb = self._member_pattern(tb, gi, patt, circs)
            if ja < 0 or jb < 0:
                return 0
            cpp = g.cov[ja][jb]
            if cpp == 0:
                return 0
            pa = pb = 1
            for j, x in enumerate(g.members):
                mn = self.mom[x].muN
                if j != ja:
                    pa = pa * mn
                if j != jb:
                    pb = pb * mn
            return pa * pb * cpp
        sc = vt.scope[anc]
        if sc & ~self.guard_mask:
            return None             # anc spans more than grouped variables
        for g in wm.groups:
            mask = 0
            for x in g.members:
                mask |= 1 << x
            if sc & ~mask == 0:
                raise CorrelationScopeError(
                    'covariance decomposes inside a correlated group at '
                    'vnode %d; gather the group under a registered vnode '
                    'and keep its members fixed by every node there' % anc)
        return None                 # spans several groups but nothing else

    def _member_pattern(self, tag, gi, patt, circs):
        """Index of the member forced true under this node, -1 if none."""
        g = self.wm.groups[gi]
        pos = {x: j for j, x in enumerate(g.members)}
        mask = 0
        for x in g.members:
            mask |= 1 << x
        if tag[0] == _CONST or circs[tag[0]].scope[tag[1]] != mask:
            raise CorrelationScopeError(
                'node at a group vnode must fix every member of the group')
        got = patt.get(tag)
        if got is None:
            side = tag[0]
            c = circs[side]
            stack = [tag[1]]
            seen = {}
            order = []
            while stack:
                i = stack.pop()
                if i in seen:
                    continue
                seen[i] = 0
                order.append(i)
                stack.extend(c.children[i])
            for i in reversed(order):
                if c.kind[i] == 'L':
                    j = pos.get(c.lit[i])
                    m = 1 << j if j is not None else 0
                else:
                    m = 0
                    for ch in c.children[i]:
                        m |= seen[ch]
                seen[i] = m
                patt[(side, i)] = m
            got = patt[tag]
        if got == 0:
            return -1
        if got & (got - 1):
            raise CorrelationScopeError(
                'node sets two members of a correlated group true; '
                'covariance of such a block is not expressible')
        return got.bit_length() - 1


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
        mask = 0
        for x in g.members:
            mask |= 1 << x
        v = vt.deepest_containing(mask)
        if v == BOTTOM or vt.scope[v] != mask:
            raise CorrelationScopeError(
                'no vtree node gathers group %d exactly' % gi)
        out[v] = gi
    return out


def conditional_var_taylor(exp_num, var_num, exp_den, var_den, cov):
    """Second-order delta-method variance of the ratio of two counts."""
    if exp_den == 0 or (isinstance(exp_den, float) and abs(exp_den) < 1e-12):
        raise WmcvarError('denominator expectation too close to zero '
                          'for a ratio estimate')
    d2 = exp_den * exp_den
    return (var_num / d2
            - 2 * exp_num * cov / (d2 * exp_den)
            + exp_num * exp_num * var_den / (d2 * d2))


def conditional_exp_taylor(exp_num, exp_den, var_den, cov):
    """Second-order delta-method mean of the ratio of two counts."""
    if exp_den == 0 or (isinstance(exp_den, float) and abs(exp_den) < 1e-12):
        raise WmcvarError('denominator expectation too close to zero '
                          'for a ratio estimate')
    d2 = exp_den * exp_den
    return exp_num / exp_den - cov / d2 + exp_num * var_den / (d2 * exp_den)


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
    and one backward walk over the tape it records.
    """
    n = c.vt.n_vars
    wm.validate_for(n)
    tape = []
    groups = [Group(g.members, tuple(tuple(_Rev(x, tape) for x in row)
                                     for row in g.cov))
              for g in wm.groups]
    vars_ = {}
    for x in range(1, n + 1):
        m = wm.moments(x)
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
    return var, dvar, dgroups
