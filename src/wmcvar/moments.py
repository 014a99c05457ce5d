"""Expectation, variance, and covariance of weighted model counts.

Given an st-d-DNNF circuit over a vtree and per-variable weight moments,
computes the first two moments of the weighted model count W_f in a single
bottom-up pass per circuit plus one pass over node pairs.

Every intermediate value is anchored to a vtree node: the pair (v, x)
means "x is the moment of W taken over exactly the variables of v", with
v = 0 standing for the empty variable set.  Moving an anchored value up to
an ancestor vnode w multiplies in the moments of W_true over
Var(w) \\ Var(v); since weights of distinct variables are independent,
those factors depend only on (v, w).  _lift composes them edge by edge
on the path from v up to w only; a plan keeps the distinct (v, w) that
its LIFT records lift through, and each evaluation fills each one once.

The covariance pass is a recurrence over node pairs (a, b): a is a node
of f, b a node of g, and the constants FALSE and TRUE are the same ids in
both.  Each pair is resolved at anc = lca(d(a), d(b)), or BOTTOM if a or
b is FALSE, into a record (c, m) over Var(anc): c is Cov(W_a, W_b) and
m = E[W_a] E[W_b], by the first rule that applies:
  - a or b is FALSE: (0, 0), which no read lifts, so that no lift is asked
    of the model; anc is BOTTOM: (0, 1), as both are TRUE (the structure
    rule, Circuit.checked_nodes, refuses or-nodes there);
  - anc is a registered group vnode: c and m read from the engine's group
    tables by the members the two nodes force true: c from the group
    covariance, m the product of the nodes' means over the members;
  - an or-node sits at anc: the sum of its child pairs' records, lifted;
  - anc is a vtree leaf: the covariance and the mean product of two
    weights of one variable;
  - otherwise both operands split into (left, right) parts under anc.
    An and-node at anc gives its two children in their stored order,
    which Circuit.conj makes (left, right); any other node goes whole to
    the side that contains it, with TRUE on the other side.  With
    (cl, ml) and (cr, mr) the part pairs' lifted records, the pair's is
    (cl*cr + cl*mr + ml*cr, ml*mr).
A record lifts on its own: multiplying both counts by W_true over the
span, with moments (ea, va), gives (va*c + va*m + ea*ea*c, ea*ea*m).
This is the pairwise product of circuits over one vtree (Vergari et al.,
"A Compositional Atlas of Tractable Circuit Operations", NeurIPS 2021),
taken on centred moments.  Circuits must be in the normal form that
Circuit.conj and Circuit.disj build (see circuit.py): no conjunction has
a constant child, so each one splits at its own vnode.

No rule, and no choice of the pairs a pair reads, depends on a weight.
So the pass is a plan, the product circuit itself, evaluated under a
model: one record per pair, and one LIFT record per distinct record and
ancestor vnode that a read lifts it to, computed once however many
records read it (flat int arrays: 14-21 bytes per pair).  Its last record
reads the roots' pair at the vtree root, lifted as every read is, so
cov(f, g) is that record's c.
The first query builds it and keeps it on f (Circuit.plans) per partner
g (held weakly) and group layout (the registered group vnodes, each
group's members in order), with the two roots it was built for: models
with that layout share it, and a query on other roots replaces it.

Correlated groups (positive weights of several variables jointly
distributed) break the independence that the lifts rely on.
They are supported under a structural contract: the vtree gathers each
group under one vnode (registered via `group_vnodes`), and every circuit
node anchored at that vnode fixes the truth value of all members with at
most one member true.  Covariances of such blocks are then read directly
from the group covariance matrix, and a lift whose span holds a grouped
variable raises CorrelationScopeError instead of silently using moments
the model cannot express.  The plan enforces the contract on structure
alone: a literal fixes its variable, an and-node what either child fixes
and an or-node what every child fixes to the same value, and the build
refuses a lift over grouped variables, keeping no plan.  So a variance or
covariance needs no expectation table, only the structure rule a table
starts with (Circuit.checked_nodes, which validate reports by).

Exact models run on plain ints.  Each variable x gets one scale d_x: a
multiple of its first moments' denominators whose square every second
moment's denominator divides (members of a group share one d_g, which
also covers the group's covariance entries).  The engine stores first
moments times d_x, second moments times d_x^2 and group covariances
times d_g^2.  The recurrences are multilinear with one moment factor per
variable, so every anchored expectation over Var(v) is then an int over
S(v) = prod of d_x for x in Var(v), and every covariance or mean product
an int over S(v)^2.  exp and cov divide by S(root) or S(root)^2 once, at
the end; no Fraction is formed before that.  Float models and int models
take d_x = 1 and pass through.
"""

import math
from array import array
from fractions import Fraction
from functools import reduce
from itertools import chain, starmap

from .circuit import BOTTOM, FALSE, TRUE
from .errors import (CorrelationScopeError, ValidationError,
                     VtreeMismatchError)
from .weights import VarMoments


# A plan (codes, args, lifts, pairs) has one record per pair, after those
# it reads, and one LIFT record per distinct lifted read, before its first
# reader.  codes[i] is record i's anchor vnode times 8 plus its kind, and
# its arguments follow record i - 1's in args; a read is a record's id:
#   ZERO    the mean product, 1 for TRUE with TRUE, else 0;
#   GROUP   gi, ja, jb: the group and the members a and b force true (-1:
#           none), its entry group_tables[gi][ja][jb] in the engine's tables;
#   LEAF    x, and the _TERMS entry of the two literals;
#   OR      m, the reads of the m child pairs, summed at the anchor, and m
#           again, so that a walk from the end finds them;
#   SPLIT   the reads of the (left, right) part pairs;
#   LIFT    j, s: record j, which sits below this anchor w, lifted through
#           lifts[s], the distinct (v, w) in order of first use.
# A pair is read through a LIFT when its record sits below the anchor it is
# read at (but FALSE's (0, 0), at BOTTOM, is read as it is).  The last
# record is an OR at the vtree root, of fan-in 1: the roots' pair.  pairs
# counts the other records but the LIFTs.  A record's value (c, m) is
# symmetric, so when f is g one record serves a pair and its reverse.
ZERO, GROUP, LEAF, OR, SPLIT, LIFT = range(6)
_NARGS = (1, 3, 2)              # the arguments of ZERO, GROUP, LEAF
# _TERMS[sign(sa)][sign(sb)]: the weight covariances that literals sa, sb
# (0: TRUE) sum at a leaf, as bits 0-3: varP, varN, covPN (sa true, sb
# false), covPN (sa false, sb true)
_TERMS = [[(sa >= 0 and sb >= 0) | (sa <= 0 and sb <= 0) << 1
           | (sa >= 0 >= sb) << 2 | (sa <= 0 <= sb) << 3
           for sb in (0, 1, -1)] for sa in (0, 1, -1)]


class MomentEngine:
    """Moment computations for circuits sharing one vtree and weight model.

    The constructor does the work that depends on the model alone, once:
    O(n) for the per-variable moments and the W_true tables, and per
    correlated group of k members a table of (k + 1)^2 group blocks (see
    _group_table), which a GROUP record of a plan reads whole.  Lifts
    are composed per vtree edge, up to their target only, and memoized
    per (v, w).  An engine keeps nothing else: every exp, cov and
    var_gradient runs its own passes, so one engine serves any number
    of queries under its model.
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
            if not _gathers(vt, wm, v, gi):
                raise ValidationError(
                    'vtree node %d does not gather group %d exactly' % (v, gi))
        # gcov: group covariances, scaled like mom; d: the variable scales
        # and scale: S(root) of an exact model, else None
        self.mom, self.gcov, self.kind, self.d = _moments_of(wm, vt.n_vars)
        self.scale = None if self.d is None else math.prod(self.d)
        # per group gi and members ja, jb forced true (-1, the last entry:
        # none): group_tables[gi][ja][jb] = (c, m, pab), see _group_table
        self.group_tables = [_group_table(self.mom, g.members, cov)
                             for g, cov in zip(wm.groups, self.gcov)]
        # all a plan depends on beyond its circuits: no weight value
        self.layout = (tuple(sorted(self.group_vnodes.items())),
                       tuple(g.members for g in wm.groups))

        # W_true moments and grouped variables per vnode.  Above a
        # correlated group the W_true recurrences are not valid; such entries
        # are never read because _lift refuses any span with grouped ones.
        ev = [1] * (vt.n_nodes + 1)
        vv = [0] * (vt.n_nodes + 1)
        grouped = [0] * (vt.n_nodes + 1)
        for v in range(1, vt.n_nodes + 1):
            l, r = vt.left[v], vt.right[v]
            if l:
                ev[v], vv[v] = _product(ev[l], vv[l], ev[r], vv[r])
                grouped[v] = grouped[l] + grouped[r]
            else:
                m = self.mom[vt.var[v]]
                ev[v] = m.muP + m.muN
                vv[v] = m.varP + m.varN + 2 * m.covPN
                grouped[v] = int(wm.group_of(vt.var[v]) is not None)
        self.ev = ev
        self.vv = vv
        self.grouped = grouped
        self._lifts = {}        # (v, w) -> (ea, va)
        self.pairs = 0          # node pairs of the last cov's plan

    # ---- lifts -------------------------------------------------------------

    def _lift(self, v, w):
        """(ea, va): the moments of W_true over Var(w) \\ Var(v), w an
        ancestor of v, composed per edge from v up to w and memoized."""
        r = self._lifts.get((v, w))
        if r is None:
            vt, ev, vv = self.vt, self.ev, self.vv
            if not vt.is_ancestor(w, v):
                raise ValidationError(
                    'vnode %d is not an ancestor of %d' % (w, v))
            # correlated variables in the span void the pairwise model
            if self.grouped[w] != self.grouped[v]:
                raise CorrelationScopeError(
                    'adjustment over vtree node %d spans correlated '
                    'variables; the circuit does not fix them here' % w)
            r, u = ((ev[w], vv[w]), w) if v == BOTTOM else ((1, 0), v)
            while u != w:
                p = vt.parent[u]
                s = vt.right[p] if vt.left[p] == u else vt.left[p]
                r = _product(*r, ev[s], vv[s])
                u = p
            self._lifts[v, w] = r
        return r

    # ---- expectations --------------------------------------------------------

    def exp_table(self, c):
        """E[W_alpha] over Var(d(alpha)) for each node alpha reachable from
        c's root (d(alpha) is c.dnode[alpha], BOTTOM for FALSE and TRUE)."""
        if c.vt is not self.vt:
            raise VtreeMismatchError('circuit was built on a different vtree')
        order = c.checked_nodes()
        left, right, lift, mom = self.vt.left, self.vt.right, self._lift, \
            self.mom
        kind, dnode, lit, chs = c.kind, c.dnode, c.lit, c.children
        e = [0, 1] + [None] * (len(c) - 2)      # FALSE and TRUE, then the rest
        for i in order:
            k, v = kind[i], dnode[i]
            if k == 'O':
                r = 0
                for ch in chs[i]:
                    x, u = e[ch], dnode[ch]
                    r = r + (x if u == v or x == 0 else lift(u, v)[0] * x)
                e[i] = r
            elif k == 'A':
                a, b = chs[i]
                x, u, w = e[a], dnode[a], left[v]
                if u != w and x != 0:
                    x = lift(u, w)[0] * x
                y, u, w = e[b], dnode[b], right[v]
                if u != w and y != 0:
                    y = lift(u, w)[0] * y
                e[i] = x * y
            else:
                m = mom[abs(lit[i])]
                e[i] = m.muP if lit[i] > 0 else m.muN
        return e

    def exp(self, c):
        """E[W_c] over the full variable set of the vtree."""
        return self._top(c, self.exp_table(c))

    def _top(self, c, e):
        """E[W_c] from c's expectation table e."""
        v, x, w = c.dnode[c.root], e[c.root], self.vt.root
        if v != w and x != 0:
            x = self._lift(v, w)[0] * x
        return self._result(x, 1)

    def _result(self, x, power):
        # x is over S(root)**power in exact mode; an int from a float
        # model is an exact zero of a constant
        if self.scale is not None:
            return Fraction(x, self.scale ** power)
        return float(x) if self.kind is float and type(x) is int else x

    # ---- covariances -----------------------------------------------------------

    def exp_var(self, c):
        """(exp(c), var(c)): the pair pass, then one expectation table."""
        x = self._pairs(c, c)[0]
        return self._top(c, self.exp_table(c)), self._result(x, 2)

    def cov(self, f, g):
        """Cov(W_f, W_g) over the full variable set (f, g share the vtree)."""
        return self._result(self._pairs(f, g)[0], 2)

    def var(self, f):
        return self.cov(f, f)

    def _pairs(self, f, g):
        """(x, val, mp, lifted, plan): x = val[-1], cov(f, g) before
        _result, and val, mp, lifted what _evaluate made of plan, f's with
        g.  f's structure is checked, then g's, then the plan built."""
        if f.vt is not self.vt or g.vt is not self.vt:
            raise VtreeMismatchError('circuits were built on a different vtree')
        f.checked_nodes(), g.checked_nodes()
        kept = f.plans.get(g) or {}
        roots, plan = kept.get(self.layout, (None, None))
        if roots != (f.root, g.root):   # a build that raises keeps nothing
            plan = self._plan(f, g)
            f.plans.setdefault(g, kept)[self.layout] = (f.root, g.root), plan
        val, mp, lifted = self._evaluate(plan)
        self.pairs = plan[3]
        return val[-1], val, mp, lifted, plan

    def _plan(self, f, g):
        """Resolve the node pairs of cov(f, g) into a plan (codes, args,
        lifts, pairs), bottom-up by the pair rule of the module docstring,
        with an explicit stack.  Pairs are keyed a * len(g) + b, the smaller
        id first when f is g (Cov is symmetric), each is resolved once, and
        the last record reads the roots' pair at the vtree root."""
        lca, left, right = self.vt.lca, self.vt.left, self.vt.right
        fd, gd, fk, gk, fl, gl = f.dnode, g.dnode, f.kind, g.kind, f.lit, g.lit
        same, n, split, grouped = f is g, len(g), self._split, self.grouped
        codes, args = array('i'), array('i')
        memo = {}                   # pair key -> record index
        ups = {}                    # (record, w) -> its LIFT's index
        lifts = {}                  # (v, w) -> slot, in order of first use
        patt = {}                   # circuit -> _member_pattern's bitsets

        ra, rb = f.root, g.root
        # entries (a, b, key, None, w), w the anchor its reader needs, then
        # (code, 0, key, deps, None) once the pair's rule has been applied,
        # while its deps resolve; the last record's key is -1
        top = ((ra, rb, rb * n + ra if same and rb < ra else ra * n + rb,
                None, self.vt.root),)
        stack = [(self.vt.root << 3 | OR, 0, -1, top, None), *top]
        pop, push, put = stack.pop, stack.append, args.append
        while stack:
            a, b, k, deps, _ = pop()
            if deps is not None:
                code = a
            elif k in memo:
                continue
            else:
                da, db = fd[a], gd[b]
                anc = BOTTOM if a == FALSE or b == FALSE else \
                    da if da == db else lca(da, db)
                if anc == BOTTOM:
                    kind, own = ZERO, (int(FALSE not in (a, b)),)
                elif grouped[anc] and (own := self._group_members(
                        f, a, g, b, anc, patt)) is not None:
                    kind = GROUP
                elif da == anc and fk[a] == 'O':
                    kind, deps = OR, [(x, b, b * n + x if same and b < x
                                       else x * n + b, None, anc)
                                      for x in f.children[a]]
                elif db == anc and gk[b] == 'O':
                    kind, deps = OR, [(a, y, y * n + a if same and y < a
                                       else a * n + y, None, anc)
                                      for y in g.children[b]]
                elif left[anc] == 0:
                    if fk[a] not in 'TL' or gk[b] not in 'TL':
                        raise ValidationError(
                            'node pair (%d, %d) does not decompose at a '
                            'vtree leaf' % (a, b))
                    sa, sb = fl[a], gl[b]
                    kind, own = LEAF, (abs(sa or sb), _TERMS[
                        (sa > 0) - (sa < 0)][(sb > 0) - (sb < 0)])
                else:
                    (al, ar), (bl, br) = split(f, a, anc), split(g, b, anc)
                    kind, deps = SPLIT, (
                        (al, bl, bl * n + al if same and bl < al
                         else al * n + bl, None, left[anc]),
                        (ar, br, br * n + ar if same and br < ar
                         else ar * n + br, None, right[anc]))
                code = anc << 3 | kind
                if deps is not None:
                    # deps resolved by the time they pop are skipped
                    push((code, 0, k, deps, None))
                    stack.extend(deps)
                    continue
            if deps is None:
                args.extend(own)
            else:
                # a read lifts unless its record sits at the anchor w the
                # reader needs, or is FALSE's at BOTTOM: (0, 0) needs none;
                # then it reads the (record, w)'s LIFT, written at first use
                reads = []
                for x, y, kk, _, w in deps:
                    j = memo[kk]
                    v = codes[j] >> 3
                    if v != w and (v != BOTTOM or FALSE not in (x, y)):
                        lj = ups.get((j, w))
                        if lj is None:
                            ups[j, w] = lj = len(codes)
                            codes.append(w << 3 | LIFT)
                            put(j)
                            put(lifts.setdefault((v, w), len(lifts)))
                        j = lj
                    reads.append(j)
                if code & 7 == OR:      # the fan-in before and after
                    put(len(reads))
                    reads.append(len(reads))
                args.extend(reads)
            memo[k] = len(codes)
            codes.append(code)
        # _lift refuses a lift over grouped variables; ask it here, before a
        # plan is kept, in the order _evaluate would lift
        for v, w in lifts:
            if grouped[w] != grouped[v]:
                self._lift(v, w)
        return codes, args, tuple(lifts), len(memo) - 1

    def _evaluate(self, plan):
        """(val, mp, lifted): each record's covariance and mean product
        over Var(its anchor) under this model, and each slot's (ea * ea,
        va), filled from _lift in the plan's order of first use."""
        mom, tables, (codes, arg, lifts, _) = \
            self.mom, self.group_tables, plan
        lifted = [(ea * ea, va) for ea, va in starmap(self._lift, lifts)]
        val, mp, o = [], [], 0
        put, putm = val.append, mp.append
        for code in codes:
            kind = code & 7
            if kind == SPLIT:
                jl, jr = arg[o], arg[o + 1]
                cl, ml, cr, mr = val[jl], mp[jl], val[jr], mp[jr]
                c, m = cl * cr + cl * mr + ml * cr, ml * mr
                o += 2
            elif kind == OR:
                end, c, m = o + 1 + arg[o], 0, 0
                for j in arg[o + 1:end]:
                    c, m = c + val[j], m + mp[j]
                o = end + 1
            elif kind == LIFT:
                j, (ea2, va) = arg[o], lifted[arg[o + 1]]
                c, m = val[j], mp[j]
                c, m = va * c + va * m + ea2 * c, ea2 * m
                o += 2
            elif kind == LEAF:      # the moments that the _TERMS bits pick:
                # a's weight is muP on bits 0 and 2, muN on 1 and 3, b's
                # muP on 0 and 3, muN on 1 and 2
                x, t = mom[arg[o]], arg[o + 1]
                p, n = x.muP, x.muN
                c = 0
                if t & 1:
                    c = c + x.varP
                if t & 2:
                    c = c + x.varN
                if t & 4:
                    c = c + x.covPN
                if t & 8:
                    c = c + x.covPN
                m = ((p + n if t & 10 else p) if t & 5 else n) \
                    * ((p + n if t & 6 else p) if t & 9 else n)
                o += 2
            elif kind == ZERO:
                c, m = 0, arg[o]
                o += 1
            else:
                c, m, _ = tables[arg[o]][arg[o + 1]][arg[o + 2]]
                o += 3
            put(c)
            putm(m)
        return val, mp, lifted

    def _split(self, c, x, anc):
        """(left, right) parts of node x of c at the internal vnode anc: a
        conjunction at anc gives its two children, stored left first; any
        other node goes whole to the side that contains it, with TRUE on
        the other side."""
        vt = self.vt
        d = c.dnode[x]
        if d != anc:
            return (x, TRUE) if vt.is_ancestor(vt.left[anc], d) else (TRUE, x)
        return c.children[x]

    # ---- gradient of the variance ------------------------------------------

    def var_gradient(self, c):
        """Var[W_c] and its partial derivatives in every second moment.

        Returns (var, dvar, dgroups).  dvar[x] holds the partials in
        variable x's varP, varN and covPN (dvar[0] is None); for a grouped
        variable varP is its group's diagonal entry, so the first partial
        repeats that entry's.  dgroups[gi][a][b] is the partial in entry
        [a][b] of group gi's covariance matrix.

        Var is multilinear, with degree 1, in each variable's second-moment
        table and in each group's matrix, so these partials give Var
        exactly after any change to one variable's or one group's second
        moments.  They come from one evaluation of var(c)'s plan and one
        walk back over its records and arguments from their ends (reverse
        mode, with no trace: every value a record's partials need is a
        record it reads).  Mean products hold first moments only and take
        no adjoint.  The walk carries adjoints to the records'
        covariances, from each LIFT record to its (v, w)'s va, down each
        lift's path to the vv of the siblings on it, down the vtree to each
        leaf's varP, varN and covPN, and to the group matrix entries, by
        the coefficients in the group tables.  An exact model runs on the
        engine's scaled ints: Var is an int over S^2 and each partial one
        over S^2 / d^2, with S the product of all variable scales and d
        the moment's variable's or group's.
        """
        vt, ev, vv, wm = self.vt, self.ev, self.vv, self.wm
        left, right, n = vt.left, vt.right, vt.n_vars
        var, val, mp, lifted, (codes, arg, lifts, _) = self._pairs(c, c)
        var = self._result(var, 2)
        back = [va + ea2 for ea2, va in lifted]     # slot -> d lifted c / d c
        adj = [0] * (len(val) - 1) + [1]    # record -> adjoint of its cov
        dva = [0] * len(lifts)              # slot -> adjoint of its va
        dvv = [0] * (vt.n_nodes + 1)
        dmom = [[0, 0, 0] for _ in range(n + 1)]   # varP, varN, covPN
        dg = [[[0] * len(g.members) for _ in g.members] for g in wm.groups]

        o = len(arg)                        # walk back from its end
        for i in range(len(val) - 1, -1, -1):
            gr, kind = adj[i], codes[i] & 7
            if kind == SPLIT:       # cl * cr + cl * mr + ml * cr, as evaluated
                o -= 2
                if gr:
                    jl, jr = arg[o], arg[o + 1]
                    adj[jl] += gr * (val[jr] + mp[jr])
                    adj[jr] += gr * (val[jl] + mp[jl])
            elif kind == OR:        # its fan-in is written after its reads too
                o -= arg[o - 1] + 2
                for j in arg[o + 1:o + 1 + arg[o]] if gr else ():
                    adj[j] += gr
            elif kind == LIFT:      # va * c + va * m + ea2 * c
                o -= 2
                if gr:
                    j, sl = arg[o], arg[o + 1]
                    dva[sl] += gr * (val[j] + mp[j])
                    adj[j] += gr * back[sl]
            else:
                o -= _NARGS[kind]
                if gr and kind == LEAF:     # the covariance terms of _evaluate
                    d, t = dmom[arg[o]], arg[o + 1]
                    d[0] += gr * bool(t & 1)
                    d[1] += gr * bool(t & 2)
                    d[2] += gr * (bool(t & 4) + bool(t & 8))
                elif gr and kind == GROUP:  # c = pab * gcov[gi][ja][jb]
                    gi, ja, jb = arg[o], arg[o + 1], arg[o + 2]
                    pab = self.group_tables[gi][ja][jb][2]
                    if ja < 0 or jb < 0:    # pab is 0, entered at [0][0]
                        ja = jb = 0
                    dg[gi][ja][jb] += gr * pab
        dva = dict(zip(lifts, dva))         # (v, w) -> adjoint of its va
        # a lift from BOTTOM (TRUE with TRUE) is W_true over Var(w) itself
        for v, w in [vw for vw in dva if vw[0] == BOTTOM]:
            dvv[w] += dva.pop((v, w))
        # va(v, p) = va(v, u) * (vv[s] + ev[s]^2) + ea(v, u)^2 * vv[s], s the
        # sibling of u under p: walk each anchor's path top-down, from the
        # highest vnode it is lifted to (deepest first: the shallowest stays)
        top = dict(sorted(dva, key=lambda vw: -vt.depth[vw[1]]))
        for v, w in top.items():
            steps, ea, va, u = [], 1, 0, v
            while u != w:
                p = vt.parent[u]
                s = right[p] if left[p] == u else left[p]
                steps.append((p, s, ea, va))
                ea, va = _product(ea, va, ev[s], vv[s])
                u = p
            gr = 0
            for p, s, ea, va in reversed(steps):
                gr = gr + dva.get((v, p), 0)
                if gr:
                    dvv[s] += gr * (va + ea * ea)
                    gr = gr * (vv[s] + ev[s] * ev[s])
        # the vv recurrence of the constructor, transposed: children have
        # smaller ids
        for v in range(vt.n_nodes, 0, -1):
            gr, lv, rv = dvv[v], left[v], right[v]
            if gr and lv:
                dvv[lv] += gr * (vv[rv] + ev[rv] * ev[rv])
                dvv[rv] += gr * (vv[lv] + ev[lv] * ev[lv])
            elif gr:
                d = dmom[vt.var[v]]
                d[0] += gr
                d[1] += gr
                d[2] += 2 * gr

        dvar = [None]
        for x in range(1, n + 1):
            at = wm.group_of(x)
            d = dmom[x]
            dvar.append((dg[at[0]][at[1]][at[1]] if at else d[0], d[1], d[2]))
        dgroups = [tuple(map(tuple, rows)) for rows in dg]
        if self.d is not None:
            s2 = self.scale ** 2

            def per(parts, s):
                q = s2 // (s * s)
                return tuple(Fraction(p, q) for p in parts)

            dvar = [None] + [per(dvar[x], self.d[x - 1])
                             for x in range(1, n + 1)]
            dgroups = [tuple(per(row, self.d[g.members[0] - 1])
                             for row in rows)
                       for g, rows in zip(wm.groups, dgroups)]
        return var, dvar, dgroups

    # ---- correlated group blocks ----------------------------------------------

    def _group_members(self, f, a, g, b, anc, patt):
        """(gi, ja, jb) for a pair anchored at a registered group vnode:
        the group and the members each node forces true (-1: none).
        None if anc sits above every group (normal recursion applies);
        raises if the pair decomposes inside a correlated block in a shape
        the moment model cannot express."""
        vt, wm = self.vt, self.wm
        gi = self.group_vnodes.get(anc)
        if gi is not None and f.dnode[a] == anc and g.dnode[b] == anc:
            return (gi, self._member_pattern(f, a, gi, patt),
                    self._member_pattern(g, b, gi, patt))
        n = vt.n_leaves(anc)
        if n > self.grouped[anc]:
            return None             # anc spans more than grouped variables
        u = anc                     # any leaf under anc, and its group
        while vt.left[u]:
            u = vt.left[u]
        if _under(vt, anc, wm.groups[wm.group_of(vt.var[u])[0]]) == n:
            raise CorrelationScopeError(
                'covariance decomposes inside a correlated group at '
                'vnode %d; gather the group under a registered vnode '
                'and keep its members fixed by every node there' % anc)
        return None                 # spans several groups but nothing else

    def _member_pattern(self, c, i, gi, patt):
        """Index of the member forced true under node i of c (which sits at
        group gi's vnode), -1 if none.  patt[c] holds, per node of c, bit
        2j if all its models set member j of a group false, bit 2j + 1 if
        all set it true (an and-node's children's bits or-ed, an or-node's
        and-ed), filled children first once per c."""
        t = patt.get(c)
        if t is None:
            t = patt[c] = [0] * len(c)
            at = self.wm.group_of
            for j, chs in enumerate(c.children):
                m = c.kind[j] == 'L' and at(abs(c.lit[j]))
                if m:
                    t[j] = (2 if c.lit[j] > 0 else 1) << 2 * m[1]
                elif chs:
                    t[j] = reduce(int.__and__ if c.kind[j] == 'O'
                                  else int.__or__, [t[ch] for ch in chs])
        every = ((1 << 2 * len(self.wm.groups[gi].members)) - 1) // 3
        got = t[i]
        if (got | got >> 1) & every != every:
            raise CorrelationScopeError(
                'node at a group vnode must fix every member of the group')
        got = got >> 1 & every
        if got == 0:
            return -1
        if got & (got - 1):
            raise CorrelationScopeError(
                'node sets two members of a correlated group true; '
                'covariance of such a block is not expressible')
        return (got.bit_length() - 1) // 2


def _group_table(mom, members, cov):
    """table[ja][jb] = (c, m, pab) of one group, members' moments in mom
    and covariances in cov, for a pair at its vnode whose nodes force
    members ja and jb true (-1, the last entry: none).  Each node's mean is
    the product of the other members' muN, in member order, times the
    forced one's muP; m is the product of the two.  c = pab * cov[ja][jb],
    with pab the product of the two muN products, where both force one;
    else pab is the int 0 and c = 0 * cov[0][0]."""
    forced = (*range(len(members)), -1)
    sides = []                      # (muN product, mean) per entry of forced
    for ja in forced:
        p = 1
        for j, x in enumerate(members):
            if j != ja:
                p = p * mom[x].muN
        sides.append((p, p if ja < 0 else p * mom[members[ja]].muP))
    return [[(pa * pb * cov[ja][jb], ma * mb, pa * pb)
             if ja >= 0 and jb >= 0 else (0 * cov[0][0], ma * mb, 0)
             for jb, (pb, mb) in zip(forced, sides)]
            for ja, (pa, ma) in zip(forced, sides)]


def _product(ea, va, eb, vb):
    """(E, Var) of the product of independent factors (ea, va), (eb, vb)."""
    return ea * eb, va * vb + va * eb * eb + ea * ea * vb


def _moments_of(wm, n):
    """Moments of variables 1..n and group covariances of wm, on scaled
    ints for an exact model: (mom, gcov, kind, d).

    kind is float if a value is a float (the scan stops there), else
    Fraction if one is a Fraction, else None (ints).  For a
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


def var_gradient(c, wm, group_vnodes=None):
    return MomentEngine(c.vt, wm, group_vnodes).var_gradient(c)


def locate_group_vnodes(vt, wm):
    """Map each weight-model group to the vtree node gathering exactly it."""
    out = {}
    for gi, g in enumerate(wm.groups):
        v = vt.deepest_containing(g.mask)
        if not _gathers(vt, wm, v, gi):
            raise CorrelationScopeError(
                'no vtree node gathers group %d exactly' % gi)
        out[v] = gi
    return out


def _under(vt, v, group):
    """The number of group's members under vnode v."""
    return sum(vt.is_ancestor(v, vt.leaf_of(x)) for x in group.members)


def _gathers(vt, wm, v, gi):
    """True when vnode v's variables are exactly the members of group gi."""
    g = wm.groups[gi] if 0 <= gi < len(wm.groups) else None
    return g is not None and 0 < v <= vt.n_nodes \
        and vt.n_leaves(v) == len(g.members) == _under(vt, v, g)
