"""Vtrees and structured d-DNNF circuits.

Text formats (one directive per line, lines whose first token is "c" are
comments):

  vtree file:
    vtree <node-count>
    L <id> <var>                    leaf labelled with a variable (1..n)
    I <id> <left-id> <right-id>     internal node

  sdd file:
    sdd <node-count>
    F <id>                                        constant false
    T <id>                                        constant true
    L <id> <vtree-id> <signed-literal>            literal node
    D <id> <vtree-id> <element-count> <p> <s> ... decision node

Ids are nonnegative integers and children are declared before parents; the
root is the node on the last line.  Internally vtree nodes are renumbered
1..n in declaration order and id 0 is reserved for the "bottom" sentinel:
the decomposition node of a constant.  Bottom behaves as a descendant of
every vtree node, so lca(BOTTOM, v) == v and it is an ancestor of nothing
but itself.

A circuit is a DAG of false/true/literal/and/or nodes stored in arrays,
children always having smaller ids than their parents.  Node 0 is always
the false constant and node 1 the true constant.  Every node carries its
variable scope (a bitset over variables) and its decomposition vnode: the
deepest vtree node whose scope covers the node's scope.

Circuits are built in normal form: Circuit.conj and Circuit.disj fold
constants as they build, by the SDD trimming rules (Darwiche, "SDD: A New
Canonical Representation of Propositional Knowledge Bases", IJCAI 2011).
conj drops TRUE children and is FALSE if any child is FALSE; disj drops
FALSE children and keeps TRUE ones.  Either gives TRUE (conj) or FALSE
(disj) with no child left and the child itself with one.  Every other
conjunction is built as given, n-ary or overlapping, for validate to
report; rebuild binarizes n-ary ones along the vtree.

Construction also fixes two invariants, the contract that exp_table and
MomentEngine._split (moments.py), validate, sdd_text and rebuild rely on:
children have smaller ids than their parents, and a binary conjunction
stores its left-vtree child first (conj orders the two by where the Euler
tour, which enters left subtrees first, enters their vnodes), so one that
splits at its vnode reads (left, right).
"""

from dataclasses import dataclass, field

from .errors import FormatError, ValidationError, VtreeMismatchError

BOTTOM = 0

FALSE = 0
TRUE = 1


class Vtree:
    """Rooted binary tree over variables 1..n with O(1) lca queries."""

    __slots__ = ('n_nodes', 'n_vars', 'root', 'left', 'right', 'parent',
                 'var', 'scope', 'depth', 'file_ids', '_file_lookup',
                 '_leaf_of', '_first', '_last', '_etab')

    def __init__(self, left, right, var, file_ids=None):
        # Arrays are indexed by internal id; slot 0 is the sentinel.
        # Internal node i must satisfy left[i] < i and right[i] < i.
        n = len(left) - 1
        if n < 1:
            raise FormatError('vtree has no nodes')
        self.n_nodes = n
        self.left = left
        self.right = right
        self.var = var

        parent = [0] * (n + 1)
        child_seen = [False] * (n + 1)
        for i in range(1, n + 1):
            l, r = left[i], right[i]
            if l or r:
                for ch in (l, r):
                    if not 1 <= ch < i:
                        raise FormatError(
                            'vtree child %d not declared before node %d' % (ch, i))
                    if child_seen[ch]:
                        raise FormatError('vtree node %d has two parents' % ch)
                    child_seen[ch] = True
                    parent[ch] = i
            elif var[i] < 1:
                raise FormatError('vtree leaf %d without variable' % i)
        roots = [i for i in range(1, n + 1) if not child_seen[i]]
        if len(roots) != 1:
            raise FormatError('vtree must have exactly one root, found %d'
                              % len(roots))
        self.root = roots[0]
        if self.root != n:
            raise FormatError('vtree root must be the last declared node')
        self.parent = parent

        leaf_of = {}
        scope = [0] * (n + 1)
        for i in range(1, n + 1):
            if left[i]:
                s = scope[left[i]] | scope[right[i]]
                if scope[left[i]] & scope[right[i]]:
                    raise FormatError('variable repeats under vtree node %d' % i)
                scope[i] = s
            else:
                v = var[i]
                if v in leaf_of:
                    raise FormatError('variable %d labels two vtree leaves' % v)
                leaf_of[v] = i
                scope[i] = 1 << v
        self.n_vars = len(leaf_of)
        if sorted(leaf_of) != list(range(1, self.n_vars + 1)):
            raise FormatError('vtree variables must be exactly 1..%d'
                              % self.n_vars)
        self.scope = scope
        self._leaf_of = leaf_of

        depth = [0] * (n + 1)
        for i in range(n - 1, 0, -1):
            depth[i] = depth[parent[i]] + 1
        self.depth = depth

        self.file_ids = file_ids if file_ids is not None \
            else list(range(-1, n))
        self._file_lookup = {fid: i for i, fid in enumerate(self.file_ids)
                             if i > 0}

        self._build_euler()

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def from_nested(shape):
        """Build from a nested structure: a variable or a (left, right) pair."""
        left, right, var = [0], [0], [0]
        results = {}

        def emit(l, r, v):
            left.append(l)
            right.append(r)
            var.append(v)
            return len(left) - 1

        def key(node):
            return ('v', node) if isinstance(node, int) else ('t', id(node))

        stack = [(shape, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, int):
                if key(node) not in results:
                    results[key(node)] = emit(0, 0, node)
                continue
            if not (isinstance(node, tuple) and len(node) == 2):
                raise ValidationError('vtree shape entries must be variables '
                                      'or (left, right) pairs')
            if expanded:
                results[key(node)] = emit(results[key(node[0])],
                                          results[key(node[1])], 0)
            else:
                stack.append((node, True))
                stack.append((node[1], False))
                stack.append((node[0], False))
        return Vtree(left, right, var)

    @staticmethod
    def right_linear(n):
        """Chain vtree (1, (2, (3, ...)))."""
        if n == 1:
            return Vtree([0, 0], [0, 0], [0, 1])
        left, right, var = [0], [0], [0]
        ids = {}
        for v in range(n, 0, -1):
            left.append(0)
            right.append(0)
            var.append(v)
            ids[v] = len(var) - 1
            if v == n:
                acc = ids[v]
            else:
                left.append(ids[v])
                right.append(acc)
                var.append(0)
                acc = len(var) - 1
        return Vtree(left, right, var)

    @staticmethod
    def balanced(n):
        """Balanced vtree over variables 1..n in order."""
        def build(lo, hi):
            if lo == hi:
                return lo
            mid = (lo + hi) // 2
            return (build(lo, mid), build(mid + 1, hi))
        return Vtree.from_nested(build(1, n))

    # ---- queries ---------------------------------------------------------

    def is_leaf(self, v):
        return self.left[v] == 0

    def leaf_of(self, var):
        try:
            return self._leaf_of[var]
        except KeyError:
            raise ValidationError('variable %d not in vtree' % var) from None

    def _build_euler(self):
        # first[v]..last[v] is v's interval in the Euler tour; BOTTOM's
        # (-1, -1) lies inside no node's interval.  _etab[k][i] is the
        # shallowest vnode among tour positions i..i+2^k-1.
        n1 = self.n_nodes + 1
        order, first, last = [], [-1] * n1, [-1] * n1
        stack = [(self.root, 0)]
        while stack:
            v, state = stack.pop()
            if state == 0:
                first[v] = len(order)
            last[v] = len(order)
            order.append(v)
            if self.is_leaf(v):
                continue
            if state == 0:
                stack.append((v, 1))
                stack.append((self.left[v], 0))
            elif state == 1:
                stack.append((v, 2))
                stack.append((self.right[v], 0))
        self._first = first
        self._last = last
        depth = self.depth
        tab = [order]
        half = 1
        while 2 * half <= len(order):
            prev = tab[-1]
            tab.append([x if depth[x] <= depth[y] else y
                        for x, y in zip(prev, prev[half:])])
            half *= 2
        self._etab = tab

    def lca(self, a, b):
        if a == b:
            return a
        if a == BOTTOM:
            return b
        if b == BOTTOM:
            return a
        i, j = self._first[a], self._first[b]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        row = self._etab[k]
        x, y = row[i], row[j - (1 << k) + 1]
        return x if self.depth[x] <= self.depth[y] else y

    def is_ancestor(self, w, v):
        """True when w is an ancestor of v or equal to it.

        BOTTOM is a descendant of every node and an ancestor only of
        itself.
        """
        return v == BOTTOM or \
            self._first[w] <= self._first[v] <= self._last[w]

    def deepest_containing(self, bits):
        """Deepest vtree node whose scope covers the given variable bitset:
        the lca of the leaves of its variables (BOTTOM for no variable)."""
        if bits & ~self.scope[self.root]:
            raise ValidationError('variables outside the vtree')
        v = BOTTOM
        while bits:
            low = bits & -bits
            v = self.lca(v, self._leaf_of[low.bit_length() - 1])
            bits ^= low
        return v

    def to_text(self):
        lines = ['vtree %d' % self.n_nodes]
        for i in range(1, self.n_nodes + 1):
            if self.is_leaf(i):
                lines.append('L %d %d' % (i - 1, self.var[i]))
            else:
                lines.append('I %d %d %d' % (i - 1, self.left[i] - 1,
                                             self.right[i] - 1))
        return '\n'.join(lines) + '\n'


def parse_vtree(text):
    n_decl = None
    entries = []    # (lineno, kind, file_id, a, b)
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        if not tok or tok[0] == 'c':
            continue
        if tok[0] == 'vtree':
            if n_decl is not None:
                raise FormatError('duplicate vtree header', lineno)
            try:
                n_decl = int(tok[1])
            except (IndexError, ValueError):
                raise FormatError('bad vtree header', lineno) from None
            continue
        if n_decl is None:
            raise FormatError('missing vtree header', lineno)
        try:
            if tok[0] == 'L' and len(tok) == 3:
                entries.append((lineno, 'L', int(tok[1]), int(tok[2]), 0))
            elif tok[0] == 'I' and len(tok) == 4:
                entries.append((lineno, 'I', int(tok[1]), int(tok[2]),
                                int(tok[3])))
            else:
                raise ValueError
        except ValueError:
            raise FormatError('unrecognized vtree line %r' % raw.strip(),
                              lineno) from None
    if n_decl is None:
        raise FormatError('missing vtree header')
    if len(entries) != n_decl:
        raise FormatError('vtree header declares %d nodes, file has %d'
                          % (n_decl, len(entries)))

    internal = {}
    left, right, var, file_ids = [0], [0], [0], [-1]
    for lineno, kind, fid, a, b in entries:
        if fid in internal:
            raise FormatError('duplicate vtree id %d' % fid, lineno)
        if fid < 0:
            raise FormatError('negative vtree id', lineno)
        if kind == 'L':
            if a < 1:
                raise FormatError('vtree variables must be positive', lineno)
            left.append(0)
            right.append(0)
            var.append(a)
        else:
            try:
                l, r = internal[a], internal[b]
            except KeyError:
                raise FormatError('vtree child declared after parent',
                                  lineno) from None
            left.append(l)
            right.append(r)
            var.append(0)
        file_ids.append(fid)
        internal[fid] = len(left) - 1
    return Vtree(left, right, var, file_ids)


# --------------------------------------------------------------------------
# circuits


class Circuit:
    """st-d-DNNF circuit bound to a vtree.

    kind[i] is one of 'F', 'T', 'L', 'A', 'O'.  Literal payload lives in
    lit[i] (signed variable), gate children in children[i].  scope[i] is the
    variable bitset, dnode[i] the decomposition vnode.
    """

    __slots__ = ('vt', 'kind', 'lit', 'children', 'scope', 'dnode', 'root',
                 'deterministic_by_construction', '_lit_cache', '_gate_cache')

    def __init__(self, vt):
        self.vt = vt
        self.kind = ['F', 'T']
        self.lit = [0, 0]
        self.children = [(), ()]
        self.scope = [0, 0]
        self.dnode = [BOTTOM, BOTTOM]
        self.root = TRUE
        self.deterministic_by_construction = False
        self._lit_cache = {}
        self._gate_cache = {}

    def __len__(self):
        return len(self.kind)

    @property
    def n_edges(self):
        return sum(len(ch) for ch in self.children)

    def literal(self, sl):
        node = self._lit_cache.get(sl)
        if node is not None:
            return node
        v = abs(sl)
        if not 1 <= v <= self.vt.n_vars:
            raise ValidationError('literal variable %d not in vtree' % v)
        self.kind.append('L')
        self.lit.append(sl)
        self.children.append(())
        self.scope.append(1 << v)
        self.dnode.append(self.vt.leaf_of(v))
        node = len(self.kind) - 1
        self._lit_cache[sl] = node
        return node

    def _gate(self, kind, chs):
        here = len(self.kind)
        for c in chs:
            if not 0 <= c < here:
                raise ValidationError('gate child %d not yet defined' % c)
        if kind == 'A' and len(chs) == 2:
            first, dn = self.vt._first, self.dnode
            if first[dn[chs[0]]] > first[dn[chs[1]]]:
                chs = chs[::-1]     # left-vtree child first
        key = (kind, chs)
        node = self._gate_cache.get(key)
        if node is not None:
            return node
        s = 0
        d = BOTTOM
        for c in chs:
            s |= self.scope[c]
            d = self.vt.lca(d, self.dnode[c])
        self.kind.append(kind)
        self.lit.append(0)
        self.children.append(chs)
        self.scope.append(s)
        self.dnode.append(d)
        self._gate_cache[key] = here
        return here

    def conj(self, chs):
        chs = tuple(chs)
        if FALSE in chs:
            return FALSE
        if TRUE in chs:
            chs = tuple(x for x in chs if x != TRUE)
        if len(chs) < 2:
            return chs[0] if chs else TRUE
        return self._gate('A', chs)

    def disj(self, chs):
        chs = tuple(chs)
        if FALSE in chs:
            chs = tuple(x for x in chs if x != FALSE)
        if len(chs) < 2:
            return chs[0] if chs else FALSE
        return self._gate('O', chs)

    def reachable(self):
        """Ids of the nodes reachable from the root, ascending: one sweep
        down the ids, as children have smaller ids than their parents."""
        live = [False] * self.root + [True]
        children = self.children
        for i in range(self.root, 1, -1):
            if live[i]:
                for x in children[i]:
                    live[x] = True
        return [i for i, x in enumerate(live) if x]

    # ---- brute-force evaluation over all assignments ----------------------

    def truth_blocks(self, block_log=13, max_vars=26):
        """Yield (start, tables) over all 2^n assignments in blocks.

        tables[i] is an int bitmask over assignments start..start+B-1 for
        node i: bit j is set iff node i is true under assignment start+j.
        Assignment g sets variable v true iff bit v-1 of g is set.
        """
        n = self.vt.n_vars
        if n > max_vars:
            raise ValidationError(
                'exhaustive evaluation over %d variables refused' % n)
        total = 1 << n
        B = min(total, 1 << block_log)
        ones = (1 << B) - 1
        m = len(self.kind)
        # variable v with h = 2^(v-1) < B alternates h false, h true
        # assignments within a block; above B it is constant per block
        periodic = {}
        for v in range(1, n + 1):
            h = 1 << (v - 1)
            if h < B:
                high = ((1 << h) - 1) << h
                periodic[v] = ones // ((1 << 2 * h) - 1) * high
        for start in range(0, total, B):
            tabs = [0] * m
            for i in range(m):
                k = self.kind[i]
                if k == 'T':
                    t = ones
                elif k == 'L':
                    v = abs(self.lit[i])
                    t = periodic.get(v)
                    if t is None:
                        t = ones if (start >> (v - 1)) & 1 else 0
                    if self.lit[i] < 0:
                        t ^= ones
                elif k == 'A':
                    t = ones
                    for c in self.children[i]:
                        t &= tabs[c]
                elif k == 'O':
                    t = 0
                    for c in self.children[i]:
                        t |= tabs[c]
                else:               # 'F'
                    t = 0
                tabs[i] = t
            yield start, tabs


# ---- validation -----------------------------------------------------------


@dataclass
class ValidationReport:
    decomposable: bool
    structured: bool
    determinism: str          # verified | by-construction | assumed | refuted
    counterexample: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return (self.decomposable and self.structured
                and self.determinism != 'refuted')


def validate(c, determinism_limit=20):
    """Decide decomposability and structuredness exactly; determinism by
    exhaustive evaluation when the variable count is within the limit."""
    vt = c.vt
    problems = []
    decomposable = True
    structured = True
    live = c.reachable()

    for i in live:
        if c.kind[i] != 'A':
            continue
        chs = c.children[i]
        union = 0
        total = 0
        for x in chs:
            union |= c.scope[x]
            total += c.scope[x].bit_count()
        if union.bit_count() != total:
            decomposable = False
            problems.append('and-node %d has overlapping children scopes' % i)
        if len(chs) != 2:
            structured = False
            problems.append('and-node %d has fan-in %d' % (i, len(chs)))
            continue
        s1, s2 = c.scope[chs[0]], c.scope[chs[1]]
        if s1 and s2:
            v = c.dnode[i]
            if vt.is_leaf(v):
                ok = False
            else:
                sl, sr = vt.scope[vt.left[v]], vt.scope[vt.right[v]]
                ok = s1 & ~sl == 0 and s2 & ~sr == 0
        elif s1 or s2:
            # one side is constant: need any vnode with the other side's
            # scope strictly inside one child, i.e. the deepest covering
            # vnode must not be the vtree root
            ok = c.dnode[i] != vt.root
        else:
            ok = not vt.is_leaf(vt.root)
        if not ok:
            structured = False
            problems.append('and-node %d does not split on any vnode' % i)

    determinism = 'assumed'
    counterexample = None
    if c.deterministic_by_construction:
        determinism = 'by-construction'
    if determinism_limit and vt.n_vars <= determinism_limit \
            and determinism != 'by-construction':
        determinism = 'verified'
        or_nodes = [i for i in live
                    if c.kind[i] == 'O' and len(c.children[i]) > 1]
        for start, tabs in c.truth_blocks():
            for i in or_nodes:
                seen = over = 0
                for x in c.children[i]:
                    t = tabs[x]
                    over |= seen & t
                    seen |= t
                if over:
                    g = start + (over & -over).bit_length() - 1
                    counterexample = {
                        'node': i,
                        'assignment': {v: bool((g >> (v - 1)) & 1)
                                       for v in range(1, vt.n_vars + 1)},
                    }
                    determinism = 'refuted'
                    problems.append(
                        'or-node %d has two children true together' % i)
                    break
            if determinism == 'refuted':
                break
    return ValidationReport(decomposable, structured, determinism,
                            counterexample, problems)


# ---- normal form -----------------------------------------------------------


def rebuild(c, out, false_vars=()):
    """Copy the nodes of c reachable from its root into out and return the
    root's id there.

    Gates are rebuilt through out.conj and out.disj, so the copy is in
    normal form, and conjunctions with more than two children are
    binarized along the vtree.  A positive literal of a variable in
    false_vars becomes FALSE; its negative literal stays.
    """
    memo = {}
    for i in c.reachable():
        k = c.kind[i]
        if k == 'F' or k == 'T':
            memo[i] = FALSE if k == 'F' else TRUE
        elif k == 'L':
            sl = c.lit[i]
            memo[i] = FALSE if sl > 0 and sl in false_vars \
                else out.literal(sl)
        elif k == 'A':
            memo[i] = _binarize(out, [memo[x] for x in c.children[i]])
        else:
            memo[i] = out.disj([memo[x] for x in c.children[i]])
    return memo[c.root]


def normalize(c, false_vars=()):
    """c rebuilt in normal form on its own vtree; see rebuild."""
    out = Circuit(c.vt)
    out.root = rebuild(c, out, false_vars)
    out.deterministic_by_construction = c.deterministic_by_construction
    return out


def _binarize(out, chs):
    """out.conj(chs), with more than two children associated along the
    vtree; the children other than constants carry nonempty, pairwise
    disjoint scopes.

    An explicit stack splits each group at its vnode and conjoins the
    left group's result with the right one's, making the gates in the
    order of the plain recursion, left group first."""
    consts = [x for x in chs if x <= TRUE]
    if consts:
        chs = [x for x in chs if x > TRUE]
    vt = out.vt
    vals = []
    todo = [chs]        # a group to binarize, or None: conjoin the top two
    while todo:
        grp = todo.pop()
        if grp is None:
            r = vals.pop()
            vals.append(out.conj((vals.pop(), r)))
            continue
        if len(grp) <= 2:
            vals.append(out.conj(grp))
            continue
        d = BOTTOM
        for x in grp:
            d = vt.lca(d, out.dnode[x])
        if vt.is_leaf(d):
            raise ValidationError('conjunction children not separable under '
                                  'the vtree')
        sl = vt.scope[vt.left[d]]
        sr = vt.scope[vt.right[d]]
        grp_l, grp_r = [], []
        for x in grp:
            s = out.scope[x]
            if s & ~sl == 0:
                grp_l.append(x)
            elif s & ~sr == 0:
                grp_r.append(x)
            else:
                raise ValidationError('conjunction children not separable '
                                      'under the vtree')
        if not grp_l or not grp_r:
            raise ValidationError('conjunction children not separable under '
                                  'the vtree')
        todo += (None, grp_r, grp_l)
    return out.conj(consts + vals) if consts else vals[0]


# ---- sdd text i/o -----------------------------------------------------------


def parse_sdd(text, vt):
    n_decl = None
    c = Circuit(vt)
    by_file = {}
    last = None
    count = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        if not tok or tok[0] == 'c':
            continue
        if tok[0] == 'sdd':
            if n_decl is not None:
                raise FormatError('duplicate sdd header', lineno)
            try:
                n_decl = int(tok[1])
            except (IndexError, ValueError):
                raise FormatError('bad sdd header', lineno) from None
            continue
        if n_decl is None:
            raise FormatError('missing sdd header', lineno)
        kind = tok[0]
        try:
            fid = int(tok[1])
        except (IndexError, ValueError):
            raise FormatError('bad node id', lineno) from None
        if fid in by_file:
            raise FormatError('duplicate sdd id %d' % fid, lineno)
        if kind == 'F' and len(tok) == 2:
            node = FALSE
        elif kind == 'T' and len(tok) == 2:
            node = TRUE
        elif kind == 'L' and len(tok) == 4:
            try:
                vid, sl = int(tok[2]), int(tok[3])
            except ValueError:
                raise FormatError('bad literal line', lineno) from None
            v = _vtree_internal(vt, vid, lineno)
            var = abs(sl)
            if sl == 0 or not 1 <= var <= vt.n_vars:
                raise FormatError('literal %d outside vtree variables' % sl,
                                  lineno)
            if not (vt.scope[v] >> var) & 1:
                raise VtreeMismatchError(
                    'line %d: literal %d not under vtree node %d'
                    % (lineno, sl, vid))
            node = c.literal(sl)
        elif kind == 'D' and len(tok) >= 5:
            try:
                vid, m = int(tok[2]), int(tok[3])
                refs = [int(t) for t in tok[4:]]
            except ValueError:
                raise FormatError('bad decision line', lineno) from None
            if m < 1 or len(refs) != 2 * m:
                raise FormatError('decision node expects %d element ids'
                                  % (2 * m), lineno)
            v = _vtree_internal(vt, vid, lineno)
            if vt.is_leaf(v):
                raise VtreeMismatchError(
                    'line %d: decision node on vtree leaf %d' % (lineno, vid))
            sl_, sr_ = vt.scope[vt.left[v]], vt.scope[vt.right[v]]
            elems = []
            for j in range(m):
                try:
                    p = by_file[refs[2 * j]]
                    s = by_file[refs[2 * j + 1]]
                except KeyError:
                    raise FormatError('element child declared after use',
                                      lineno) from None
                if c.scope[p] & ~sl_:
                    raise VtreeMismatchError(
                        'line %d: prime scope escapes left of vtree node %d'
                        % (lineno, vid))
                if c.scope[s] & ~sr_:
                    raise VtreeMismatchError(
                        'line %d: sub scope escapes right of vtree node %d'
                        % (lineno, vid))
                elems.append(c.conj((p, s)))
            node = c.disj(tuple(elems))
        else:
            raise FormatError('unrecognized sdd line %r' % raw.strip(), lineno)
        by_file[fid] = node
        last = node
        count += 1
    if n_decl is None:
        raise FormatError('missing sdd header')
    if count != n_decl:
        raise FormatError('sdd header declares %d nodes, file has %d'
                          % (n_decl, count))
    c.root = last
    return c


def _vtree_internal(vt, vid, lineno):
    try:
        return vt._file_lookup[vid]
    except KeyError:
        raise VtreeMismatchError('line %d: unknown vtree id %d'
                                 % (lineno, vid)) from None


def sdd_text(c):
    """Serialize a decision-form circuit back to sdd text.

    Or-nodes become decision lines.  An element that is a binary and-node
    contributes its children as prime and sub; a bare element (literal or
    decision left over from constant folding) is paired with true on the
    opposite side of its decision vnode.  Conjunctions referenced as a
    prime or sub get a single-element decision line of their own.
    """
    vt = c.vt
    order = []
    seen = set()
    stack = [(c.root, False)]
    while stack:
        i, expanded = stack.pop()
        if i in seen:
            continue
        if expanded:
            seen.add(i)
            order.append(i)
            continue
        stack.append((i, True))
        stack.extend((x, False) for x in c.children[i])

    # conjunctions referenced as a prime or sub need their own ids: those
    # nested under other conjunctions, and elements that sit entirely on
    # one side of their parent decision's vnode
    needs_id = {x for i in order if c.kind[i] == 'A'
                for x in c.children[i] if c.kind[x] == 'A'}
    for i in order:
        if c.kind[i] != 'O':
            continue
        dn = c.dnode[i]
        if vt.is_leaf(dn) or dn == BOTTOM:
            continue
        sl = vt.scope[vt.left[dn]]
        sr = vt.scope[vt.right[dn]]
        for e in c.children[i]:
            if c.kind[e] == 'A' and (c.scope[e] & ~sl == 0
                                     or c.scope[e] & ~sr == 0):
                needs_id.add(e)

    fid = {}
    lines = []
    emitted = 0

    def emit(line):
        nonlocal emitted
        lines.append(line)
        emitted += 1

    for i in order:
        if i in fid:
            continue
        k = c.kind[i]
        if k == 'A':
            if i in needs_id or i == c.root:
                _emit_decision(c, [i], c.dnode[i], fid, emit, i)
        elif k == 'F':
            fid[i] = len(fid)
            emit('F %d' % fid[i])
        elif k == 'T':
            fid[i] = len(fid)
            emit('T %d' % fid[i])
        elif k == 'L':
            fid[i] = len(fid)
            leaf = vt.leaf_of(abs(c.lit[i]))
            emit('L %d %d %d' % (fid[i], vt.file_ids[leaf], c.lit[i]))
        else:
            _emit_decision(c, c.children[i], c.dnode[i], fid, emit, i)
    header = 'sdd %d' % emitted
    return '\n'.join([header] + lines) + '\n'


def _emit_decision(c, elements, dnode, fid, emit, node):
    vt = c.vt
    if vt.is_leaf(dnode) or dnode == BOTTOM:
        raise ValidationError('node %d is not in decision form' % node)
    sl = vt.scope[vt.left[dnode]]
    sr = vt.scope[vt.right[dnode]]
    parts = []
    for e in elements:
        p = s = None
        if c.kind[e] == 'A':
            if len(c.children[e]) != 2:
                raise ValidationError('node %d is not in decision form'
                                      % node)
            a, b = c.children[e]
            if c.scope[a] & ~sl == 0 and c.scope[b] & ~sr == 0:
                p, s = a, b
        elif c.kind[e] not in ('L', 'O'):
            raise ValidationError('node %d is not in decision form' % node)
        if p is None:
            # bare element (or one-sided conjunction): pair with true
            if fid.get(TRUE) is None:
                fid[TRUE] = len(fid)
                emit('T %d' % fid[TRUE])
            if c.scope[e] & ~sl == 0:
                p, s = e, TRUE
            elif c.scope[e] & ~sr == 0:
                p, s = TRUE, e
            else:
                raise ValidationError('node %d is not in decision form'
                                      % node)
        parts.append('%d %d' % (fid[p], fid[s]))
    fid[node] = len(fid)
    emit('D %d %d %d %s' % (fid[node], vt.file_ids[dnode], len(elements),
                            ' '.join(parts)))
