"""Bottom-up compilation of CNFs into st-d-DNNF circuits.

A small vtree-guided apply engine in the SDD style: nodes live in a
unique table and are either constants, literals, or decisions
(vnode, ((prime, sub), ...)) whose primes partition the left branch of
the vnode and whose subs live in the right branch.  Compression (no two
elements share a sub) plus the two trimming rules keep nodes canonical,
so equality is pointer equality and the exported circuits are
deterministic and structured by construction.

apply(a, b, op) works at v = lca(vnode a, vnode b), once constant, equal
and complementary operands are settled, in one of four cases:

1. both are decisions at v: the product {(p_i & q_j, s_i op t_j)};
2. a is a decision at v, b lies under left(v): AND gives
   {(p_i & b, s_i)} + {(~b, FALSE)}, OR gives {(p_i & ~b, s_i)} +
   {(b, TRUE)};
3. a is a decision at v, b lies under right(v): {(p_i, s_i op b)};
4. neither is at v, so l lies under left(v) and r under right(v):
   AND gives {(l, r), (~l, FALSE)}, OR gives {(l, TRUE), (~l, r)}.

Case 2 is the product with b read as {(b, TRUE), (~b, FALSE)}: every
p_i & ~b (for AND) gets the sub FALSE, and since the p_i partition the
left branch their disjunction is ~b itself, so these elements are the one
element (~b, FALSE) and need no compression OR (dually (b, TRUE) for
OR).  Cases 3 and 4 conjoin no primes at all (Darwiche, "SDD: A New
Canonical Representation of Propositional Knowledge Bases", IJCAI 2011).

apply and neg run as generator frames on one explicit stack, so no vtree
is too deep for them; settled operands and cache hits get no frame.

compile_cnf conjoins a CNF bottom-up along the vtree: each clause sits
at the deepest vnode covering its variables, and the part of a vnode is
the conjunction of its children's parts (case 4) and its own clauses.
to_circuit exports only the nodes reachable from the root, which is
already the normal form.

This is deliberately minimal: no vtree search, no garbage collection,
one compilation session per CNF.  A node budget guards against blow-up.
"""

from .circuit import Circuit, FALSE, TRUE, Vtree
# not called here: perfbench's tracer wraps sddc.normalize by name
from .circuit import normalize  # noqa: F401
from .errors import CompileBudgetError, FormatError, ValidationError

_AND, _OR, _NEG = 0, 1, 2
_OPS = {'and': _AND, 'or': _OR}


class Cnf:
    """Clause list over variables 1..n_vars; clauses are tuples of signed
    literals."""

    def __init__(self, n_vars, clauses):
        self.n_vars = n_vars
        self.clauses = [tuple(cl) for cl in clauses]
        for cl in self.clauses:
            for sl in cl:
                if sl == 0 or abs(sl) > n_vars:
                    raise FormatError('literal %d out of range' % sl)

    @staticmethod
    def from_dimacs(text):
        n_vars = n_clauses = None
        nums = []
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith('c'):
                continue
            if line.startswith('%'):        # SATLIB end marker
                break
            if line.startswith('p'):
                parts = line.split()
                if len(parts) != 4 or parts[1] != 'cnf' or not (
                        parts[2].isdecimal() and parts[3].isdecimal()):
                    raise FormatError('bad DIMACS header', line=ln)
                n_vars, n_clauses = int(parts[2]), int(parts[3])
                continue
            if n_vars is None:
                raise FormatError('clause before DIMACS header', line=ln)
            try:
                nums.extend(int(t) for t in line.split())
            except ValueError:
                raise FormatError('bad clause token', line=ln)
        if n_vars is None:
            raise FormatError('missing DIMACS header')
        clauses = []
        cur = []
        for x in nums:
            if x == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                cur.append(x)
        if cur:
            raise FormatError('last clause not terminated by 0')
        if len(clauses) != n_clauses:
            raise FormatError('header announces %d clauses, found %d'
                              % (n_clauses, len(clauses)))
        return Cnf(n_vars, clauses)

    def to_dimacs(self):
        out = ['p cnf %d %d' % (self.n_vars, len(self.clauses))]
        for cl in self.clauses:
            out.append(' '.join(map(str, cl + (0,))))
        return '\n'.join(out) + '\n'


class SddBuilder:
    """One compilation session over a fixed vtree."""

    def __init__(self, vt, node_budget=10 ** 6):
        self.vt = vt
        self.budget = node_budget
        # parallel arrays; ids 0/1 are the constants
        self.kind = ['F', 'T']
        self.lit = [0, 0]
        self.vnode = [0, 0]
        self.elems = [None, None]
        self.false, self.true = 0, 1
        self._lits = {}
        self._uniq = {}
        self._neg = {0: 1, 1: 0}
        self._app = {}

    def literal(self, sl):
        n = self._lits.get(sl)
        if n is None:
            v = abs(sl)
            if not 1 <= v <= self.vt.n_vars:
                raise FormatError('literal %d out of range' % sl)
            n = self._push('L', sl, self.vt.leaf_of(v), None)
            self._lits[sl] = n
            m = self._lits.get(-sl)
            if m is not None:
                self._neg[n] = m
                self._neg[m] = n
        return n

    def _push(self, kind, lit, vnode, elems):
        if len(self.kind) >= self.budget:
            raise CompileBudgetError(
                'compilation exceeded the %d-node budget' % self.budget)
        self.kind.append(kind)
        self.lit.append(lit)
        self.vnode.append(vnode)
        self.elems.append(elems)
        return len(self.kind) - 1

    def apply(self, a, b, op):
        return self._run(a, b, _OPS[op] if isinstance(op, str) else op)

    def neg(self, n):
        return self._run(n, n, _NEG)

    def _run(self, a, b, op):
        r = self._settled(a, b, op)
        if r is not None:
            return r
        # one loop drives the frames of apply and neg: a frame yields a new
        # frame for each sub-call _settled does not answer, and gets its result
        stack = [self._negate(a) if op == _NEG else self._apply(a, b, op)]
        while True:
            try:
                stack.append(stack[-1].send(r))
                r = None
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                r = done.value

    def _settled(self, a, b, op):
        # the result of (a, b, op) if it needs no frame, else None
        if op == _NEG:
            r = self._neg.get(a)
            if r is None and self.kind[a] == 'L':
                r = self.literal(-self.lit[a])
            return r
        if a > b:
            a, b = b, a
        if a == self.false:
            return self.false if op == _AND else b
        if a == self.true:
            return b if op == _AND else self.true
        if a == b:
            return a
        if self._neg.get(a) == b:
            return self.false if op == _AND else self.true
        return self._app.get((op, a, b))

    def _negate(self, n):
        # negated subs stay distinct and n is not trimmable, so neither is
        # its negation: it needs no compression
        out = []
        for p, s in self.elems[n]:
            t = self._settled(s, s, _NEG)
            out.append((p, (yield self._negate(s)) if t is None else t))
        r = self._unique(self.vnode[n], out)
        self._neg[n], self._neg[r] = r, n
        return r

    def _decision(self, v, elements):
        # compress: merge primes that share a sub
        by_sub = {}
        for p, s in elements:
            q = by_sub.get(s)
            if q is not None:
                r = self._settled(q, p, _OR)
                p = (yield self._apply(q, p, _OR)) if r is None else r
            by_sub[s] = p
        # the primes partition left(v): a lone one is TRUE, and in
        # (p, FALSE), (q, TRUE) q is ~p, so the decision is q
        if len(by_sub) == 1:
            return next(iter(by_sub))
        if len(by_sub) == 2 and self.true in by_sub and self.false in by_sub:
            p, q = by_sub[self.false], by_sub[self.true]
            self._neg[p], self._neg[q] = q, p
            return q
        return self._unique(v, zip(by_sub.values(), by_sub))

    def _unique(self, v, elements):
        # the decision at v of the (prime, sub) elements, from the unique
        # table or made
        key = (v, tuple(sorted(elements)))
        n = self._uniq.get(key)
        if n is None:
            n = self._uniq[key] = self._push('D', 0, v, key[1])
        return n

    def _apply(self, a, b, op):
        if a > b:
            a, b = b, a
        key = (op, a, b)
        vt, vnode, ask = self.vt, self.vnode, self._settled
        v = vt.lca(vnode[a], vnode[b])
        if vnode[a] != v:
            a, b = b, a
        if vnode[a] != v:
            # case 4: the operand under left(v) is the prime
            if not vt.is_ancestor(vt.left[v], vnode[a]):
                a, b = b, a
            na = ask(a, a, _NEG)
            na = (yield self._negate(a)) if na is None else na
            out = [(a, b), (na, self.false)] if op == _AND \
                else [(a, self.true), (na, b)]
        elif vnode[b] == v:
            out = []
            for p1, s1 in self.elems[a]:
                for p2, s2 in self.elems[b]:
                    q = ask(p1, p2, _AND)
                    p = (yield self._apply(p1, p2, _AND)) if q is None else q
                    if p != self.false:
                        t = ask(s1, s2, op)
                        out.append((p, (yield self._apply(s1, s2, op))
                                    if t is None else t))
        elif vt.is_ancestor(vt.left[v], vnode[b]):
            # case 2: the primes' parts outside m share one constant sub
            # and, as the primes partition, join into the one prime ~m
            nb = ask(b, b, _NEG)
            nb = (yield self._negate(b)) if nb is None else nb
            m, nm = (b, nb) if op == _AND else (nb, b)
            out = [(nm, self.false if op == _AND else self.true)]
            for p, s in self.elems[a]:
                q = ask(p, m, _AND)
                p = (yield self._apply(p, m, _AND)) if q is None else q
                if p != self.false:
                    out.append((p, s))
        else:
            out = []
            for p, s in self.elems[a]:
                t = ask(s, b, op)
                out.append((p, (yield self._apply(s, b, op))
                            if t is None else t))
        r = yield from self._decision(v, out)
        self._app[key] = r
        return r

    def clause(self, lits):
        acc = self.false
        for sl in lits:
            acc = self.apply(acc, self.literal(sl), 'or')
        return acc

    def to_circuit(self, root):
        """Export the nodes reachable from root as a Circuit.

        An element whose sub is FALSE folds away in disj, so it is neither
        marked nor exported: every node made is reachable, and the export
        is already in normal form, as normalize would return it, with no
        copy.
        """
        c = Circuit(self.vt)
        m = {self.false: FALSE, self.true: TRUE}
        # unique-table ids are append-ordered: children precede parents,
        # so one sweep down the ids finds the nodes reachable from root
        live = [False] * root + [True]
        for n in range(root, 1, -1):
            if live[n] and self.kind[n] == 'D':
                for p, s in self.elems[n]:
                    if s != self.false:
                        live[p] = live[s] = True
        for n in range(2, root + 1):
            if live[n] and self.kind[n] == 'L':
                m[n] = c.literal(self.lit[n])
            elif live[n]:
                m[n] = c.disj([c.conj((m[p], m[s])) for p, s in self.elems[n]
                               if s != self.false])
        c.root = m[root]
        # primes of a decision are pairwise inconsistent by invariant
        c.deterministic_by_construction = True
        return c


def compile_cnf(cnf, vt, node_budget=10 ** 6):
    """Conjoin the clauses bottom-up along the vtree.

    Each clause goes to the deepest vnode whose scope covers its
    variables.  Walking the vnodes children first, the part of vnode v is
    the conjunction of its children's parts (apply's case 4) and then of
    its own clauses, so every partial SDD stays inside its subtree until
    the vnode that needs it.  An empty clause makes the CNF FALSE.
    Raises CompileBudgetError when the unique table outgrows node_budget.
    """
    if cnf.n_vars > vt.n_vars:
        raise ValidationError('CNF mentions %d variables, vtree has %d'
                              % (cnf.n_vars, vt.n_vars))
    b = SddBuilder(vt, node_budget)
    if () in cnf.clauses:
        return b.to_circuit(b.false)
    bucket = [[] for _ in range(vt.n_nodes + 1)]
    for cl in cnf.clauses:
        mask = 0
        for sl in cl:
            mask |= 1 << abs(sl)
        bucket[vt.deepest_containing(mask)].append(cl)
    # a vtree numbers children before their parents
    part = [b.true] * (vt.n_nodes + 1)
    for v in range(1, vt.n_nodes + 1):
        acc = b.true if vt.is_leaf(v) else \
            b.apply(part[vt.left[v]], part[vt.right[v]], _AND)
        for cl in bucket[v]:
            acc = b.apply(acc, b.clause(cl), _AND)
        part[v] = acc
    return b.to_circuit(part[vt.root])


def condition1_vtree(var_blocks):
    """Vtree gathering every parameter block under its own vnode.

    var_blocks: one entry per network variable, each a pair
    (theta_blocks, lambda_vars) where theta_blocks is a list of lists of
    propositional ids (one block per parent configuration) and
    lambda_vars lists the indicator ids.  Per entry the blocks are
    chained with the indicators at the end, so each block's variables
    are the exact scope of one vnode; entries are then chained in order.
    """

    def nest(ids):
        *head, t = ids
        for x in reversed(head):
            t = (x, t)
        return t

    parts = []
    for theta_blocks, lambda_vars in var_blocks:
        t = nest(lambda_vars)
        for blk in reversed(list(theta_blocks)):
            t = (nest(blk), t)
        parts.append(t)
    if not parts:
        raise ValidationError('no variables to build a vtree over')
    shape = parts[-1]
    for p in reversed(parts[:-1]):
        shape = (p, shape)
    return Vtree.from_nested(shape)
