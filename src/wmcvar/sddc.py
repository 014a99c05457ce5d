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

This is deliberately minimal: no vtree search, no garbage collection,
one compilation session per CNF.  A node budget guards against blow-up.
"""

import sys

from .circuit import Circuit, FALSE, TRUE, Vtree, normalize
from .errors import CompileBudgetError, FormatError, ValidationError

_AND, _OR = 0, 1
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
                if len(parts) != 4 or parts[1] != 'cnf':
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

    def neg(self, n):
        r = self._neg.get(n)
        if r is None:
            if self.kind[n] == 'L':
                r = self.literal(-self.lit[n])
            else:
                r = self._decision(self.vnode[n],
                                   [(p, self.neg(s)) for p, s in self.elems[n]])
            self._neg[n] = r
            self._neg[r] = n
        return r

    def _decision(self, v, elements):
        # compress: merge primes that share a sub
        by_sub = {}
        for p, s in elements:
            q = by_sub.get(s)
            by_sub[s] = p if q is None else self.apply(q, p, _OR)
        elements = tuple(sorted((p, s) for s, p in by_sub.items()))
        if len(elements) == 1 and elements[0][0] == self.true:
            return elements[0][1]
        if len(elements) == 2:
            (p1, s1), (p2, s2) = elements
            if s1 == self.false and s2 == self.true and p2 == self.neg(p1):
                return p2
            if s2 == self.false and s1 == self.true and p1 == self.neg(p2):
                return p1
        key = (v, elements)
        n = self._uniq.get(key)
        if n is None:
            n = self._push('D', 0, v, elements)
            self._uniq[key] = n
        return n

    def apply(self, a, b, op):
        op = _OPS[op] if isinstance(op, str) else op
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
        key = (op, a, b)
        r = self._app.get(key)
        if r is not None:
            return r
        vt, vnode = self.vt, self.vnode
        v = vt.lca(vnode[a], vnode[b])
        if vnode[a] != v:
            a, b = b, a
        if vnode[a] != v:
            # case 4: the operand under left(v) is the prime
            if not vt.is_ancestor(vt.left[v], vnode[a]):
                a, b = b, a
            if op == _AND:
                out = [(a, b), (self.neg(a), self.false)]
            else:
                out = [(a, self.true), (self.neg(a), b)]
        elif vnode[b] == v:
            out = []
            for p1, s1 in self.elems[a]:
                for p2, s2 in self.elems[b]:
                    p = self.apply(p1, p2, _AND)
                    if p != self.false:
                        out.append((p, self.apply(s1, s2, op)))
        elif vt.is_ancestor(vt.left[v], vnode[b]):
            # case 2: the primes' parts outside m share one constant sub
            # and, as the primes partition, join into the one prime ~m
            m = b if op == _AND else self.neg(b)
            out = [(self.neg(m), self.false if op == _AND else self.true)]
            for p, s in self.elems[a]:
                p = self.apply(p, m, _AND)
                if p != self.false:
                    out.append((p, s))
        else:
            out = [(p, self.apply(s, b, op)) for p, s in self.elems[a]]
        r = self._decision(v, out)
        self._app[key] = r
        return r

    def conjoin(self, nodes):
        acc = self.true
        for n in nodes:
            acc = self.apply(acc, n, 'and')
        return acc

    def clause(self, lits):
        acc = self.false
        for sl in lits:
            acc = self.apply(acc, self.literal(sl), 'or')
        return acc

    def to_circuit(self, root):
        """Export as a Circuit; conj and disj fold the constant subs."""
        c = Circuit(self.vt)
        m = {self.false: FALSE, self.true: TRUE}
        reach = {root}
        stack = [root]
        while stack:
            n = stack.pop()
            if self.kind[n] == 'D':
                for p, s in self.elems[n]:
                    for x in (p, s):
                        if x not in reach:
                            reach.add(x)
                            stack.append(x)
        # unique-table ids are append-ordered: children precede parents
        for n in sorted(reach):
            if n in m:
                continue
            if self.kind[n] == 'L':
                m[n] = c.literal(self.lit[n])
            else:
                m[n] = c.disj([c.conj((m[p], m[s])) for p, s in self.elems[n]])
        c.root = m[root]
        # primes of a decision are pairwise inconsistent by invariant
        c.deterministic_by_construction = True
        return normalize(c)


def compile_cnf(cnf, vt, node_budget=10 ** 6):
    """Conjoin the clauses bottom-up along the vtree.

    Clauses whose variables sit deepest in the vtree are conjoined first,
    which keeps intermediate results local; a plain left fold after that
    single sort.  Raises CompileBudgetError when the unique table
    outgrows node_budget.
    """
    if cnf.n_vars > vt.n_vars:
        raise ValidationError('CNF mentions %d variables, vtree has %d'
                              % (cnf.n_vars, vt.n_vars))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * vt.n_nodes + 1000))
    try:
        b = SddBuilder(vt, node_budget)
        keyed = []
        for i, cl in enumerate(cnf.clauses):
            mask = 0
            for sl in cl:
                mask |= 1 << abs(sl)
            dvn = vt.deepest_containing(mask) if mask else 0
            keyed.append((-vt.depth[dvn], i, cl))
        acc = b.true
        for _, _, cl in sorted(keyed):
            acc = b.apply(acc, b.clause(cl), 'and')
        return b.to_circuit(acc)
    finally:
        sys.setrecursionlimit(old)


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
        ids = list(ids)
        if len(ids) == 1:
            return ids[0]
        return (ids[0], nest(ids[1:]))

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
