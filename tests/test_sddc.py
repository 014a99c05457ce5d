import contextlib
import hashlib
import importlib.util
from pathlib import Path

import pytest

from conftest import (random_cnf, random_shape_vtree, random_weights,
                      random_vtree, scopes, seeded)
from wmcvar import sddc
from wmcvar.bayes import BayesNet, MarginalPipeline, demo_networks
from wmcvar.circuit import Circuit, Vtree, normalize, sdd_text, validate
from wmcvar.errors import CompileBudgetError, FormatError
from wmcvar.moments import var_wmc
from wmcvar.oracle import enumerate_models
from wmcvar.sddc import Cnf, SddBuilder, compile_cnf, condition1_vtree


def brute_models(cnf):
    out = []
    for m in range(1 << cnf.n_vars):
        ok = True
        for cl in cnf.clauses:
            if not any((m >> (abs(l) - 1)) & 1 == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            out.append(m)
    return out


class CartesianBuilder(SddBuilder):
    """The referee for `SddBuilder.apply`: the compiler's apply before it
    dispatched on where the operands sit.  Both operands are read as
    decisions at their lca vnode, a node below it as (n, TRUE), (~n, FALSE)
    or (TRUE, n), and every element pair is a sub-apply.  It replaces the
    builder's apply frame, so every apply of a compile, the compression
    ORs included, goes through it."""

    def _elements_at(self, n, v):
        if self.vnode[n] == v and self.kind[n] == 'D':
            return self.elems[n]
        if self.vt.is_ancestor(self.vt.left[v], self.vnode[n]):
            return ((n, self.true), (self.neg(n), self.false))
        return ((self.true, n),)

    def _apply(self, a, b, op):
        # a frame of the builder's explicit stack: each sub-apply that
        # _settled does not answer is yielded as a new frame, whose result
        # is sent back
        if a > b:
            a, b = b, a
        key = (op, a, b)
        v = self.vt.lca(self.vnode[a], self.vnode[b])
        out = []
        for p1, s1 in self._elements_at(a, v):
            for p2, s2 in self._elements_at(b, v):
                p = self._settled(p1, p2, sddc._AND)
                if p is None:
                    p = yield self._apply(p1, p2, sddc._AND)
                if p != self.false:
                    s = self._settled(s1, s2, op)
                    if s is None:
                        s = yield self._apply(s1, s2, op)
                    out.append((p, s))
        r = yield from self._decision(v, out)
        self._app[key] = r
        return r


@contextlib.contextmanager
def compiling_with(cls):
    """Make every compile through `sddc` use builders of class cls;
    yields the list of the builders made."""
    made = []

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sddc, 'SddBuilder', Recording)
        yield made


def sdd_shape(text):
    """The SDD of an sdd file up to node ids and element order: the
    sorted digests of its nodes, and the root's.  A digest covers a node's
    line with its elements' ids replaced by their digests, as a set."""
    digest = {}
    for line in text.splitlines()[1:]:
        kind, ident, *rest = line.split()
        if kind == 'D':
            rest = rest[:1] + sorted(digest[p] + digest[s] for p, s
                                     in zip(rest[2::2], rest[3::2]))
        digest[ident] = hashlib.sha256(
            ' '.join([kind] + rest).encode()).hexdigest()
    return sorted(digest.values()), digest[ident]


def truth_table(b, n, n_vars):
    """Bit j is set when assignment j (variable v is bit v-1) satisfies
    node n of builder b."""
    full = (1 << (1 << n_vars)) - 1
    tables = {b.false: 0, b.true: full}

    def go(n):
        t = tables.get(n)
        if t is None:
            if b.kind[n] == 'L':
                v = abs(b.lit[n])
                t = sum(1 << j for j in range(1 << n_vars)
                        if (j >> (v - 1)) & 1)
                t = t if b.lit[n] > 0 else full ^ t
            else:
                t = 0
                for p, s in b.elems[n]:
                    t |= go(p) & go(s)
            tables[n] = t
        return t

    return go(n)


class TestCompile:
    def test_against_brute_force(self):
        rng = seeded('compile-brute')
        for _ in range(150):
            n = rng.randint(2, 7)
            cnf = random_cnf(rng, n)
            vt = random_vtree(rng, n)
            c = compile_cnf(cnf, vt)
            assert sorted(enumerate_models(c)) == brute_models(cnf)

    def test_output_is_valid(self):
        rng = seeded('compile-valid')
        for _ in range(40):
            n = rng.randint(2, 7)
            c = compile_cnf(random_cnf(rng, n), random_vtree(rng, n))
            rep = validate(c)
            assert rep.ok, rep.problems
            assert rep.structured and rep.decomposable

    def test_unsat_collapses_to_false(self):
        vt = Vtree.balanced(2)
        c = compile_cnf(Cnf(2, [(1,), (-1,)]), vt)
        assert c.kind[c.root] == 'F'

    def test_empty_clause_is_false(self):
        c = compile_cnf(Cnf(3, [(1, 2), (), (-3,)]), Vtree.balanced(3))
        assert c.kind[c.root] == 'F' and len(c) == 2

    def test_tautology(self):
        vt = Vtree.balanced(2)
        c = compile_cnf(Cnf(2, []), vt)
        assert c.kind[c.root] == 'T'

    def test_budget_enforced(self):
        n = 12
        cnf = Cnf(n, [(v, v + 1) for v in range(1, n)])
        vt = Vtree.balanced(n)
        with pytest.raises(CompileBudgetError):
            compile_cnf(cnf, vt, node_budget=3)
        compile_cnf(cnf, vt, node_budget=10 ** 6)  # generous budget passes


class TestApply:
    def test_boolean_algebra(self):
        vt = Vtree.balanced(3)
        b = SddBuilder(vt)
        x, y = b.literal(1), b.literal(2)
        assert b.apply(x, b.neg(x), 'and') == b.false
        assert b.apply(x, b.neg(x), 'or') == b.true
        assert b.apply(x, x, 'and') == x
        assert b.neg(b.neg(y)) == y
        assert b.apply(x, b.false, 'and') == b.false
        assert b.apply(x, b.true, 'and') == x

    def test_canonical_nodes(self):
        # same function arrived at differently must be the same node
        vt = Vtree.balanced(3)
        b = SddBuilder(vt)
        lhs = b.apply(b.literal(1), b.literal(2), 'and')
        rhs = b.neg(b.apply(b.neg(b.literal(1)), b.neg(b.literal(2)), 'or'))
        assert lhs == rhs

    def test_de_morgan_random(self):
        rng = seeded('demorgan')
        for _ in range(30):
            n = rng.randint(2, 6)
            vt = random_vtree(rng, n)
            b = SddBuilder(vt)
            f = b.clause(tuple(v if rng.random() < .5 else -v
                               for v in rng.sample(range(1, n + 1), 2)))
            g = b.clause(tuple(v if rng.random() < .5 else -v
                               for v in rng.sample(range(1, n + 1), 2)))
            assert b.neg(b.apply(f, g, 'and')) \
                == b.apply(b.neg(f), b.neg(g), 'or')


class TestApplyDispatch:
    """One truth-table check per case of `apply` at v = lca (see the
    `sddc` docstring), over the vtree ((1, 2), (3, 4))."""

    def setup_method(self):
        self.vt = Vtree.from_nested(((1, 2), (3, 4)))
        self.b = SddBuilder(self.vt)
        b, x = self.b, self.b.literal
        # a decision at the root: (x1 & x3) | (~x2 & x4)
        self.d = b.apply(b.apply(x(1), x(3), 'and'),
                         b.apply(b.neg(x(2)), x(4), 'and'), 'or')
        assert b.vnode[self.d] == self.vt.root

    def check(self, f, g, op):
        b = self.b
        got = truth_table(b, b.apply(f, g, op), 4)
        tf, tg = truth_table(b, f, 4), truth_table(b, g, 4)
        assert got == (tf & tg if op == 'and' else tf | tg)

    def under(self, n, side):
        vt = self.vt
        return vt.is_ancestor(side[vt.root], self.b.vnode[n])

    def test_both_at_v(self):
        b, x = self.b, self.b.literal
        e = b.apply(b.apply(x(2), b.neg(x(3)), 'and'),
                    b.apply(x(1), x(4), 'and'), 'or')
        assert b.vnode[e] == self.vt.root
        for op in ('and', 'or'):
            self.check(self.d, e, op)

    def test_under_left_and(self):
        b, x = self.b, self.b.literal
        n = b.apply(x(1), x(2), 'or')
        assert self.under(n, self.vt.left)
        self.check(self.d, n, 'and')
        self.check(n, self.d, 'and')

    def test_under_left_or(self):
        b, x = self.b, self.b.literal
        n = b.apply(x(1), b.neg(x(2)), 'and')
        assert self.under(n, self.vt.left)
        self.check(self.d, n, 'or')
        self.check(n, self.d, 'or')

    def test_under_right(self):
        b, x = self.b, self.b.literal
        n = b.apply(x(3), b.neg(x(4)), 'or')
        assert self.under(n, self.vt.right)
        for op in ('and', 'or'):
            self.check(self.d, n, op)
            self.check(n, self.d, op)

    def test_opposite_subtrees(self):
        b, x = self.b, self.b.literal
        l = b.apply(x(1), b.neg(x(2)), 'or')
        r = b.apply(x(3), x(4), 'and')
        assert self.under(l, self.vt.left) and self.under(r, self.vt.right)
        for op in ('and', 'or'):
            self.check(l, r, op)
            self.check(r, l, op)


class TestAgainstCartesian:
    """The dispatching `apply` against the cartesian-product referee."""

    def test_random_cnfs(self):
        rng = seeded('apply-referee')
        shapes = (Vtree.right_linear, Vtree.balanced,
                  lambda n: random_shape_vtree(rng, n))
        for i in range(300):
            n = rng.randint(2, 14)
            vt = shapes[i % 3](n)
            cnf = random_cnf(rng, n, max_clauses=n, max_width=4)
            with compiling_with(CartesianBuilder):
                ref = compile_cnf(cnf, vt)
            new = compile_cnf(cnf, vt)
            assert enumerate_models(new) == enumerate_models(ref)
            assert len(new.reachable()) == len(ref.reachable())
            assert sdd_shape(sdd_text(new)) == sdd_shape(sdd_text(ref))
            wm = random_weights(rng, n, exact=True)
            assert var_wmc(new, wm) == var_wmc(ref, wm)

    @pytest.mark.parametrize('name', sorted(demo_networks()))
    def test_demo_networks(self, name):
        # the same circuit from a smaller unique table and apply cache
        bn = demo_networks()[name]
        binary = all(bn.k(i) == 2 for i in range(len(bn.names)))
        for encoding in ('enc1', 'enc2') if binary else ('enc1',):
            with compiling_with(CartesianBuilder) as made:
                ref = MarginalPipeline(bn, encoding)
            (rb,) = made
            with compiling_with(SddBuilder) as made:
                new = MarginalPipeline(bn, encoding)
            (nb,) = made
            assert len(nb.kind) <= len(rb.kind)
            assert len(nb._app) <= len(rb._app)
            assert sdd_text(new.circuit) == sdd_text(ref.circuit)

    def test_shape_sees_a_changed_element(self):
        c = compile_cnf(Cnf(4, [(1, 3), (-2, 4)]), Vtree.balanced(4))
        text = sdd_text(c)
        lines = text.splitlines()
        i = max(k for k, ln in enumerate(lines) if ln.startswith('D '))
        f = lines[i].split()
        f[4], f[5] = f[5], f[4]
        lines[i] = ' '.join(f)
        assert sdd_shape('\n'.join(lines)) != sdd_shape(text)


def left_fold(cnf, vt, rng):
    """The referee for `compile_cnf`'s clause order: one builder
    conjoins the clauses in input order, then in a shuffled order, and
    exports the result.  Returns the circuit and the unique-table size
    after the input-order fold."""
    b = SddBuilder(vt)

    def fold(clauses):
        acc = b.true
        for cl in clauses:
            acc = b.apply(acc, b.clause(cl), 'and')
        return acc

    f = fold(cnf.clauses)
    size = len(b.kind)
    shuffled = list(cnf.clauses)
    rng.shuffle(shuffled)
    assert fold(shuffled) == f
    return b.to_circuit(f), size


def perfbench_networks():
    """The networks of the three perfbench workloads, seed 1, with their
    encodings."""
    path = Path(__file__).resolve().parent.parent / 'perfbench' / 'workloads.py'
    spec = importlib.util.spec_from_file_location('perfbench_workloads', path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS:
        net = workloads.make(w, 1)['network']
        yield w, BayesNet.from_json(net['net']), net['encoding']


def network_cases():
    for name, bn in sorted(demo_networks().items()):
        binary = all(bn.k(i) == 2 for i in range(len(bn.names)))
        for encoding in ('enc1', 'enc2') if binary else ('enc1',):
            yield name, bn, encoding
    yield from perfbench_networks()


class TestClauseOrder:
    """`compile_cnf`'s bottom-up walk against the plain left fold."""

    def test_random_cnfs(self):
        rng = seeded('clause-order')
        shapes = (Vtree.right_linear, Vtree.balanced,
                  lambda n: random_shape_vtree(rng, n))
        for i in range(200):
            n = rng.randint(1, 12)
            vt = shapes[i % 3](n)
            cnf = random_cnf(rng, n, max_clauses=n + 2, max_width=4)
            ref, _ = left_fold(cnf, vt, rng)
            new = compile_cnf(cnf, vt)
            assert sdd_shape(sdd_text(new)) == sdd_shape(sdd_text(ref))
            assert len(new.reachable()) == len(ref.reachable())

    @pytest.mark.parametrize('name,bn,encoding', [
        pytest.param(*case, id='%s-%s' % (case[0], case[2]))
        for case in network_cases()])
    def test_networks(self, name, bn, encoding):
        # the same SDD from a unique table no larger than the left fold's
        with compiling_with(SddBuilder) as made:
            pipe = MarginalPipeline(bn, encoding)
        (nb,) = made
        ref, size = left_fold(pipe.cnf, pipe.vt, seeded(name + encoding))
        assert sdd_shape(sdd_text(pipe.circuit)) == sdd_shape(sdd_text(ref))
        assert len(nb.kind) <= size


class TestExport:
    """`to_circuit` makes only reachable nodes, already in normal form."""

    def check(self, c):
        assert set(range(2, len(c))) <= set(c.reachable())
        n = normalize(c)
        for attr in ('kind', 'lit', 'children', 'dnode', 'root'):
            assert getattr(n, attr) == getattr(c, attr), attr

    def test_random_cnfs(self, monkeypatch):
        # the export is the only circuit a compile makes: no closing copy
        made = []
        init = Circuit.__init__

        def recording(c, vt):
            made.append(c)
            init(c, vt)

        monkeypatch.setattr(Circuit, '__init__', recording)
        rng = seeded('export-reachable')
        for _ in range(200):
            n = rng.randint(1, 12)
            cnf = random_cnf(rng, n, max_clauses=n + 2, max_width=4)
            made.clear()
            c = compile_cnf(cnf, random_vtree(rng, n))
            assert made == [c]
            self.check(c)

    def test_networks(self):
        for _, bn, encoding in network_cases():
            self.check(MarginalPipeline(bn, encoding).circuit)


class TestDimacs:
    def test_parse(self):
        cnf = Cnf.from_dimacs('c comment\np cnf 3 2\n1 -2 0\n3 0\n')
        assert cnf.n_vars == 3
        assert list(cnf.clauses) == [(1, -2), (3,)]

    def test_multiline_clause_and_percent(self):
        cnf = Cnf.from_dimacs('p cnf 2 1\n1\n-2 0\n%\n0\n')
        assert list(cnf.clauses) == [(1, -2)]

    def test_missing_header(self):
        with pytest.raises(FormatError):
            Cnf.from_dimacs('1 -2 0\n')

    def test_round_trip(self):
        cnf = Cnf(4, [(1, -3), (2, 4, -1)])
        again = Cnf.from_dimacs(cnf.to_dimacs())
        assert again.n_vars == cnf.n_vars
        assert list(again.clauses) == list(cnf.clauses)


class TestCondition1Vtree:
    def test_block_scopes(self):
        # per random variable: parameter blocks first, then its indicators
        blocks = [([(1, 2), (3,)], [4, 5]), ([(6,)], [7])]
        vt = condition1_vtree(blocks)
        assert vt.n_vars == 7
        for group in [(1, 2), (3,), (6,)]:
            mask = 0
            for v in group:
                mask |= 1 << v
            node = vt.deepest_containing(mask)
            assert scopes(vt)[node] == mask, group

    def test_single_variable_network_shape(self):
        vt = condition1_vtree([([(1,)], [2])])
        assert vt.n_vars == 2
        assert scopes(vt)[vt.root] == 0b110


class TestDeterminismTag:
    def test_compiler_marks_by_construction(self):
        rng = seeded('det-tag')
        c = compile_cnf(random_cnf(rng, 5), Vtree.balanced(5))
        assert getattr(c, 'deterministic_by_construction', False)
        rep = validate(c, determinism_limit=0)
        assert rep.determinism == 'by-construction'
