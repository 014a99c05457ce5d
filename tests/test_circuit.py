import gc
import time
from fractions import Fraction

import pytest
from numpy.testing import assert_allclose

from conftest import (outcome, random_circuit, random_cnf, random_gates,
                      random_shape_vtree, random_vtree, random_weights,
                      scopes, seeded)
from wmcvar.bayes import MarginalPipeline, demo_networks
from wmcvar.circuit import (BOTTOM, FALSE, TRUE, Circuit, Vtree, normalize,
                            parse_sdd, parse_vtree, sdd_text, validate)
from wmcvar.errors import FormatError, ValidationError, VtreeMismatchError
from wmcvar.moments import MomentEngine
from wmcvar.oracle import enumerate_models
from wmcvar.reductions import ite_circuit
from wmcvar.sddc import Cnf, compile_cnf
from wmcvar.weights import VarMoments, WeightModel

VTREE_22 = """vtree 7
L 0 1
L 1 2
I 2 0 1
L 3 3
L 4 4
I 5 3 4
I 6 2 5
"""

# f = (1 & 3) | (-1 & 4) over ((1,2),(3,4)); var 2 unused
SDD_22 = """sdd 7
L 0 0 1
L 1 3 3
D 2 6 1 0 1
L 3 0 -1
L 4 4 4
D 5 6 1 3 4
D 6 6 2 0 1 3 4
"""


def root_walk(vt, bits):
    """Deepest vnode covering bits, by a walk down from the root."""
    if bits == 0:
        return BOTTOM
    scope = scopes(vt)
    v = vt.root
    while not vt.is_leaf(v):
        if bits & ~scope[vt.left[v]] == 0:
            v = vt.left[v]
        elif bits & ~scope[vt.right[v]] == 0:
            v = vt.right[v]
        else:
            break
    return v


def shaped_vtrees(rng, n):
    return (Vtree.right_linear(n), Vtree.balanced(n),
            random_shape_vtree(rng, n))


def evaluate(c, g):
    """Truth value of every node of c under assignment g."""
    val = []
    for i, k in enumerate(c.kind):
        if k in 'FT':
            val.append(k == 'T')
        elif k == 'L':
            val.append(bool((g >> (abs(c.lit[i]) - 1)) & 1) == (c.lit[i] > 0))
        elif k == 'A':
            val.append(all(val[x] for x in c.children[i]))
        else:
            val.append(any(val[x] for x in c.children[i]))
    return val


class TestVtree:
    def test_parse_and_scopes(self):
        vt = parse_vtree(VTREE_22)
        assert vt.n_vars == 4
        scope = scopes(vt)
        assert scope[vt.root] == 0b11110
        left, right = vt.left[vt.root], vt.right[vt.root]
        assert scope[left] == 0b00110
        assert scope[right] == 0b11000

    def test_leaf_lookup(self):
        vt = parse_vtree(VTREE_22)
        for v in range(1, 5):
            leaf = vt.leaf_of(v)
            assert vt.is_leaf(leaf) and vt.var[leaf] == v

    def test_nested_matches_parsed(self):
        vt1 = parse_vtree(VTREE_22)
        vt2 = Vtree.from_nested(((1, 2), (3, 4)))
        assert vt1.to_text() == vt2.to_text()

    def test_text_round_trip(self):
        vt = Vtree.from_nested((1, ((3, 2), 4)))
        again = parse_vtree(vt.to_text())
        assert again.to_text() == vt.to_text()

    def test_deepest_containing(self):
        vt = parse_vtree(VTREE_22)
        assert vt.deepest_containing(0) == BOTTOM
        assert vt.deepest_containing(0b00010) == vt.leaf_of(1)
        assert vt.deepest_containing(0b00110) == vt.left[vt.root]
        # 1 and 3 only meet at the root
        assert vt.deepest_containing(0b01010) == vt.root

    def test_lca(self):
        vt = parse_vtree(VTREE_22)
        a, b = vt.leaf_of(1), vt.leaf_of(2)
        assert vt.lca(a, b) == vt.left[vt.root]
        assert vt.lca(a, vt.leaf_of(3)) == vt.root
        assert vt.lca(a, a) == a

    def test_is_ancestor_matches_parent_walk(self):
        rng = seeded('is-ancestor')
        for _ in range(30):
            vt = random_vtree(rng, rng.randint(1, 9))
            for v in range(1, vt.n_nodes + 1):
                up = {v}
                w = v
                while w != vt.root:
                    w = vt.parent[w]
                    up.add(w)
                for w in range(1, vt.n_nodes + 1):
                    assert vt.is_ancestor(w, v) == (w in up)
                # BOTTOM sits below every node and above none but itself
                assert vt.is_ancestor(v, BOTTOM)
                assert not vt.is_ancestor(BOTTOM, v)
            assert vt.is_ancestor(BOTTOM, BOTTOM)

    def test_lca_matches_parent_walk(self):
        rng = seeded('lca')
        for _ in range(30):
            vt = random_vtree(rng, rng.randint(1, 12))
            for a in range(1, vt.n_nodes + 1):
                up = [a]
                while up[-1] != vt.root:
                    up.append(vt.parent[up[-1]])
                for b in range(1, vt.n_nodes + 1):
                    w = b
                    while w not in up:
                        w = vt.parent[w]
                    assert vt.lca(a, b) == w
                assert vt.lca(a, BOTTOM) == vt.lca(BOTTOM, a) == a
            assert vt.lca(BOTTOM, BOTTOM) == BOTTOM

    def test_deepest_containing_matches_root_walk(self):
        rng = seeded('deepest-containing')
        for n in (1, 2, 5, 17, 40):
            for vt in shaped_vtrees(rng, n):
                masks = [0, scopes(vt)[vt.root]]
                masks += [1 << v for v in range(1, n + 1)]
                for _ in range(60):
                    vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
                    masks.append(sum(1 << v for v in vs))
                    masks.append(rng.getrandbits(n) << 1)
                for mask in masks:
                    assert vt.deepest_containing(mask) == root_walk(vt, mask)
                for bad in (1, 1 << (n + 1)):
                    with pytest.raises(ValidationError):
                        vt.deepest_containing(bad)

    def test_placement_keeps_compiled_text(self, monkeypatch):
        rng = seeded('placement-text')
        cases = []
        for n in (3, 8, 16):
            for vt in shaped_vtrees(rng, n):
                clauses = [tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1), 3))
                           for _ in range(2 * n)]
                cases.append((vt, Cnf(n, clauses)))
        got = [sdd_text(compile_cnf(cnf, vt)) for vt, cnf in cases]
        assert sum(len(t.splitlines()) for t in got) > 200
        monkeypatch.setattr(Vtree, 'deepest_containing', root_walk)
        want = [sdd_text(compile_cnf(cnf, vt)) for vt, cnf in cases]
        assert got == want

    def test_right_linear_shape(self):
        vt = Vtree.right_linear(5)
        node = vt.root
        for v in range(1, 5):
            assert vt.var[vt.left[node]] == v
            node = vt.right[node]
        assert vt.var[node] == 5

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_vtree('vt 3\nL 0 1\n')

    def test_unbalanced_internal(self):
        with pytest.raises(FormatError):
            parse_vtree('vtree 3\nL 0 1\nL 1 2\nI 2 0 9\n')


class TestParseSdd:
    def test_models(self):
        vt = parse_vtree(VTREE_22)
        c = parse_sdd(SDD_22, vt)
        # (1&3) | (-1&4): enumerate over all four variables
        want = set()
        for m in range(16):
            one, three, four = m & 1, (m >> 2) & 1, (m >> 3) & 1
            if (one and three) or (not one and four):
                want.add(m)
        assert set(enumerate_models(c)) == want

    def test_validation_report(self):
        vt = parse_vtree(VTREE_22)
        rep = validate(parse_sdd(SDD_22, vt))
        assert rep.ok and rep.decomposable and rep.structured
        assert rep.determinism in ('verified', 'by-construction')

    def test_scope_escape_rejected(self):
        vt = parse_vtree(VTREE_22)
        bad = SDD_22.replace('L 1 3 3', 'L 1 3 2')  # var 2 on vnode of 3
        with pytest.raises(VtreeMismatchError):
            parse_sdd(bad, vt)

    def test_header_count_mismatch(self):
        vt = parse_vtree(VTREE_22)
        with pytest.raises(FormatError):
            parse_sdd(SDD_22.replace('sdd 7', 'sdd 8'), vt)

    def test_nondeterministic_flagged(self):
        vt = parse_vtree('vtree 3\nL 0 1\nL 1 2\nI 2 0 1\n')
        text = 'sdd 3\nL 0 0 1\nT 1\nD 2 2 2 0 1 0 1\n'
        rep = validate(parse_sdd(text, vt))
        assert not rep.ok
        assert any('true together' in p for p in rep.problems)


def problems(vt, build):
    """validate's structure problems for the circuit on vt whose root is
    build(c, x), x[v] being variable v's positive literal in c."""
    c = Circuit(vt)
    x = {v: c.literal(v) for v in range(1, vt.n_vars + 1)}
    c.root = build(c, x)
    return validate(c, determinism_limit=0).problems


def decision_text(vt, build):
    c = Circuit(vt)
    x = {v: c.literal(v) for v in range(1, vt.n_vars + 1)}
    c.root = build(c, x)
    return sdd_text(c)


def always(c):
    # an or-node with no variable: its vnode is BOTTOM
    return c.disj((TRUE, TRUE))


def unknown_kind(c, x):
    c.kind[x[2]] = 'X'
    return c.conj((x[1], x[2]))


@pytest.mark.parametrize('run, want', [
    pytest.param(lambda: parse_sdd('sdd 3\nL 0 3 3\nL 1 4 4\nD 2 6 1 0 1\n',
                                   parse_vtree(VTREE_22)),
                 (VtreeMismatchError,
                  'line 4: prime scope escapes left of vtree node 6'),
                 id='prime-escapes-left'),
    pytest.param(lambda: parse_sdd('sdd 3\nL 0 0 1\nL 1 1 2\nD 2 6 1 0 1\n',
                                   parse_vtree(VTREE_22)),
                 (VtreeMismatchError,
                  'line 4: sub scope escapes right of vtree node 6'),
                 id='sub-escapes-right'),
    pytest.param(lambda: parse_sdd('sdd 1\nL 0 3 2\n', parse_vtree(VTREE_22)),
                 (VtreeMismatchError,
                  'line 2: literal 2 not under vtree node 3'),
                 id='literal-off-its-vnode'),
    pytest.param(lambda: parse_vtree('vtree 3\nL 0 1\nL 1 1\nI 2 0 1\n'),
                 (FormatError, 'variable 1 labels two vtree leaves'),
                 id='repeated-variable'),
    pytest.param(lambda: parse_vtree('vtree 5\nL 0 1\nL 1 2\nI 2 0 1\n'
                                     'L 3 2\nI 4 2 3\n'),
                 (FormatError, 'variable 2 labels two vtree leaves'),
                 id='repeated-variable-across-levels'),
    pytest.param(lambda: Vtree.balanced(3).deepest_containing(0b1),
                 (ValidationError, 'variables outside the vtree'),
                 id='bit-zero-outside'),
    pytest.param(lambda: Vtree.balanced(3).deepest_containing(0b10110),
                 (ValidationError, 'variables outside the vtree'),
                 id='variable-past-n'),
    pytest.param(lambda: problems(Vtree.balanced(2),
                                  lambda c, x: c.conj((x[1], c.literal(-1)))),
                 ['and-node 5 has overlapping children scopes',
                  'and-node 5 does not split on any vnode'],
                 id='overlapping-children'),
    pytest.param(lambda: problems(Vtree.balanced(3),
                                  lambda c, x: c.conj((x[1], x[2], x[3]))),
                 ['and-node 5 has fan-in 3'], id='fan-in-3'),
    pytest.param(lambda: problems(Vtree.from_nested(((1, 2), 3)),
                                  lambda c, x: c.conj((c.disj((x[1], x[3])),
                                                       x[2]))),
                 ['and-node 6 does not split on any vnode'],
                 id='splits-on-no-vnode'),
    pytest.param(lambda: problems(Vtree.balanced(2),
                                  lambda c, x: c.conj((always(c),
                                                       c.disj((x[1], x[2]))))),
                 ['or-node 4 has no variable',
                  'and-node 6 does not split on any vnode'],
                 id='empty-scope-child-beside-root'),
    pytest.param(lambda: problems(Vtree.balanced(2),
                                  lambda c, x: c.conj((always(c), x[1]))),
                 ['or-node 4 has no variable',
                  'and-node 5 does not split on any vnode'],
                 id='empty-scope-child-below-root'),
    pytest.param(lambda: problems(Vtree.right_linear(1),
                                  lambda c, x: c.conj((always(c),
                                                       always(c)))),
                 ['or-node 3 has no variable'],
                 id='empty-scopes-on-leaf-root'),
    pytest.param(lambda: problems(Vtree.balanced(2), unknown_kind),
                 ["node 3 has unknown kind 'X'"], id='unknown-kind'),
    pytest.param(lambda: decision_text(
        Vtree.from_nested(((1, 2), 3)),
        lambda c, x: c.disj((c.conj((c.disj((x[1], x[3])), x[2])), x[3]))),
                 (ValidationError, 'node 7 is not in decision form'),
                 id='element-on-neither-side'),
])
def test_scope_checks(run, want):
    # the errors and reports of the checks that compare a node's
    # variables with a vnode's
    assert outcome(run) == want


class TestTruthBlocks:
    def test_gates_in_normal_form(self):
        # conj and disj fold constants as they build: no gate keeps fewer
        # than two children, a FALSE child, or (and-nodes) a TRUE child
        rng = seeded('truth-blocks-normal-form')
        for _ in range(30):
            c = random_gates(rng, rng.randint(1, 6), 20)
            for i in range(len(c)):
                if c.kind[i] in 'AO':
                    chs = c.children[i]
                    assert len(chs) >= 2 and FALSE not in chs
                    assert c.kind[i] == 'O' or TRUE not in chs

    def check(self, c, **kw):
        n = c.vt.n_vars
        starts = []
        for start, tabs in c.truth_blocks(**kw):
            starts.append(start)
            width = min(1 << n, 1 << kw.get('block_log', 13))
            for j in range(width):
                val = evaluate(c, start + j)
                assert [(t >> j) & 1 == 1 for t in tabs] == val
            assert all(t >> width == 0 for t in tabs)
        assert starts == list(range(0, 1 << n, width))
        return len(starts)

    def test_tables_match_assignment_evaluator(self):
        rng = seeded('truth-blocks')
        for n in (1, 3, 6, 15):
            assert self.check(random_gates(rng, n, 12)) \
                == max(1, 2 ** (n - 13))

    def test_small_blocks(self):
        rng = seeded('truth-blocks-small')
        for _ in range(20):
            n = rng.randint(1, 8)
            c = random_gates(rng, n, 20)
            assert self.check(c, block_log=3) == max(1, 2 ** (n - 3))

    def test_refuted_past_first_block(self):
        n = 15
        c = Circuit(Vtree.right_linear(n))
        x = {v: c.literal(v) for v in range(1, n + 1)}
        # each overlap needs x14, so none lies in the first 2^13-block;
        # o_late overlaps only in the last block (x14 and x15), o_first at
        # 8192+4+8, o_second at 8192+1: within a block or-nodes are
        # scanned in id order, so o_first is the witness
        o_late = c.disj((c.conj((x[15], x[14], x[1])),
                         c.conj((x[15], x[14], x[2]))))
        o_first = c.disj((c.conj((x[14], x[3])), c.conj((x[14], x[4]))))
        o_second = c.disj((x[1], x[14]))
        exclusive = c.disj((x[5], c.literal(-5)))
        c.root = c.conj((o_late, o_first, o_second, exclusive))
        rep = validate(c)
        assert rep.determinism == 'refuted' and not rep.ok

        or_nodes = sorted(i for i in c.reachable() if c.kind[i] == 'O')
        witness = None
        for start in range(0, 1 << n, 1 << 13):
            for i in or_nodes:
                for g in range(start, start + (1 << 13)):
                    val = evaluate(c, g)
                    if sum(val[x] for x in c.children[i]) > 1:
                        witness = i, g
                        break
                if witness:
                    break
            if witness:
                break
        assert witness == (o_first, 8192 + 4 + 8)

        node = rep.counterexample['node']
        assign = rep.counterexample['assignment']
        g = sum(1 << (v - 1) for v, on in assign.items() if on)
        assert sorted(assign) == list(range(1, n + 1))
        assert (node, g) == witness
        val = evaluate(c, g)
        assert sum(val[x] for x in c.children[node]) >= 2

    def test_determinism_verdict_kept_per_root(self, monkeypatch):
        # validate keeps its exhaustive verdict with the structure's: a
        # repeat under the same root, at a limit that admits the check,
        # reads it and reports what a first validate does; a refused
        # structure keeps nothing, and a moved root checks again.  A root
        # with no or-node of two or more children needs no pass at all
        rng = seeded('verdict-kept')
        passes = []
        blocks = Circuit.truth_blocks
        monkeypatch.setattr(Circuit, 'truth_blocks', lambda self, *a, **kw: (
            passes.append(self) or blocks(self, *a, **kw)))
        seen = set()
        for _ in range(80):
            c = random_gates(rng, rng.randint(1, 5), range(1, 13))
            for root in (c.root, rng.randrange(len(c)), c.root):
                c.root = root
                first = {}
                for limit in (0, 20):
                    c.checked = None
                    first[limit] = validate(c, limit)
                c.checked = None
                del passes[:]
                got = [validate(c, limit) for limit in (20, 0, 20, 5)]
                assert got == [first[20], first[0], first[20], first[20]]
                structured = first[0].structured
                forks = any(c.kind[i] == 'O' and len(c.children[i]) > 1
                            for i in c.reachable())
                assert len(passes) == (0 if not forks else
                                       1 if structured else 3)
                seen.add((structured, forks, first[20].determinism))
        assert seen == {(True, True, 'verified'), (True, True, 'refuted'),
                        (False, True, 'verified'), (False, True, 'refuted'),
                        (True, False, 'verified'), (False, False, 'verified')}

    def test_no_or_node_no_enumeration(self, monkeypatch):
        # a conjunction of literals, parsed, so determinism is not known
        # by construction: no or-node can overlap, so no assignment is
        # enumerated, and the verdict is still verified
        n = 18
        vt = Vtree.balanced(n)
        compiled = compile_cnf(Cnf(n, [(v if v % 3 else -v,)
                                       for v in range(1, n + 1)]), vt)
        c = parse_sdd(sdd_text(compiled), parse_vtree(vt.to_text()))
        assert not c.deterministic_by_construction
        assert 'O' not in {c.kind[i] for i in c.reachable()}
        passes = []
        blocks = Circuit.truth_blocks
        monkeypatch.setattr(Circuit, 'truth_blocks', lambda self, *a, **kw: (
            passes.append(self) or blocks(self, *a, **kw)))
        for limit in (20, 18):
            rep = validate(c, limit)
            assert rep.ok and rep.determinism == 'verified'
        assert validate(c, 17).determinism == 'assumed'
        assert passes == []


class TestNormalize:
    def test_constant_folding(self):
        vt = parse_vtree(VTREE_22)
        c = parse_sdd(SDD_22, vt)
        n = normalize(c)
        # no or-node keeps a false child, no and-node keeps a true child
        for i in n.reachable():
            if n.kind[i] == 'O':
                assert all(n.kind[x] != 'F' for x in n.children[i])
            if n.kind[i] == 'A':
                assert all(n.kind[x] != 'T' for x in n.children[i])

    def test_false_vars_in_nary_conjunction(self):
        # literals mapped to FALSE can leave an n-ary conjunction with
        # constant children and at most one other child
        c = Circuit(Vtree.balanced(3))
        x1, x2, x3 = (c.literal(v) for v in (1, 2, 3))
        c.root = c.conj((x1, x2, x3))
        assert normalize(c, {1, 2}).root == FALSE
        c.root = c.conj((c.disj((TRUE, x1)), c.disj((TRUE, x2)), x3))
        n = normalize(c, {1, 2})
        assert n.kind[n.root] == 'L' and n.lit[n.root] == 3

    def test_deep_nary_conjunction(self):
        # one split per vtree level: 1,199 levels, past the default
        # recursion limit
        n = 1200
        c = Circuit(Vtree.right_linear(n))
        c.root = c.conj([c.literal(v) for v in range(1, n + 1)])
        b = normalize(c)
        assert all(len(b.children[i]) == 2 for i in b.reachable()
                   if b.kind[i] == 'A')
        assert validate(b).ok
        rng = seeded('normalize-deep')
        wm = WeightModel({v: VarMoments(Fraction(rng.randint(1, 9), 8),
                                        Fraction(1, 2), Fraction(0),
                                        Fraction(0), Fraction(0))
                          for v in range(1, n + 1)})
        want = Fraction(1)
        for v in range(1, n + 1):
            want *= wm.vars[v].muP
        assert MomentEngine(b.vt, wm).exp(b) == want

    def test_wide_conjunction_is_near_linear(self):
        # each group splits by position in one sorted order of the
        # children, not by a rescan of their scopes at every vtree level
        sizes = (600, 2400)
        wide = {}
        for n in sizes:
            c = wide[n] = Circuit(Vtree.right_linear(n))
            c.root = c.conj([c.literal(v) for v in range(n, 0, -1)])
        # best of 5, the two sizes alternating within each round, with the
        # cyclic collector paused as timeit pauses it: its full passes
        # scale with all the process holds, not with the work of the call
        best = dict.fromkeys(sizes, float('inf'))
        for _ in range(5):
            for n in sizes:
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    normalize(wide[n])
                    best[n] = min(best[n], time.perf_counter() - t0)
                finally:
                    gc.enable()
        for n in sizes:
            # the circuit of the recursion: c's literals, then the gates
            # from the innermost out, (x1 & (x2 & (... & xn)))
            b = normalize(wide[n])
            want = Circuit(b.vt)
            for v in range(n, 0, -1):
                want.literal(v)
            want.root = want.literal(n)
            for v in range(n - 1, 0, -1):
                want.root = want.conj((want.literal(v), want.root))
            for arr in ('kind', 'lit', 'children', 'dnode', 'root'):
                assert getattr(b, arr) == getattr(want, arr), (n, arr)
        assert best[2400] <= 8 * best[600], best

    def test_idempotent(self):
        rng = seeded('normalize-idempotent')
        for _ in range(20):
            c = random_circuit(rng, rng.randint(2, 6))
            n1 = normalize(c)
            n2 = normalize(n1)
            assert sorted(enumerate_models(n1)) == sorted(enumerate_models(n2))

    def test_preserves_models(self):
        rng = seeded('normalize-models')
        for _ in range(30):
            c = random_circuit(rng, rng.randint(2, 7))
            n = normalize(c)
            assert sorted(enumerate_models(n)) == sorted(enumerate_models(c))
            assert validate(n).ok


class TestSddText:
    def test_round_trip_known(self):
        vt = parse_vtree(VTREE_22)
        c = parse_sdd(SDD_22, vt)
        c2 = parse_sdd(sdd_text(c), vt)
        assert sorted(enumerate_models(c2)) == sorted(enumerate_models(c))

    def test_round_trip_random(self):
        rng = seeded('sdd-text-roundtrip')
        for _ in range(60):
            c = random_circuit(rng, rng.randint(2, 7))
            c2 = parse_sdd(sdd_text(c), c.vt)
            assert validate(c2).ok
            assert sorted(enumerate_models(c2)) == sorted(enumerate_models(c))
        # parse_sdd builds the normal form compile_cnf exports, so compiled
        # text reads back to the same text
        cases = [(Cnf(2, [(2, -1)]), Vtree.from_nested((1, 2)))]
        for _ in range(40):
            n = rng.randint(2, 7)
            cnf = random_cnf(rng, n)
            cases += [(cnf, vt) for vt in shaped_vtrees(rng, n)]
        for cnf, vt in cases:
            t = sdd_text(compile_cnf(cnf, vt))
            assert sdd_text(parse_sdd(t, vt)) == t

    def test_one_sided_elements(self):
        # normalization collapses single-element decisions into bare
        # conjunctions; the writer must give those their own lines
        from wmcvar.sddc import Cnf, compile_cnf
        vt = Vtree.balanced(3)
        c = compile_cnf(Cnf(3, [(-2, -3, -1), (2, 3, 1), (-1,)]), vt)
        c2 = parse_sdd(sdd_text(c), vt)
        assert sorted(enumerate_models(c2)) == sorted(enumerate_models(c))

    def test_constant_roots(self):
        vt = parse_vtree(VTREE_22)
        for root, kind in ((TRUE, 'T'), (FALSE, 'F')):
            c = parse_sdd(SDD_22, vt)
            c.root = root
            c2 = parse_sdd(sdd_text(c), vt)
            assert c2.kind[c2.root] == kind


def check_invariants(c):
    """The two construction invariants, reachable() against a set-based
    DFS, and the identity that stands for node scopes: node x's variables
    lie under vnode w exactly when w is an ancestor of x's vnode.
    Returns the number of splitting conjunctions seen."""
    vt = c.vt
    cs, vs = scopes(c), scopes(vt)
    for x, d in enumerate(c.dnode):
        assert [cs[x] & ~vs[w] == 0 for w in range(1, vt.n_nodes + 1)] \
            == [vt.is_ancestor(w, d) for w in range(1, vt.n_nodes + 1)]
    splits = 0
    for i, chs in enumerate(c.children):
        assert all(x < i for x in chs)
        v = c.dnode[i]
        if c.kind[i] == 'A' and len(chs) == 2 and not vt.is_leaf(v):
            sides = ['L' if vt.is_ancestor(vt.left[v], c.dnode[x]) else
                     'R' if vt.is_ancestor(vt.right[v], c.dnode[x]) else
                     None for x in chs]
            if sorted(sides) == ['L', 'R']:
                assert sides[0] == 'L'
                splits += 1
    seen, stack = set(), [c.root]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(c.children[i])
    assert c.reachable() == sorted(seen)
    return splits


def replay(c, reverse):
    """c rebuilt node by node through literal/conj/disj, every
    conjunction's children given in reverse order if reverse is set."""
    out = Circuit(c.vt)
    m = {FALSE: FALSE, TRUE: TRUE}
    for i in c.reachable():
        chs = [m[x] for x in c.children[i]]
        if c.kind[i] == 'L':
            m[i] = out.literal(c.lit[i])
        elif c.kind[i] == 'A':
            m[i] = out.conj(chs[::-1] if reverse else chs)
            assert out.conj(chs[::-1]) == out.conj(chs) == m[i]
        elif c.kind[i] == 'O':
            m[i] = out.disj(chs)
    out.root = m[c.root]
    out.deterministic_by_construction = c.deterministic_by_construction
    return out


class TestConstructionInvariants:
    def test_every_built_circuit(self):
        rng = seeded('construction-invariants')
        splits = 0
        for _ in range(15):
            n = rng.randint(3, 9)
            for vt in shaped_vtrees(rng, n):
                f, g = (compile_cnf(random_cnf(rng, n), vt) for _ in 'fg')
                false_vars = set(rng.sample(range(1, n + 1), 2))
                for c in (f, parse_sdd(sdd_text(f), vt),
                          normalize(f, false_vars), ite_circuit(f, g)[0]):
                    splits += check_invariants(c)
        for bn in demo_networks().values():
            binary = all(len(vals) == 2 for vals in bn.values)
            for enc in ('enc1', 'enc2') if binary else ('enc1',):
                pipe = MarginalPipeline(bn, enc)
                ev = {bn.names[-1]: bn.values[-1][0]}
                splits += check_invariants(pipe.circuit)
                splits += check_invariants(
                    pipe._circuit_for(pipe._resolve(ev)))
        assert splits > 1000

    def test_reversed_conjunctions(self):
        rng = seeded('reversed-conjunctions')
        for _ in range(10):
            n = rng.randint(3, 9)
            for vt in shaped_vtrees(rng, n):
                f, g = (compile_cnf(random_cnf(rng, n), vt) for _ in 'fg')
                rf, rg = replay(f, True), replay(g, True)
                of, og = replay(f, False), replay(g, False)
                assert sdd_text(rf) == sdd_text(of) == sdd_text(f)
                assert validate(rf) == validate(of)
                for exact in (False, True):
                    eng = MomentEngine(vt, random_weights(rng, n, exact))
                    got = (eng.exp(rf), eng.var(rf), eng.cov(rf, rg))
                    want = (eng.exp(of), eng.var(of), eng.cov(of, og))
                    assert repr(got) == repr(want)
