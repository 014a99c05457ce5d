"""Shared builders for the test suite."""

import random
import zlib
from fractions import Fraction

from wmcvar.circuit import FALSE, TRUE, Circuit, Vtree
from wmcvar.sddc import Cnf, SddBuilder, compile_cnf
from wmcvar.weights import VarMoments, WeightModel


def random_vtree(rng, n):
    if rng.random() < 0.4:
        return Vtree.right_linear(n)
    if rng.random() < 0.5:
        return Vtree.balanced(n)
    return random_shape_vtree(rng, n)


def random_shape_vtree(rng, n):
    """Random binary shape over a shuffled leaf order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)

    def build(lo, hi):
        if hi - lo == 1:
            return order[lo]
        mid = rng.randint(lo + 1, hi - 1)
        return (build(lo, mid), build(mid, hi))

    return Vtree.from_nested(build(0, n))


def scopes(x):
    """The variable bitset of every node of a Vtree or a Circuit, built
    from the leaves or literals up (children have smaller ids)."""
    if isinstance(x, Vtree):
        out = [0] * (x.n_nodes + 1)
        for i in range(1, x.n_nodes + 1):
            out[i] = out[x.left[i]] | out[x.right[i]] if x.left[i] \
                else 1 << x.var[i]
        return out
    out = []
    for k, sl, chs in zip(x.kind, x.lit, x.children):
        s = 1 << abs(sl) if k == 'L' else 0
        for ch in chs:
            s |= out[ch]
        out.append(s)
    return out


def random_cnf(rng, n, max_clauses=6, max_width=3):
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf(n, clauses)


def random_circuit(rng, n):
    """A random nontrivial st-d-DNNF via the compiler."""
    vt = random_vtree(rng, n)
    for _ in range(50):
        c = compile_cnf(random_cnf(rng, n), vt)
        if c.kind[c.root] not in ('F', 'T'):
            return c
    raise RuntimeError('no nontrivial circuit after 50 draws')


def random_gates(rng, n, gates):
    """Random conj and disj gates over the literals of n variables on a
    random vtree, the last one the root: gates of them, or as many as
    drawn from the range gates once the vtree is drawn."""
    c = Circuit(random_vtree(rng, n))
    nodes = [FALSE, TRUE] + [c.literal(s * v) for v in range(1, n + 1)
                             for s in (1, -1)]
    for _ in range(gates if isinstance(gates, int) else rng.choice(gates)):
        chs = rng.sample(nodes, rng.randint(0, 3))
        nodes.append(c.conj(chs) if rng.random() < 0.5 else c.disj(chs))
    c.root = nodes[-1]
    return c


def random_weights(rng, n, exact=False):
    """Random per-variable moments with |cov| <= sqrt(varP*varN)."""
    vs = {}
    for v in range(1, n + 1):
        if exact:
            muP = Fraction(rng.randint(0, 8), 8)
            muN = Fraction(rng.randint(0, 8), 8)
            vP = Fraction(rng.randint(0, 4), 16)
            vN = Fraction(rng.randint(0, 4), 16)
            lim = min(vP, vN)
            cov = Fraction(rng.randint(-lim.numerator, lim.numerator),
                           lim.denominator) if lim else Fraction(0)
        else:
            muP = rng.uniform(-1, 1.5)
            muN = rng.uniform(-1, 1.5)
            vP = rng.uniform(0, 0.5)
            vN = rng.uniform(0, 0.5)
            lim = (vP * vN) ** 0.5
            cov = rng.uniform(-lim, lim)
        vs[v] = VarMoments(muP, muN, vP, vN, cov)
    return WeightModel(vs)


def complementary_weights(n, mu, s2):
    """P with mean mu, N = 1 - P: same variance, fully anticorrelated."""
    m = VarMoments(mu, 1 - mu, s2, s2, -s2)
    return WeightModel({v: m for v in range(1, n + 1)})


def example_circuit():
    """(-1&2&-3&4) | (1&2&-3&4) | (1&2&3&-4) over vtree ((1,2),(3,4))."""
    vt = Vtree.from_nested(((1, 2), (3, 4)))
    b = SddBuilder(vt)

    def cube(*lits):
        node = None
        for ell in lits:
            leaf = b.literal(abs(ell)) if ell > 0 else b.neg(b.literal(-ell))
            node = leaf if node is None else b.apply(node, leaf, 'and')
        return node

    f = b.apply(b.apply(cube(-1, 2, -3, 4), cube(1, 2, -3, 4), 'or'),
                cube(1, 2, 3, -4), 'or')
    return b.to_circuit(f)


def example_variance(mu, s2):
    # polynomial in s2 obtained by expanding the three-model function's
    # second moment symbolically; frozen before the engine was written
    t1 = 2 * mu ** 2 - 2 * mu ** 3 - 2 * mu ** 4 + 4 * mu ** 6
    t2 = 1 - 2 * mu + 2 * mu ** 2 + 6 * mu ** 4
    t3 = 2 + 4 * mu ** 2
    return t1 * s2 + t2 * s2 ** 2 + t3 * s2 ** 3 + s2 ** 4


def outcome(run):
    """(exception type, message) if run() raises, else what it returns."""
    try:
        return run()
    except Exception as e:
        return type(e), str(e)


def seeded(name):
    return random.Random(zlib.crc32(name.encode()))
