"""Seeded input generators for the benchmark workloads.

Everything here is plain Python data (clause lists, moment tuples, network
dicts in the package's JSON schema), so the same inputs feed the program
(through run.py) and the references (through reference.py), and this
module imports nothing from wmcvar.

Every workload carries three families of inputs, because every
end-to-end metric is reported on every workload:

- ``cnfs``: CNFs over one shared vtree shape with one shared weight table;
  the moment operations (exp, var, cov, count, exact var) run on their
  compiled circuits;
- ``network``: a Bayesian network with query evidence sets, for the
  marginal queries and the sensitivity sweep;
- ``ite``: a small CNF pair for the selector covariance identity.

The workload decides the shape of all three.  Structural counts (variables,
clauses, occurrences per variable) and the network structure are fixed per
workload; the seed picks polarities, which variables meet in a clause, CPT
entries, weights and evidence values.  That keeps the cost of one run close
to the cost of any other seed's run.
"""

import random

WORKLOADS = ('chain', 'bn_binary', 'bn_multivalued')

CHAIN_VARS = 400            # variables of each chain CNF
CHAIN_NET_VARS = 12         # binary Markov-chain network
BIN_NET_VARS = 8            # windowed binary network, enc2
BIN_WINDOW, BIN_PARENTS = 3, 2
MV_NET_VARS = 5             # windowed 3-valued network, enc1
MV_VALUES, MV_WINDOW, MV_PARENTS = 3, 2, 1
ITE_VARS, ITE_DEGREE = 8, 3    # the selector-identity pair, balanced vtree
THETA = 20.0                # effective sample size of every CPT column
SWEEP_FACTOR = 0.1          # variance shrink of the sensitivity sweep


def _signed(vs, rng):
    return tuple(v if rng.random() < 0.5 else -v for v in vs)


def chain_cnf(n, rng):
    """2-CNF chain: clause v is (±x_v ∨ ±x_{v+1}) with random polarities."""
    return [_signed((v, v + 1), rng) for v in range(1, n)]


def regular_3cnf(n, degree, rng):
    """Random 3-CNF in which every variable occurs exactly `degree` times.

    Fixing the occurrence count (rather than drawing clauses uniformly)
    narrows the spread of compiled circuit sizes between seeds.
    """
    if n * degree % 3:
        raise ValueError('n * degree must be a multiple of 3')
    while True:
        pool = [v for v in range(1, n + 1) for _ in range(degree)]
        rng.shuffle(pool)
        triples = [pool[i:i + 3] for i in range(0, len(pool), 3)]
        if all(len(set(t)) == 3 for t in triples):
            return [_signed(sorted(t), rng) for t in triples]


def var_moments(n, rng, lo=0.6, hi=0.75):
    """Per-variable (muP, muN, varP, varN, covPN) with two-decimal means.

    Short decimals keep the exact (Fraction) runs' numbers small.  Means
    near 0.7 keep E[W] and Var[W] of a few-hundred-variable chain well
    inside the float range (means near 0.5 underflow the variance of long
    chains to 0).
    """
    out = {}
    for v in range(1, n + 1):
        mp = rng.randint(round(lo * 100), round(hi * 100)) / 100
        mn = rng.randint(round(lo * 100), round(hi * 100)) / 100
        vp = rng.randint(2, 9) / 1000
        vn = rng.randint(2, 9) / 1000
        out[v] = (mp, mn, vp, vn, -min(vp, vn) / 2)
    return out


def _cpt_column(k, rng):
    """k probabilities in hundredths, each at least 0.05, summing to 1."""
    while True:
        cuts = sorted(rng.sample(range(5, 96), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [100])]
        if min(parts) >= 5:
            return [p / 100 for p in parts]


def _network(parents, k, rng):
    n = len(parents)
    names = ['X%d' % i for i in range(n)]
    variables = []
    for i, ps in enumerate(parents):
        cols = [_cpt_column(k, rng) for _ in range(k ** len(ps))]
        variables.append({
            'name': names[i],
            'values': ['v%d' % j for j in range(k)],
            'parents': [names[p] for p in ps],
            'cpt': [[col[j] for col in cols] for j in range(k)],
        })
    return {'variables': variables, 'uncertainty': {'theta': THETA}}


def window_parents(n, window, n_parents):
    """Variable i gets min(i, n_parents) parents: the farthest variable of
    the window of `window` before it, and the nearest ones.

    The structure is the same for every seed: when the seed drew the
    parents within the window, the number of variables that later ones
    still depend on (the circuit's width) changed with it, and query,
    moment and sweep times spread by about 0.3 between seeds.
    """
    out = []
    for i in range(n):
        k = min(i, n_parents)
        far = [max(0, i - window)] if k else []
        out.append(far + list(range(i - k + 1, i)))
    return out


def evidence_sets(net, rng):
    """Three evidence dicts of two variables each.  The observed positions
    are fixed (a quarter in and the last; the first and the middle; just
    before the middle and three quarters in) and the seed picks the
    values: where a network is observed changes the conditioned circuit's
    size, and drawing the positions made its timings spread by a third
    between seeds."""
    variables = net['variables']
    n = len(variables)
    positions = ((n // 4, n - 1), (0, n // 2), (n // 2 - 1, 3 * n // 4))
    return [{variables[i]['name']: rng.choice(variables[i]['values'])
             for i in pair} for pair in positions]


def make(workload, seed):
    """All inputs of one workload run, as plain data.

    Returns a dict with
      cnfs:     {'n', 'vtree' ('right_linear' | 'network'),
                 'clauses': [clause lists], 'weights': {v: moments} | None,
                 'cov_pairs': [(i, j)]}
                (for network workloads the clauses are empty: the CNFs are
                the network's encoding plus evidence units, built by run.py)
      network:  network dict, 'encoding', 'evidence' (list of dicts)
      ite:      {'n', 'clauses': [two clause lists]}
    """
    if workload not in WORKLOADS:
        raise ValueError('unknown workload %r' % workload)
    rng = random.Random('%s/%d' % (workload, seed))
    if workload == 'chain':
        cnfs = {'n': CHAIN_VARS, 'vtree': 'right_linear',
                'clauses': [chain_cnf(CHAIN_VARS, rng) for _ in range(2)],
                'weights': var_moments(CHAIN_VARS, rng),
                'cov_pairs': [(0, 1)]}
        parents = [[i - 1] if i else [] for i in range(CHAIN_NET_VARS)]
        net, encoding = _network(parents, 2, rng), 'enc2'
    elif workload == 'bn_binary':
        cnfs = None
        parents = window_parents(BIN_NET_VARS, BIN_WINDOW, BIN_PARENTS)
        net, encoding = _network(parents, 2, rng), 'enc2'
    else:
        cnfs = None
        parents = window_parents(MV_NET_VARS, MV_WINDOW, MV_PARENTS)
        net, encoding = _network(parents, MV_VALUES, rng), 'enc1'
    evidence = evidence_sets(net, rng)
    if cnfs is None:
        # the network's encoding conditioned on the first two evidence sets
        cnfs = {'n': None, 'vtree': 'network', 'clauses': [], 'weights': None,
                'evidence': evidence[:2], 'cov_pairs': [(0, 1)]}
    ite = {'n': ITE_VARS,
           'clauses': [regular_3cnf(ITE_VARS, ITE_DEGREE, rng)
                       for _ in range(2)]}
    return {'workload': workload, 'seed': seed, 'cnfs': cnfs,
            'network': {'net': net, 'encoding': encoding,
                        'evidence': evidence},
            'ite': ite}
