"""Reference moments computed without the wmcvar engine.

Run as a script, it prints the references of one workload run as JSON:

    python3 perfbench/reference.py --workload chain --seed 1

run.py starts it as a child process, so its memory stays out of the peak
resident memory the benchmark reports.  Nothing here imports wmcvar.

- Chain CNFs: a 2-state transfer matrix gives E[W]; a 4-state (pair)
  transfer matrix gives E[W_f W_g].  Under integer counting weights the
  same pass gives the exact model count.
- The small selector-identity CNF: its model count, by evaluating every
  assignment with numpy.
- Networks: a forward pass over the joint states of the variables that
  later variables still need as parents.  For the second moment it runs
  over pairs of such states.  Two choices of the same CPT column
  multiply to p_a p_b + (δ_ab p_a - p_a p_b)/θ.  Choices of different
  columns are independent.
"""

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402


# ---- CNFs -------------------------------------------------------------------


def _second(m):
    """2x2 second moments of (P, N), index 1 = positive literal."""
    mp, mn, vp, vn, cpn = m
    return ((vn + mn * mn, cpn + mp * mn), (cpn + mp * mn, vp + mp * mp))


def _chain_tables(clauses, n):
    """allowed[v][a][b]: clause v (on variables v, v+1) holds at x_v=a,
    x_{v+1}=b."""
    if len(clauses) != n - 1:
        raise ValueError('not a chain CNF')
    out = [None]
    for v, cl in enumerate(clauses, 1):
        if sorted(abs(x) for x in cl) != [v, v + 1]:
            raise ValueError('clause %r is not on variables %d, %d'
                             % (cl, v, v + 1))
        sign = {abs(x): x > 0 for x in cl}
        out.append([[(a == sign[v]) or (b == sign[v + 1]) for b in (0, 1)]
                    for a in (0, 1)])
    return out


def chain_exp(clauses, n, weights):
    """E[W] of a chain CNF; weights maps v to (muP, muN, ...), or None for
    the all-ones weights that count models (in integers)."""
    ok = _chain_tables(clauses, n)

    def mu(v, a):
        return 1 if weights is None else weights[v][1 - a]

    alpha = [mu(1, 0), mu(1, 1)]
    for v in range(1, n):
        alpha = [sum(alpha[a] for a in (0, 1) if ok[v][a][b]) * mu(v + 1, b)
                 for b in (0, 1)]
    return alpha[0] + alpha[1]


def chain_pair(f, g, n, weights):
    """E[W_f W_g] of two chain CNFs over the same variables."""
    okf, okg = _chain_tables(f, n), _chain_tables(g, n)
    sec = {v: _second(weights[v]) for v in range(1, n + 1)}
    beta = {(a, b): sec[1][a][b] for a in (0, 1) for b in (0, 1)}
    for v in range(1, n):
        m = sec[v + 1]
        beta = {(c, d): sum(x for (a, b), x in beta.items()
                            if okf[v][a][c] and okg[v][b][d]) * m[c][d]
                for c in (0, 1) for d in (0, 1)}
    return sum(beta.values())


def _bits(n):
    idx = np.arange(1 << n, dtype=np.int64)
    return [None] + [((idx >> (v - 1)) & 1).astype(bool)
                     for v in range(1, n + 1)]


def brute_sat(clauses, n):
    """Boolean vector over all 2^n assignments (bit v-1 is variable v)."""
    bits = _bits(n)
    sat = np.ones(1 << n, dtype=bool)
    for cl in clauses:
        hit = np.zeros(1 << n, dtype=bool)
        for x in cl:
            hit |= bits[abs(x)] if x > 0 else ~bits[abs(x)]
        sat &= hit
    return sat


def cnf_references(cnfs):
    """exp, var, cov and model count of each chain CNF."""
    n, weights, clauses = cnfs['n'], cnfs['weights'], cnfs['clauses']
    exp = [chain_exp(c, n, weights) for c in clauses]
    var = [chain_pair(c, c, n, weights) - e * e for c, e in zip(clauses, exp)]
    cov = [chain_pair(clauses[i], clauses[j], n, weights) - exp[i] * exp[j]
           for i, j in cnfs['cov_pairs']]
    return {'n_vars': n, 'exp': exp, 'var': var, 'cov': cov,
            'count': [chain_exp(c, n, None) for c in clauses]}


# ---- networks ---------------------------------------------------------------


class Net:
    """Index form of a network dict: parents as indices, CPT columns."""

    def __init__(self, net):
        vs = net['variables']
        self.names = [v['name'] for v in vs]
        index = {nm: i for i, nm in enumerate(self.names)}
        self.values = [list(v['values']) for v in vs]
        self.k = [len(v['values']) for v in vs]
        self.parents = [[index[p] for p in v['parents']] for v in vs]
        for i, ps in enumerate(self.parents):
            if any(p >= i for p in ps):
                raise ValueError('variables must follow their parents')
        # col[i][c][j] = Pr(value j of i | configuration c)
        self.col = [[[row[c] for row in v['cpt']]
                     for c in range(len(v['cpt'][0]))] for v in vs]
        self.theta = net['uncertainty']['theta']
        n = len(vs)
        self.last = [max([j for j in range(n) if i in self.parents[j]],
                         default=-1) for i in range(n)]

    def n_params(self, encoding):
        per = [1 if encoding == 'enc2' else self.k[i]
               for i in range(len(self.k))]
        return sum(per[i] * len(self.col[i]) for i in range(len(self.k)))

    def n_props(self, encoding):
        return self.n_params(encoding) + sum(self.k)

    def allowed(self, evidence):
        return {self.names.index(nm): [self.values[self.names.index(nm)]
                                       .index(val)]
                for nm, val in (evidence or {}).items()}

    def cov(self, i, c, a, b):
        p = self.col[i][c]
        return ((p[a] if a == b else 0) - p[a] * p[b]) / self.theta

    def forward(self, allowed, factor):
        """Sum over joint assignments (one per entry of `allowed`, each
        restricted by its evidence) of the product of factor(i, cfgs, vals)
        over the variables i in order."""
        sides = len(allowed)
        table, frontier = {(): 1.0}, []
        for i in range(len(self.k)):
            pos = {v: t for t, v in enumerate(frontier)}
            width = len(frontier)
            nxt = [v for v in frontier + [i] if self.last[v] > i]
            choices = [al.get(i, range(self.k[i])) for al in allowed]
            out = {}
            for key, acc in table.items():
                cfgs = []
                for s in range(sides):
                    c = 0
                    for p in self.parents[i]:
                        c = c * self.k[p] + key[s * width + pos[p]]
                    cfgs.append(c)
                for vals in itertools.product(*choices):
                    w = factor(i, cfgs, vals)
                    nk = tuple(vals[s] if v == i
                               else key[s * width + pos[v]]
                               for s in range(sides) for v in nxt)
                    out[nk] = out.get(nk, 0.0) + acc * w
            table, frontier = out, nxt
        return sum(table.values())

    def mean(self, evidence):
        return self.forward(
            [self.allowed(evidence)],
            lambda i, cfgs, vals: self.col[i][cfgs[0]][vals[0]])

    def pair(self, ev_x, ev_y, scale=None):
        """E[W_x W_y]; scale(i, c, a, b) multiplies covariance entries."""
        def factor(i, cfgs, vals):
            (cx, cy), (a, b) = cfgs, vals
            m = self.col[i][cx][a] * self.col[i][cy][b]
            if cx == cy:
                s = 1 if scale is None else scale(i, cx, a, b)
                m += s * self.cov(i, cx, a, b)
            return m

        return self.forward([self.allowed(ev_x), self.allowed(ev_y)], factor)

    def variance(self, evidence, scale=None):
        mu = self.mean(evidence)
        return self.pair(evidence, evidence, scale) - mu * mu

    def sweep(self, evidence, encoding, factor):
        """Variance after shrinking each parameter, keyed "i,c,j" like
        MarginalPipeline.parameters(): enc2 scales the whole column
        covariance, enc1 scales member j's variance by the factor and its
        covariances by the factor's square root."""
        mu = self.mean(evidence)
        root = math.sqrt(factor)
        out = {}
        for i in range(len(self.k)):
            for c in range(len(self.col[i])):
                for j in range(1 if encoding == 'enc2' else self.k[i]):
                    def scale(i2, c2, a, b, i=i, c=c, j=j):
                        if (i2, c2) != (i, c):
                            return 1
                        if encoding == 'enc2':
                            return factor
                        hits = (a == j) + (b == j)
                        return (1, root, factor)[hits]
                    out['%d,%d,%d' % (i, c, j)] = \
                        self.pair(evidence, evidence, scale) - mu * mu
        return out

    def count(self, evidence, encoding):
        """Models of the encoding conjoined with the evidence.  enc2: every
        state consistent with the evidence fixes the parameter of its
        active column, the other parameters are free: 2^(params - |e|).
        enc1: parameters are fixed by the state: prod of k over free
        variables."""
        fixed = self.allowed(evidence)
        if encoding == 'enc2':
            return 2 ** (self.n_params('enc2') - len(fixed))
        return math.prod(self.k[i] for i in range(len(self.k))
                         if i not in fixed)


def network_references(network):
    net = Net(network['net'])
    enc, evs = network['encoding'], network['evidence']
    return {
        'queries': [{'mean': net.mean(e), 'var': net.variance(e)}
                    for e in evs],
        'sweep': net.sweep(evs[0], enc, workloads.SWEEP_FACTOR),
        'params': net.n_params(enc),
        'props': net.n_props(enc),
    }


def references(inputs):
    ite = inputs['ite']
    out = {'network': network_references(inputs['network']),
           'ite': {'n_vars': ite['n'],
                   'count': int(brute_sat(ite['clauses'][0],
                                          ite['n']).sum())}}
    cnfs = inputs['cnfs']
    if cnfs['vtree'] == 'network':
        net = Net(inputs['network']['net'])
        enc = inputs['network']['encoding']
        evs = cnfs['evidence']
        q = out['network']['queries']
        out['cnfs'] = {
            'n_vars': net.n_props(enc),
            'exp': [q[0]['mean'], q[1]['mean']],
            'var': [q[0]['var'], q[1]['var']],
            'cov': [net.pair(evs[i], evs[j])
                    - net.mean(evs[i]) * net.mean(evs[j])
                    for i, j in cnfs['cov_pairs']],
            'count': [net.count(e, enc) for e in evs],
        }
    else:
        out['cnfs'] = cnf_references(cnfs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workload', required=True, choices=workloads.WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    args = ap.parse_args(argv)
    refs = references(workloads.make(args.workload, args.seed))
    sys.stdout.write(json.dumps(refs) + '\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
