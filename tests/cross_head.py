"""Monte Carlo statistics between two output heads, for tests.

The library's one estimator, `empirical_suite`, reads the last and the
summed heads. Criterion 02 and `tests/test_oracle.py` also need the
statistics between readouts at two different time steps, which vanish
at infinite width because distinct heads have independent output
weights. This helper runs the same lazy draws through the oracle's own
trial pieces, every trial in one working set, as `empirical_suite` does.
Head indices are used as given.
"""

import numpy as np

from rntk.oracle import _estimate, _input_pair, _run_net, _trial_seeds, _WorkingSet


def empirical_cross_head(x, x_prime, params, *, width, trials, seed=0, head_a, head_b):
    """(products, inners): estimates of E[f^(head_a)(x) f^(head_b)(x')] and
    of the gradient inner product between the two heads."""
    x2 = _input_pair(x, x_prime)
    T = x2.shape[0]
    seeds = _trial_seeds(seed, width, trials)
    Csel = np.zeros((T, 2))
    Csel[head_a, 0] = 1.0
    Csel[head_b, 1] = 1.0
    work = _WorkingSet(params.depth_L, width, *x2.shape, Csel.shape[1])
    prods = np.empty(trials)
    inners = np.empty(trials)
    for i, child in enumerate(seeds):
        heads, (inners[i],) = _run_net(params, child, x2, Csel, [(0, 1)], work)
        prods[i] = heads[head_a, 0] * heads[head_b, 1]
    return _estimate(prods, width), _estimate(inners, width)
