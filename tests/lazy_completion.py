"""Dense completion of a lazily drawn Gaussian matrix, for tests.

After a `_LazyGaussian` has answered some queries, the conditional law of
the whole matrix given those answers is known in closed form. `complete`
samples one dense matrix from it: it agrees with every answer the
operator gave, and, over the operator's randomness and `rng`, its entries
are iid standard normal.
"""

import numpy as np


def complete(op, rng):
    """One dense W consistent with every product `op` has answered.

    W = Y Q.T + R Z.T - R R.T Y Q.T + (I - R R.T) G (I - Q Q.T) with G
    standard normal from `rng`.
    """
    # the answers so far in column form: Y = W Q and Z = W.T R
    (kq, kr), (dq, dr), (iq, ir) = op._known, op._dirs, op._images
    Q, Y, R, Z = dq[:kq].T, iq[:kq].T, dr[:kr].T, ir[:kr].T
    n = op.shape[0]
    G = rng.standard_normal((n, n))
    eye = np.eye(n)
    return (Y @ Q.T + R @ Z.T - R @ (R.T @ Y) @ Q.T
            + (eye - R @ R.T) @ G @ (eye - Q @ Q.T))
