"""The oracle's suites written out entry by entry, as references for its derived ones.

`oracle._suite_trial` and `oracle.analytic_suite` derive their eight
(architecture, CK/NTK) entries from `Variant.bidirectional` and
`Variant.pooled`. These tables name every entry instead: a bidirectional
output adds the forward and the reversed net's heads, and a pooled one sums
a net's heads over time.
"""

from rntk import Arch, flip, kernel_pair


def suite_trial_table(forward, backward):
    """One trial's values from the (heads, [ntk_last, ntk_avg]) of its two nets."""
    (heads1, (ntk_last, ntk_avg)), (heads2, (bwd_last, bwd_avg)) = forward, backward
    T = heads1.shape[0]
    last1, last2 = heads1[T - 1], heads2[T - 1]
    sum1, sum2 = heads1.sum(axis=0), heads2.sum(axis=0)
    return {
        (Arch.RNN, "ck"): float(last1[0] * last1[1]),
        (Arch.RNN_AVG, "ck"): float(sum1[0] * sum1[1]),
        (Arch.RNN, "ntk"): ntk_last,
        (Arch.RNN_AVG, "ntk"): ntk_avg,
        (Arch.BI_RNN, "ck"): float((last1[0] + last2[0]) * (last1[1] + last2[1])),
        (Arch.BI_RNN_AVG, "ck"): float((sum1[0] + sum2[0]) * (sum1[1] + sum2[1])),
        (Arch.BI_RNN, "ntk"): ntk_last + bwd_last,
        (Arch.BI_RNN_AVG, "ntk"): ntk_avg + bwd_avg,
    }


def analytic_table(x, x_prime, params):
    """`analytic_suite`, in its key order: the rows of `rntk verify`."""
    fwd = kernel_pair(x, x_prime, params)
    bwd = kernel_pair(flip(x), flip(x_prime), params)
    return {
        (Arch.RNN, "ck"): fwd.ck_last,
        (Arch.RNN, "ntk"): fwd.ntk_last,
        (Arch.RNN_AVG, "ck"): fwd.ck_avg,
        (Arch.RNN_AVG, "ntk"): fwd.ntk_avg,
        (Arch.BI_RNN, "ck"): fwd.ck_last + bwd.ck_last,
        (Arch.BI_RNN, "ntk"): fwd.ntk_last + bwd.ntk_last,
        (Arch.BI_RNN_AVG, "ck"): fwd.ck_avg + bwd.ck_avg,
        (Arch.BI_RNN_AVG, "ntk"): fwd.ntk_avg + bwd.ntk_avg,
    }
