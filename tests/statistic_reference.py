"""Each built-in statistic written straight from its definition, as plain
loops over a word x_1..x_n (1-indexed).

The oracle and the transfer kernel read one increment form per statistic
(`ntcodes.codes.FORMS`), so a wrong entry there would pass every
route-against-oracle check.  These definitions share nothing with it:

* omega = sum_i i x_i, sigma = sum_i x_i, a linear form sum_i h_i x_i;
* gamma_gt, gamma_ge, lambda_lt, lambda_le = the sum of the positions
  i in 1..n-1 where x_i > x_(i+1), x_i >= x_(i+1), x_i < x_(i+1),
  x_i <= x_(i+1) respectively;
* delta = the number of positions i in 1..n-1 where x_i > x_(i+1).
"""


def _holds(kind, left, right):
    if kind in ("gamma_gt", "delta"):
        return left > right
    if kind == "gamma_ge":
        return left >= right
    if kind == "lambda_lt":
        return left < right
    if kind == "lambda_le":
        return left <= right
    raise ValueError(kind)


def reference_statistic(stat, word):
    """The value of a built-in `ntcodes.codes.Statistic` on a word."""
    x = (None, *word)  # x[1..n]
    n = len(word)
    total = 0
    if stat.kind in ("omega", "sigma", "linear"):
        for i in range(1, n + 1):
            if stat.kind == "omega":
                weight = i
            elif stat.kind == "sigma":
                weight = 1
            else:
                weight = stat.h[i - 1]
            total += weight * x[i]
        return total
    for i in range(1, n):
        if _holds(stat.kind, x[i], x[i + 1]):
            total += 1 if stat.kind == "delta" else i
    return total
