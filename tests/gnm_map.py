"""The generalized Newton transition map over every sign pattern.

One GNM step from the sign pattern D solves (A - D) x = b, which is the
oracle's solve for pattern D.  So one ``pattern_solve`` over all 2^n
patterns gives the map D -> D(x_D), and from it the number of steps
``gnm_solve`` takes from every start x0 in {-1, +1}^n.
"""

import numpy as np

from avekit.linalg import DEFAULT_RANK_TOL, pattern_solve


def run_lengths(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps from every start, the singular flags, and the solutions x_D.

    Index D numbers the sign patterns in ``itertools.product((-1, 1),
    repeat=n)`` order; ``x_D`` has a row for each nonsingular pattern, in
    that order.  A fixed pattern, D(x_D) = D, takes one step: x_D solves
    the equation.  Any other nonsingular pattern takes one step more than
    D(x_D).  A singular start, and a run that reaches a singular pattern or
    a cycle, counts as unbounded (inf).
    """
    n = len(b)
    singular, xs, _ = pattern_solve(a, b, DEFAULT_RANK_TOL, 0, 2**n)
    number = np.arange(2**n)
    after = number.copy()
    after[~singular] = (xs > 0) @ (1 << np.arange(n - 1, -1, -1))
    fixed = ~singular & (after == number)
    steps = np.where(fixed, 1.0, np.inf)
    walks = ~singular & ~fixed
    # each sweep settles the starts one transition further from a fixed
    # pattern; starts still unbounded after 2^n sweeps never settle
    for _ in range(2**n):
        settled = np.where(walks, 1.0 + steps[after], steps)
        if np.array_equal(settled, steps):
            break
        steps = settled
    return steps, singular, xs
