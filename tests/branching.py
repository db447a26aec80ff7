"""The restriction of a double Schur polynomial to a torus-fixed point by
the branching rule on the last variable, kept for the tests as an oracle
independent of the excited-diagram sum of `schur._localization`."""

from doubleschur.poly import DEG_LIMIT, F, DegreeOverflow, Poly, _multiply_into, _pooled
from doubleschur.schur import _branches


def branching_localization(kappa, mu, n, memo):
    """The double Schur polynomial of a partition kappa in x1..xn at the
    fixed point of the partition mu, x_k = -t_{a_k} with
    a_k = mu_k + n - k + 1, as an arity-0 Poly at t-width a_1; kappa and mu
    are normalized, of at most n parts.

    Evaluated by the branching of `schur._schur_groups` (`_branches`) with
    x_j = -t_{a_j}: each box of the strip nu/rho, of t-index c, is the
    linear form t_c - t_{a_j}, and s_() = 1.  Two exact shortcuts prune
    it: a strip holding the index a_j has a zero factor, and s_nu in
    x1..xj vanishes at the point unless nu lies inside (mu_1 + n - j, ...,
    mu_j + n - j), since the point is that partition's fixed point in j
    variables (Molev-Sagan, Trans. AMS 351, 1999).  So kappa outside mu
    gives 0.  `memo` is a dict shared between points: s_nu in x1..xj reads
    only a_1..a_j (a_1 is also the t-width), so it maps (nu, a_1, ..., a_j)
    to that value's term dict, and points with a common prefix share their
    lower levels.  Each value is stored through `memo` as its pool of
    packed monomials (`poly._pooled`; no shape key is an int)."""
    if sum(kappa) >= DEG_LIMIT:
        raise DegreeOverflow("product degree exceeds the packed monomial bound")
    a = [p + n - k for k, p in enumerate(mu + (0,) * (n - len(mu)))]
    tw = a[0]
    unit = [1 << F * tw | 1 << F * (tw - c) for c in range(tw + 1)]

    def value(nu, j):
        if not nu:
            return {0: 1}
        got = memo.get((nu, *a[:j]))
        if got is not None:
            return got
        got, aj = {}, a[j - 1]
        if len(nu) <= j and all(p <= a[k] + k - j for k, p in enumerate(nu)):
            products = []
            for rho, indices in _branches(nu, j):
                below = aj not in indices and value(rho, j - 1)
                if below:
                    # the product of the t_c - t_{a_j}; no two of its
                    # monomials meet, since a_j is not among the distinct c
                    strip = {0: 1}
                    for c in indices:
                        strip = {k + u: v * sign for k, v in strip.items()
                                 for u, sign in ((unit[c], 1), (unit[aj], -1))}
                    products.append((got, 1, below, strip))
            _multiply_into(products)
        memo[(nu, *a[:j])] = got = _pooled(got, memo)
        return got

    return Poly(0, tw, value(kappa, n))
