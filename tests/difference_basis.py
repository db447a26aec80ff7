"""The inverse of `to_difference_basis`, kept for the tests: it maps a
certificate back to the constant it certifies."""

from doubleschur.poly import Poly, _shear


def from_difference_basis(q, m):
    """Substitute u_i = t_i - t_{i+1} back into a difference-basis
    polynomial; inverse of to_difference_basis on its image."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    q = q.t_only()
    if q.max_t_index() > m - 1:
        raise ValueError(f"difference-basis polynomial may only use u1..u{m - 1}")
    # u_i -> t_i - t_{i+1} for i = m-1 .. 1, so that slot i+1 already
    # carries t_{i+1} when slot i is rewritten
    q = Poly(0, m, q.kill_t_above(m)._widened(m))
    for i in range(m - 1, 0, -1):
        q = _shear(q, i, -1)
    return q

