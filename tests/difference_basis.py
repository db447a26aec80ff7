"""The inverse of `to_difference_basis`, kept for the tests: it maps a
certificate back to the constant it certifies."""

from doubleschur.poly import Poly


def from_difference_basis(q, m):
    """Substitute u_i -> t_i - t_{i+1} term by term with Poly arithmetic;
    inverse of to_difference_basis on its image, and independent of the
    shear that to_difference_basis runs on packed keys."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    q = q.t_only()
    if q.max_t_index() > m - 1:
        raise ValueError(f"difference-basis polynomial may only use u1..u{m - 1}")
    result = Poly.zero(0)
    for _, te, c in q.iter_terms():
        term = Poly.const(c)
        for j, e in te.items():
            term = term * (Poly.t(j) - Poly.t(j + 1)) ** e
        result = result + term
    return result
