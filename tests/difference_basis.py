"""Slow routes of the difference-basis rewrite, kept for the tests: the
inverse of `to_difference_basis`, which maps a certificate back to the
constant it certifies, and the substitution itself done with Poly
arithmetic, which `to_difference_basis` must reproduce exactly."""

from doubleschur.poly import NotShiftInvariant, Poly


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


def reference_to_difference_basis(p, m):
    """Oracle: substitute t_i -> u_i + ... + u_{m-1} + t_m term by term with
    Poly arithmetic (slot j < m is u_j, slot m the residual t_m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    p = p.t_only()
    if p.max_t_index() > m:
        raise ValueError(f"polynomial involves t-indices beyond t{m}")
    images = {i: sum((Poly.t(j) for j in range(i, m)), Poly.t(m))
              for i in range(1, m + 1)}
    result = Poly.zero(0)
    for _, te, c in p.iter_terms():
        term = Poly.const(c)
        for j, e in te.items():
            term = term * images[j] ** e
        result = result + term
    for _, te, c in result.iter_terms():
        if m in te:
            # largest first, so this is the largest term that keeps t_m
            body = "*".join((f"t{m}" if j == m else f"u{j}") + (f"^{e}" if e > 1 else "")
                            for j, e in sorted(te.items()))
            text = body if abs(c) == 1 else f"{abs(c)}*{body}"
            raise NotShiftInvariant("not shift-invariant",
                                    offender=text if c > 0 else f"-{text}")
    return result.kill_t_above(m - 1)
