"""Reference values in double precision with no LAPACK call, for the library's factor routes.

The Robin T' that ``sturm._RobinFamily(n)`` builds is tridiag(-1, 2, -1)/h^2
on nodes 1..n-1, h = 1/n, coupled to node n by b = -sqrt(2)/h^2, so b^2 =
2/h^4.  Its eigenpairs are known in closed form: for j = 1..n-1 the eigenvalue
is mu_j = (4/h^2) sin^2(j pi / (2n)), and the unit eigenvector sqrt(2/n)
sin(j k pi / n) has a last entry that squares to q_j^2 = (2/n) sin^2(j pi / n).
Every sum over j is taken with ``math.fsum``.
"""

import math


def robin_spectrum(n: int) -> list[tuple[float, float]]:
    """(mu_j, q_j^2) for j = 1..n-1: the eigenvalues of the Robin T' on n nodes and their last weights."""
    h = 1.0 / n
    return [((4.0 / h**2) * math.sin(j * math.pi / (2 * n)) ** 2, (2.0 / n) * math.sin(j * math.pi / n) ** 2)
            for j in range(1, n)]


def robin_corner_terms(n: int, radius: float) -> tuple[float, float, complex, float]:
    """``CornerBlock.terms(radius)`` of the Robin block on n nodes, summed over T''s eigenpairs.

    b^2 g(sigma) = b^2 sum q_j^2 / (mu_j - sigma) at sigma = 0 and -radius,
    b^2 ((T' + i)^-1)_ll = b^2 sum q_j^2 (mu_j - i) / (mu_j^2 + 1), and
    Psi(T') = -2 sum atan2(1, mu_j).
    """
    b2 = 2.0 * n**4
    pairs = robin_spectrum(n)

    def schur(sigma):
        return b2 * math.fsum(q / (mu - sigma) for mu, q in pairs)

    resolvent = complex(math.fsum(q * mu / (mu * mu + 1.0) for mu, q in pairs),
                        -math.fsum(q / (mu * mu + 1.0) for mu, q in pairs))
    return schur(0.0), schur(-radius), b2 * resolvent, -2.0 * math.fsum(math.atan2(1.0, mu) for mu, _ in pairs)
