"""Explicit low-agreement function families over GF(q).

The recoloring machinery of the paper (Procedure Arb-Recolor, Section 5;
Kuhn's defective coloring, Lemma 2.1; Linial's coloring as the zero-defect
special case) needs, for a color space ``[M]``, a family of functions
``{ϕ_x : x ∈ [M]}`` from a set A to a set B such that any two distinct
functions agree on at most ``k`` points of A.

The paper invokes an existential (probabilistic) construction from
[Kuhn SPAA'09, Lemma 4.3].  We use Linial's *explicit* construction
instead: with ``A = B = GF(q)`` and ``ϕ_x`` the polynomial whose
coefficient vector is the base-``q`` representation of ``x`` (degree ≤ D),
two distinct polynomials of degree ≤ D agree on at most ``D`` points.
This keeps every node's computation deterministic and local, at the cost of
a polylog factor in the final color count (absorbed by all the paper's
statements).  See README, *Substitutions and ablations*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidParameterError
from .primes import integer_nth_root, is_prime, next_prime


@dataclass(frozen=True)
class PolynomialFamily:
    """The family of polynomials of degree ≤ ``degree`` over GF(``q``).

    Function index ``x`` (a color in ``[0, q^(degree+1))``) denotes the
    polynomial whose base-``q`` digits are its coefficients (least
    significant digit = constant term).  Key property: two distinct indices
    give polynomials agreeing on at most ``degree`` of the ``q`` points.
    """

    q: int
    degree: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParameterError(f"family modulus {self.q} is not prime")
        if self.degree < 0:
            raise InvalidParameterError("family degree must be >= 0")

    @property
    def size(self) -> int:
        """Number of distinct functions, q^(degree+1)."""
        return self.q ** (self.degree + 1)

    @property
    def agreement(self) -> int:
        """Maximum number of points two distinct functions agree on."""
        return self.degree

    @property
    def num_pairs(self) -> int:
        """|A| · |B| = q², the size of the recolored color space."""
        return self.q * self.q

    def evaluate(self, x: int, alpha: int) -> int:
        """ϕ_x(alpha): evaluate polynomial ``x`` at point ``alpha`` (Horner)."""
        if not (0 <= x < self.size):
            raise InvalidParameterError(
                f"function index {x} outside [0, {self.size})"
            )
        if not (0 <= alpha < self.q):
            raise InvalidParameterError(f"point {alpha} outside GF({self.q})")
        # digits of x base q, most significant first, evaluated by Horner
        digits = []
        rem = x
        for _ in range(self.degree + 1):
            digits.append(rem % self.q)
            rem //= self.q
        acc = 0
        for coeff in reversed(digits):
            acc = (acc * alpha + coeff) % self.q
        return acc

    def row(self, x: int) -> tuple:
        """The full evaluation vector (ϕ_x(0), ..., ϕ_x(q−1))."""
        return tuple(self.evaluate(x, alpha) for alpha in range(self.q))

    def encode_pair(self, alpha: int, beta: int) -> int:
        """Encode the new color ⟨alpha, beta⟩ as an int in [0, q²)."""
        return alpha * self.q + beta

    def decode_pair(self, color: int) -> tuple:
        """Inverse of :meth:`encode_pair`."""
        return divmod(color, self.q)


def select_family(
    num_colors: int,
    conflict_degree: int,
    defect_prev: int,
    defect_new: int,
) -> PolynomialFamily:
    """Choose the cheapest polynomial family satisfying Lemma 5.1's condition.

    Parameters mirror the lemma: the current coloring uses ``num_colors``
    colors (M) and has (arb)defect ``defect_prev`` (d'); the step may emit a
    coloring of (arb)defect ``defect_new`` (d); every vertex has at most
    ``conflict_degree`` conflicting neighbours (Δ for defective coloring,
    the orientation out-degree A for arbdefective coloring).

    The condition is ``|A| > k · (A_conf − d') / (d − d' + 1)`` with
    ``k = degree`` for polynomial families, plus ``q^(degree+1) ≥ M`` so
    every current color indexes a distinct function.  Among all degrees we
    pick the one minimising q (and hence the new color count q²).
    """
    if num_colors < 1:
        raise InvalidParameterError("select_family: need at least one color")
    if defect_new < defect_prev:
        raise InvalidParameterError(
            "select_family: the defect budget cannot shrink "
            f"({defect_new} < {defect_prev})"
        )
    if conflict_degree < 0:
        raise InvalidParameterError("select_family: negative conflict degree")

    effective = max(0, conflict_degree - defect_prev)
    denom = defect_new - defect_prev + 1
    best: PolynomialFamily | None = None
    # Degrees beyond log2(M) cannot reduce q further (q >= 2 always); cap
    # the search generously.
    max_degree = max(2, num_colors.bit_length() + 2)
    for degree in range(1, max_degree + 1):
        # strict inequality: q > degree * effective / denom
        q_conflict = (degree * effective) // denom + 1
        root = integer_nth_root(max(0, num_colors - 1), degree + 1)
        q_size = root + 1  # smallest q with q^(degree+1) >= num_colors
        q = next_prime(max(q_conflict, q_size, 2))
        candidate = PolynomialFamily(q=q, degree=degree)
        if candidate.size < num_colors:
            # next_prime rounding can under-shoot the size constraint by one
            candidate = PolynomialFamily(q=next_prime(q + 1), degree=degree)
        if best is None or candidate.q < best.q:
            best = candidate
        if q_size <= 2 and q_conflict <= 2:
            break  # increasing the degree can no longer help
    assert best is not None
    return best
