"""Weinstein-handle bookkeeping: handle lists, Euler characteristics,
homology profiles, Stein obstructions, and the classification fact tables.

Homology is never computed from a chain complex; only the specific
closed-form cases used downstream are implemented (a Gysin sequence over a
sphere, a single-handle Mayer-Vietoris rank bump), each as an explicit
formula.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import Checked, DomainError
from .reports import ConditionReport


class _Handle(NamedTuple):
    ambient_dim: int
    index: int
    provenance: str = ""


class Handle(Checked, _Handle):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.index <= self.ambient_dim:
            raise DomainError(
                f"handle index {self.index} out of range 0..{self.ambient_dim}")
        return self


class _HomologyProfile(NamedTuple):
    groups: tuple[tuple[int, tuple[int, ...]], ...]


class HomologyProfile(Checked, _HomologyProfile):
    """Graded abelian groups: per degree a free rank and a canonical
    nondecreasing list of cyclic torsion orders."""

    __slots__ = ()

    def __new__(cls, groups):
        fixed = []
        for rank, torsion in groups:
            if rank < 0:
                raise DomainError("negative rank")
            tors = tuple(sorted(torsion))
            if any(t < 2 for t in tors):
                raise DomainError("torsion orders must be >= 2")
            fixed.append((rank, tors))
        return super().__new__(cls, tuple(fixed))

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    def rank(self, degree: int) -> int:
        return self.groups[degree][0] if 0 <= degree <= self.top_degree else 0

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self.groups[degree][1] if 0 <= degree <= self.top_degree else ()

    def __str__(self):
        def show(r, t):
            parts = ["Z"] * r + [f"Z/{o}" for o in t]
            return "+".join(parts) if parts else "0"
        return " ".join(f"H{d}={show(r, t)}" for d, (r, t) in enumerate(self.groups))


class SteinObstructionReport(NamedTuple):
    conclusive: bool
    degree: Optional[int] = None
    rank_increase: int = 0
    detail: str = ""


def sum_cobordism(page) -> list[Handle]:
    """Handles of the Liouville-sum cobordism along a page of dimension 2n:
    each page k-handle becomes an ambient (k+1)-handle in dimension 2n+2."""
    if not page.handles:
        raise DomainError(f"page {page.name} has no handle decomposition")
    ambient_dim = 2 * page.half_dim + 2
    out = []
    for k, count in page.handles:
        for i in range(count):
            out.append(Handle(ambient_dim, k + 1,
                              provenance=f"page {k}-handle #{i + 1} of {page.name}"))
    return out


def euler_characteristic(base_chi: int, handles: Iterable[Handle]) -> int:
    """chi = base + sum (-1)^index over attached handles."""
    return base_chi + sum(1 if h.index % 2 == 0 else -1 for h in handles)


def stein_homology_check(handles: Sequence[Handle], n: int) -> ConditionReport:
    """Stein index bound: all handle indices <= n+1 in ambient dimension
    2n+2 (Weinstein), so H_k of the cobordism agrees with H_k of its
    positive boundary above degree n+1.  A handle of another ambient
    dimension is refused.  Margin is the worst slack (n+1 - index)."""
    for h in handles:
        if h.ambient_dim != 2 * n + 2:
            raise DomainError(
                f"handle ambient dim {h.ambient_dim}, expected {2 * n + 2}")
    margin = float(min(((n + 1) - h.index for h in handles), default=n + 1))
    return ConditionReport(margin > -0.5, margin, 0.5, len(handles))


def not_stein_certificate(t_dim: int, classes_equal: bool) -> SteinObstructionReport:
    """Homology obstruction for a Liouville sum along a hypersurface
    containing a (2n-1)-dimensional piece T hit by both embeddings, with
    t_dim = 2n-1 odd and >= 3 (so n >= 2).

    If the two embeddings carry the fundamental class of T to the same
    class, the resulting cobordism W gains a degree-2n class:
    H_{2n}(W) = H_{2n}(M) + Z, violating the Stein handle-index bound.
    """
    if t_dim % 2 == 0 or t_dim < 3:
        raise DomainError(f"t_dim must be odd and >= 3, got {t_dim}")
    n = (t_dim + 1) // 2
    if not classes_equal:
        return SteinObstructionReport(False, detail="i1[T] != i2[T]: no claim")
    degree = 2 * n
    return SteinObstructionReport(
        True, degree=degree, rank_increase=1,
        detail=(f"H_{degree}(W) = H_{degree}(M) + Z exceeds the rank allowed "
                f"by the Stein index bound (indices <= {n + 1})"))


def gysin_sphere_bundle_homology(n: int) -> HomologyProfile:
    """Integral homology of S*S^{n+1} (unit cotangent bundle of S^{n+1}).

    Gysin sequence of S^n -> S*S^{n+1} -> S^{n+1} with Euler number
    chi(S^{n+1}): 2 for n odd, 0 for n even.  The only interesting map is
    H^0(S^{n+1}) --(cup Euler class)--> H^{n+1}(S^{n+1}):

      * n odd (Euler number 2): multiplication by 2 is injective with
        cokernel Z/2, so H_n = Z/2 and the bundle has the rational homology
        of S^{2n+1};
      * n even (Euler number 0): the sequence splits and the ranks are
        those of S^n x S^{n+1}.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    dim = 2 * n + 1
    groups: list[tuple[int, tuple[int, ...]]] = [(0, ()) for _ in range(dim + 1)]
    groups[0] = (1, ())
    groups[dim] = (1, ())
    if n % 2 == 1:
        rank, tors = groups[n]
        groups[n] = (rank, tors + (2,))
    else:
        groups[n] = (groups[n][0] + 1, groups[n][1])
        groups[n + 1] = (groups[n + 1][0] + 1, groups[n + 1][1])
    return HomologyProfile(tuple(groups))


# Adams: fibrations S^{2d-1} -> S^d with Hopf invariant one exist exactly
# for these d.  Consumed as a fact table, not recomputed.
HOPF_INVARIANT_ONE_DIMS = frozenset({1, 2, 4, 8})


def hopf_invariant_one_exists(d: int) -> bool:
    if d < 1:
        raise DomainError("dimension must be positive")
    return d in HOPF_INVARIANT_ONE_DIMS


def twist_square_smoothly_trivial(n: int) -> bool:
    """Whether the square of the generalized Dehn twist on D*S^n is smoothly
    isotopic to the identity rel boundary: exactly n in {2, 6}.

    Cross-checked against the homotopy-classification criterion: for odd n
    the Z/2 in H_n(S*S^{n+1}) obstructs it, and for even n it holds iff
    S*S^{n+1} is homotopy equivalent to S^n x S^{n+1}, that is iff S^{n+1}
    is parallelizable, which by Adams happens iff n + 2 is in {1, 2, 4, 8}.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    direct = n in (2, 6)
    cross = n % 2 == 0 and hopf_invariant_one_exists(n + 2)
    if direct != cross:
        raise DomainError(f"classification tables disagree at n={n}")
    return direct


def self_linking_liouville(chi: int) -> int:
    """Self-linking number of the transverse boundary of a Liouville
    surface: sl = -chi."""
    return -chi
