"""The square-integrability classifier for monodromized sections at the corner.

A generator carrying t₁ⁿ¹t₂ⁿ² with weight-filtration levels (l₁, l₂) — l₁
against W(N₁), l₂ against the total filtration W(N₁+N₂) — is L² on the
region D_ε against the Poincaré-type metric iff

    (n₁ ≥ 1  or  l₁ ≤ -2·[1 ∈ J])  and  (n₂ ≥ 1  or  l₂-l₁ ≤ -2·[2 ∈ J])

where J records which dt_i/t_i factors the form carries.  On the mirror
region D′_ε the roles of the two directions swap.

The test is pure exponent bookkeeping on integers, so this module imports
no exact algebra; ``l2complex`` re-exports ``classify_l2``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class L2Verdict:
    """Outcome of the direction-by-direction integrability test."""

    component: frozenset[int]
    t_orders: tuple[int, int]
    weights: tuple[int, int]
    is_l2_d_eps: bool
    is_l2_d_eps_prime: bool
    is_l2: bool

    def to_json(self) -> dict:
        return {
            "component": sorted(self.component),
            "t_orders": list(self.t_orders),
            "weights": list(self.weights),
            "is_l2_d_eps": self.is_l2_d_eps,
            "is_l2_d_eps_prime": self.is_l2_d_eps_prime,
            "is_l2": self.is_l2,
        }


def directional(component: frozenset[int], n1: int, n2: int, l1: int, l2: int) -> bool:
    """The D_ε test: first direction reads l₁, second the offset l₂-l₁."""
    first = n1 >= 1 or l1 <= (-2 if 1 in component else 0)
    second = n2 >= 1 or l2 - l1 <= (-2 if 2 in component else 0)
    return first and second


def swap_component(component: frozenset[int]) -> frozenset[int]:
    """The component with the two directions exchanged."""
    return frozenset(3 - i for i in component)


def classify_l2(component, n1: int, n2: int, l1: int, l2: int) -> L2Verdict:
    """Decide square-integrability of t₁^{n₁}t₂^{n₂}·v on both regions.

    ``component`` is the subset of {1, 2} of dt_i/t_i factors carried by
    the form; ``(l1, l2)`` are the centered weight-filtration levels of v
    for the ordering of the region D_ε.  The D′_ε verdict applies the same
    test to the formally swapped input, and the global verdict is the
    conjunction.  Raises on negative t-orders.
    """
    J = frozenset(component)
    if not J <= {1, 2}:
        raise ValueError(f"component must be a subset of {{1, 2}}, got {sorted(J)}")
    if n1 < 0 or n2 < 0:
        raise ValueError(f"negative t-orders ({n1}, {n2})")
    d_eps = directional(J, n1, n2, l1, l2)
    d_eps_prime = directional(swap_component(J), n2, n1, l2, l1)
    return L2Verdict(
        component=J,
        t_orders=(n1, n2),
        weights=(l1, l2),
        is_l2_d_eps=d_eps,
        is_l2_d_eps_prime=d_eps_prime,
        is_l2=d_eps and d_eps_prime,
    )
