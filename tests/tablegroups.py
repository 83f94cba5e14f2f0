"""Element-level group routines that faster or table-based ones replaced,
kept as the tests' oracles.

`central_product_by_quotient` forms the direct product A x B and divides it
by <(z_A, z_B)> with `subgroup_from_elements` and `quotient_group`;
`extraspecial_by_quotient` chains it as `groups._build_extraspecial` does.
`elemab_by_digit_sums` adds the base-p digits of every pair of elements at
once, through a (p^n, p^n, n) array.  `normal_subgroups_by_joins` finds the
normal subgroups from elements alone, where `chartable.normal_subgroups`
reads them off the character table.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from mckaygraphs.groups import (
    ConjugacyData,
    FiniteGroup,
    _build_bindihedral,
    _build_cyclic,
    _build_dihedral,
    _digits,
    build_product,
    induced_group,
    is_normal,
    quotient_group,
    subgroup_from_elements,
)


def central_product_by_quotient(a: FiniteGroup, b: FiniteGroup, carrier: str) -> FiniteGroup:
    def central_involution(grp: FiniteGroup) -> int:
        cands = [
            int(x)
            for x in np.flatnonzero(grp.element_orders == 2)
            if np.array_equal(grp.mul[:, x], grp.mul[x, :])
        ]
        assert len(cands) == 1, "factor must have center of order 2"
        return cands[0]

    za, zb = central_involution(a), central_involution(b)
    prod = build_product(a, b)
    sub = subgroup_from_elements(prod, [za * b.order + zb])
    assert len(sub) == 2 and is_normal(prod, sub)
    grp, _ = quotient_group(prod, sub)
    grp.carrier = carrier
    return grp


def extraspecial_by_quotient(n: int, variant: str) -> FiniteGroup:
    carrier = f"extraspecial:{variant}:{n}"
    if n == 0:
        grp = _build_cyclic(2)
    else:
        grp = _build_bindihedral(2) if variant == "-" else _build_dihedral(4)
        for _ in range(n - 1):
            grp = central_product_by_quotient(grp, _build_dihedral(4), carrier)
    grp.carrier = carrier
    return grp


def elemab_by_digit_sums(p: int, n: int) -> FiniteGroup:
    digits = _digits(p, n)
    weights = np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    return FiniteGroup(
        order=p**n,
        mul=(summed @ weights).astype(np.int32),
        inv=((-digits) % p @ weights).astype(np.int32),
        carrier=f"elemab:{p}:{n}",
        element_names=[str(tuple(v)) for v in digits.tolist()],
    )


def normal_subgroups_by_joins(g: FiniteGroup, cd: ConjugacyData, target_order: Optional[int] = None) -> list[np.ndarray]:
    """All normal subgroups (of one order, if given): the normal closures of
    single classes, closed under joins with them (Hulpke, "Computing normal
    subgroups", ISSAC 1998).  Normal subgroups A and B join to the set AB.
    Each is returned as its sorted element array."""
    closures = [subgroup_from_elements(g, cl) for cl in cd.classes]
    found = {c.tobytes(): c for c in closures}
    frontier = list(found.values())
    while frontier:
        joins = []
        for a in frontier:
            for b in closures:
                inside = np.zeros(g.order, dtype=bool)
                inside[g.mul[np.ix_(a, b)]] = True
                ab = np.flatnonzero(inside)
                if ab.tobytes() not in found:
                    found[ab.tobytes()] = ab
                    joins.append(ab)
        frontier = joins
    subs = [a for a in found.values() if target_order in (None, len(a))]
    assert all(is_normal(g, sub) for sub in subs)
    for sub in subs:
        induced_group(g, sub)  # closed, or the assert in it fails
    return sorted(subs, key=lambda s: (len(s), s.tolist()))
