"""The table builders that writing each Cayley table at its final size
replaced, kept as the tests' oracle.

`central_product_by_quotient` forms the direct product A x B and divides it
by <(z_A, z_B)> with `subgroup_from_elements` and `quotient_group`;
`extraspecial_by_quotient` chains it as `groups._build_extraspecial` does.
`elemab_by_digit_sums` adds the base-p digits of every pair of elements at
once, through a (p^n, p^n, n) array.
"""

from __future__ import annotations

import numpy as np

from mckaygraphs.groups import (
    FiniteGroup,
    _build_bindihedral,
    _build_cyclic,
    _build_dihedral,
    _digits,
    build_product,
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
    assert sub.order == 2 and sub.normal
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
    elems = [tuple(v) for v in digits.tolist()]
    weights = np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    return FiniteGroup(
        order=p**n,
        mul=(summed @ weights).astype(np.int32),
        inv=((-digits) % p @ weights).astype(np.int32),
        carrier=f"elemab:{p}:{n}",
        element_names=[str(v) for v in elems],
        payload=elems,
    )
