"""Group specs made into groups.  `build_group` dispatches a spec to its
carrier builder in `groups`; a semidirect spec gets its canonical action here,
on F_p^n through a normal subgroup read off the acting group's character table
(`chartable.normal_subgroups`), which is why this module sits above `chartable`.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

import numpy as np

from .chartable import compute_character_table, normal_subgroups
from .cyclotomic import _is_prime, _primitive_root
from .groups import (
    BinaryDihedral, BinaryPoly, Cyclic, Dihedral, ElemAb, Extraspecial2, FiniteGroup,
    GroupBuildError, GroupSpec, Heisenberg, InvalidAction, OrderCapExceeded, Product, Semidirect,
    Subgroup, _build_binary, _build_bindihedral, _build_cyclic, _build_dihedral, _build_elemab,
    _build_extraspecial, _build_heisenberg, _digits, _group_embedding, abelian_homs, build_product,
    build_semidirect, commutator_subgroup, conjugacy, expanded_order, order_cap, quotient_group,
    spec_text,
)


# ---------------------------------------------------------------------------
# canonical semidirect actions


def _surjection_onto_cyclic(g: FiniteGroup, m: int, sub: Optional[Subgroup]) -> np.ndarray:
    """Values in Z_m of the lexicographically least surjective homomorphism
    G -> Z_m through G/sub, or through G/G' when no kernel sub is given.  A
    designated G/sub must be abelian of order m, so that sub is the kernel."""
    if sub is not None and not sub.normal:
        raise InvalidAction("designated kernel subgroup is not normal")
    q, proj = quotient_group(g, commutator_subgroup(g, conjugacy(g)) if sub is None else sub)
    if sub is not None and (q.order != m or not q.is_abelian()):
        raise InvalidAction(f"quotient has order {q.order}, expected an abelian group of order {m}")
    homs = abelian_homs(q, m)
    onto = homs[np.gcd(np.gcd.reduce(homs, axis=1), m) == 1]
    if not len(onto):
        raise InvalidAction(f"no surjection of {g.carrier} onto a cyclic group of order {m}")
    return onto[np.lexsort(onto.T[::-1])[0]][proj]


def derive_cyclic_action(
    g: FiniteGroup, p: int, sub: Optional[Subgroup] = None
) -> list[np.ndarray]:
    """Action of G on C_p through a surjection G -> F_p^x (kernel sub if given)."""
    chi = _surjection_onto_cyclic(g, p - 1, sub)
    root = _primitive_root(p)
    idx = np.arange(p, dtype=np.int64)
    action = []
    for x in range(g.order):
        u = pow(root, int(chi[x]), p)
        action.append(((u * idx) % p).astype(np.int32))
    return action


# GL_4(F_2) is listed from 2^16 matrices.  Under the default order cap a
# transitive action on F_p^n needs (p^n - 1) p^n <= 1024, so p^n <= 32, and
# only F_2^5 (2^25 matrices, acted on by C_31) goes over the bound.
_GL_LISTING_BOUND = 2**16


def _gl_permutations(p: int, n: int) -> np.ndarray:
    """Every invertible n x n matrix over F_p, in row-major lexicographic
    order, as the permutation it induces on the lexicographic vectors of
    F_p^n.  Matrix i has the rows with the base-p^n digits of i as vector
    indices, so one product of every row with every vector maps the vectors
    by all p^(n^2) matrices.  A matrix is invertible exactly when no nonzero
    vector maps to 0."""
    if p ** (n * n) > _GL_LISTING_BOUND:
        raise InvalidAction(
            f"listing GL_{n}(F_{p}) takes {p ** (n * n)} matrices,"
            f" over the bound {_GL_LISTING_BOUND}"
        )
    vecs = _digits(p, n)
    row_times_vec = (vecs @ vecs.T % p).astype(np.int32)
    rows = _digits(p**n, n)
    perms = np.zeros((len(rows), p**n), dtype=np.int32)
    for r in range(n):
        perms = perms * p + row_times_vec[rows[:, r]]
    return perms[np.all(perms[:, 1:] != 0, axis=1)]


def _permutation_orders(perms: np.ndarray) -> np.ndarray:
    """Order of every row permutation, from one sweep y <- y x over all rows
    at once."""
    orders = np.empty(len(perms), dtype=np.int64)
    rows, ident = np.arange(len(perms)), np.arange(perms.shape[1])
    y, k = perms, 1
    while rows.size:
        done = np.all(y == ident, axis=1)
        orders[rows[done]] = k
        rows, y = rows[~done], y[~done]
        y, k = np.take_along_axis(y, perms[rows], axis=1), k + 1
    return orders


def derive_elemab_action(
    g: FiniteGroup, p: int, n: int, sub: Optional[Subgroup] = None
) -> list[np.ndarray]:
    """Action of G on F_p^n via a quotient embedded in GL_n(F_p), transitive on
    the nonzero vectors."""
    # orbit-stabilizer: a transitive quotient has order divisible by the orbit
    quotient = g.order // (1 if sub is None else sub.order)
    if quotient % (p**n - 1):
        raise InvalidAction(
            f"{g.carrier} cannot act transitively on the {p**n - 1} nonzero vectors"
            f" of F_{p}^{n}: {p**n - 1} does not divide {quotient}"
        )
    gl = _gl_permutations(p, n)
    orders = _permutation_orders(gl)
    index = {perm.tobytes(): i for i, perm in enumerate(gl)}
    ident = index[np.arange(p**n, dtype=gl.dtype).tobytes()]
    if sub is not None:
        candidates = [sub]
    else:
        # |G/N| divides both |G| and |GL_n(F_p)|, so |N| >= |G| / gcd(|G|, |GL_n(F_p)|)
        found = normal_subgroups(compute_character_table(g), g.order // gcd(g.order, len(gl)))
        candidates = sorted(found, key=lambda s: (-s.order, s.elements))
    for h in candidates:
        q, coset_of = quotient_group(g, h)
        # an embedding has order dividing |GL|, and a transitive one order divisible by p^n - 1
        if len(gl) % q.order or q.order % (p**n - 1):
            continue
        emb = _group_embedding(
            q,
            lambda o: np.flatnonzero(orders == o).tolist(),
            lambda i, j: index[gl[i][gl[j]].tobytes()],
            ident,
        )
        if emb is None:
            continue
        images = gl[emb]
        reached = np.zeros(p**n, dtype=bool)
        reached[images[:, 1]] = True
        if np.count_nonzero(reached) == p**n - 1:  # vector 1 reaches every nonzero vector
            return [images[c] for c in coset_of]
    raise InvalidAction(
        f"no transitive action of {g.carrier} on the nonzero vectors of F_{p}^{n}"
    )


def _derive_action(g: FiniteGroup, kspec: GroupSpec, k: FiniteGroup) -> list[np.ndarray]:
    if isinstance(kspec, Cyclic):
        p = kspec.n
        if not _is_prime(p):
            raise InvalidAction("canonical actions exist only for prime cyclic kernels")
        return derive_cyclic_action(g, p)
    if isinstance(kspec, ElemAb):
        return derive_elemab_action(g, kspec.p, kspec.n)
    raise InvalidAction(f"no canonical action on kernel {spec_text(kspec)}")


# ---------------------------------------------------------------------------
# the entry point


# An int32 Cayley table takes 4 n^2 bytes.  The bound admits n <= 4096, whose
# character table needs about 1.5 GB if cyclic, by a scaled estimate.
_CAYLEY_TABLE_BOUND = 2**26


def build_group(spec: GroupSpec, cap: Optional[int] = None) -> FiniteGroup:
    cap = order_cap() if cap is None else cap
    n = expanded_order(spec)
    if n > cap:
        raise OrderCapExceeded(f"{spec_text(spec)} has order {n} > cap {cap}")
    if (size := 4 * n * n) > _CAYLEY_TABLE_BOUND:
        raise OrderCapExceeded(f"{spec_text(spec)} needs a {size}-byte Cayley table > {_CAYLEY_TABLE_BOUND}")
    g = _dispatch(spec)
    g.validate()
    return g


def _dispatch(spec: GroupSpec) -> FiniteGroup:
    if isinstance(spec, Cyclic):
        return _build_cyclic(spec.n)
    if isinstance(spec, (Dihedral, BinaryDihedral)) and spec.n < 2:
        raise GroupBuildError(f"{spec_text(spec)} needs n >= 2")
    if isinstance(spec, Dihedral):
        return _build_dihedral(spec.n)
    if isinstance(spec, BinaryDihedral):
        return _build_bindihedral(spec.n)
    if isinstance(spec, BinaryPoly):
        return _build_binary(spec.kind)
    if isinstance(spec, Extraspecial2):
        if spec.variant not in ("+", "-"):
            raise GroupBuildError(f"{spec_text(spec)} needs the variant + or -")
        return _build_extraspecial(spec.n, spec.variant)
    if isinstance(spec, (Heisenberg, ElemAb)) and not _is_prime(spec.p):
        raise GroupBuildError(f"{spec_text(spec)} needs a prime p, got {spec.p}")
    if isinstance(spec, Heisenberg):
        return _build_heisenberg(spec.p, spec.n)
    if isinstance(spec, ElemAb):
        return _build_elemab(spec.p, spec.n)
    if isinstance(spec, Product):
        a = _dispatch(spec.left)
        b = _dispatch(spec.right)
        return build_product(a, b, carrier=spec_text(spec))
    if isinstance(spec, Semidirect):
        g = _dispatch(spec.group)
        k = _dispatch(spec.kernel)
        return build_semidirect(g, k, _derive_action(g, spec.kernel, k), carrier=spec_text(spec))
    raise TypeError(f"not a group spec: {spec!r}")
